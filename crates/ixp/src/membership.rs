//! Scene generation: who peers where, and how.
//!
//! The generator assigns topology networks to IXPs with a gravity model
//! (heavy-tailed per-network peering propensity × geographic locality),
//! marks a per-IXP share of distant members as remote peers, and salts the
//! interfaces with the section 3.1 measurement pathologies at configurable
//! rates. Every structural target it aims for is an observable from the
//! paper:
//!
//! - membership sizes track Table 1 / Euro-IX member counts;
//! - the distribution of per-network IXP counts is majority-1 with a tail
//!   reaching well past ten (figure 4a);
//! - the three big European IXPs share many members while Terremark's
//!   mostly-Americas membership overlaps them in only a few dozen networks
//!   (figures 7 and 8);
//! - remote shares per IXP follow the dataset's `remote_share` knob (up to
//!   ~20%, zero at DIX-IE and CABASE — figure 3).

use crate::dataset::IxpMeta;
use crate::model::{
    Access, IxpInstance, IxpScene, ListingInfo, MemberInterface, ResponderProfile, MAX_IXPS,
    MAX_SLOTS,
};
use crate::provider::default_providers;
use rand::rngs::StdRng;
use rand::RngExt;
use rayon::prelude::*;
use rp_topology::{AsType, Topology};
use rp_types::dist::{coin, pareto, rank_desc};
use rp_types::geo::WORLD_CITIES;
use rp_types::{seed, IxpId, NetworkId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rates at which the generator injects the measurement pathologies each of
/// the paper's six filters exists to catch. Defaults are tuned so the
/// paper-scale campaign discards interfaces in the same proportions as the
/// paper's filter accounting (20 / 82 / 20 / 100 / 28 / 5 out of ~4,725
/// probed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathologyRates {
    /// Listed address with no device behind it (sample-size filter).
    pub absent: f64,
    /// Responder drops ICMP (sample-size filter).
    pub blackhole: f64,
    /// Initial-TTL change mid-campaign (TTL-switch filter).
    pub ttl_change: f64,
    /// Listed address actually one IP hop behind the fabric (TTL-match
    /// filter).
    pub extra_hop: f64,
    /// Persistently congested access port with heavy jitter (RTT-consistent
    /// filter).
    pub congested: f64,
    /// Elevated floor during the campaign's second half, breaking agreement
    /// between early-probing and late-probing LG servers (LG-consistent
    /// filter).
    pub late_epoch: f64,
    /// Address that no registry source maps to an ASN.
    pub unidentifiable: f64,
    /// Registry ASN mapping changes mid-campaign (ASN-change filter).
    pub asn_change: f64,
}

impl Default for PathologyRates {
    fn default() -> Self {
        PathologyRates {
            absent: 0.0025,
            blackhole: 0.0025,
            ttl_change: 0.017,
            extra_hop: 0.003,
            congested: 0.05,
            late_epoch: 0.004,
            unidentifiable: 0.27,
            asn_change: 0.0011,
        }
    }
}

/// Scene-generation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Master seed (independent of the topology seed).
    pub seed: u64,
    /// Scales every membership count; 1.0 reproduces paper-scale IXPs.
    pub scale: f64,
    /// Probability that a member holds a second interface in the same IXP
    /// subnet.
    pub second_interface_prob: f64,
    /// Multiplier on every IXP's `remote_share` (scenario knob; 1.0 keeps
    /// the dataset's per-IXP shares, 0.0 removes remote peering entirely).
    /// The effective share is clamped to 0.95 so memberships stay mixed.
    pub remote_share_scale: f64,
    /// Multiplier on remote-provider pseudowire propagation delay (scenario
    /// knob; >1.0 models longer layer-2 detours, <1.0 shorter ones).
    pub pseudowire_slack: f64,
    /// Pathology rates.
    pub rates: PathologyRates,
}

impl SceneConfig {
    /// Paper-scale scene.
    pub fn paper_scale(seed: u64) -> Self {
        SceneConfig {
            seed,
            scale: 1.0,
            second_interface_prob: 0.12,
            remote_share_scale: 1.0,
            pseudowire_slack: 1.0,
            rates: PathologyRates::default(),
        }
    }

    /// Reduced scene for tests (about a tenth of the memberships).
    pub fn test_scale(seed: u64) -> Self {
        SceneConfig {
            scale: 0.35,
            ..SceneConfig::paper_scale(seed)
        }
    }
}

/// Peering-propensity weight of a network: how eagerly it joins IXPs.
/// Heavy-tailed so a handful of networks (CDNs, global content, the big
/// eyeball aggregators, the largest transit providers) appear at most IXPs
/// while the majority join one or none — the figure 4a shape. The
/// `size_boost` terms put the address-space giants and the big-cone transit
/// providers at the exchanges, which is what lets a single large IXP make
/// most of the Internet's interfaces reachable via peering (figure 10).
fn propensity(
    topo: &Topology,
    net: NetworkId,
    max_space: f64,
    cone_bounds: &[u64],
    max_cone: f64,
    rng: &mut StdRng,
) -> f64 {
    let node = topo.node(net);
    let type_boost = match node.kind {
        AsType::Cdn => 10.0,
        AsType::Content => 1.0,
        AsType::Hosting => 1.3,
        AsType::Transit => 0.25,
        AsType::Access => 1.0,
        AsType::Tier1 => 1.2,
        AsType::Nren => 0.7,
        AsType::Enterprise => 0.08,
    };
    // The eyeball aggregators and other address-space giants are the
    // members that make one big IXP cover most of the Internet's interfaces
    // (figure 10); the *cone* coverage of transit members is deliberately
    // modest so the traffic coverage stays partial (figure 9). Prominence
    // couples membership with traffic volume: the networks that send the
    // most bytes are also the ones at the most exchanges.
    let space_boost = 1.0 + 600.0 * (node.address_space as f64 / max_space).powf(1.2);
    let cone_boost = match node.kind {
        AsType::Transit | AsType::Tier1 => {
            1.0 + 0.3 * (cone_bounds[net.index()] as f64 / max_cone).sqrt()
        }
        _ => 1.0,
    };
    // Threshold-like prominence effect: the handful of top content players
    // are at effectively every big exchange, while mid-tier networks mostly
    // stay home. This is what concentrates the offload potential at the big
    // hubs (one IXP captures ~2/3 of the total potential, figure 7) while
    // keeping the overall offloadable share of traffic partial (figure 9).
    let prominence_boost = 1.0 + 4_000.0 * (node.prominence / 3_000.0).powf(1.0);
    // A sizeable share of content infrastructure interconnects through
    // private interconnects and on-net deployments instead of public IXP
    // fabrics; such networks rarely appear in IXP member lists no matter
    // how large they are. This keeps the covered share of traffic partial
    // even though the very largest public peers sit at every hub.
    let pni_oriented =
        matches!(node.kind, AsType::Content | AsType::Cdn | AsType::Hosting) && coin(rng, 0.5);
    let pni_factor = if pni_oriented { 0.002 } else { 1.0 };
    type_boost
        * space_boost
        * cone_boost
        * prominence_boost
        * pni_factor
        * pareto(rng, 1.0, 2.5).min(8.0)
}

/// Gravity factor between a network's home city and an IXP city:
/// distance-decayed, so a Miami exchange draws Caribbean and northern
/// South-American members while Amsterdam draws the European core. The
/// IXP's `magnet` catchment (Terremark ↔ Latin America) adds on top.
fn locality(home: u16, meta: &IxpMeta, ixp_city: u16) -> f64 {
    if home == ixp_city {
        return 30.0;
    }
    let hc = WORLD_CITIES[home as usize];
    let ic = WORLD_CITIES[ixp_city as usize];
    let km = hc.location.distance_km(ic.location);
    let magnet = match meta.magnet {
        Some((continent, factor)) if hc.continent == continent => factor,
        _ => 1.0,
    };
    magnet * (1.0 + 11.0 * (-km / 1_500.0).exp())
}

/// [`locality`] for every (home city, IXP) pair, row-major by home city:
/// it depends on nothing else, so the assignment and fill loops look it up
/// instead of recomputing a haversine distance and an `exp` per candidate.
fn locality_table(metas: &[IxpMeta], ixp_cities: &[u16]) -> Vec<f64> {
    (0..WORLD_CITIES.len() as u16)
        .flat_map(|home| {
            metas
                .iter()
                .zip(ixp_cities)
                .map(move |(meta, &city)| locality(home, meta, city))
        })
        .collect()
}

/// Weighted sampling without replacement (Efraimidis–Spirakis): the
/// indices of the `m` largest keys `ln(u) / w` (the log of `u^(1/w)`),
/// best first, ties to the lower index.
///
/// One streaming pass: every positive weight draws exactly one `u`, in
/// index order, whether or not it wins, so the caller's `rng` ends in the
/// same state as it would after keying every weight. The current winners
/// sit in a bounded heap with the worst on top. Since `ln u ≤ u − 1`, the
/// cheap bound `(u − 1) / w` caps the key from above; the exact `ln` is
/// taken only when that bound could still beat the worst winner.
fn weighted_sample(
    rng: &mut StdRng,
    weights: impl IntoIterator<Item = f64>,
    m: usize,
) -> Vec<usize> {
    // Pulls the bound's numerator toward zero by far more than `ln`'s
    // rounding error, so `(u − 1) · slack` stays at or above the rounded
    // `ln u` and a true winner is never skipped. Division by the same
    // positive `w` keeps that order.
    const BOUND_SLACK: f64 = 1.0 - 1e-9;
    let mut top: BinaryHeap<Keyed> = BinaryHeap::new();
    for (i, w) in weights.into_iter().enumerate().filter(|(_, w)| *w > 0.0) {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if top.len() < m {
            top.push(Keyed(u.ln() / w, i));
            continue;
        }
        let Some(mut worst) = top.peek_mut() else {
            continue; // m == 0: draw, keep nothing
        };
        // A tie with the worst winner goes to its lower index, so only a
        // strictly larger key gets in.
        if (u - 1.0) * BOUND_SLACK / w <= worst.0 {
            continue;
        }
        let key = u.ln() / w;
        if key > worst.0 {
            *worst = Keyed(key, i);
        }
    }
    top.into_sorted_vec().into_iter().map(|k| k.1).collect()
}

/// A sampled `(key, index)`, ordered worst first: a smaller key, or an
/// equal key at a higher index, compares greater, so a max-heap keeps the
/// worst of the current winners on top and a sorted list is best first.
/// Keys are `ln(u) / w` with `u > 0` and `w > 0`, never NaN.
struct Keyed(f64, usize);

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .expect("keys are never NaN")
            .then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Keyed {}

/// Indices of the `m` largest keys of `keyed` (given in ascending index
/// order), best first, ties to the lower index. That total order (key
/// descending, index ascending) is exactly what a stable descending sort of
/// index-ordered input produces, so selecting the top `m` and sorting only
/// them returns the same list as sorting everything and truncating.
fn top_m(mut keyed: Vec<(f64, usize)>, m: usize) -> Vec<usize> {
    let order = |a: &(f64, usize), b: &(f64, usize)| {
        b.0.partial_cmp(&a.0)
            .expect("keys are finite")
            .then(a.1.cmp(&b.1))
    };
    let m = m.min(keyed.len());
    if m == 0 {
        return Vec::new();
    }
    if m < keyed.len() {
        keyed.select_nth_unstable_by(m - 1, order);
        keyed.truncate(m);
    }
    keyed.sort_unstable_by(order);
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn city_index(name: &str) -> u16 {
    WORLD_CITIES
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown city {name}")) as u16
}

/// Can this network plausibly peer remotely? Networks that run global
/// infrastructure footprints (tier-1s, CDNs, transit) extend their own
/// networks instead (section 5: such networks "can afford extending their
/// own infrastructures to peer directly at distant IXPs").
fn remote_eligible(kind: AsType) -> bool {
    !matches!(kind, AsType::Tier1 | AsType::Cdn | AsType::Transit)
}

/// Build the scene: memberships, attachments, pathologies.
pub fn build_scene(topo: &Topology, metas: &[IxpMeta], cfg: &SceneConfig) -> IxpScene {
    let _sp = rp_obs::span("ixp.build_scene");
    assert!(
        metas.len() <= MAX_IXPS as usize,
        "{} IXPs are past the {MAX_IXPS}-IXP subnet plan",
        metas.len()
    );
    let providers = default_providers();
    let n = topo.len();
    let assign_span = rp_obs::span("ixp.scene.assign");

    // Per-network propensity, drawn once so the same heavy hitters recur
    // across IXPs (that correlation is what creates membership overlap).
    let mut prop_rng = seed::rng(cfg.seed, "propensity", 0);
    let cone_bounds = rp_topology::cone::cone_size_upper_bounds(topo);
    let max_space = topo
        .ases
        .iter()
        .map(|a| a.address_space)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let max_cone = cone_bounds.iter().copied().max().unwrap_or(1).max(1) as f64;
    let propensities: Vec<f64> = topo
        .ids()
        .map(|id| propensity(topo, id, max_space, &cone_bounds, max_cone, &mut prop_rng))
        .collect();
    // --- Membership assignment: gravity with capacity. --------------------
    //
    // Each network receives a membership quota k proportional to its
    // propensity (most networks get 0 or 1; the heavy hitters get dozens)
    // and fills it with its best-preference IXPs — preference being
    // locality × exchange size. This produces the structure the paper's
    // section 4 results rest on: the traffic-heavy European networks sit at
    // *all* the big European exchanges (so realizing AMS-IX first leaves
    // little at LINX, figure 8), the Latin-American carriers cluster at
    // the Americas exchanges (the Terremark effect), and only the global
    // elite appears on both sides of the Atlantic (the ~50 members
    // Terremark shares with the trio).
    let m_targets: Vec<usize> = metas
        .iter()
        .map(|m| ((m.paper_members as f64) * cfg.scale).round().max(2.0) as usize)
        .collect();
    let quota_total: usize = m_targets.iter().sum();
    let ixp_cities: Vec<u16> = metas.iter().map(|m| city_index(m.city)).collect();
    let localities = locality_table(metas, &ixp_cities);
    let locality_of =
        |net: usize, x: usize| localities[topo.ases[net].home_city as usize * metas.len() + x];

    let ixp_order: Vec<usize> = (0..metas.len()).collect();
    let mut members_per_ixp: Vec<Vec<usize>> = vec![Vec::new(); metas.len()];
    {
        let mut assign_rng = seed::rng(cfg.seed, "assign", 0);
        let sum_w: f64 = propensities.iter().sum();
        // Process networks in descending propensity so the heavyweights
        // claim the big exchanges before capacity runs out.
        let order = rank_desc(&propensities);
        let mut capacity = m_targets.clone();
        // Bigger exchanges attract members disproportionately (joining
        // AMS-IX unlocks far more peers than a 40-member national IX).
        let size_factor: Vec<f64> = m_targets.iter().map(|m| (*m as f64).powf(0.7)).collect();
        for &net_idx in &order {
            let raw = quota_total as f64 * propensities[net_idx] / sum_w;
            let mut k = raw.floor() as usize;
            if coin(&mut assign_rng, raw.fract()) {
                k += 1;
            }
            let k = k.min(metas.len());
            if k == 0 {
                continue;
            }
            let scored: Vec<(f64, usize)> = (0..metas.len())
                .filter(|&x| capacity[x] > 0)
                .map(|x| {
                    let noise = 0.7 + 0.6 * assign_rng.random::<f64>();
                    (locality_of(net_idx, x) * size_factor[x] * noise, x)
                })
                .collect();
            for x in top_m(scored, k) {
                members_per_ixp[x].push(net_idx);
                capacity[x] -= 1;
            }
        }
        drop(assign_span);

        // Quota capping (a network can join at most every IXP once) leaves
        // some capacity unclaimed; fill it with gravity-sampled locals so
        // membership counts land on the Table 1 / Euro-IX targets. Each
        // IXP's fill reads only its own row and draws from its own
        // `"assign-fill"` stream, so the fills run in parallel and are
        // appended in IXP order: the result is the serial loop's at any
        // thread count. Current members weigh zero: a sorted copy of the
        // row is walked alongside the networks.
        let _fill = rp_obs::span("ixp.scene.fill");
        let fills: Vec<Vec<usize>> = ixp_order
            .par_iter()
            .map(|&x| {
                if capacity[x] == 0 {
                    return Vec::new();
                }
                let mut taken = members_per_ixp[x].clone();
                taken.sort_unstable();
                let mut taken = taken.into_iter().peekable();
                let weights = (0..n).map(|i| {
                    if taken.next_if_eq(&i).is_some() {
                        0.0
                    } else {
                        propensities[i] * locality_of(i, x)
                    }
                });
                let mut fill_rng = seed::rng(cfg.seed, "assign-fill", x as u64);
                weighted_sample(&mut fill_rng, weights, capacity[x])
            })
            .collect();
        for (members, fill) in members_per_ixp.iter_mut().zip(fills) {
            members.extend(fill);
        }
    }

    // --- Materialization. Each IXP draws only from its own
    // `("ixp-members", idx)` stream, so the instances are built as a rayon
    // map collected in IXP order, the serial result at any width.
    let _materialize = rp_obs::span("ixp.scene.materialize");
    let ixps: Vec<_> = ixp_order
        .par_iter()
        .map(|&ixp_idx| {
            let meta = &metas[ixp_idx];
            let id = IxpId(ixp_idx as u32);
            let mut rng = seed::rng(cfg.seed, "ixp-members", ixp_idx as u64);
            let ixp_city = ixp_cities[ixp_idx];
            let ixp_loc = WORLD_CITIES[ixp_city as usize].location;

            let mut chosen = members_per_ixp[ixp_idx].clone();
            chosen.sort_unstable();
            chosen.dedup();

            // --- Decide who peers remotely: distant, remote-eligible members,
            // up to the IXP's remote share.
            let distant: Vec<usize> = chosen
                .iter()
                .copied()
                .filter(|&i| {
                    let node = topo.node(NetworkId(i as u32));
                    node.home_city != ixp_city && remote_eligible(node.kind)
                })
                .collect();
            let effective_share = (meta.remote_share * cfg.remote_share_scale).min(0.95);
            let remote_target = ((chosen.len() as f64) * effective_share).round() as usize;
            let mut remote: std::collections::HashSet<usize> = std::collections::HashSet::new();
            {
                // Uniform choice among the distant candidates.
                let take = remote_target.min(distant.len());
                let uniform = std::iter::repeat(1.0).take(distant.len());
                for k in weighted_sample(&mut rng, uniform, take) {
                    remote.insert(distant[k]);
                }
            }

            // --- Secondary site membership.
            let sites: Vec<u16> = match meta.secondary_site {
                Some((c2, _)) => vec![ixp_city, city_index(c2)],
                None => vec![ixp_city],
            };
            let site2_share = meta.secondary_site.map(|(_, s)| s).unwrap_or(0.0);

            // --- Plan interfaces per member. At studied IXPs the number of
            // *listed* (probeable) interfaces targets the Table 1 analyzed count
            // plus the expected filter-discard margin; registries cover only
            // part of some memberships and list several addresses for others.
            let iface_target = meta
                .paper_analyzed
                .map(|a| ((a as f64) * 1.06 * cfg.scale).round().max(2.0) as usize);
            let plan: Vec<(usize, u32, u32)> = match iface_target {
                Some(target) => {
                    let covered = chosen.len().min(target);
                    let mut extra = target.saturating_sub(covered);
                    let mut plan: Vec<(usize, u32, u32)> = chosen
                        .iter()
                        .enumerate()
                        .map(|(k, &net_idx)| {
                            if k < covered {
                                // Covered member: 1 listed interface, plus a
                                // chance of more while the target allows.
                                let mut listed = 1u32;
                                while extra > 0 && coin(&mut rng, cfg.second_interface_prob) {
                                    listed += 1;
                                    extra -= 1;
                                }
                                (net_idx, listed, 0u32)
                            } else {
                                // Registry-invisible member.
                                (net_idx, 0u32, 1u32)
                            }
                        })
                        .collect();
                    // Registries at interface-rich IXPs (e.g. NYIIX: 132
                    // members, 239 analyzed interfaces) list several addresses
                    // per member; distribute the remaining budget round-robin.
                    let mut k = 0usize;
                    while extra > 0 && covered > 0 {
                        plan[k % covered].1 += 1;
                        extra -= 1;
                        k += 1;
                    }
                    plan
                }
                None => chosen
                    .iter()
                    .map(|&net_idx| {
                        let n = if coin(&mut rng, cfg.second_interface_prob) {
                            2
                        } else {
                            1
                        };
                        (net_idx, 0u32, n)
                    })
                    .collect(),
            };

            // Every planned interface, phantoms included, needs a subnet slot.
            let planned: usize = plan.iter().map(|&(_, l, u)| (l + u) as usize).sum();
            let phantoms = if iface_target.is_some() {
                ((planned as f64) * cfg.rates.absent).round() as usize
            } else {
                0
            };
            assert!(
                planned + phantoms <= MAX_SLOTS as usize,
                "IXP {} plans {} interfaces (listed + unlisted + phantoms), past the \
             {MAX_SLOTS}-slot per-IXP address plan",
                meta.acronym,
                planned + phantoms
            );

            // --- Materialize interfaces.
            let mut members: Vec<MemberInterface> = Vec::new();
            let mut slot = 0u32;
            for &(net_idx, n_listed, n_unlisted) in &plan {
                let net = NetworkId(net_idx as u32);
                let is_remote = remote.contains(&net_idx);
                let site = if coin(&mut rng, site2_share) {
                    1u8
                } else {
                    0u8
                };
                for iface_k in 0..(n_listed + n_unlisted) {
                    let listed = iface_k < n_listed;
                    let access = if is_remote {
                        let origin_city = topo.node(net).home_city;
                        let origin = WORLD_CITIES[origin_city as usize].location;
                        // Prefer the provider with the shortest pseudowire, but
                        // not always — contracts are sticky.
                        let delays: Vec<f64> = providers
                            .iter()
                            .map(|p| p.pseudowire_delay_ms(origin, ixp_loc))
                            .collect();
                        let best = delays
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                            .map(|(i, _)| i)
                            .expect("providers exist");
                        let provider = if coin(&mut rng, 0.7) {
                            best
                        } else {
                            rng.random_range(0..providers.len())
                        };
                        Access::Remote {
                            provider: provider as u8,
                            origin_city,
                            access_delay_ms: 0.1 + rng.random::<f64>() * 0.5,
                            site,
                        }
                    } else {
                        Access::Direct {
                            colo_delay_ms: 0.15 + rng.random::<f64>() * 0.85,
                            site,
                        }
                    };
                    let rates = &cfg.rates;
                    // 64 and 255 dominate; 128 and 32 are the "relatively
                    // infrequent" alternatives the TTL-match filter rejects.
                    let initial_ttl = {
                        let u: f64 = rng.random();
                        if u < 0.525 {
                            64
                        } else if u < 0.999 {
                            255
                        } else if u < 0.9997 {
                            128
                        } else {
                            32
                        }
                    };
                    // Congestion is only injected at main-site ports: a
                    // secondary-site member's inter-site span plus a busy epoch
                    // could cross the 10 ms threshold, and the paper's manual
                    // checks found no direct peer above it.
                    let congested = site == 0 && coin(&mut rng, rates.congested);
                    let profile = ResponderProfile {
                        initial_ttl,
                        ttl_change: if coin(&mut rng, rates.ttl_change) {
                            let frac = 0.2 + rng.random::<f64>() * 0.6;
                            let new_ttl = if initial_ttl == 64 { 255 } else { 64 };
                            Some((frac, new_ttl))
                        } else {
                            None
                        },
                        blackhole: coin(&mut rng, rates.blackhole),
                        extra_hop: coin(&mut rng, rates.extra_hop),
                        absent: false,
                        // Congested-port model: ICMP control-plane policing.
                        // Most replies take a slow path whose bounded delay
                        // (at most this many ms — low enough that even the
                        // worst-case minimum stays under the 10 ms threshold
                        // for a direct member) scatters RTTs away from the
                        // occasional fast-path floor, and many requests are
                        // dropped outright. The RTT-consistent filter rejects
                        // exactly this signature.
                        congested_extra_ms: if congested {
                            6.3 + rng.random::<f64>() * 1.2
                        } else {
                            0.0
                        },
                        congested_drop: if congested {
                            0.3 + rng.random::<f64>() * 0.15
                        } else {
                            0.0
                        },
                    };
                    let listing = ListingInfo {
                        listed,
                        identifiable: !coin(&mut rng, rates.unidentifiable),
                        asn_change: coin(&mut rng, rates.asn_change),
                    };
                    members.push(MemberInterface {
                        network: net,
                        ip: IxpInstance::ip_for_slot(id, slot),
                        access,
                        profile,
                        listing,
                    });
                    slot += 1;
                }
            }

            // --- Phantom listings: addresses present in registries with no
            // device behind them (stale website data). Only studied IXPs have
            // registries worth salting.
            for _ in 0..phantoms {
                let donor = members[rng.random_range(0..members.len())];
                members.push(MemberInterface {
                    network: donor.network,
                    ip: IxpInstance::ip_for_slot(id, slot),
                    access: donor.access,
                    profile: ResponderProfile {
                        absent: true,
                        ..ResponderProfile::default()
                    },
                    listing: ListingInfo {
                        listed: true,
                        identifiable: false,
                        asn_change: false,
                    },
                });
                slot += 1;
            }

            std::sync::Arc::new(IxpInstance {
                id,
                meta: meta.clone(),
                sites,
                members,
            })
        })
        .collect();

    IxpScene { ixps, providers }
}

/// Scene-side late-epoch delay constant range, exposed so the campaign and
/// tests agree on what "elevated floor" means (one-way ms added in the
/// second half of the campaign for interfaces flagged by `late_epoch`).
pub const LATE_EPOCH_EXTRA_MS: (f64, f64) = (5.5, 8.0);

/// Sample the late-epoch flag + magnitude for an interface, deterministic in
/// the scene seed and interface identity. Kept separate from
/// [`ResponderProfile`] generation because it is a *link* property of the
/// campaign window, not of the device.
pub fn late_epoch_extra_ms(cfg: &SceneConfig, ixp: IxpId, slot: u32) -> f64 {
    let mut rng = seed::rng2(cfg.seed, "late-epoch", ixp.0 as u64, slot as u64);
    if coin(&mut rng, cfg.rates.late_epoch) {
        LATE_EPOCH_EXTRA_MS.0
            + rng.random::<f64>() * (LATE_EPOCH_EXTRA_MS.1 - LATE_EPOCH_EXTRA_MS.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{euro_ix_65, STUDIED_22};
    use rp_topology::{generate, TopologyConfig};

    fn small_world() -> (Topology, IxpScene) {
        let topo = generate(&TopologyConfig::test_scale(31));
        let scene = build_scene(&topo, STUDIED_22, &SceneConfig::test_scale(32));
        (topo, scene)
    }

    #[test]
    fn scene_is_deterministic() {
        let topo = generate(&TopologyConfig::test_scale(31));
        let a = build_scene(&topo, STUDIED_22, &SceneConfig::test_scale(32));
        let b = build_scene(&topo, STUDIED_22, &SceneConfig::test_scale(32));
        for (x, y) in a.ixps.iter().zip(&b.ixps) {
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn membership_sizes_track_targets() {
        let (_, scene) = small_world();
        for ixp in &scene.ixps {
            let target = (ixp.meta.paper_members as f64 * 0.35).round() as usize;
            let got = ixp.member_networks();
            assert!(
                got as f64 >= target as f64 * 0.8 && got <= target + 2,
                "{}: {} vs target {}",
                ixp.meta.acronym,
                got,
                target
            );
        }
    }

    #[test]
    fn remote_shares_are_respected() {
        let (_, scene) = small_world();
        for ixp in &scene.ixps {
            let members = ixp.member_networks() as f64;
            let remote_nets: std::collections::HashSet<_> = ixp
                .members
                .iter()
                .filter(|m| m.access.is_remote())
                .map(|m| m.network)
                .collect();
            let share = remote_nets.len() as f64 / members;
            if ixp.meta.remote_share == 0.0 {
                assert_eq!(remote_nets.len(), 0, "{}", ixp.meta.acronym);
            } else {
                assert!(
                    share < ixp.meta.remote_share + 0.12,
                    "{}: share {share}",
                    ixp.meta.acronym
                );
            }
        }
        // Overall there must be a meaningful remote population.
        let total_remote: usize = scene.ixps.iter().map(|x| x.remote_interfaces()).sum();
        assert!(total_remote > 20, "{total_remote}");
    }

    #[test]
    fn remote_members_are_distant_and_eligible() {
        let (topo, scene) = small_world();
        for ixp in &scene.ixps {
            let ixp_city = city_index(ixp.meta.city);
            for m in ixp.members.iter().filter(|m| m.access.is_remote()) {
                let node = topo.node(m.network);
                assert_ne!(node.home_city, ixp_city, "remote member lives at the IXP");
                assert!(
                    remote_eligible(node.kind),
                    "{:?} peering remotely",
                    node.kind
                );
                if let Access::Remote { origin_city, .. } = m.access {
                    assert_eq!(origin_city, node.home_city);
                }
            }
        }
    }

    #[test]
    fn ixp_count_distribution_is_heavy_tailed() {
        let topo = generate(&TopologyConfig::paper_scale(33));
        let scene = build_scene(&topo, STUDIED_22, &SceneConfig::paper_scale(34));
        let mut counts = std::collections::HashMap::new();
        for ixp in &scene.ixps {
            for net in ixp.member_network_ids() {
                *counts.entry(net).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        let singletons = counts.values().filter(|c| **c == 1).count();
        assert!(max >= 10, "tail reaches {max} IXPs");
        assert!(
            singletons * 2 > counts.len(),
            "majority at one IXP: {singletons}/{}",
            counts.len()
        );
    }

    #[test]
    fn european_trio_overlaps_much_more_than_terremark() {
        let topo = generate(&TopologyConfig::paper_scale(33));
        let scene = build_scene(&topo, &euro_ix_65(), &SceneConfig::paper_scale(34));
        let members = |acr: &str| -> std::collections::HashSet<_> {
            scene
                .ixps
                .iter()
                .find(|x| x.meta.acronym == acr)
                .unwrap()
                .member_network_ids()
                .into_iter()
                .collect()
        };
        let ams = members("AMS-IX");
        let linx = members("LINX");
        let terremark = members("Terremark");
        let ams_linx = ams.intersection(&linx).count();
        let ams_tm = ams.intersection(&terremark).count();
        assert!(
            ams_linx as f64 > 2.0 * ams_tm as f64,
            "AMS∩LINX {ams_linx} vs AMS∩Terremark {ams_tm}"
        );
        // Terremark shares a few dozen members with the trio (the paper
        // reports ~50 of its 267) — mostly the global heavy hitters that
        // peer everywhere.
        assert!((15..=130).contains(&ams_tm), "{ams_tm}");
    }

    #[test]
    fn pathology_rates_land_near_targets() {
        let topo = generate(&TopologyConfig::paper_scale(33));
        let scene = build_scene(&topo, STUDIED_22, &SceneConfig::paper_scale(34));
        let total = scene.total_interfaces() as f64;
        let count = |f: &dyn Fn(&MemberInterface) -> bool| {
            scene
                .ixps
                .iter()
                .flat_map(|x| &x.members)
                .filter(|m| f(m))
                .count() as f64
        };
        let frac_blackhole = count(&|m| m.profile.blackhole) / total;
        let frac_ttl = count(&|m| m.profile.ttl_change.is_some()) / total;
        let frac_ident = count(&|m| m.listing.identifiable) / total;
        assert!((frac_blackhole - 0.002).abs() < 0.002, "{frac_blackhole}");
        assert!((frac_ttl - 0.017).abs() < 0.007, "{frac_ttl}");
        assert!((frac_ident - 0.73).abs() < 0.05, "{frac_ident}");
    }

    #[test]
    fn interfaces_have_unique_addresses() {
        let (_, scene) = small_world();
        for ixp in &scene.ixps {
            let mut ips: Vec<_> = ixp.members.iter().map(|m| m.ip).collect();
            let before = ips.len();
            ips.sort_unstable();
            ips.dedup();
            assert_eq!(before, ips.len(), "{}", ixp.meta.acronym);
        }
    }

    #[test]
    #[should_panic(expected = "past the 250-IXP subnet plan")]
    fn scenes_past_the_ixp_plan_are_rejected() {
        let topo = generate(&TopologyConfig::test_scale(31));
        let metas: Vec<IxpMeta> = STUDIED_22.iter().cycle().take(251).cloned().collect();
        build_scene(&topo, &metas, &SceneConfig::test_scale(32));
    }

    #[test]
    #[should_panic(expected = "past the 60000-slot per-IXP address plan")]
    fn ixps_past_the_slot_plan_are_rejected() {
        // 500× density plans ~10⁵ listed interfaces at the larger studied
        // IXPs; the build must stop before addressing any of them.
        let topo = generate(&TopologyConfig::test_scale(31));
        let cfg = SceneConfig {
            scale: 500.0,
            ..SceneConfig::test_scale(32)
        };
        build_scene(&topo, STUDIED_22, &cfg);
    }

    proptest::proptest! {
        #[test]
        fn top_m_matches_a_stable_full_sort(
            picks in proptest::collection::vec(0usize..5, 0..40),
            m in 0usize..45,
        ) {
            // Five distinct keys (both zeros included) force many ties.
            const KEYS: [f64; 5] = [-0.0, 0.0, -1.0, -2.5, -1e-300];
            let keyed: Vec<(f64, usize)> =
                picks.iter().enumerate().map(|(i, &k)| (KEYS[k], i)).collect();
            let mut reference = keyed.clone();
            reference.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            reference.truncate(m);
            let reference: Vec<usize> = reference.into_iter().map(|(_, i)| i).collect();
            proptest::prop_assert_eq!(top_m(keyed, m), reference);
        }
    }

    /// The sort-all sampler the streaming [`weighted_sample`] replaced:
    /// key every positive weight, stably sort all keys descending, keep
    /// the first `m`.
    fn sort_all_weighted_sample(rng: &mut StdRng, weights: &[f64], m: usize) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, w)| {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                (u.ln() / w, i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
        keyed.into_iter().take(m).map(|(_, i)| i).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn streaming_sample_matches_the_sort_all_sampler(
            picks in proptest::collection::vec((0usize..12, 0.0f64..10.0), 0..120),
            m in 0usize..130,
            seed in 0u64..1_000_000,
        ) {
            // Zero, negative and NaN weights are skipped without a draw;
            // subnormal, tiny, huge and infinite ones key to -inf, -0.0 or
            // in between. The palette repeats, so duplicates are common;
            // the last arms take a fresh weight from the range.
            const PALETTE: [f64; 10] = [
                0.0, -1.0, f64::NAN, 5e-324, 1e-300, 1e-9, 1.0, 1e300, f64::MAX, f64::INFINITY,
            ];
            let weights: Vec<f64> =
                picks.iter().map(|&(k, x)| PALETTE.get(k).copied().unwrap_or(x)).collect();
            let mut streamed = seed::rng(seed, "sampler", 0);
            let mut sorted = seed::rng(seed, "sampler", 0);
            let got = weighted_sample(&mut streamed, weights.iter().copied(), m);
            let want = sort_all_weighted_sample(&mut sorted, &weights, m);
            proptest::prop_assert_eq!(&got, &want, "weights {:?}, m {}", weights, m);
            // One draw per positive weight: the caller's stream continues
            // exactly where the sort-all sampler left it.
            proptest::prop_assert_eq!(streamed, sorted);
        }
    }

    #[test]
    fn streaming_sample_matches_the_sort_all_sampler_at_fill_size() {
        // A fill-sized input: thousands of close keys, so the bound test
        // skips most `ln` calls while the heap stays full.
        let weights: Vec<f64> = (0..20_000).map(|i| 1.0 + (i % 97) as f64 * 0.01).collect();
        for m in [1, 37, 500, 19_999, 20_000, 25_000] {
            let mut streamed = seed::rng(3, "sampler", m as u64);
            let mut sorted = seed::rng(3, "sampler", m as u64);
            assert_eq!(
                weighted_sample(&mut streamed, weights.iter().copied(), m),
                sort_all_weighted_sample(&mut sorted, &weights, m),
                "m {m}"
            );
            assert_eq!(streamed, sorted, "m {m}");
        }
    }

    #[test]
    fn late_epoch_is_deterministic_and_sparse() {
        let cfg = SceneConfig::paper_scale(9);
        let a = late_epoch_extra_ms(&cfg, IxpId(3), 17);
        let b = late_epoch_extra_ms(&cfg, IxpId(3), 17);
        assert_eq!(a, b);
        let hits = (0..2_000)
            .filter(|s| late_epoch_extra_ms(&cfg, IxpId(0), *s) > 0.0)
            .count();
        let frac = hits as f64 / 2_000.0;
        assert!((frac - cfg.rates.late_epoch).abs() < 0.012, "{frac}");
    }
}
