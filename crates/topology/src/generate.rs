//! Topology generation.
//!
//! The generator is deterministic in its config (seed included) and builds
//! the hierarchy top-down: tier-1 clique, then transit providers attaching
//! preferentially to the tier above, then stub networks. Every structural
//! knob maps to an observable the paper's evaluation depends on; see the
//! field docs on [`TopologyConfig`].

use crate::model::{AsNode, AsType, Edge, Org, PeeringPolicy, Relationship, Topology};
use rand::rngs::StdRng;
use rand::RngExt;
use rp_types::dist::{coin, log_normal, weighted_index, WeightTree};
use rp_types::geo::{Continent, WORLD_CITIES};
use rp_types::{seed, Asn, NetworkId, OrgId};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Size of the settlement-free tier-1 clique.
    pub n_tier1: usize,
    /// Regional / national transit providers.
    pub n_transit: usize,
    /// Eyeball networks.
    pub n_access: usize,
    /// Content originators.
    pub n_content: usize,
    /// CDNs.
    pub n_cdn: usize,
    /// Hosting providers.
    pub n_hosting: usize,
    /// Research and education networks.
    pub n_nren: usize,
    /// Enterprise stubs.
    pub n_enterprise: usize,
    /// Total IP interfaces across all ASes; the paper's figure 10 starts
    /// from ≈2.6 billion interfaces reachable through the transit hierarchy.
    pub total_address_space: u64,
    /// Fraction of organizations owning more than one ASN.
    pub multi_asn_org_fraction: f64,
    /// Probability of a peering edge between two transit networks sharing a
    /// continent (sparse settlement-free mesh below the tier-1 clique).
    pub transit_peering_prob: f64,
    /// Probability that a stub network buys transit directly from a tier-1
    /// instead of a regional transit provider. Stubs that hang exclusively
    /// under tier-1s sit in nobody else's customer cone, which bounds how
    /// much traffic peering can ever offload (the reason the paper's
    /// maximal offload is ~25–33%, not ~100%).
    pub stub_tier1_prob: f64,
    /// Uniform multiplier on every AS-class count except the tier-1
    /// clique (which is structural), and on the total address space.
    /// `10.0` builds a ten-times-larger Internet — and, with
    /// `SceneConfig::scale` raised to match, ten-times-larger IXP member
    /// lists — which is how `repro bench` constructs its sharded-world
    /// workload. `1.0` reproduces the configured counts exactly.
    #[serde(default)]
    pub world_scale: f64,
}

impl TopologyConfig {
    /// Paper-scale world: ~30k ASes, 2.6 B interfaces. Matches the order of
    /// magnitude of the 2013/2014 Internet that the paper measured (the
    /// RedIRIS dataset alone sees 29,570 networks).
    pub fn paper_scale(seed: u64) -> Self {
        TopologyConfig {
            seed,
            n_tier1: 12,
            n_transit: 1_600,
            n_access: 9_500,
            n_content: 5_500,
            n_cdn: 260,
            n_hosting: 4_200,
            n_nren: 120,
            n_enterprise: 10_500,
            total_address_space: 2_600_000_000,
            multi_asn_org_fraction: 0.06,
            transit_peering_prob: 0.004,
            stub_tier1_prob: 0.55,
            world_scale: 1.0,
        }
    }

    /// Small world for unit and integration tests: a few hundred ASes with
    /// the same structural properties, built in milliseconds.
    pub fn test_scale(seed: u64) -> Self {
        TopologyConfig {
            seed,
            n_tier1: 5,
            n_transit: 40,
            n_access: 120,
            n_content: 70,
            n_cdn: 12,
            n_hosting: 50,
            n_nren: 10,
            n_enterprise: 100,
            total_address_space: 50_000_000,
            multi_asn_org_fraction: 0.06,
            transit_peering_prob: 0.02,
            stub_tier1_prob: 0.30,
            world_scale: 1.0,
        }
    }

    /// The configured counts with [`TopologyConfig::world_scale`] applied:
    /// a concrete config (`world_scale` folded back to 1) that the
    /// generator and [`TopologyConfig::total_ases`] agree on. The tier-1
    /// clique is left alone — it is the structural apex, not a population.
    fn resolved(&self) -> TopologyConfig {
        assert!(
            self.world_scale > 0.0 && self.world_scale.is_finite(),
            "world_scale must be a positive finite multiplier, got {}",
            self.world_scale
        );
        if self.world_scale == 1.0 {
            return self.clone();
        }
        let scale = |n: usize| ((n as f64) * self.world_scale).round().max(1.0) as usize;
        TopologyConfig {
            n_transit: scale(self.n_transit),
            n_access: scale(self.n_access),
            n_content: scale(self.n_content),
            n_cdn: scale(self.n_cdn),
            n_hosting: scale(self.n_hosting),
            n_nren: scale(self.n_nren),
            n_enterprise: scale(self.n_enterprise),
            total_address_space: ((self.total_address_space as f64) * self.world_scale) as u64,
            world_scale: 1.0,
            ..self.clone()
        }
    }

    /// Total number of ASes this config will generate (`world_scale`
    /// included).
    pub fn total_ases(&self) -> usize {
        let cfg = self.resolved();
        cfg.n_tier1
            + cfg.n_transit
            + cfg.n_access
            + cfg.n_content
            + cfg.n_cdn
            + cfg.n_hosting
            + cfg.n_nren
            + cfg.n_enterprise
    }
}

/// Relative frequency of network home locations per continent, loosely
/// following where 2013-era networks were registered. Indexed in the order
/// of [`CONTINENTS`].
const CONTINENTS: [Continent; 6] = [
    Continent::Europe,
    Continent::NorthAmerica,
    Continent::Asia,
    Continent::SouthAmerica,
    Continent::Africa,
    Continent::Oceania,
];
const CONTINENT_WEIGHTS: [f64; 6] = [0.40, 0.24, 0.18, 0.09, 0.05, 0.04];

/// Peering-policy priors per type: (open, selective, restrictive).
///
/// Shaped after the PeeringDB skews reported by Lodhi et al. (paper
/// reference [45]): content and hosting lean open, transit leans
/// restrictive, eyeballs sit in between.
fn policy_prior(kind: AsType) -> (f64, f64, f64) {
    match kind {
        AsType::Tier1 => (0.0, 0.05, 0.95),
        AsType::Transit => (0.12, 0.43, 0.45),
        AsType::Access => (0.55, 0.35, 0.10),
        AsType::Content => (0.75, 0.20, 0.05),
        AsType::Cdn => (0.50, 0.40, 0.10),
        AsType::Hosting => (0.70, 0.25, 0.05),
        AsType::Nren => (0.30, 0.60, 0.10),
        AsType::Enterprise => (0.40, 0.40, 0.20),
    }
}

/// Address-space scale per type, in relative units before normalization.
/// Eyeballs are large (residential pools), CDNs and tier-1s sizeable,
/// enterprises tiny.
fn address_scale(kind: AsType) -> f64 {
    match kind {
        AsType::Tier1 => 40.0,
        AsType::Transit => 12.0,
        AsType::Access => 30.0,
        AsType::Content => 2.0,
        AsType::Cdn => 8.0,
        AsType::Hosting => 5.0,
        AsType::Nren => 6.0,
        AsType::Enterprise => 0.5,
    }
}

/// Locality boost of a provider candidate for a customer on `continent`.
fn locality_boost(cand: &AsNode, continent: Continent) -> u64 {
    if WORLD_CITIES[cand.home_city as usize].continent == continent {
        3
    } else {
        1
    }
}

/// One provider candidate pool (tier-1s, level-1 transit, or all transit)
/// with its attachment weights `(1 + customer count) · locality boost` kept
/// in one [`WeightTree`] per continent of the choosing AS. The weights are
/// small integers, so a tree draw is exactly the `weighted_index` draw over
/// the same weights as `f64` (see [`WeightTree`]), in O(log n) instead of a
/// rebuilt weight vector and a linear scan per customer.
struct ProviderPool {
    ids: Vec<NetworkId>,
    /// Position of each network in `ids`, `u32::MAX` if not a candidate.
    pos: Vec<u32>,
    /// Indexed by `Continent as usize`.
    trees: Vec<WeightTree>,
}

impl ProviderPool {
    fn new(ids: &[NetworkId], ases: &[AsNode]) -> Self {
        let mut pos = vec![u32::MAX; ases.len()];
        for (k, id) in ids.iter().enumerate() {
            pos[id.index()] = k as u32;
        }
        let trees = Continent::ALL
            .iter()
            .map(|&cont| {
                let weights: Vec<u64> = ids
                    .iter()
                    .map(|c| locality_boost(&ases[c.index()], cont))
                    .collect();
                WeightTree::new(&weights)
            })
            .collect();
        ProviderPool {
            ids: ids.to_vec(),
            pos,
            trees,
        }
    }

    fn position(&self, id: NetworkId) -> Option<usize> {
        match self.pos[id.index()] {
            u32::MAX => None,
            k => Some(k as usize),
        }
    }

    /// Draw up to `want` distinct providers for a customer on `continent`,
    /// without replacement: each pick's weight is zeroed for the remaining
    /// picks and restored afterwards.
    fn pick(&mut self, rng: &mut StdRng, continent: Continent, want: usize) -> Vec<NetworkId> {
        let tree = &mut self.trees[continent as usize];
        let mut picked: Vec<(usize, u64)> = Vec::with_capacity(want);
        for _ in 0..want.min(self.ids.len()) {
            match tree.draw(rng) {
                Some(k) => picked.push((k, tree.set(k, 0))),
                None => break,
            }
        }
        for &(k, w) in &picked {
            tree.set(k, w);
        }
        picked.into_iter().map(|(k, _)| self.ids[k]).collect()
    }

    /// `p` gained a customer: its weight grows by its locality boost in
    /// every continent's tree.
    fn add_customer(&mut self, p: NetworkId, ases: &[AsNode]) {
        if let Some(k) = self.position(p) {
            for (&cont, tree) in Continent::ALL.iter().zip(&mut self.trees) {
                tree.add(k, locality_boost(&ases[p.index()], cont));
            }
        }
    }
}

/// Generate a topology from the config. Panics only on configs that are
/// structurally impossible (zero tier-1s with nonzero stubs).
pub fn generate(cfg: &TopologyConfig) -> Topology {
    let _sp = rp_obs::span("topology.generate");
    let cfg = &cfg.resolved();
    assert!(cfg.n_tier1 >= 1, "need at least one tier-1");
    let mut rng = seed::rng(cfg.seed, "topology", 0);

    let city_indices_by_continent: Vec<Vec<u16>> = CONTINENTS
        .iter()
        .map(|cont| {
            WORLD_CITIES
                .iter()
                .enumerate()
                .filter(|(_, c)| c.continent == *cont)
                .map(|(i, _)| i as u16)
                .collect()
        })
        .collect();

    let pick_city = |rng: &mut StdRng| -> u16 {
        let cont = weighted_index(rng, &CONTINENT_WEIGHTS).expect("weights are positive");
        let cities = &city_indices_by_continent[cont];
        cities[rng.random_range(0..cities.len())]
    };

    // Content infrastructure concentrates in interconnection hubs — the
    // metros hosting the big exchanges and carrier hotels — rather than
    // spreading like eyeball networks do.
    let hub_cities: Vec<u16> = [
        "Amsterdam",
        "Frankfurt",
        "London",
        "Paris",
        "Stockholm",
        "Madrid",
        "Milan",
        "Warsaw",
        "Moscow",
        "New York",
        "Ashburn",
        "Chicago",
        "Dallas",
        "Los Angeles",
        "San Jose",
        "Seattle",
        "Miami",
        "Toronto",
        "Sao Paulo",
        "Hong Kong",
        "Tokyo",
        "Singapore",
        "Sydney",
    ]
    .iter()
    .map(|name| {
        WORLD_CITIES
            .iter()
            .position(|c| c.name == *name)
            .expect("hub city exists") as u16
    })
    .collect();
    // The first few hubs (the biggest markets) draw more.
    let hub_weights: Vec<f64> = (0..hub_cities.len())
        .map(|i| 1.0 / (1.0 + i as f64 * 0.35))
        .collect();
    let pick_hub = |rng: &mut StdRng| -> u16 {
        hub_cities[weighted_index(rng, &hub_weights).expect("positive weights")]
    };

    // --- 1. Create nodes ------------------------------------------------
    let plan: [(AsType, usize); 8] = [
        (AsType::Tier1, cfg.n_tier1),
        (AsType::Transit, cfg.n_transit),
        (AsType::Access, cfg.n_access),
        (AsType::Content, cfg.n_content),
        (AsType::Cdn, cfg.n_cdn),
        (AsType::Hosting, cfg.n_hosting),
        (AsType::Nren, cfg.n_nren),
        (AsType::Enterprise, cfg.n_enterprise),
    ];

    let mut ases: Vec<AsNode> = Vec::with_capacity(cfg.total_ases());
    let mut next_asn: u32 = 1_000;
    for (kind, count) in plan {
        for k in 0..count {
            let id = NetworkId(ases.len() as u32);
            // ASNs with realistic gaps, so identification maps are not
            // trivially dense.
            next_asn += 1 + rng.random_range(0..7u32);
            let (po, ps, _pr) = policy_prior(kind);
            let u: f64 = rng.random();
            let policy = if u < po {
                PeeringPolicy::Open
            } else if u < po + ps {
                PeeringPolicy::Selective
            } else {
                PeeringPolicy::Restrictive
            };
            let level = match kind {
                AsType::Tier1 => 0,
                // Half the transit networks attach directly to tier-1s,
                // half form a second transit layer.
                AsType::Transit => 1 + (k % 2) as u8,
                _ => 3,
            };
            let home_city = match kind {
                AsType::Content | AsType::Cdn | AsType::Hosting => {
                    if coin(&mut rng, 0.65) {
                        pick_hub(&mut rng)
                    } else {
                        pick_city(&mut rng)
                    }
                }
                _ => pick_city(&mut rng),
            };
            // Prominence: heavy-tailed, heavier for the types that grow
            // global footprints.
            let prom_alpha = match kind {
                AsType::Cdn => 0.9,
                AsType::Content | AsType::Hosting => 1.0,
                AsType::Transit | AsType::Tier1 => 1.1,
                _ => 1.3,
            };
            let prominence = rp_types::dist::pareto(&mut rng, 1.0, prom_alpha).min(3_000.0);
            // Big players formalize peering: prominent networks shift from
            // open toward selective (and the biggest aggregators toward
            // restrictive) policies — large operators rarely auto-peer with
            // everyone, which is why the paper's open-policy lower bound
            // (peer group 1) offloads only 8% while the all-policies upper
            // bound reaches 25%.
            let policy =
                if prominence > 50.0 && policy == PeeringPolicy::Open && coin(&mut rng, 0.85) {
                    if prominence > 500.0 && coin(&mut rng, 0.4) {
                        PeeringPolicy::Restrictive
                    } else {
                        PeeringPolicy::Selective
                    }
                } else {
                    policy
                };
            ases.push(AsNode {
                id,
                asn: Asn(next_asn),
                org: OrgId(0), // assigned below
                kind,
                policy,
                home_city,
                address_space: 0, // assigned below
                prominence,
                level,
            });
        }
    }
    let n = ases.len();

    // --- 2. Transit edges -------------------------------------------------
    // Preferential attachment with geographic locality: the probability of
    // choosing a provider is (1 + current customer count) · locality boost.
    let mut edges: Vec<Edge> = Vec::new();

    // Tier-1 clique (settlement-free peering among all tier-1s).
    let tier1_ids: Vec<NetworkId> = ases
        .iter()
        .filter(|a| a.kind == AsType::Tier1)
        .map(|a| a.id)
        .collect();
    for (i, &a) in tier1_ids.iter().enumerate() {
        for &b in &tier1_ids[i + 1..] {
            edges.push(Edge {
                a,
                b,
                rel: Relationship::PeerOf,
            });
        }
    }

    let continent_of = |a: &AsNode| WORLD_CITIES[a.home_city as usize].continent;

    // Provider candidates per level: level-l networks choose providers among
    // strictly lower levels (tier-1 for level 1; tier-1 + level-1 transit for
    // level 2; transit for level 3).
    let level1: Vec<NetworkId> = ases
        .iter()
        .filter(|a| a.kind == AsType::Transit && a.level == 1)
        .map(|a| a.id)
        .collect();
    let all_transit: Vec<NetworkId> = ases
        .iter()
        .filter(|a| a.kind == AsType::Transit)
        .map(|a| a.id)
        .collect();
    let mut tier1_pool = ProviderPool::new(&tier1_ids, &ases);
    let mut level1_pool = ProviderPool::new(&level1, &ases);
    let mut transit_pool = ProviderPool::new(&all_transit, &ases);

    for node in &ases {
        let (pool, want) = match (node.kind, node.level) {
            (AsType::Tier1, _) => continue,
            (AsType::Transit, 1) => (&mut tier1_pool, 1 + rng.random_range(0..2usize)),
            (AsType::Transit, _) => (&mut level1_pool, 1 + rng.random_range(0..2usize)),
            // NRENs buy from tier-1s directly (RedIRIS buys transit from two
            // tier-1 providers).
            (AsType::Nren, _) => (&mut tier1_pool, 2),
            // Other stubs: usually regional transit, sometimes straight
            // from a tier-1.
            _ => {
                if coin(&mut rng, cfg.stub_tier1_prob) {
                    (&mut tier1_pool, 1 + rng.random_range(0..2usize))
                } else {
                    (&mut transit_pool, 1 + rng.random_range(0..3usize))
                }
            }
        };
        for p in pool.pick(&mut rng, continent_of(node), want) {
            for pool in [&mut tier1_pool, &mut level1_pool, &mut transit_pool] {
                pool.add_customer(p, &ases);
            }
            edges.push(Edge {
                a: p,
                b: node.id,
                rel: Relationship::ProviderOf,
            });
        }
    }

    // Sparse settlement-free peering among same-continent transit networks.
    // A pair of ASes holds at most one relationship: skip pairs already
    // connected by a transit edge (being both peer and provider of the same
    // network would make route classification ambiguous). Every
    // same-continent, unconnected pair draws one coin, in (i, j) order; the
    // walk visits only same-continent pairs, so it draws the same coins as
    // a walk over all pairs that skips the rest.
    let transit_continent: Vec<Continent> = all_transit
        .iter()
        .map(|a| continent_of(&ases[a.index()]))
        .collect();
    let mut transit_neighbours: Vec<Vec<u32>> = vec![Vec::new(); all_transit.len()];
    for e in &edges {
        if let (Some(a), Some(b)) = (transit_pool.position(e.a), transit_pool.position(e.b)) {
            transit_neighbours[a].push(b as u32);
            transit_neighbours[b].push(a as u32);
        }
    }
    for list in &mut transit_neighbours {
        list.sort_unstable();
    }
    let mut transit_by_continent: Vec<Vec<u32>> = vec![Vec::new(); Continent::ALL.len()];
    for (k, c) in transit_continent.iter().enumerate() {
        transit_by_continent[*c as usize].push(k as u32);
    }
    for i in 0..all_transit.len() {
        let same = &transit_by_continent[transit_continent[i] as usize];
        for &j in &same[same.partition_point(|&j| j <= i as u32)..] {
            if transit_neighbours[i].binary_search(&j).is_err()
                && coin(&mut rng, cfg.transit_peering_prob)
            {
                edges.push(Edge {
                    a: all_transit[i],
                    b: all_transit[j as usize],
                    rel: Relationship::PeerOf,
                });
            }
        }
    }

    // --- 3. Address space ---------------------------------------------------
    // Access networks draw from a Pareto tail: a small set of eyeball
    // aggregators holds most of the address space (these giants are what
    // make figure 10 drop steeply after the first reached IXP), while other
    // types stay log-normal.
    let mut raw: Vec<f64> = ases
        .iter()
        .map(|a| {
            let shape = match a.kind {
                AsType::Access => rp_types::dist::pareto(&mut rng, 1.0, 0.75).min(6_000.0),
                _ => log_normal(&mut rng, 0.0, 1.2),
            };
            address_scale(a.kind) * shape
        })
        .collect();
    let total_raw: f64 = raw.iter().sum();
    let scale = cfg.total_address_space as f64 / total_raw;
    for (a, r) in ases.iter_mut().zip(&mut raw) {
        a.address_space = ((*r * scale).round() as u64).max(16);
    }

    // --- 4. Organizations -----------------------------------------------------
    // Walk networks in order; with probability `multi_asn_org_fraction` an
    // organization absorbs the next 1..3 networks of the same type as well.
    let mut orgs: Vec<Org> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let org_id = OrgId(orgs.len() as u32);
        let kind = ases[i].kind;
        let mut count = 1;
        if coin(&mut rng, cfg.multi_asn_org_fraction) {
            let extra = 1 + rng.random_range(0..3usize);
            for _ in 0..extra {
                if i + count < n && ases[i + count].kind == kind {
                    count += 1;
                } else {
                    break;
                }
            }
        }
        for a in &mut ases[i..i + count] {
            a.org = org_id;
        }
        orgs.push(Org {
            id: org_id,
            first: NetworkId(i as u32),
            count: count as u32,
        });
        i += count;
    }

    let topo = Topology::assemble(ases, orgs, edges);
    debug_assert!(topo.validate().is_empty(), "{:?}", topo.validate());
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{cone_size_upper_bounds, customer_cone};

    #[test]
    fn test_scale_generates_valid_topology() {
        let topo = generate(&TopologyConfig::test_scale(1));
        assert!(topo.validate().is_empty(), "{:?}", topo.validate());
        assert_eq!(topo.len(), TopologyConfig::test_scale(1).total_ases());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TopologyConfig::test_scale(7));
        let b = generate(&TopologyConfig::test_scale(7));
        assert_eq!(a.edges, b.edges);
        assert_eq!(
            a.ases.iter().map(|x| x.asn).collect::<Vec<_>>(),
            b.ases.iter().map(|x| x.asn).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyConfig::test_scale(1));
        let b = generate(&TopologyConfig::test_scale(2));
        assert_ne!(
            a.ases.iter().map(|x| x.home_city).collect::<Vec<_>>(),
            b.ases.iter().map(|x| x.home_city).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tier1_clique_is_complete() {
        let topo = generate(&TopologyConfig::test_scale(3));
        let t1: Vec<_> = topo.of_type(AsType::Tier1).map(|a| a.id).collect();
        for &a in &t1 {
            for &b in &t1 {
                if a != b {
                    assert!(topo.peers(a).contains(&b), "{a} !~ {b}");
                }
            }
        }
    }

    #[test]
    fn nrens_buy_from_two_tier1s() {
        let topo = generate(&TopologyConfig::test_scale(4));
        for nren in topo.of_type(AsType::Nren) {
            let provs = topo.providers(nren.id);
            assert_eq!(provs.len(), 2, "{}", nren.asn);
            for p in provs {
                assert_eq!(topo.node(*p).kind, AsType::Tier1);
            }
        }
    }

    #[test]
    fn address_space_totals_to_target() {
        let cfg = TopologyConfig::test_scale(5);
        let topo = generate(&cfg);
        let total = topo.total_address_space();
        let target = cfg.total_address_space;
        let err = (total as f64 - target as f64).abs() / target as f64;
        assert!(err < 0.01, "total {total} vs target {target}");
    }

    #[test]
    fn tier1_cones_cover_most_of_the_internet() {
        let topo = generate(&TopologyConfig::test_scale(6));
        // A single tier-1 does not cone-cover other tier-1s or their
        // exclusive customers, but the best-connected tier-1 covers a large
        // share of the stub population.
        let biggest = topo
            .of_type(AsType::Tier1)
            .map(|a| customer_cone(&topo, a.id).count())
            .max()
            .unwrap();
        assert!(
            biggest > topo.len() / 8,
            "cone {} of {}",
            biggest,
            topo.len()
        );
    }

    #[test]
    fn cone_bounds_are_bounds() {
        let topo = generate(&TopologyConfig::test_scale(8));
        let bounds = cone_size_upper_bounds(&topo);
        for id in topo.ids().take(50) {
            let exact = customer_cone(&topo, id).count() as u64;
            assert!(bounds[id.index()] >= exact, "{id}");
        }
    }

    #[test]
    fn some_orgs_own_multiple_asns() {
        let topo = generate(&TopologyConfig::test_scale(9));
        let multi = topo.orgs.iter().filter(|o| o.count > 1).count();
        assert!(multi > 0);
        // And the overwhelming majority stay single-ASN.
        assert!(multi * 5 < topo.orgs.len());
    }

    #[test]
    fn world_scale_multiplies_member_classes_not_the_clique() {
        let base = TopologyConfig::test_scale(11);
        let scaled = TopologyConfig {
            world_scale: 10.0,
            ..TopologyConfig::test_scale(11)
        };
        // total_ases and the generator agree on the scaled counts.
        let topo = generate(&scaled);
        assert!(topo.validate().is_empty(), "{:?}", topo.validate());
        assert_eq!(topo.len(), scaled.total_ases());
        // Member classes grow tenfold; the tier-1 clique stays structural.
        let count = |t: &Topology, kind: AsType| t.of_type(kind).count();
        let base_topo = generate(&base);
        assert_eq!(
            count(&topo, AsType::Tier1),
            count(&base_topo, AsType::Tier1)
        );
        assert_eq!(
            count(&topo, AsType::Access),
            10 * count(&base_topo, AsType::Access)
        );
        assert_eq!(
            count(&topo, AsType::Content),
            10 * count(&base_topo, AsType::Content)
        );
        // world_scale 1.0 is exactly the unscaled config.
        assert_eq!(base.total_ases(), base_topo.len());
    }

    #[test]
    fn policies_follow_type_skew() {
        let topo = generate(&TopologyConfig::paper_scale(10));
        let open_frac = |kind: AsType| {
            let all: Vec<_> = topo.of_type(kind).collect();
            all.iter()
                .filter(|a| a.policy == PeeringPolicy::Open)
                .count() as f64
                / all.len() as f64
        };
        assert!(open_frac(AsType::Content) > open_frac(AsType::Transit));
        assert!(open_frac(AsType::Hosting) > open_frac(AsType::Enterprise));
    }
}
