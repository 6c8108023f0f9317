//! Scenario construction: the simulated Internet plus the RedIRIS-like
//! study network.
//!
//! Section 4.1 describes the study network precisely: RedIRIS, the Spanish
//! NREN, "interconnects with GÉANT, buys transit from two tier-1 providers,
//! peers with major CDNs, and has memberships in two IXPs: CATNIX in
//! Barcelona and ESpanix in Madrid." `World::build` reproduces that
//! arrangement inside the generated topology:
//!
//! - the study network is an NREN pinned to Madrid;
//! - the topology generator already gives every NREN two tier-1 transit
//!   providers;
//! - GÉANT is modeled as settlement-free peerings with every other NREN;
//! - a handful of major CDNs peer with the study network (their traffic
//!   therefore never appears on the transit links — which is why the
//!   paper's top *offloadable* contributors are content networks that are
//!   not yet peered);
//! - the study network joins ESpanix and CATNIX and peers with their
//!   open-policy members via the route servers; the tier-1s are wired in as
//!   ESpanix members so that the paper's exclusion rule ("we exclude all
//!   the other tier-1 networks because they have memberships in ESpanix")
//!   binds.

use rp_bgp::RoutingView;
use rp_ixp::model::{Access, ListingInfo, MemberInterface, ResponderProfile};
use rp_ixp::registry::Registry;
use rp_ixp::{build_scene, euro_ix_65, IxpScene, SceneConfig};
use rp_topology::{generate, AsType, PeeringPolicy, Topology, TopologyConfig};
use rp_traffic::{contributions, Contributions, TrafficConfig};
use rp_types::geo::WORLD_CITIES;
use rp_types::{IxpId, NetworkId, SimDuration};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Full scenario configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; sub-seeds for topology, scene, and traffic derive from
    /// it unless overridden below.
    pub seed: u64,
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// IXP scene parameters.
    pub scene: SceneConfig,
    /// Traffic model parameters.
    pub traffic: TrafficConfig,
    /// Length of the probing campaign (the paper measured October 2013 –
    /// January 2014, about four months).
    pub campaign_days: u64,
    /// How many CDNs the study network already peers with.
    pub cdn_peerings: usize,
    /// Where the study network lives. "Madrid" reproduces RedIRIS; other
    /// cities build counterfactual study networks (e.g. "Nairobi" for the
    /// section 5.2 African-market analysis).
    pub vantage_city: String,
}

impl WorldConfig {
    /// Paper-scale world: ~31k ASes, 65 IXPs at published member counts,
    /// 2.6 B interfaces, 4-month campaign.
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            topology: TopologyConfig::paper_scale(seed ^ 0x7090),
            scene: SceneConfig::paper_scale(seed ^ 0x5CEE),
            traffic: TrafficConfig {
                seed: seed ^ 0x7247,
                ..TrafficConfig::default()
            },
            campaign_days: 120,
            cdn_peerings: 8,
            vantage_city: "Madrid".to_string(),
        }
    }

    /// Reduced world for tests: a few hundred ASes, ~35% membership scale,
    /// a 40-day campaign. Same structure, seconds to build and probe.
    pub fn test_scale(seed: u64) -> Self {
        WorldConfig {
            topology: TopologyConfig::test_scale(seed ^ 0x7090),
            scene: SceneConfig::test_scale(seed ^ 0x5CEE),
            campaign_days: 40,
            ..WorldConfig::paper_scale(seed)
        }
    }

    /// Planet-scale world: the Euro-IX scene replicated ×10 via
    /// `world_scale` (~317k ASes) with membership density raised until the
    /// scene crosses 10⁵ member interfaces (~109k at density 12). The
    /// largest studied IXP stays well inside the 60,000-slot per-IXP
    /// address plan. About a second to build; pair with a
    /// [`crate::campaign::Campaign`] memory budget so probing stays inside
    /// a bounded footprint.
    pub fn production_scale(seed: u64) -> Self {
        let mut cfg = WorldConfig::paper_scale(seed);
        cfg.topology.world_scale = 10.0;
        cfg.scene.scale = 12.0;
        cfg
    }
}

/// The three world sizes every front end (CLI, job service, checker,
/// sweeps) agrees on. Replaces the old `paper_scale: bool` plumbing,
/// which could not say "production".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Scale {
    /// A few hundred ASes; sub-second builds. The default for tests and
    /// quick CLI runs.
    Test,
    /// The paper's measured world: ~31k ASes, 65 IXPs at published member
    /// counts.
    Paper,
    /// Euro-IX ×10 with dense membership: ≥10⁵ member interfaces. See
    /// [`WorldConfig::production_scale`].
    Production,
}

impl Scale {
    /// Parse a user-facing scale name. Returns `None` for anything other
    /// than `test`, `paper`, or `production`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "test" => Some(Scale::Test),
            "paper" => Some(Scale::Paper),
            "production" => Some(Scale::Production),
            _ => None,
        }
    }

    /// The canonical lowercase name, matching what [`Scale::parse`]
    /// accepts and what artifacts echo.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
            Scale::Production => "production",
        }
    }

    /// The [`WorldConfig`] preset for this scale.
    pub fn config(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Test => WorldConfig::test_scale(seed),
            Scale::Paper => WorldConfig::paper_scale(seed),
            Scale::Production => WorldConfig::production_scale(seed),
        }
    }

    /// Default campaign memory budget for this scale, in bytes. `None`
    /// means unbudgeted: the small worlds fit anywhere. Production gets a
    /// 1 GiB cap so `probe_all` chunks its fan-out instead of letting peak
    /// RSS track world size.
    pub fn default_memory_budget(self) -> Option<u64> {
        match self {
            Scale::Test | Scale::Paper => None,
            Scale::Production => Some(1 << 30),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The assembled scenario.
///
/// The four heavyweight planes — topology, registry, routing view, and
/// traffic contributions — are behind [`Arc`], and the scene's per-IXP
/// instances are reference-counted individually. A `World::clone` (and
/// therefore a [`World::fork`]) is a handful of refcount bumps plus the
/// small config/id vectors; the planes are immutable snapshots shared
/// between parent and child until a [`crate::fork::Delta`] copies the one
/// IXP instance it touches.
#[derive(Clone)]
pub struct World {
    /// Content key for the memo caches: the key of `config` while the
    /// world is pristine, a deterministic fork key once deltas have been
    /// applied through [`World::fork`], and a unique key once it has been
    /// mutated in place (see [`World::mark_mutated`]).
    pub(crate) memo_key: crate::memo::Key,
    /// The configuration the world was built from.
    pub config: WorldConfig,
    /// The AS-level Internet (immutable snapshot plane).
    pub topology: Arc<Topology>,
    /// IXPs, memberships, attachments, pathologies (ground truth). The
    /// instances inside are individually reference-counted (the arena the
    /// copy-on-write forks share).
    pub scene: IxpScene,
    /// What the measurement campaign is allowed to know (immutable
    /// snapshot plane — deltas never touch registry rows, see
    /// [`crate::fork`]).
    pub registry: Arc<Registry>,
    /// The RedIRIS-like study network.
    pub vantage: NetworkId,
    /// The study network's home IXPs (ESpanix, CATNIX).
    pub home_ixps: Vec<IxpId>,
    /// CDNs the study network peers with directly.
    pub cdn_peers: Vec<NetworkId>,
    /// The study network's forwarding view (immutable snapshot plane).
    pub view: Arc<RoutingView>,
    /// Average per-network transit-traffic contributions (immutable
    /// snapshot plane).
    pub contributions: Arc<Contributions>,
}

impl World {
    /// Build the scenario deterministically from its config.
    pub fn build(cfg: &WorldConfig) -> World {
        let sp = rp_obs::span("core.world.build");
        let build_path = sp.path();
        let mut topology = generate(&cfg.topology);

        // The study network: an NREN pinned to the configured city
        // (Madrid for the RedIRIS reproduction).
        let vantage = topology
            .of_type(AsType::Nren)
            .next()
            .expect("config generates at least one NREN")
            .id;
        let home = city_index(&cfg.vantage_city);
        topology.set_home_city(vantage, home);

        // IXPs and memberships over the (relocated) topology.
        let metas = euro_ix_65();
        let mut scene = build_scene(&topology, &metas, &cfg.scene);

        let ixp_by_acronym = |scene: &IxpScene, acr: &str| -> IxpId {
            scene
                .ixps
                .iter()
                .find(|x| x.meta.acronym == acr)
                .unwrap_or_else(|| panic!("dataset lacks {acr}"))
                .id
        };
        let espanix = ixp_by_acronym(&scene, "ESpanix");
        let catnix = ixp_by_acronym(&scene, "CATNIX");
        let home_ixps = vec![espanix, catnix];

        // Wire the study network and the tier-1s into the home IXPs.
        let tier1s: Vec<NetworkId> = topology.of_type(AsType::Tier1).map(|a| a.id).collect();
        for &ixp in &home_ixps {
            add_direct_member(&mut scene, ixp, vantage);
        }
        for &t1 in &tier1s {
            add_direct_member(&mut scene, espanix, t1);
        }

        // The study network's pre-existing peerings, added as one batch
        // (add_peerings skips the vantage's own transit providers and
        // anything already connected, earlier pairs of the batch included).
        // GÉANT: settlement-free peering with every other NREN.
        let mut peerings: Vec<(NetworkId, NetworkId)> = topology
            .of_type(AsType::Nren)
            .map(|a| a.id)
            .filter(|&id| id != vantage)
            .map(|nren| (vantage, nren))
            .collect();

        // Major-CDN peerings.
        let cdn_peers: Vec<NetworkId> = topology
            .of_type(AsType::Cdn)
            .map(|a| a.id)
            .take(cfg.cdn_peerings)
            .collect();
        peerings.extend(cdn_peers.iter().map(|&cdn| (vantage, cdn)));

        // Route-server peerings with open-policy co-members at the home
        // IXPs.
        for &ixp in &home_ixps {
            for member in scene.ixp(ixp).member_network_ids() {
                if member != vantage && topology.node(member).policy == PeeringPolicy::Open {
                    peerings.push((vantage, member));
                }
            }
        }
        topology.add_peerings(&peerings);

        // The registry crawl is independent of the routing computation, so
        // the two run on separate workers; both only read the finished
        // topology/scene, so the result is identical to the serial order.
        let (registry, (view, contributions)) = rayon::join(
            || {
                let _sp = rp_obs::span_under(&build_path, "core.world.registry_crawl");
                Registry::from_scene(&scene, &topology)
            },
            || {
                let _sp = rp_obs::span_under(&build_path, "core.world.routing_and_traffic");
                let view = RoutingView::new(&topology, vantage);
                let contributions = contributions(&topology, &view, &cfg.traffic);
                (view, contributions)
            },
        );

        World {
            memo_key: crate::memo::Key::of(cfg),
            config: cfg.clone(),
            topology: Arc::new(topology),
            scene,
            registry: Arc::new(registry),
            vantage,
            home_ixps,
            cdn_peers,
            view: Arc::new(view),
            contributions: Arc::new(contributions),
        }
    }

    /// The digest of the world's current content key (the config's
    /// [`crate::memo::fingerprint`], a fork key's, or a unique key's after
    /// mutation).
    pub fn fingerprint(&self) -> u64 {
        self.memo_key.digest()
    }

    /// Declare that this world no longer matches its config. Every
    /// in-place mutation site (fault injection, invariant probes that
    /// push/pop members) must call this so downstream probe memoization
    /// can never alias the mutated state with the pristine build.
    ///
    /// Prefer [`World::fork`] where the mutation is expressible as
    /// [`crate::fork::Delta`]s: forks get a *deterministic* content
    /// address (so probe memo entries are shareable across identical fork
    /// sequences) and track which IXPs they dirtied (so
    /// [`crate::Campaign::probe_all_with`] can reuse parent probe results
    /// for the rest).
    pub fn mark_mutated(&mut self) {
        self.memo_key = crate::memo::Key::unique();
    }

    /// Fork this world into a cheap copy-on-write child. The child shares
    /// the topology, registry, routing-view, and contributions planes and
    /// every IXP instance with `self`; applying a [`crate::fork::Delta`]
    /// copies only the instance it touches. `self` is never affected by
    /// anything done to the fork.
    pub fn fork(&self) -> crate::fork::WorldFork {
        crate::fork::WorldFork::new(self)
    }

    /// Length of the probing campaign.
    pub fn campaign_duration(&self) -> SimDuration {
        SimDuration::from_days(self.config.campaign_days)
    }

    /// Ids of the IXPs with looking-glass servers (the section 3 study).
    pub fn studied_ixps(&self) -> Vec<IxpId> {
        self.scene.studied().map(|x| x.id).collect()
    }

    /// This world's resident size, for the memo pool's byte budget
    /// ([`crate::memo::configure_world_pool`]): the sum of
    /// [`World::plane_bytes`] plus the `World` itself.
    pub fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<World>() as u64 + self.plane_bytes().total()
    }

    /// Heap bytes of each of the world's planes, exact from their
    /// allocations' capacities.
    pub fn plane_bytes(&self) -> PlaneBytes {
        PlaneBytes {
            topology: self.topology.plane_bytes(),
            scene: self.scene.plane_bytes(),
            registry: self.registry.plane_bytes(),
            view: self.view.plane_bytes(),
            contributions: self.contributions.plane_bytes(),
        }
    }
}

/// Heap bytes per plane of a built [`World`] (see [`World::plane_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneBytes {
    /// ASes, organizations, edges and the CSR adjacency.
    pub topology: u64,
    /// IXP member rows and site lists.
    pub scene: u64,
    /// The registry's listing rows.
    pub registry: u64,
    /// The vantage's next-hop routing tree.
    pub view: u64,
    /// Per-network inbound and outbound transit contributions.
    pub contributions: u64,
}

impl PlaneBytes {
    /// Sum over the planes.
    pub fn total(&self) -> u64 {
        self.topology + self.scene + self.registry + self.view + self.contributions
    }
}

fn city_index(name: &str) -> u16 {
    WORLD_CITIES
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown city {name}")) as u16
}

/// Insert `network` as a direct, healthy, unlisted member of `ixp` (used to
/// wire the study network and the tier-1s into their real memberships).
fn add_direct_member(scene: &mut IxpScene, ixp: IxpId, network: NetworkId) {
    let inst = scene.ixp_mut(ixp);
    if inst.members.iter().any(|m| m.network == network) {
        return;
    }
    let slot = inst.members.len() as u32;
    inst.members.push(MemberInterface {
        network,
        ip: rp_ixp::model::IxpInstance::ip_for_slot(ixp, slot),
        access: Access::Direct {
            colo_delay_ms: 0.3,
            site: 0,
        },
        profile: ResponderProfile::default(),
        listing: ListingInfo {
            listed: false,
            identifiable: true,
            asn_change: false,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_bgp::GatewayClass;

    fn world() -> World {
        World::build(&WorldConfig::test_scale(71))
    }

    #[test]
    fn vantage_is_a_madrid_nren_with_two_tier1_providers() {
        let w = world();
        let node = w.topology.node(w.vantage);
        assert_eq!(node.kind, AsType::Nren);
        assert_eq!(w.topology.home_city(w.vantage).name, "Madrid");
        let provs = w.topology.providers(w.vantage);
        assert_eq!(provs.len(), 2);
        for p in provs {
            assert_eq!(w.topology.node(*p).kind, AsType::Tier1);
        }
    }

    #[test]
    fn vantage_belongs_to_both_home_ixps_and_tier1s_to_espanix() {
        let w = world();
        for &ixp in &w.home_ixps {
            assert!(w.scene.ixp(ixp).member_network_ids().contains(&w.vantage));
        }
        let espanix_members = w.scene.ixp(w.home_ixps[0]).member_network_ids();
        for t1 in w.topology.of_type(AsType::Tier1) {
            assert!(
                espanix_members.contains(&t1.id),
                "{} not at ESpanix",
                t1.asn
            );
        }
    }

    #[test]
    fn geant_and_cdn_traffic_leaves_the_transit_links() {
        let w = world();
        for nren in w.topology.of_type(AsType::Nren) {
            if nren.id != w.vantage {
                assert_eq!(
                    w.view.gateway_class(&w.topology, nren.id),
                    Some(GatewayClass::Peer),
                    "NREN {} should be reached via GÉANT peering",
                    nren.asn
                );
                let (inb, out) = w.contributions.of(nren.id);
                assert_eq!(inb.0, 0.0);
                assert_eq!(out.0, 0.0);
            }
        }
        for &cdn in &w.cdn_peers {
            assert_eq!(
                w.view.gateway_class(&w.topology, cdn),
                Some(GatewayClass::Peer)
            );
        }
    }

    #[test]
    fn most_networks_still_contribute_transit_traffic() {
        let w = world();
        let frac = w.contributions.contributors() as f64 / w.topology.len() as f64;
        assert!(frac > 0.8, "contributor fraction {frac}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = World::build(&WorldConfig::test_scale(72));
        let b = World::build(&WorldConfig::test_scale(72));
        assert_eq!(a.vantage, b.vantage);
        assert_eq!(a.contributions.inbound, b.contributions.inbound);
        assert_eq!(
            a.scene
                .ixps
                .iter()
                .map(|x| x.members.len())
                .collect::<Vec<_>>(),
            b.scene
                .ixps
                .iter()
                .map(|x| x.members.len())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn studied_ixps_are_the_22() {
        let w = world();
        assert_eq!(w.studied_ixps().len(), 22);
    }
}
