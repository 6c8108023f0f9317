//! Route representation and validity checks.

use rp_topology::Topology;
use rp_types::NetworkId;
use serde::{Deserialize, Serialize};

/// How an AS learned its best route toward the origin, in decreasing
/// preference order (the derived `Ord` encodes BGP local preference:
/// `Origin < Customer < Peer < Provider`, smaller = preferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RouteClass {
    /// The AS *is* the origin.
    Origin,
    /// Learned from a transit customer (revenue route — most preferred).
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider (costs money — least preferred).
    Provider,
}

/// An AS's best route toward the propagation origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteInfo {
    /// Preference class of the route at this AS.
    pub class: RouteClass,
    /// AS path toward the origin: `path[0]` is the next hop, the last
    /// element is the origin itself. Empty exactly when `class == Origin`.
    pub path: Vec<NetworkId>,
}

impl RouteInfo {
    /// AS-path length in hops (0 for the origin itself).
    #[inline]
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True for the origin's own (empty-path) route.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Next hop toward the origin, `None` at the origin.
    #[inline]
    pub fn next_hop(&self) -> Option<NetworkId> {
        self.path.first().copied()
    }
}

/// Next-hop marker of the origin and of ASes without a route.
pub(crate) const NO_HOP: NetworkId = NetworkId(u32::MAX);

/// Every AS's best route toward one origin, kept as the next-hop tree the
/// staged engine builds: per AS, the route's class, its next hop and its
/// length. A full AS path is the walk along next hops to the origin
/// ([`RouteTree::path`]); [`RouteTree::route`] materializes it as a
/// [`RouteInfo`] where a caller needs one.
#[derive(Clone)]
pub struct RouteTree {
    /// Route class per AS; `None` where the AS has no route.
    pub(crate) class: Vec<Option<RouteClass>>,
    /// Next hop toward the origin; [`NO_HOP`] at the origin and at ASes
    /// without a route.
    pub(crate) next: Vec<NetworkId>,
    /// Path length in hops; meaningless where the AS has no route.
    pub(crate) dist: Vec<u32>,
}

impl RouteTree {
    /// Class of `v`'s best route, `None` when `v` has no route.
    #[inline]
    pub fn class(&self, v: NetworkId) -> Option<RouteClass> {
        self.class[v.index()]
    }

    /// Next hop of `v` toward the origin, `None` at the origin and where
    /// `v` has no route.
    #[inline]
    pub fn next_hop(&self, v: NetworkId) -> Option<NetworkId> {
        let h = self.next[v.index()];
        (h != NO_HOP).then_some(h)
    }

    /// AS-path length of `v`'s route in hops (0 at the origin), `None`
    /// when `v` has no route.
    #[inline]
    pub fn path_len(&self, v: NetworkId) -> Option<usize> {
        self.class(v).map(|_| self.dist[v.index()] as usize)
    }

    /// The AS path of `v`'s route, next hop first and the origin last
    /// (empty at the origin); `None` when `v` has no route.
    pub fn path(&self, v: NetworkId) -> Option<Hops<'_>> {
        self.class(v).map(|_| Hops { tree: self, at: v })
    }

    /// `v`'s route with its path materialized.
    pub fn route(&self, v: NetworkId) -> Option<RouteInfo> {
        Some(RouteInfo {
            class: self.class(v)?,
            path: self.path(v)?.collect(),
        })
    }

    /// Heap bytes held by the tree, by capacity.
    pub fn plane_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.class.capacity() * size_of::<Option<RouteClass>>()
            + self.next.capacity() * size_of::<NetworkId>()
            + self.dist.capacity() * size_of::<u32>()) as u64
    }
}

/// Prints the materialized routes, one `Option<RouteInfo>` per AS — the
/// text of the `Vec<Option<RouteInfo>>` the tree replaces.
impl std::fmt::Debug for RouteTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        /// One routed AS, printed as its `RouteInfo`.
        struct Route<'a>(RouteClass, Hops<'a>);
        impl std::fmt::Debug for Route<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct("RouteInfo")
                    .field("class", &self.0)
                    .field("path", &self.1)
                    .finish()
            }
        }
        f.debug_list()
            .entries((0..self.class.len() as u32).map(|v| {
                let v = NetworkId(v);
                Some(Route(self.class(v)?, self.path(v)?))
            }))
            .finish()
    }
}

/// The hops of one route, walked along the next-hop tree toward the
/// origin (see [`RouteTree::path`]). `Debug` prints the remaining hops as
/// a list.
#[derive(Clone)]
pub struct Hops<'a> {
    tree: &'a RouteTree,
    at: NetworkId,
}

impl Iterator for Hops<'_> {
    type Item = NetworkId;

    fn next(&mut self) -> Option<NetworkId> {
        let h = self.tree.next_hop(self.at)?;
        self.at = h;
        Some(h)
    }
}

impl std::fmt::Debug for Hops<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Relationship step along a path, for valley-freeness checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Toward a provider ("uphill").
    Up,
    /// Across a peering edge ("flat").
    Flat,
    /// Toward a customer ("downhill").
    Down,
}

fn step(topo: &Topology, from: NetworkId, to: NetworkId) -> Option<Step> {
    if topo.providers(from).contains(&to) {
        Some(Step::Up)
    } else if topo.customers(from).contains(&to) {
        Some(Step::Down)
    } else if topo.peers(from).contains(&to) {
        Some(Step::Flat)
    } else {
        None
    }
}

/// Check that `full_path` (a sequence of adjacent ASes, *including* both
/// endpoints) is valley-free: a prefix of uphill steps, at most one flat
/// (peering) step, then downhill steps. Returns `false` if any consecutive
/// pair is not adjacent in the topology.
pub fn is_valley_free(topo: &Topology, full_path: &[NetworkId]) -> bool {
    // State machine over {uphill, flat-done, downhill}.
    #[derive(PartialEq, Clone, Copy)]
    enum Phase {
        Climbing,
        Peered,
        Descending,
    }
    let mut phase = Phase::Climbing;
    for w in full_path.windows(2) {
        let Some(s) = step(topo, w[0], w[1]) else {
            return false;
        };
        phase = match (phase, s) {
            (Phase::Climbing, Step::Up) => Phase::Climbing,
            (Phase::Climbing, Step::Flat) => Phase::Peered,
            (Phase::Climbing, Step::Down) => Phase::Descending,
            (Phase::Peered, Step::Down) => Phase::Descending,
            (Phase::Descending, Step::Down) => Phase::Descending,
            _ => return false,
        };
    }
    true
}

/// Check that a path visits no AS twice.
pub fn is_simple(full_path: &[NetworkId]) -> bool {
    let mut seen: Vec<NetworkId> = full_path.to_vec();
    seen.sort_unstable();
    seen.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_topology::{AsNode, AsType, PeeringPolicy, Topology};
    use rp_types::{Asn, OrgId};

    fn chain() -> Topology {
        // 0 (tier1) provides 1, which provides 2; 1 peers with 3 (tier1-ish
        // sibling also under 0).
        let mk = |i: u32, kind, level| AsNode {
            id: NetworkId(i),
            asn: Asn(100 + i),
            org: OrgId(i),
            kind,
            policy: PeeringPolicy::Open,
            home_city: 0,
            address_space: 1,
            prominence: 1.0,
            level,
        };
        use rp_topology::model::{Edge, Org, Relationship};
        let ases = vec![
            mk(0, AsType::Tier1, 0),
            mk(1, AsType::Transit, 1),
            mk(2, AsType::Enterprise, 2),
            mk(3, AsType::Transit, 1),
        ];
        let orgs = (0..4)
            .map(|i| Org {
                id: OrgId(i),
                first: NetworkId(i),
                count: 1,
            })
            .collect();
        let edges = vec![
            Edge {
                a: NetworkId(0),
                b: NetworkId(1),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(1),
                b: NetworkId(2),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(0),
                b: NetworkId(3),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(1),
                b: NetworkId(3),
                rel: Relationship::PeerOf,
            },
        ];
        Topology::assemble(ases, orgs, edges)
    }

    #[test]
    fn class_ordering_matches_bgp_preference() {
        assert!(RouteClass::Origin < RouteClass::Customer);
        assert!(RouteClass::Customer < RouteClass::Peer);
        assert!(RouteClass::Peer < RouteClass::Provider);
    }

    #[test]
    fn valley_free_accepts_up_flat_down() {
        let t = chain();
        let n = |i: u32| NetworkId(i);
        // 2 → 1 (up) → 3 (flat): valid.
        assert!(is_valley_free(&t, &[n(2), n(1), n(3)]));
        // 2 → 1 → 0 (up, up): valid.
        assert!(is_valley_free(&t, &[n(2), n(1), n(0)]));
        // 0 → 1 → 2 (down, down): valid.
        assert!(is_valley_free(&t, &[n(0), n(1), n(2)]));
        // 3 (flat to 1) then up to 0: peer then up — a valley. Invalid.
        assert!(!is_valley_free(&t, &[n(3), n(1), n(0)]));
        // 0 → 1 (down) → 3 (flat): down then flat — invalid.
        assert!(!is_valley_free(&t, &[n(0), n(1), n(3)]));
        // Non-adjacent pair: invalid.
        assert!(!is_valley_free(&t, &[n(2), n(3)]));
    }

    #[test]
    fn tree_debug_prints_the_materialized_routes() {
        let t = chain();
        let tree = crate::propagate(&t, NetworkId(2));
        let routes: Vec<Option<RouteInfo>> = t.ids().map(|v| tree.route(v)).collect();
        assert_eq!(format!("{tree:?}"), format!("{routes:?}"));
        assert_eq!(format!("{tree:#?}"), format!("{routes:#?}"));
        assert_eq!(
            format!("{tree:?}"),
            "[Some(RouteInfo { class: Customer, path: [NetworkId(1), NetworkId(2)] }), \
             Some(RouteInfo { class: Customer, path: [NetworkId(2)] }), \
             Some(RouteInfo { class: Origin, path: [] }), \
             Some(RouteInfo { class: Peer, path: [NetworkId(1), NetworkId(2)] })]"
        );
    }

    #[test]
    fn simple_path_detection() {
        let n = |i: u32| NetworkId(i);
        assert!(is_simple(&[n(0), n(1), n(2)]));
        assert!(!is_simple(&[n(0), n(1), n(0)]));
    }

    #[test]
    fn route_info_accessors() {
        let r = RouteInfo {
            class: RouteClass::Peer,
            path: vec![NetworkId(4), NetworkId(9)],
        };
        assert_eq!(r.len(), 2);
        assert_eq!(r.next_hop(), Some(NetworkId(4)));
        assert!(!r.is_empty());
        let o = RouteInfo {
            class: RouteClass::Origin,
            path: vec![],
        };
        assert!(o.is_empty());
        assert_eq!(o.next_hop(), None);
    }
}
