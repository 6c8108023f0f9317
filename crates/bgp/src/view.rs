//! A vantage network's forwarding view of the Internet.
//!
//! Section 4 needs to know, for every remote network, *which kind of
//! first-hop* the study network (RedIRIS) uses to exchange traffic with it:
//! traffic whose first hop is a transit provider is the only traffic that
//! can contribute to the offload potential. `RoutingView` wraps a single
//! [`propagate`] run with the study network as origin and answers forward-
//! path questions by reversing the resulting tree (reversing a valley-free
//! path preserves valley-freeness).

use crate::propagate::propagate;
use crate::route::RouteTree;
use rp_topology::Topology;
use rp_types::NetworkId;
use serde::{Deserialize, Serialize};

/// Relationship between the vantage network and the first hop on the
/// forward path toward a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GatewayClass {
    /// First hop is a transit customer of the vantage.
    Customer,
    /// First hop is a settlement-free peer (incl. IXP peers).
    Peer,
    /// First hop is a transit provider — this traffic is billable transit
    /// and is what remote peering could offload.
    Provider,
}

/// The forwarding view of one vantage network over the whole topology.
#[derive(Clone)]
pub struct RoutingView {
    vantage: NetworkId,
    /// Best route of every AS *toward* the vantage, as a next-hop tree.
    routes: RouteTree,
}

impl RoutingView {
    /// Compute the view by propagating the vantage's prefix through the
    /// topology.
    pub fn new(topo: &Topology, vantage: NetworkId) -> Self {
        let _sp = rp_obs::span("bgp.routing_view");
        RoutingView {
            vantage,
            routes: propagate(topo, vantage),
        }
    }

    /// The vantage network.
    #[inline]
    pub fn vantage(&self) -> NetworkId {
        self.vantage
    }

    /// True when `dest` has any route to/from the vantage.
    pub fn reachable(&self, dest: NetworkId) -> bool {
        self.routes.class(dest).is_some()
    }

    /// The hops of `dest`'s route toward the vantage that precede the
    /// vantage itself: `dest` first, the gateway last. `None` when
    /// unreachable or when `dest` is the vantage.
    fn hops_before_vantage(&self, dest: NetworkId) -> Option<impl Iterator<Item = NetworkId> + '_> {
        if dest == self.vantage {
            return None;
        }
        let path = self.routes.path(dest)?;
        Some(std::iter::once(dest).chain(path.take_while(move |&h| h != self.vantage)))
    }

    /// The forward AS path from the vantage to `dest`, excluding the vantage
    /// itself and including `dest` as the final element. `None` when
    /// unreachable or when `dest` is the vantage.
    pub fn forward_path(&self, dest: NetworkId) -> Option<Vec<NetworkId>> {
        // The route seen from dest runs [dest, h1, ..., vantage]; the
        // forward path is its reverse with the vantage dropped.
        let mut fwd: Vec<NetworkId> = self.hops_before_vantage(dest)?.collect();
        fwd.reverse();
        Some(fwd)
    }

    /// First hop from the vantage toward `dest`.
    pub fn gateway(&self, dest: NetworkId) -> Option<NetworkId> {
        self.hops_before_vantage(dest)?.last()
    }

    /// Heap bytes held by the view, by capacity.
    pub fn plane_bytes(&self) -> u64 {
        self.routes.plane_bytes()
    }

    /// Relationship class of the first hop toward `dest`.
    pub fn gateway_class(&self, topo: &Topology, dest: NetworkId) -> Option<GatewayClass> {
        let gw = self.gateway(dest)?;
        if topo.providers(self.vantage).contains(&gw) {
            Some(GatewayClass::Provider)
        } else if topo.customers(self.vantage).contains(&gw) {
            Some(GatewayClass::Customer)
        } else {
            debug_assert!(
                topo.peers(self.vantage).contains(&gw),
                "gateway not adjacent"
            );
            Some(GatewayClass::Peer)
        }
    }

    /// True when traffic to/from `dest` crosses one of the vantage's transit
    /// providers — i.e. when that traffic is offloadable in principle.
    pub fn uses_transit(&self, topo: &Topology, dest: NetworkId) -> bool {
        self.gateway_class(topo, dest) == Some(GatewayClass::Provider)
    }

    /// Hop count of the forward path (AS hops from vantage to `dest`).
    pub fn path_len(&self, dest: NetworkId) -> Option<usize> {
        self.routes.path_len(dest)
    }
}

/// Prints the text the former `Vec<Option<RouteInfo>>` field derived, so
/// `Debug`-text fingerprints of a view are unchanged by the tree layout.
impl std::fmt::Debug for RoutingView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingView")
            .field("vantage", &self.vantage)
            .field("routes", &self.routes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::is_valley_free;
    use rp_topology::{generate, AsType, TopologyConfig};

    fn nren_view() -> (rp_topology::Topology, RoutingView) {
        let topo = generate(&TopologyConfig::test_scale(21));
        let nren = topo.of_type(AsType::Nren).next().unwrap().id;
        let view = RoutingView::new(&topo, nren);
        (topo, view)
    }

    #[test]
    fn forward_paths_end_at_destination_and_are_valley_free() {
        let (topo, view) = nren_view();
        for dest in topo.ids() {
            if dest == view.vantage() {
                assert!(view.forward_path(dest).is_none());
                continue;
            }
            let fwd = view.forward_path(dest).expect("connected world");
            assert_eq!(*fwd.last().unwrap(), dest);
            let mut full = vec![view.vantage()];
            full.extend_from_slice(&fwd);
            assert!(is_valley_free(&topo, &full), "{dest}: {full:?}");
        }
    }

    #[test]
    fn gateway_is_first_forward_hop_and_adjacent() {
        let (topo, view) = nren_view();
        for dest in topo.ids() {
            if dest == view.vantage() {
                continue;
            }
            let fwd = view.forward_path(dest).unwrap();
            let gw = view.gateway(dest).unwrap();
            assert_eq!(fwd[0], gw);
            let adjacent = topo.providers(view.vantage()).contains(&gw)
                || topo.customers(view.vantage()).contains(&gw)
                || topo.peers(view.vantage()).contains(&gw);
            assert!(adjacent, "gateway {gw} not adjacent to vantage");
        }
    }

    #[test]
    fn most_destinations_use_transit_from_a_stub_nren() {
        // An NREN with two tier-1 providers and no peerings yet should reach
        // nearly everything via transit.
        let (topo, view) = nren_view();
        let transit_count = topo
            .ids()
            .filter(|&d| d != view.vantage() && view.uses_transit(&topo, d))
            .count();
        assert!(
            transit_count > topo.len() * 8 / 10,
            "only {transit_count}/{} via transit",
            topo.len()
        );
    }

    #[test]
    fn debug_text_equals_the_former_derived_text() {
        /// The view as it was laid out before the next-hop tree, with its
        /// derived `Debug`.
        #[derive(Debug)]
        #[allow(dead_code)] // read only through `Debug`
        struct RoutingView {
            vantage: NetworkId,
            routes: Vec<Option<crate::RouteInfo>>,
        }
        let (topo, view) = nren_view();
        let tree = propagate(&topo, view.vantage());
        let former = RoutingView {
            vantage: view.vantage(),
            routes: topo.ids().map(|v| tree.route(v)).collect(),
        };
        assert_eq!(format!("{view:?}"), format!("{former:?}"));
    }

    #[test]
    fn providers_are_gateways_for_themselves() {
        let (topo, view) = nren_view();
        for &p in topo.providers(view.vantage()) {
            assert_eq!(view.gateway(p), Some(p));
            assert_eq!(view.gateway_class(&topo, p), Some(GatewayClass::Provider));
            assert_eq!(view.path_len(p), Some(1));
        }
    }
}
