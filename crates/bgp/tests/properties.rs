//! Property-based tests on routing: every seed, every origin — same laws.

use proptest::prelude::*;
use rp_bgp::{is_valley_free, propagate, propagate_iterative, RouteClass, RoutingView};
use rp_topology::{generate, TopologyConfig};
use rp_types::NetworkId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn staged_engine_matches_message_passing(seed in any::<u64>(), origin_pick in 0usize..50) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let origin = NetworkId((origin_pick % topo.len()) as u32);
        let fast = propagate(&topo, origin);
        let slow = propagate_iterative(&topo, origin);
        for id in topo.ids() {
            match (fast.route(id), &slow[id.index()]) {
                (Some(f), Some(s)) => {
                    prop_assert_eq!(f.class, s.class);
                    prop_assert_eq!(f.len(), s.len());
                    prop_assert_eq!(f.next_hop(), s.next_hop());
                }
                (None, None) => {}
                other => prop_assert!(false, "reachability disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn all_routes_are_valley_free_simple_and_terminate(seed in any::<u64>(), origin_pick in 0usize..50) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let origin = NetworkId((origin_pick % topo.len()) as u32);
        let routes = propagate(&topo, origin);
        for id in topo.ids() {
            let Some(r) = routes.route(id) else { continue };
            if id == origin {
                prop_assert_eq!(r.class, RouteClass::Origin);
                continue;
            }
            prop_assert_eq!(*r.path.last().unwrap(), origin);
            let mut full = vec![id];
            full.extend_from_slice(&r.path);
            prop_assert!(is_valley_free(&topo, &full), "{full:?}");
            let mut sorted = full.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), full.len(), "simple path");
        }
    }

    #[test]
    fn forward_paths_are_consistent_with_gateways(seed in any::<u64>()) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let vantage = topo.ids().next().unwrap();
        let view = RoutingView::new(&topo, vantage);
        for dest in topo.ids() {
            if dest == vantage { continue; }
            let (gw, fwd, len) = (
                view.gateway(dest),
                view.forward_path(dest),
                view.path_len(dest),
            );
            match (gw, fwd, len) {
                (Some(g), Some(f), Some(l)) => {
                    prop_assert_eq!(f[0], g);
                    prop_assert_eq!(f.len(), l);
                    prop_assert_eq!(*f.last().unwrap(), dest);
                }
                (None, None, None) => {}
                other => prop_assert!(false, "inconsistent view at {dest}: {other:?}"),
            }
        }
    }

    #[test]
    fn view_walks_the_paths_message_passing_materializes(seed in any::<u64>(), vantage_pick in 0usize..50) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let vantage = NetworkId((vantage_pick % topo.len()) as u32);
        let view = RoutingView::new(&topo, vantage);
        let slow = propagate_iterative(&topo, vantage);
        for dest in topo.ids() {
            let route = slow[dest.index()].as_ref();
            // The forward path is the route toward the vantage reversed,
            // the vantage dropped and `dest` appended.
            let expected = route.filter(|_| dest != vantage).map(|r| {
                let mut fwd: Vec<NetworkId> = r.path.iter().rev().skip(1).copied().collect();
                fwd.push(dest);
                fwd
            });
            prop_assert_eq!(view.gateway(dest), expected.as_ref().map(|f| f[0]), "gateway of {}", dest);
            prop_assert_eq!(view.forward_path(dest), expected, "forward path to {}", dest);
            prop_assert_eq!(view.path_len(dest), route.map(|r| r.len()), "path length to {}", dest);
        }
    }
}
