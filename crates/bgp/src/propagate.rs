//! Route propagation engines.
//!
//! Both engines compute, for a single origin AS, every other AS's best
//! valley-free route toward it under the standard policy model:
//!
//! - **export**: a route learned from a customer (or originated) is exported
//!   to all neighbors; a route learned from a peer or provider is exported
//!   only to customers;
//! - **selection**: prefer customer routes over peer routes over provider
//!   routes; break ties by shortest AS path, then lowest next-hop ASN.

use crate::route::{RouteClass, RouteInfo, RouteTree, NO_HOP};
use rp_topology::Topology;
use rp_types::NetworkId;
use std::collections::VecDeque;

/// Staged single-origin computation: customer wave (breadth-first up the
/// provider edges), peer step, then the provider wave (breadth-first down
/// the customer edges, seeded at every routed AS's own distance). Every
/// stage is linear in the number of edges; the result is the next-hop
/// tree itself, with no per-AS path materialized. Used at paper scale.
pub fn propagate(topo: &Topology, origin: NetworkId) -> RouteTree {
    let n = topo.len();
    let mut class: Vec<Option<RouteClass>> = vec![None; n];
    let mut next: Vec<NetworkId> = vec![NO_HOP; n];
    let mut dist: Vec<u32> = vec![u32::MAX; n];

    class[origin.index()] = Some(RouteClass::Origin);
    dist[origin.index()] = 0;

    // --- Stage 1: customer routes climb from the origin via provider edges.
    let mut wave = vec![origin];
    while !wave.is_empty() {
        wave = relax_level(
            topo,
            &wave,
            |u| topo.providers(u),
            RouteClass::Customer,
            &mut class,
            &mut next,
            &mut dist,
        );
    }

    // --- Stage 2: peer routes. An AS with a customer route (or the origin)
    // exports it across each peering edge; receivers without a better class
    // pick the peer minimizing (advertised length, peer ASN).
    let mut peer_assign: Vec<(usize, NetworkId)> = Vec::new();
    for v in 0..n {
        if class[v].is_some() {
            continue;
        }
        let mut best: Option<(u32, u32, NetworkId)> = None;
        for &w in topo.peers(NetworkId(v as u32)) {
            let exports = matches!(
                class[w.index()],
                Some(RouteClass::Origin) | Some(RouteClass::Customer)
            );
            if !exports {
                continue;
            }
            let key = (dist[w.index()], topo.node(w).asn.0, w);
            if best.map(|b| (key.0, key.1) < (b.0, b.1)).unwrap_or(true) {
                best = Some(key);
            }
        }
        if let Some((d, _, w)) = best {
            peer_assign.push((v, w));
            dist[v] = d + 1;
        }
    }
    for (v, w) in peer_assign {
        class[v] = Some(RouteClass::Peer);
        next[v] = w;
    }

    // --- Stage 3: provider routes descend the customer edges. Every hop
    // costs 1, so a breadth-first wave over distance levels needs no
    // priority queue: level `d` holds every AS routed at distance `d`, the
    // ones from stages 1–2 and the ones this wave reached one level up.
    // An AS first offered a route by level `d`'s senders takes distance
    // `d + 1` and the lowest-ASN provider among them, exactly the route a
    // (length, next-hop ASN) Dijkstra would settle first.
    let mut levels: Vec<Vec<NetworkId>> = Vec::new();
    for (v, c) in class.iter().enumerate() {
        if c.is_some() {
            let d = dist[v] as usize;
            if levels.len() <= d {
                levels.resize_with(d + 1, Vec::new);
            }
            levels[d].push(NetworkId(v as u32));
        }
    }
    let mut d = 0;
    while d < levels.len() {
        let senders = std::mem::take(&mut levels[d]);
        let reached = relax_level(
            topo,
            &senders,
            |u| topo.customers(u),
            RouteClass::Provider,
            &mut class,
            &mut next,
            &mut dist,
        );
        if !reached.is_empty() {
            if levels.len() == d + 1 {
                levels.push(Vec::new());
            }
            levels[d + 1].extend(reached);
        }
        d += 1;
    }

    RouteTree { class, next, dist }
}

/// One breadth-first level of a route wave. Every sender, all at the same
/// distance, offers its route across `edges(sender)`; each receiver with no
/// route yet keeps the sender with the lowest `(ASN, index)` — the
/// selection rule's tie-break among equal-length routes of one class. The
/// receivers then get `class` at one hop past their sender and are
/// returned as the next level. While a receiver is unrouted, `next` holds
/// its best sender so far ([`NO_HOP`] before the first offer).
fn relax_level<'t>(
    topo: &'t Topology,
    senders: &[NetworkId],
    edges: impl Fn(NetworkId) -> &'t [NetworkId],
    cls: RouteClass,
    class: &mut [Option<RouteClass>],
    next: &mut [NetworkId],
    dist: &mut [u32],
) -> Vec<NetworkId> {
    let key = |v: NetworkId| (topo.node(v).asn.0, v);
    let mut reached = Vec::new();
    for &u in senders {
        for &t in edges(u) {
            if class[t.index()].is_some() {
                continue;
            }
            let prev = next[t.index()];
            if prev == NO_HOP {
                next[t.index()] = u;
                reached.push(t);
            } else if key(u) < key(prev) {
                next[t.index()] = u;
            }
        }
    }
    for &t in &reached {
        let via = next[t.index()];
        class[t.index()] = Some(cls);
        dist[t.index()] = dist[via.index()] + 1;
    }
    reached
}

/// Preference key: smaller is better.
fn pref_key(topo: &Topology, r: &RouteInfo) -> (RouteClass, usize, u32) {
    let next_asn = r.next_hop().map(|h| topo.node(h).asn.0).unwrap_or(0);
    (r.class, r.len(), next_asn)
}

/// Message-passing BGP emulation: the origin announces to its neighbors and
/// updates propagate until no AS can improve its best route. Quadratic-ish
/// and allocation-heavy — use on small topologies to cross-validate
/// [`propagate`].
pub fn propagate_iterative(topo: &Topology, origin: NetworkId) -> Vec<Option<RouteInfo>> {
    let n = topo.len();
    let mut best: Vec<Option<RouteInfo>> = vec![None; n];
    best[origin.index()] = Some(RouteInfo {
        class: RouteClass::Origin,
        path: vec![],
    });

    // (receiver, sender, path advertised by sender).
    let mut queue: VecDeque<(NetworkId, NetworkId, Vec<NetworkId>)> = VecDeque::new();
    let announce =
        |queue: &mut VecDeque<_>, topo: &Topology, sender: NetworkId, route: &RouteInfo| {
            let export_all = matches!(route.class, RouteClass::Origin | RouteClass::Customer);
            let advertised = route.path.clone();
            for &c in topo.customers(sender) {
                queue.push_back((c, sender, advertised.clone()));
            }
            if export_all {
                for &p in topo.providers(sender) {
                    queue.push_back((p, sender, advertised.clone()));
                }
                for &w in topo.peers(sender) {
                    queue.push_back((w, sender, advertised.clone()));
                }
            }
        };

    let origin_route = best[origin.index()].clone().unwrap();
    announce(&mut queue, topo, origin, &origin_route);

    while let Some((recv, sender, sender_path)) = queue.pop_front() {
        // Loop prevention: BGP drops paths containing the receiver's ASN.
        if sender_path.contains(&recv) || recv == origin {
            continue;
        }
        let class = if topo.customers(recv).contains(&sender) {
            RouteClass::Customer
        } else if topo.peers(recv).contains(&sender) {
            RouteClass::Peer
        } else {
            RouteClass::Provider
        };
        let mut path = Vec::with_capacity(sender_path.len() + 1);
        path.push(sender);
        path.extend_from_slice(&sender_path);
        let candidate = RouteInfo { class, path };
        // A strictly preferred route wins. An equally preferred one comes
        // from the current next hop (the key holds its ASN) and replaces
        // that hop's old route, BGP's implicit withdraw: keeping the old
        // path would leave one that no longer follows the next hops.
        let better = match &best[recv.index()] {
            None => true,
            Some(cur) => {
                let (new, old) = (pref_key(topo, &candidate), pref_key(topo, cur));
                new < old || (new == old && candidate.path != cur.path)
            }
        };
        if better {
            best[recv.index()] = Some(candidate.clone());
            announce(&mut queue, topo, recv, &candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{is_simple, is_valley_free};
    use rp_topology::{generate, TopologyConfig};

    fn full_path(start: NetworkId, r: &RouteInfo) -> Vec<NetworkId> {
        let mut p = vec![start];
        p.extend_from_slice(&r.path);
        p
    }

    #[test]
    fn all_routes_reach_origin_on_generated_topology() {
        let topo = generate(&TopologyConfig::test_scale(11));
        let origin = topo.ids().next().unwrap();
        let routes = propagate(&topo, origin);
        for v in topo.ids() {
            let path: Vec<_> = routes
                .path(v)
                .unwrap_or_else(|| panic!("{v} unreachable"))
                .collect();
            if !path.is_empty() {
                assert_eq!(*path.last().unwrap(), origin);
            }
        }
    }

    #[test]
    fn routes_are_valley_free_and_simple() {
        let topo = generate(&TopologyConfig::test_scale(12));
        // Use an NREN as origin — mirrors the RedIRIS vantage.
        let origin = topo.of_type(rp_topology::AsType::Nren).next().unwrap().id;
        let routes = propagate(&topo, origin);
        for v in topo.ids() {
            if let Some(r) = routes.route(v) {
                let p = full_path(v, &r);
                assert!(is_valley_free(&topo, &p), "{v}: {p:?}");
                assert!(is_simple(&p), "{v}: {p:?}");
            }
        }
    }

    #[test]
    fn customer_routes_preferred_over_shorter_provider_routes() {
        // Origin is a stub; its provider has both a customer route (via the
        // origin, length 1) and nothing better — while the provider's own
        // provider must use the customer chain.
        let topo = generate(&TopologyConfig::test_scale(13));
        let origin = topo
            .ids()
            .find(|id| !topo.customers(*id).is_empty() && !topo.providers(*id).is_empty())
            .unwrap();
        let routes = propagate(&topo, origin);
        for &p in topo.providers(origin) {
            assert_eq!(
                routes.class(p),
                Some(RouteClass::Customer),
                "provider of origin"
            );
            assert_eq!(routes.path_len(p), Some(1));
        }
        for &c in topo.customers(origin) {
            let class = routes.class(c).unwrap();
            // A customer of the origin can never hold a customer-class route
            // to it (the customer DAG has no cycles); it reaches the origin
            // via its provider or, if better, via a peer whose cone holds
            // the origin.
            assert_ne!(class, RouteClass::Customer, "customer of origin");
        }
    }

    #[test]
    fn engines_agree_on_generated_topologies() {
        for seed in 0..4u64 {
            let topo = generate(&TopologyConfig::test_scale(100 + seed));
            let origin = topo.ids().nth(seed as usize * 7 % topo.len()).unwrap();
            let fast = propagate(&topo, origin);
            let slow = propagate_iterative(&topo, origin);
            for v in topo.ids() {
                let (f, s) = (fast.route(v), &slow[v.index()]);
                match (f, s) {
                    (Some(f), Some(s)) => {
                        assert_eq!(f.class, s.class, "class at {v} (seed {seed})");
                        assert_eq!(f.len(), s.len(), "length at {v} (seed {seed})");
                        // Next-hop tie-breaking must agree as well.
                        assert_eq!(f.next_hop(), s.next_hop(), "next hop at {v}");
                    }
                    (None, None) => {}
                    _ => panic!("reachability disagreement at {v} (seed {seed})"),
                }
            }
        }
    }

    #[test]
    fn origin_route_is_origin() {
        let topo = generate(&TopologyConfig::test_scale(14));
        let origin = topo.ids().last().unwrap();
        let routes = propagate(&topo, origin);
        assert_eq!(routes.class(origin), Some(RouteClass::Origin));
        assert_eq!(routes.path(origin).unwrap().count(), 0);
    }
}
