//! The fabric ARP sponge: which switch port leads to the device that
//! answers ARP for an address.
//!
//! A looking glass's first ARP request for each member is a broadcast, and
//! a plain learning switch floods it to every port — L·M² deliveries per
//! IXP for L looking glasses and M members, nearly all of them to routers
//! that ignore it. Real IXPs suppress that flood with an ARP sponge. The
//! simulator models one: [`OwnerTable`] maps `(switch, address)` to the
//! port toward the address's *owner*, and a switch forwards a broadcast
//! request out that port only (see [`crate::switch::Switch::on_frame_into`]).
//!
//! Owners are what the devices themselves answer for: router addresses
//! (`bind_router`), proxy-ARP entries (`add_proxy_arp`, the extra-hop
//! gadget's front router) and host addresses (`bind_host`). A layer-2
//! domain is a tree of switches — pseudowire chains and inter-site spans
//! included — so the port toward an owner is a tree query: the table keeps
//! each owner's attachment switch and each switch's preorder interval, and
//! answers from them without materializing a row per switch.
//!
//! The sponge changes no result, only the event count: ARP traffic touches
//! no random stream (see `sim.rs`), a request still reaches every device
//! that would answer it, and every switch on the path to the owner still
//! learns the requester. A target with no owner keeps flooding (absent
//! listings, hand-built rigs), and so does every domain with a port that
//! answers ARP for any address, or with a switching loop.

use crate::sim::{NodeId, PortId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Marks "no such port" / "no tree position" in the dense tables.
const NONE: u32 = u32::MAX;

/// What an [`OwnerTable`] is built from: the wiring of every node and what
/// each device answers ARP for.
#[derive(Debug, Default)]
pub(crate) struct Wiring {
    /// Per node, in port order: the far end `(node, port)` of each link.
    pub far: Vec<Vec<(NodeId, PortId)>>,
    /// Per node: whether it is a switch.
    pub switch: Vec<bool>,
    /// `(node, port, address)`: the device answers ARP requests for
    /// `address` arriving on `port`.
    pub claims: Vec<(NodeId, PortId, Ipv4Addr)>,
    /// `(node, port)`: the device answers ARP for any address on `port`.
    pub answers_all: Vec<(NodeId, PortId)>,
}

/// One switch's place in its domain's spanning tree; its index in
/// [`OwnerTable::pos`] is its preorder number `pre`.
#[derive(Debug, Clone, Copy)]
struct TreePos {
    domain: u32,
    /// The subtree is `pre..end`.
    end: u32,
    /// Port toward the tree root (`NONE` at the root).
    up: u32,
    /// This switch's children in [`OwnerTable::down`]: `(child preorder,
    /// port toward that child)`, sorted by preorder.
    down: (u32, u32),
}

/// Read-only `(switch, address) → port` owner table; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct OwnerTable {
    /// Per node: index into `pos`, or `NONE` for non-switches and switches
    /// in domains that keep flooding.
    slot: Vec<u32>,
    pos: Vec<TreePos>,
    down: Vec<(u32, PortId)>,
    /// `(domain, address)` → (owner's attachment switch preorder, port on
    /// that switch, and the owner itself, to name it in a conflict).
    owners: HashMap<(u32, u32), (u32, PortId, NodeId, PortId)>,
}

impl OwnerTable {
    /// Build the table.
    ///
    /// # Panics
    /// When two devices answer ARP for one address inside one layer-2
    /// domain: a sponge would have to pick one of them silently.
    pub(crate) fn build(w: &Wiring) -> OwnerTable {
        let n = w.far.len();
        let mut t = OwnerTable {
            slot: vec![NONE; n],
            ..OwnerTable::default()
        };
        // Domain id per switch node, assigned by the spanning walk, and
        // per domain whether it keeps flooding.
        let mut domain_of = vec![NONE; n];
        let mut floods: Vec<bool> = Vec::new();
        // Per tree position: the parent's position (`NONE` at a root).
        let mut parent: Vec<u32> = Vec::new();
        let mut kids: Vec<Vec<(u32, PortId)>> = Vec::new();
        // `(node, port toward the parent, parent position, parent's port)`.
        let mut stack: Vec<(usize, u32, u32, PortId)> = Vec::new();
        for root in 0..n {
            if !w.switch[root] || domain_of[root] != NONE {
                continue;
            }
            let domain = floods.len() as u32;
            floods.push(false);
            // Depth-first preorder over switch-to-switch links, so every
            // subtree is a contiguous preorder range.
            stack.push((root, NONE, NONE, PortId(0)));
            while let Some((node, up, up_pos, up_port)) = stack.pop() {
                if domain_of[node] != NONE {
                    floods[domain as usize] = true; // reached twice: a loop
                    continue;
                }
                domain_of[node] = domain;
                let pre = t.pos.len() as u32;
                t.slot[node] = pre;
                t.pos.push(TreePos {
                    domain,
                    end: pre + 1,
                    up,
                    down: (0, 0),
                });
                parent.push(up_pos);
                kids.push(Vec::new());
                if up_pos != NONE {
                    kids[up_pos as usize].push((pre, up_port));
                }
                // Push in reverse so ports are walked in order.
                for (p, &(far, far_port)) in w.far[node].iter().enumerate().rev() {
                    if p as u32 == up || !w.switch[far.index()] {
                        continue;
                    }
                    stack.push((far.index(), u32::from(far_port.0), pre, PortId(p as u16)));
                }
            }
        }
        // Children follow their parent in preorder, so a backward walk
        // closes every subtree before its parent reads it.
        for me in (0..t.pos.len()).rev() {
            if parent[me] != NONE {
                let end = t.pos[me].end;
                let up = &mut t.pos[parent[me] as usize];
                up.end = up.end.max(end);
            }
        }
        // Each child list is in preorder already: children are appended as
        // they are numbered.
        for (me, children) in kids.into_iter().enumerate() {
            let from = t.down.len() as u32;
            t.down.extend(children);
            t.pos[me].down = (from, t.down.len() as u32);
        }

        // The switch port a device's `port` plugs into, if it is a switch.
        let attach = |node: NodeId, port: PortId| -> Option<(u32, PortId)> {
            let &(far, far_port) = w.far[node.index()].get(port.index())?;
            (w.switch[far.index()]).then(|| (t.slot[far.index()], far_port))
        };
        for &(node, port) in &w.answers_all {
            if let Some((s, _)) = attach(node, port) {
                floods[t.pos[s as usize].domain as usize] = true;
            }
        }
        let mut owners = HashMap::new();
        for &(node, port, ip) in &w.claims {
            let Some((s, s_port)) = attach(node, port) else {
                continue;
            };
            let domain = t.pos[s as usize].domain;
            if floods[domain as usize] {
                continue;
            }
            match owners.entry((domain, u32::from(ip))) {
                Entry::Vacant(e) => {
                    e.insert((s, s_port, node, port));
                }
                Entry::Occupied(e) => {
                    let &(_, _, other, other_port) = e.get();
                    assert!(
                        (other, other_port) == (node, port),
                        "ARP sponge: {ip} is answered by both {other} (port {}) and {node} \
                         (port {}) in one layer-2 domain",
                        other_port.0,
                        port.0
                    );
                }
            }
        }
        t.owners = owners;
        for (node, slot) in t.slot.iter_mut().enumerate() {
            if *slot != NONE && floods[domain_of[node] as usize] {
                *slot = NONE;
            }
        }
        t
    }

    /// The port of `switch` toward the device answering ARP for `target`,
    /// or `None` when the table knows no owner (the request floods).
    #[inline]
    pub(crate) fn port(&self, switch: NodeId, target: Ipv4Addr) -> Option<PortId> {
        let slot = *self.slot.get(switch.index())?;
        if slot == NONE {
            return None;
        }
        let me = &self.pos[slot as usize];
        let &(owner, port, _, _) = self.owners.get(&(me.domain, u32::from(target)))?;
        if owner == slot {
            return Some(port);
        }
        if slot < owner && owner < me.end {
            let kids = &self.down[me.down.0 as usize..me.down.1 as usize];
            let k = kids.partition_point(|&(pre, _)| pre <= owner);
            return Some(kids[k - 1].1);
        }
        (me.up != NONE).then_some(PortId(me.up as u16))
    }

    /// Heap bytes of the table, by capacity. The owner map counts each
    /// slot as its key, its value and one control byte.
    pub(crate) fn bytes(&self) -> u64 {
        use std::mem::size_of;
        type Owner = ((u32, u32), (u32, PortId, NodeId, PortId));
        (self.slot.capacity() * size_of::<u32>()
            + self.pos.capacity() * size_of::<TreePos>()
            + self.down.capacity() * size_of::<(u32, PortId)>()
            + self.owners.capacity() * (size_of::<Owner>() + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::host::PingOutcome;
    use crate::link::{CongestionEpisode, DelayModel};
    use crate::router::{RouterBehavior, SlowPath};
    use crate::sim::Network;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rp_types::{SimDuration, SimTime};

    /// What every host observed: its ping outcomes and, per traceroute
    /// target, the hops it revealed.
    type Observed = Vec<(Vec<PingOutcome>, Vec<Vec<(u8, Option<Ipv4Addr>)>>)>;

    /// A random IXP-like fabric, probed from its looking
    /// glasses: `sites` fabric switches chained by inter-site spans, member
    /// routers attached directly, behind two-switch pseudowires or behind
    /// the proxy-ARP extra-hop gadget, listed addresses with no device,
    /// and faults on. With `flood`, the owner table is empty and every
    /// broadcast ARP request floods. Returns what the hosts observed and
    /// the events the run dispatched.
    fn probe_random_fabric(seed: u64, flood: bool) -> (Observed, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(seed);
        if flood {
            net.flood_arp();
        }
        let sites = rng.random_range(1..=3usize);
        let fabrics: Vec<NodeId> = (0..sites).map(|_| net.add_switch()).collect();
        for w in 1..sites {
            let ms = rng.random_range(0.05..2.0);
            net.connect(fabrics[w - 1], fabrics[w], DelayModel::with_one_way_ms(ms));
        }
        let site = |rng: &mut StdRng| rng.random_range(0..sites);
        let mut hosts = Vec::new();
        for k in 0..rng.random_range(1..=3u8) {
            let w = site(&mut rng);
            let h = net.add_host();
            let (_, hp) = net.connect(fabrics[w], h, DelayModel::with_one_way_ms(0.05));
            net.bind_host(h, hp, Ipv4Addr::new(10, 0, 0, 1 + k));
            hosts.push(h);
        }
        let mut targets = Vec::new();
        for i in 0..rng.random_range(2..=8u8) {
            let ip = Ipv4Addr::new(10, 0, 1, 1 + i);
            targets.push(ip);
            let w = site(&mut rng);
            let mut link = DelayModel::with_one_way_ms(rng.random_range(0.05..1.0));
            if rng.random_bool(0.3) {
                link = link.with_persistent_episode(CongestionEpisode {
                    start: SimTime::ZERO + SimDuration::from_secs(30),
                    end: SimTime::ZERO + SimDuration::from_secs(90),
                    extra_mean_ms: 4.0,
                });
            }
            let behavior = RouterBehavior {
                initial_ttl: if rng.random_bool(0.5) { 64 } else { 255 },
                drop_prob: if rng.random_bool(0.3) { 0.2 } else { 0.0 },
                blackhole_icmp: rng.random_bool(0.1),
                slow_path: rng.random_bool(0.2).then_some(SlowPath {
                    fast_prob: 0.3,
                    slow_us: (2_000, 6_000),
                }),
                ..RouterBehavior::default()
            };
            let attach = if rng.random_bool(0.3) {
                // Remote member: provider switch at the fabric, long-haul
                // pseudowire, provider switch near the member.
                let (near, far) = (net.add_switch(), net.add_switch());
                net.connect(fabrics[w], near, DelayModel::with_one_way_ms(0.05));
                let ms = rng.random_range(1.0..30.0);
                net.connect(near, far, DelayModel::with_one_way_ms(ms));
                far
            } else {
                fabrics[w]
            };
            match rng.random_range(0..4u8) {
                0 => {} // listed, but no device answers
                1 => {
                    // Registry-stale target behind one extra IP hop.
                    let front = net.add_router(RouterBehavior::default());
                    let (_, f_access) = net.connect(attach, front, link);
                    net.bind_router(front, f_access, Ipv4Addr::new(172, 16, 0, 1 + i));
                    let inner = net.add_router(behavior);
                    let (f_in, i_port) =
                        net.connect(front, inner, DelayModel::with_one_way_ms(0.8));
                    net.bind_router(front, f_in, Ipv4Addr::new(192, 168, i, 1));
                    net.bind_router(inner, i_port, ip);
                    let r = net.router_mut(front);
                    r.add_proxy_arp(f_access, ip);
                    r.add_route(ip, f_in);
                    r.set_default_route(f_access);
                    r.set_proxy_arp_all(f_in);
                    net.router_mut(inner).set_default_route(i_port);
                }
                _ => {
                    let router = net.add_router(behavior);
                    let (_, rp) = net.connect(attach, router, link);
                    net.bind_router(router, rp, ip);
                }
            }
        }
        net.install_faults(FaultInjector::new(FaultConfig {
            probe_loss: 0.05,
            reply_duplication: 0.05,
            jitter_spike: 0.05,
            jitter_spike_ms: 3.0,
            ttl_rewrite: 0.02,
            ttl_rewrite_to: 7,
            link_flap: 0.2,
            flap_window: Some((
                SimTime::ZERO + SimDuration::from_secs(40),
                SimTime::ZERO + SimDuration::from_secs(60),
            )),
            ..FaultConfig::quiet(seed ^ 0x5eed)
        }));
        for &h in &hosts {
            for &ip in &targets {
                for _ in 0..3 {
                    let at = SimTime::ZERO + SimDuration::from_millis(rng.random_range(0..120_000));
                    net.plan_ping(h, at, ip);
                }
            }
        }
        let traced: Vec<Ipv4Addr> = targets.iter().copied().step_by(2).collect();
        for (k, &ip) in traced.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_secs(130 + 5 * k as u64);
            net.plan_traceroute(hosts[0], at, ip, 3);
        }
        net.run_to_completion();
        let observed = hosts
            .iter()
            .map(|&h| {
                let host = net.host(h);
                let hops = traced.iter().map(|&ip| host.traceroute_hops(ip)).collect();
                (host.outcomes().to_vec(), hops)
            })
            .collect();
        (observed, net.events_processed())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The sponge is invisible to measurement: every host's ping
        /// outcomes and traceroute hops are what the flooding fabric gives,
        /// for fewer events.
        #[test]
        fn sponge_matches_the_flood(seed in any::<u64>()) {
            let (sponged, sponged_events) = probe_random_fabric(seed, false);
            let (flooded, flooded_events) = probe_random_fabric(seed, true);
            prop_assert_eq!(&sponged, &flooded);
            prop_assert!(
                sponged_events <= flooded_events,
                "sponge dispatched {sponged_events} events, flood {flooded_events}"
            );
        }
    }

    #[test]
    fn sponge_dispatches_fewer_events_than_the_flood() {
        let (sponged, flooded): (u64, u64) = (0..8)
            .map(|seed| {
                (
                    probe_random_fabric(seed, false).1,
                    probe_random_fabric(seed, true).1,
                )
            })
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
        assert!(
            sponged < flooded,
            "sponge {sponged} vs flood {flooded} events"
        );
    }

    /// A wiring builder for hand-drawn topologies.
    #[derive(Default)]
    struct Rig {
        w: Wiring,
    }

    impl Rig {
        fn node(&mut self, switch: bool) -> NodeId {
            self.w.far.push(Vec::new());
            self.w.switch.push(switch);
            NodeId(self.w.far.len() as u32 - 1)
        }

        fn link(&mut self, a: NodeId, b: NodeId) -> (PortId, PortId) {
            let pa = PortId(self.w.far[a.index()].len() as u16);
            let pb = PortId(self.w.far[b.index()].len() as u16);
            self.w.far[a.index()].push((b, pb));
            self.w.far[b.index()].push((a, pa));
            (pa, pb)
        }

        fn claim(&mut self, node: NodeId, port: PortId, ip: &str) {
            self.w.claims.push((node, port, ip.parse().unwrap()));
        }
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Two fabric sites joined by a span; a direct member at site A, a
    /// remote member behind a two-switch pseudowire at site B.
    #[test]
    fn ports_follow_spans_and_pseudowire_chains() {
        let mut r = Rig::default();
        let (a, b) = (r.node(true), r.node(true));
        let (a_span, b_span) = r.link(a, b);
        let direct = r.node(false);
        let (a_direct, d_port) = r.link(a, direct);
        r.claim(direct, d_port, "10.0.0.1");
        let (pw1, pw2) = (r.node(true), r.node(true));
        let (b_pw, _) = r.link(b, pw1);
        let (pw1_out, _) = r.link(pw1, pw2);
        let remote = r.node(false);
        let (pw2_out, rm_port) = r.link(pw2, remote);
        r.claim(remote, rm_port, "10.0.0.2");
        let t = OwnerTable::build(&r.w);

        assert_eq!(t.port(a, ip("10.0.0.1")), Some(a_direct));
        assert_eq!(t.port(b, ip("10.0.0.1")), Some(b_span));
        assert_eq!(t.port(pw2, ip("10.0.0.1")).map(|p| p.0), Some(0));
        assert_eq!(t.port(a, ip("10.0.0.2")), Some(a_span));
        assert_eq!(t.port(b, ip("10.0.0.2")), Some(b_pw));
        assert_eq!(t.port(pw1, ip("10.0.0.2")), Some(pw1_out));
        assert_eq!(t.port(pw2, ip("10.0.0.2")), Some(pw2_out));
        assert_eq!(t.port(a, ip("10.0.0.3")), None, "no owner: flood");
        assert_eq!(t.port(direct, ip("10.0.0.1")), None, "not a switch");
    }

    #[test]
    fn a_port_answering_everything_keeps_its_domain_flooding() {
        let mut r = Rig::default();
        let s = r.node(true);
        let (m, gw) = (r.node(false), r.node(false));
        let (_, mp) = r.link(s, m);
        let (_, gp) = r.link(s, gw);
        r.claim(m, mp, "10.0.0.1");
        r.w.answers_all.push((gw, gp));
        assert_eq!(OwnerTable::build(&r.w).port(s, ip("10.0.0.1")), None);
    }

    #[test]
    fn a_switching_loop_keeps_its_domain_flooding() {
        let mut r = Rig::default();
        let (a, b, c) = (r.node(true), r.node(true), r.node(true));
        r.link(a, b);
        r.link(b, c);
        r.link(c, a);
        let m = r.node(false);
        let (_, mp) = r.link(a, m);
        r.claim(m, mp, "10.0.0.1");
        assert_eq!(OwnerTable::build(&r.w).port(b, ip("10.0.0.1")), None);
    }

    #[test]
    fn one_address_in_two_domains_is_fine() {
        let mut r = Rig::default();
        let (a, b) = (r.node(true), r.node(true));
        let (m1, m2) = (r.node(false), r.node(false));
        let (a1, p1) = r.link(a, m1);
        let (b2, p2) = r.link(b, m2);
        r.claim(m1, p1, "10.0.0.1");
        r.claim(m2, p2, "10.0.0.1");
        let t = OwnerTable::build(&r.w);
        assert_eq!(t.port(a, ip("10.0.0.1")), Some(a1));
        assert_eq!(t.port(b, ip("10.0.0.1")), Some(b2));
    }

    #[test]
    #[should_panic(expected = "10.0.0.1 is answered by both node1 (port 0) and node2 (port 0)")]
    fn two_owners_in_one_domain_panic_naming_both() {
        let mut r = Rig::default();
        let s = r.node(true);
        let (m1, m2) = (r.node(false), r.node(false));
        let (_, p1) = r.link(s, m1);
        let (_, p2) = r.link(s, m2);
        r.claim(m1, p1, "10.0.0.1");
        r.claim(m2, p2, "10.0.0.1");
        OwnerTable::build(&r.w);
    }
}
