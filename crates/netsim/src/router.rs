//! An IP router / member edge device.
//!
//! Routers are where layer 3 happens: they answer ARP for their interface
//! addresses, reply to ICMP echo with a configurable initial TTL, and
//! *decrement TTL when forwarding* — which is how the paper's TTL-match
//! filter can tell a reply that crossed an extra IP hop from one that stayed
//! inside the IXP subnet.
//!
//! The pathologies of section 3.1 are all expressible as configuration:
//!
//! - **blackholing** — `blackhole_icmp` drops echo requests silently;
//! - **OS change mid-campaign** — `ttl_changes` swaps the initial TTL at
//!   given instants (the TTL-switch filter's target);
//! - **registry-stale target behind an extra hop** — build a front router
//!   with `add_proxy_arp` + `add_route` to a second router holding the
//!   probed address (the TTL-match filter's target);
//! - **reply from a different interface address** — `reply_from` overrides
//!   the source address of echo replies.

use crate::frame::{ArpOp, Frame, IcmpMessage, Ipv4Packet, MacAddr, Payload};
use crate::sim::{Action, PortId};
use rand::rngs::StdRng;
use rand::RngExt;
use rp_types::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// ICMP slow-path (control-plane policing) parameters.
#[derive(Debug, Clone, Copy)]
pub struct SlowPath {
    /// Probability that a reply takes the fast path (normal processing).
    pub fast_prob: f64,
    /// Uniform slow-path delay range, microseconds.
    pub slow_us: (u64, u64),
}

/// Responder behavior knobs.
#[derive(Debug, Clone)]
pub struct RouterBehavior {
    /// Initial TTL of locally-generated packets (ping replies). Typical
    /// operating systems use 64 or 255; 128 and 32 occur in the wild and the
    /// paper's TTL-match filter deliberately rejects them as infrequent.
    pub initial_ttl: u8,
    /// Scheduled initial-TTL changes `(effective from, new value)` —
    /// emulates an operating-system change during the measurement period.
    pub ttl_changes: Vec<(SimTime, u8)>,
    /// Silently drop ICMP echo requests.
    pub blackhole_icmp: bool,
    /// Probability of dropping an individual echo request (congestion loss
    /// at a saturated member port). 0.0 = lossless.
    pub drop_prob: f64,
    /// ICMP slow-path mode (control-plane policing): with probability
    /// `1 - fast_prob` a reply is generated only after a uniformly drawn
    /// `slow_us` delay instead of the normal processing delay. The bounded
    /// slow range keeps the minimum RTT honest while scattering most
    /// replies far from it — the signature the RTT-consistent filter
    /// rejects.
    pub slow_path: Option<SlowPath>,
    /// Uniform range of local processing delay for generated replies, in
    /// microseconds.
    pub proc_delay_us: (u64, u64),
    /// Send echo replies sourced from this address instead of the probed
    /// interface address.
    pub reply_from: Option<Ipv4Addr>,
}

impl Default for RouterBehavior {
    fn default() -> Self {
        RouterBehavior {
            initial_ttl: 64,
            ttl_changes: Vec::new(),
            blackhole_icmp: false,
            drop_prob: 0.0,
            slow_path: None,
            proc_delay_us: (20, 120),
            reply_from: None,
        }
    }
}

impl RouterBehavior {
    /// Initial TTL in effect at `now`, honoring scheduled changes.
    pub fn ttl_at(&self, now: SimTime) -> u8 {
        self.ttl_changes
            .iter()
            .rev()
            .find(|(t, _)| *t <= now)
            .map(|(_, ttl)| *ttl)
            .unwrap_or(self.initial_ttl)
    }
}

/// One bound interface: an IP address on a port.
#[derive(Debug, Clone, Copy)]
struct Iface {
    port: PortId,
    ip: Ipv4Addr,
    mac: MacAddr,
}

/// Static route: exact destination match, or the default route.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    dst: Option<Ipv4Addr>,
    port: PortId,
}

/// Router state.
///
/// A router talks to a handful of layer-2 neighbors at most, so every
/// per-packet lookup structure is a short vector scanned linearly —
/// faster than hashing at these sizes, allocation-free on the hot path,
/// and with deterministic iteration order by construction.
#[derive(Debug)]
pub struct Router {
    behavior: RouterBehavior,
    ifaces: Vec<Iface>,
    proxy_arp: Vec<(PortId, Ipv4Addr)>,
    proxy_arp_all: Vec<PortId>,
    routes: Vec<RouteEntry>,
    /// ARP cache per (port, ip).
    arp_cache: Vec<((PortId, Ipv4Addr), MacAddr)>,
    /// Packets awaiting ARP resolution, keyed by (port, next-hop ip);
    /// drained in arrival order when the reply comes back.
    pending: Vec<((PortId, Ipv4Addr), Vec<Ipv4Packet>)>,
}

impl Router {
    /// A router with the given responder behavior and no interfaces yet.
    pub fn new(behavior: RouterBehavior) -> Self {
        Router {
            behavior,
            ifaces: Vec::new(),
            proxy_arp: Vec::new(),
            proxy_arp_all: Vec::new(),
            routes: Vec::new(),
            arp_cache: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Bind address `ip` with `mac` on `port`. A port may carry several
    /// addresses (members sometimes hold more than one address in an IXP
    /// subnet).
    pub fn bind(&mut self, port: PortId, ip: Ipv4Addr, mac: MacAddr) {
        self.ifaces.push(Iface { port, ip, mac });
    }

    /// Answer ARP requests for `ip` arriving on `port` even though the
    /// address is not bound here (the front half of the extra-hop gadget).
    pub fn add_proxy_arp(&mut self, port: PortId, ip: Ipv4Addr) {
        self.proxy_arp.push((port, ip));
    }

    /// Answer ARP for *any* address on `port` (gateway-for-everything on a
    /// point-to-point inner link).
    pub fn set_proxy_arp_all(&mut self, port: PortId) {
        if !self.proxy_arp_all.contains(&port) {
            self.proxy_arp_all.push(port);
        }
    }

    /// Install an exact-destination route out of `port`.
    pub fn add_route(&mut self, dst: Ipv4Addr, port: PortId) {
        self.routes.push(RouteEntry {
            dst: Some(dst),
            port,
        });
    }

    /// Install the default route out of `port`.
    pub fn set_default_route(&mut self, port: PortId) {
        self.routes.push(RouteEntry { dst: None, port });
    }

    /// The behavior configuration.
    pub fn behavior(&self) -> &RouterBehavior {
        &self.behavior
    }

    fn iface_on(&self, port: PortId) -> Option<Iface> {
        self.ifaces.iter().find(|i| i.port == port).copied()
    }

    fn owns_ip(&self, ip: Ipv4Addr) -> Option<Iface> {
        self.ifaces.iter().find(|i| i.ip == ip).copied()
    }

    /// The interface that answers an ARP request for `target` arriving on
    /// `port`, if any: the port's own interface, when the target is its
    /// address, an address bound on this port, a proxy entry, or the port
    /// answers for everything.
    fn arp_answer(&self, port: PortId, target: Ipv4Addr) -> Option<Iface> {
        let iface = self.iface_on(port)?;
        (iface.ip == target
            || self.owns_ip(target).is_some_and(|i| i.port == port)
            || self.proxy_arp.contains(&(port, target))
            || self.proxy_arp_all.contains(&port))
        .then_some(iface)
    }

    /// Every `(port, address)` this router answers ARP for by name: bound
    /// addresses and proxy entries, filtered through the same rule
    /// [`on_frame_into`](Self::on_frame_into) applies.
    pub(crate) fn arp_claims(&self) -> impl Iterator<Item = (PortId, Ipv4Addr)> + '_ {
        self.ifaces
            .iter()
            .map(|i| (i.port, i.ip))
            .chain(self.proxy_arp.iter().copied())
            .filter(|&(port, ip)| self.arp_answer(port, ip).is_some())
    }

    /// Ports that answer ARP for *any* address
    /// ([`set_proxy_arp_all`](Self::set_proxy_arp_all) with an interface).
    pub(crate) fn arp_answers_all(&self) -> impl Iterator<Item = PortId> + '_ {
        self.proxy_arp_all
            .iter()
            .copied()
            .filter(|&port| self.iface_on(port).is_some())
    }

    fn lookup_route(&self, dst: Ipv4Addr) -> Option<PortId> {
        self.routes
            .iter()
            .find(|r| r.dst == Some(dst))
            .or_else(|| self.routes.iter().find(|r| r.dst.is_none()))
            .map(|r| r.port)
    }

    fn proc_delay(&self, rng: &mut StdRng) -> SimDuration {
        if let Some(slow) = self.behavior.slow_path {
            if rng.random::<f64>() >= slow.fast_prob {
                let (lo, hi) = slow.slow_us;
                let us = if hi > lo {
                    rng.random_range(lo..=hi)
                } else {
                    lo
                };
                return SimDuration::from_micros(us);
            }
        }
        let (lo, hi) = self.behavior.proc_delay_us;
        let us = if hi > lo {
            rng.random_range(lo..=hi)
        } else {
            lo
        };
        SimDuration::from_micros(us)
    }

    fn arp_lookup(&self, key: (PortId, Ipv4Addr)) -> Option<MacAddr> {
        self.arp_cache
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, mac)| mac)
    }

    fn arp_learn(&mut self, key: (PortId, Ipv4Addr), mac: MacAddr) {
        match self.arp_cache.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = mac,
            None => self.arp_cache.push((key, mac)),
        }
    }

    /// Emit `pkt` out of `port`, resolving the next-hop MAC (the packet's
    /// destination address — our routes are host routes on point-to-point
    /// segments) via ARP when needed.
    fn emit(&mut self, port: PortId, pkt: Ipv4Packet, out: &mut Vec<Action>) {
        let Some(iface) = self.iface_on(port) else {
            return; // unconfigured port: drop
        };
        let key = (port, pkt.dst);
        match self.arp_lookup(key) {
            Some(mac) => out.push(Action::send(
                port,
                Frame {
                    src: iface.mac,
                    dst: mac,
                    payload: Payload::Ipv4(pkt),
                },
            )),
            None => {
                match self.pending.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, queued)) => queued.push(pkt),
                    None => {
                        // First packet toward this next hop: queue it and
                        // ask who holds the address.
                        self.pending.push((key, vec![pkt]));
                        out.push(Action::send(
                            port,
                            Frame::arp_request(iface.ip, iface.mac, pkt.dst),
                        ));
                    }
                }
            }
        }
    }

    /// Handle a frame arriving on `port` at `now`, appending the
    /// resulting actions to `out`.
    pub fn on_frame_into(
        &mut self,
        now: SimTime,
        port: PortId,
        frame: Frame,
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        match frame.payload {
            Payload::Arp(arp) => match arp.op {
                ArpOp::Request => {
                    if let Some(i) = self.arp_answer(port, arp.target_ip) {
                        out.push(Action::send(
                            port,
                            Frame::arp_reply(&arp, arp.target_ip, i.mac),
                        ));
                    }
                    // Routers also gratuitously learn the requester.
                    self.arp_learn((port, arp.sender_ip), arp.sender_mac);
                }
                ArpOp::Reply => {
                    self.arp_learn((port, arp.sender_ip), arp.sender_mac);
                    let key = (port, arp.sender_ip);
                    if let Some(pos) = self.pending.iter().position(|(k, _)| *k == key) {
                        let (_, queued) = self.pending.swap_remove(pos);
                        for pkt in queued {
                            self.emit(port, pkt, out);
                        }
                    }
                }
            },
            Payload::Ipv4(pkt) => {
                if let Some(iface) = self.owns_ip(pkt.dst) {
                    // Addressed to us: answer echo requests.
                    if let IcmpMessage::EchoRequest { id, seq } = pkt.payload {
                        let dropped = self.behavior.blackhole_icmp
                            || (self.behavior.drop_prob > 0.0
                                && rng.random::<f64>() < self.behavior.drop_prob);
                        if !dropped {
                            let reply = Ipv4Packet {
                                src: self.behavior.reply_from.unwrap_or(iface.ip),
                                dst: pkt.src,
                                ttl: self.behavior.ttl_at(now),
                                payload: IcmpMessage::EchoReply { id, seq },
                            };
                            // Reply goes back out the arrival port to the
                            // frame's sender (the last layer-2 hop toward
                            // the requester).
                            let reply_iface = self.iface_on(port).unwrap_or(iface);
                            out.push(Action::Send {
                                port,
                                frame: Frame {
                                    src: reply_iface.mac,
                                    dst: frame.src,
                                    payload: Payload::Ipv4(reply),
                                },
                                after: self.proc_delay(rng),
                            });
                        }
                    }
                } else if let Some(out_port) = self.lookup_route(pkt.dst) {
                    // Transit through us: the defining moment for the
                    // TTL-match filter. Decrement; at zero, answer with
                    // ICMP Time Exceeded (the traceroute signal).
                    if pkt.ttl > 1 {
                        let mut fwd = pkt;
                        fwd.ttl -= 1;
                        self.emit(out_port, fwd, out);
                    } else if let IcmpMessage::EchoRequest { id, seq } = pkt.payload {
                        if let Some(iface) = self.iface_on(port) {
                            let exceeded = Ipv4Packet {
                                src: iface.ip,
                                dst: pkt.src,
                                ttl: self.behavior.ttl_at(now),
                                payload: IcmpMessage::TimeExceeded {
                                    original_dst: pkt.dst,
                                    id,
                                    seq,
                                },
                            };
                            out.push(Action::Send {
                                port,
                                frame: Frame {
                                    src: iface.mac,
                                    dst: frame.src,
                                    payload: Payload::Ipv4(exceeded),
                                },
                                after: self.proc_delay(rng),
                            });
                        }
                    }
                }
                // No route: drop silently.
            }
        }
    }

    /// [`on_frame_into`](Self::on_frame_into), collecting into a fresh
    /// vector.
    pub fn on_frame(
        &mut self,
        now: SimTime,
        port: PortId,
        frame: Frame,
        rng: &mut StdRng,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_frame_into(now, port, frame, rng, &mut out);
        out
    }

    /// Heap bytes of the router's state, by capacity: interfaces, proxy-ARP
    /// lists, routes, the ARP cache and the packets awaiting ARP.
    pub(crate) fn state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let waiting: usize = self.pending.iter().map(|(_, q)| q.capacity()).sum();
        (self.ifaces.capacity() * size_of::<Iface>()
            + self.proxy_arp.capacity() * size_of::<(PortId, Ipv4Addr)>()
            + self.proxy_arp_all.capacity() * size_of::<PortId>()
            + self.routes.capacity() * size_of::<RouteEntry>()
            + self.arp_cache.capacity() * size_of::<((PortId, Ipv4Addr), MacAddr)>()
            + self.pending.capacity() * size_of::<((PortId, Ipv4Addr), Vec<Ipv4Packet>)>()
            + waiting * size_of::<Ipv4Packet>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ArpPacket;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn echo_to(dst: Ipv4Addr, src_mac: MacAddr) -> Frame {
        Frame {
            src: src_mac,
            dst: MacAddr::from_index(99),
            payload: Payload::Ipv4(Ipv4Packet {
                src: "10.0.0.1".parse().unwrap(),
                dst,
                ttl: 64,
                payload: IcmpMessage::EchoRequest { id: 7, seq: 1 },
            }),
        }
    }

    fn member() -> (Router, Ipv4Addr, MacAddr) {
        let ip: Ipv4Addr = "10.0.0.5".parse().unwrap();
        let mac = MacAddr::from_index(5);
        let mut r = Router::new(RouterBehavior::default());
        r.bind(PortId(0), ip, mac);
        (r, ip, mac)
    }

    #[test]
    fn answers_arp_for_own_address() {
        let (mut r, ip, mac) = member();
        let req = Frame::arp_request("10.0.0.1".parse().unwrap(), MacAddr::from_index(1), ip);
        let Payload::Arp(arp) = req.payload else {
            panic!()
        };
        let acts = r.on_frame(SimTime::ZERO, PortId(0), req, &mut rng());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { frame, .. } => {
                let Payload::Arp(reply) = frame.payload else {
                    panic!()
                };
                assert_eq!(reply.op, ArpOp::Reply);
                assert_eq!(reply.sender_mac, mac);
                assert_eq!(reply.target_ip, arp.sender_ip);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn ignores_arp_for_other_addresses() {
        let (mut r, _ip, _) = member();
        let req = Frame::arp_request(
            "10.0.0.1".parse().unwrap(),
            MacAddr::from_index(1),
            "10.0.0.77".parse().unwrap(),
        );
        assert!(r
            .on_frame(SimTime::ZERO, PortId(0), req, &mut rng())
            .is_empty());
    }

    #[test]
    fn echo_reply_uses_initial_ttl_and_returns_to_sender() {
        let (mut r, ip, _) = member();
        let lg_mac = MacAddr::from_index(1);
        let acts = r.on_frame(SimTime::ZERO, PortId(0), echo_to(ip, lg_mac), &mut rng());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { frame, after, .. } => {
                assert_eq!(frame.dst, lg_mac);
                let Payload::Ipv4(p) = frame.payload else {
                    panic!()
                };
                assert_eq!(p.ttl, 64);
                assert_eq!(p.src, ip);
                assert!(matches!(
                    p.payload,
                    IcmpMessage::EchoReply { id: 7, seq: 1 }
                ));
                assert!(after.nanos() >= 20_000, "processing delay applied");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn ttl_schedule_switches_mid_campaign() {
        let ip: Ipv4Addr = "10.0.0.5".parse().unwrap();
        let mut behavior = RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        };
        behavior.ttl_changes.push((SimTime(1_000_000), 64));
        let mut r = Router::new(behavior);
        r.bind(PortId(0), ip, MacAddr::from_index(5));
        let lg = MacAddr::from_index(1);
        let before = r.on_frame(SimTime(0), PortId(0), echo_to(ip, lg), &mut rng());
        let after = r.on_frame(SimTime(2_000_000), PortId(0), echo_to(ip, lg), &mut rng());
        let ttl_of = |acts: &[Action]| match &acts[0] {
            Action::Send { frame, .. } => match frame.payload {
                Payload::Ipv4(p) => p.ttl,
                _ => panic!(),
            },
            _ => panic!(),
        };
        assert_eq!(ttl_of(&before), 255);
        assert_eq!(ttl_of(&after), 64);
    }

    #[test]
    fn blackhole_drops_echo_silently() {
        let ip: Ipv4Addr = "10.0.0.5".parse().unwrap();
        let mut r = Router::new(RouterBehavior {
            blackhole_icmp: true,
            ..Default::default()
        });
        r.bind(PortId(0), ip, MacAddr::from_index(5));
        let acts = r.on_frame(
            SimTime::ZERO,
            PortId(0),
            echo_to(ip, MacAddr::from_index(1)),
            &mut rng(),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn reply_from_override_changes_source_address() {
        let ip: Ipv4Addr = "10.0.0.5".parse().unwrap();
        let other: Ipv4Addr = "192.168.1.1".parse().unwrap();
        let mut r = Router::new(RouterBehavior {
            reply_from: Some(other),
            ..Default::default()
        });
        r.bind(PortId(0), ip, MacAddr::from_index(5));
        let acts = r.on_frame(
            SimTime::ZERO,
            PortId(0),
            echo_to(ip, MacAddr::from_index(1)),
            &mut rng(),
        );
        match &acts[0] {
            Action::Send { frame, .. } => {
                let Payload::Ipv4(p) = frame.payload else {
                    panic!()
                };
                assert_eq!(p.src, other);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn forwarding_decrements_ttl_and_arps_for_next_hop() {
        // Front router: fabric on port 0, inner link on port 1.
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let mut front = Router::new(RouterBehavior::default());
        front.bind(
            PortId(0),
            "10.0.0.200".parse().unwrap(),
            MacAddr::from_index(20),
        );
        front.bind(
            PortId(1),
            "192.168.0.1".parse().unwrap(),
            MacAddr::from_index(21),
        );
        front.add_proxy_arp(PortId(0), target);
        front.add_route(target, PortId(1));

        // The echo request for the proxied address gets forwarded; with an
        // empty ARP cache the router first asks who holds the target.
        let acts = front.on_frame(
            SimTime::ZERO,
            PortId(0),
            echo_to(target, MacAddr::from_index(1)),
            &mut rng(),
        );
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { port, frame, .. } => {
                assert_eq!(*port, PortId(1));
                assert!(matches!(frame.payload, Payload::Arp(a) if a.op == ArpOp::Request));
            }
            _ => panic!(),
        }

        // ARP reply arrives; the queued packet flushes with TTL decremented.
        let inner_mac = MacAddr::from_index(30);
        let reply = Frame {
            src: inner_mac,
            dst: MacAddr::from_index(21),
            payload: Payload::Arp(ArpPacket {
                op: ArpOp::Reply,
                sender_ip: target,
                sender_mac: inner_mac,
                target_ip: "192.168.0.1".parse().unwrap(),
                target_mac: MacAddr::from_index(21),
            }),
        };
        let acts = front.on_frame(SimTime::ZERO, PortId(1), reply, &mut rng());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { port, frame, .. } => {
                assert_eq!(*port, PortId(1));
                assert_eq!(frame.dst, inner_mac);
                let Payload::Ipv4(p) = frame.payload else {
                    panic!()
                };
                assert_eq!(p.ttl, 63, "TTL decremented by the IP hop");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn ttl_expiry_triggers_time_exceeded() {
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let mut r = Router::new(RouterBehavior::default());
        r.bind(
            PortId(0),
            "10.0.0.200".parse().unwrap(),
            MacAddr::from_index(20),
        );
        r.bind(
            PortId(1),
            "192.168.0.1".parse().unwrap(),
            MacAddr::from_index(21),
        );
        r.add_route(target, PortId(1));
        let mut f = echo_to(target, MacAddr::from_index(1));
        if let Payload::Ipv4(ref mut p) = f.payload {
            p.ttl = 1;
        }
        // The packet is not forwarded; instead the router answers with an
        // ICMP Time Exceeded back toward the sender — traceroute's signal.
        let acts = r.on_frame(SimTime::ZERO, PortId(0), f, &mut rng());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { port, frame, .. } => {
                assert_eq!(*port, PortId(0));
                assert_eq!(frame.dst, MacAddr::from_index(1));
                let Payload::Ipv4(p) = frame.payload else {
                    panic!()
                };
                assert_eq!(p.src, "10.0.0.200".parse::<Ipv4Addr>().unwrap());
                assert!(matches!(
                    p.payload,
                    IcmpMessage::TimeExceeded { original_dst, id: 7, seq: 1 }
                        if original_dst == target
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn proxy_arp_all_answers_everything_on_port() {
        let mut r = Router::new(RouterBehavior::default());
        r.bind(
            PortId(1),
            "192.168.0.1".parse().unwrap(),
            MacAddr::from_index(21),
        );
        r.set_proxy_arp_all(PortId(1));
        let req = Frame::arp_request(
            "192.168.0.2".parse().unwrap(),
            MacAddr::from_index(30),
            "10.0.0.1".parse().unwrap(), // arbitrary remote address
        );
        let acts = r.on_frame(SimTime::ZERO, PortId(1), req, &mut rng());
        assert_eq!(acts.len(), 1);
    }
}
