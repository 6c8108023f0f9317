//! A measurement host — the simulator's looking-glass server.
//!
//! The paper probes member interfaces "from LG servers that PCH and RIPE NCC
//! maintain at IXP locations" (section 3.1). `Host` plays that role: it is
//! attached to the IXP fabric with an address inside the IXP subnet, sends
//! planned ICMP echo requests (resolving targets via ARP first), and records
//! for every planned probe whether it was sent, the observed RTT, and — the
//! detection-critical part — the TTL value carried by the reply.

use crate::frame::{ArpOp, Frame, IcmpMessage, Ipv4Packet, MacAddr, Payload};
use crate::sim::{Action, PortId};
use rp_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// What kind of ICMP message answered a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplyKind {
    /// The destination answered (ping success / traceroute's final hop).
    EchoReply,
    /// An intermediate router's TTL-exceeded notice (a traceroute hop).
    TimeExceeded,
}

/// A received ping reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PingReply {
    /// Round-trip time from echo-request transmission to reply arrival.
    pub rtt: SimDuration,
    /// TTL field of the reply as observed at the host. Equal to the
    /// responder's initial TTL when the reply never crossed an IP hop.
    pub ttl: u8,
    /// Source address of the reply (may differ from the probed address when
    /// the responder replies from another interface; for Time Exceeded it
    /// is the intermediate router).
    pub src: Ipv4Addr,
    /// Echo reply or Time Exceeded.
    pub kind: ReplyKind,
}

/// The outcome of one planned probe.
///
/// A host keeps one per planned ping, the campaign's largest per-probe
/// record, so the fields are packed (40 bytes) and read through
/// accessors: the send time and the reply's parts are stored flat, with
/// a one-byte state saying which of them hold a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingOutcome {
    planned_at: SimTime,
    /// When the echo request left the host; meaningful once sent.
    sent_at: SimTime,
    /// Round-trip time; meaningful once answered.
    rtt: SimDuration,
    target: Ipv4Addr,
    /// Source address of the reply; meaningful once answered.
    reply_src: Ipv4Addr,
    probe_ttl: u8,
    /// TTL of the reply as observed; meaningful once answered.
    reply_ttl: u8,
    state: ProbeState,
}

/// How far a planned probe got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeState {
    /// Planned; ARP has not resolved the target (yet).
    Planned,
    /// The echo request left the host; no reply so far.
    Sent,
    /// A reply of this kind came back.
    Answered(ReplyKind),
}

impl PingOutcome {
    fn planned(at: SimTime, target: Ipv4Addr, probe_ttl: u8) -> Self {
        PingOutcome {
            planned_at: at,
            sent_at: SimTime::ZERO,
            rtt: SimDuration::ZERO,
            target,
            reply_src: Ipv4Addr::UNSPECIFIED,
            probe_ttl,
            reply_ttl: 0,
            state: ProbeState::Planned,
        }
    }

    /// Probed address.
    pub fn target(&self) -> Ipv4Addr {
        self.target
    }

    /// TTL the probe was sent with (64 for plain pings; the hop number for
    /// traceroute probes).
    pub fn probe_ttl(&self) -> u8 {
        self.probe_ttl
    }

    /// When the probe was planned to fire.
    pub fn planned_at(&self) -> SimTime {
        self.planned_at
    }

    /// When the echo request actually left the host (`None` when ARP never
    /// resolved — e.g. the registry listed an address nobody holds).
    pub fn sent_at(&self) -> Option<SimTime> {
        (self.state != ProbeState::Planned).then_some(self.sent_at)
    }

    /// The reply, if one came back.
    pub fn reply(&self) -> Option<PingReply> {
        match self.state {
            ProbeState::Answered(kind) => Some(PingReply {
                rtt: self.rtt,
                ttl: self.reply_ttl,
                src: self.reply_src,
                kind,
            }),
            ProbeState::Planned | ProbeState::Sent => None,
        }
    }

    fn mark_sent(&mut self, now: SimTime) {
        self.sent_at = now;
        self.state = ProbeState::Sent;
    }

    fn record_reply(&mut self, now: SimTime, ttl: u8, src: Ipv4Addr, kind: ReplyKind) {
        assert!(self.state != ProbeState::Planned, "in-flight implies sent");
        self.rtt = now.since(self.sent_at);
        self.reply_ttl = ttl;
        self.reply_src = src;
        self.state = ProbeState::Answered(kind);
    }
}

/// Sentinel for "no in-flight probe with this sequence number".
const NOT_INFLIGHT: u32 = u32::MAX;

/// Looking-glass host state.
///
/// An LG probes hundreds of member interfaces, so the per-packet lookup
/// structures are dense rather than hashed: the ARP cache and the
/// awaiting-ARP queue are vectors kept sorted by address (binary
/// search), and in-flight probes are a plain array indexed by the
/// probe's sequence number (sequence numbers are issued sequentially).
#[derive(Debug)]
pub struct Host {
    iface: Option<(PortId, Ipv4Addr, MacAddr)>,
    icmp_id: u16,
    /// One record per planned probe, indexed by the probe's timer token.
    outcomes: Vec<PingOutcome>,
    /// Resolved neighbors, sorted by address.
    arp_cache: Vec<(Ipv4Addr, MacAddr)>,
    /// Plan indices waiting for ARP resolution of their target, sorted by
    /// address; each list drains in registration order on resolution.
    awaiting_arp: Vec<(Ipv4Addr, Vec<usize>)>,
    /// In-flight echo requests: plan index per sequence number
    /// ([`NOT_INFLIGHT`] marks free slots). Grows to the number of probes
    /// actually sent, at most one slot per 16-bit sequence number.
    inflight: Vec<u32>,
    next_seq: u16,
}

impl Host {
    /// A host that stamps its probes with `icmp_id`.
    pub fn new(icmp_id: u16) -> Self {
        Host {
            iface: None,
            icmp_id,
            outcomes: Vec::new(),
            arp_cache: Vec::new(),
            awaiting_arp: Vec::new(),
            inflight: Vec::new(),
            next_seq: 0,
        }
    }

    fn arp_lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp_cache
            .binary_search_by_key(&ip, |&(k, _)| k)
            .ok()
            .map(|pos| self.arp_cache[pos].1)
    }

    fn arp_learn(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        match self.arp_cache.binary_search_by_key(&ip, |&(k, _)| k) {
            Ok(pos) => self.arp_cache[pos].1 = mac,
            Err(pos) => self.arp_cache.insert(pos, (ip, mac)),
        }
    }

    /// Attach the host's single interface.
    pub fn bind(&mut self, port: PortId, ip: Ipv4Addr, mac: MacAddr) {
        self.iface = Some((port, ip, mac));
    }

    /// The host's address.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        self.iface.map(|(_, ip, _)| ip)
    }

    /// Register a planned probe; returns the timer token the network must
    /// schedule at `at`. (Use [`crate::Network::plan_ping`], which does
    /// both.)
    pub fn register_plan(&mut self, at: SimTime, target: Ipv4Addr) -> u64 {
        self.register_probe(at, target, 64)
    }

    /// Register a probe with an explicit TTL (traceroute hops).
    pub fn register_probe(&mut self, at: SimTime, target: Ipv4Addr, ttl: u8) -> u64 {
        let token = self.outcomes.len() as u64;
        self.outcomes.push(PingOutcome::planned(at, target, ttl));
        token
    }

    /// Make room for exactly `additional` more planned probes, so a caller
    /// that knows its probe count leaves no doubling slack behind.
    pub(crate) fn reserve_probes(&mut self, additional: usize) {
        self.outcomes.reserve_exact(additional);
    }

    /// Heap bytes held by the host's per-probe state, by capacity: the
    /// probe records, the in-flight table, the ARP wait lists and the ARP
    /// cache.
    pub(crate) fn record_bytes(&self) -> u64 {
        use std::mem::size_of;
        let waiting: usize = self.awaiting_arp.iter().map(|(_, w)| w.capacity()).sum();
        (self.outcomes.capacity() * size_of::<PingOutcome>()
            + self.inflight.capacity() * size_of::<u32>()
            + self.awaiting_arp.capacity() * size_of::<(Ipv4Addr, Vec<usize>)>()
            + waiting * size_of::<usize>()
            + self.arp_cache.capacity() * size_of::<(Ipv4Addr, MacAddr)>()) as u64
    }

    /// Traceroute view: for each hop TTL probed toward `target`, the
    /// responding address (a router's Time Exceeded or the destination's
    /// echo reply), in ascending hop order.
    pub fn traceroute_hops(&self, target: Ipv4Addr) -> Vec<(u8, Option<Ipv4Addr>)> {
        let mut hops: Vec<(u8, Option<Ipv4Addr>)> = self
            .outcomes
            .iter()
            .filter(|o| o.target == target && o.probe_ttl != 64)
            .map(|o| (o.probe_ttl, o.reply().map(|r| r.src)))
            .collect();
        hops.sort_by_key(|(ttl, _)| *ttl);
        hops
    }

    /// The bound `(port, address)`, the one address this host answers ARP
    /// for.
    pub(crate) fn binding(&self) -> Option<(PortId, Ipv4Addr)> {
        self.iface.map(|(port, ip, _)| (port, ip))
    }

    /// All probe outcomes, in planning order. Valid after the simulation ran
    /// past the planned times (unanswered probes simply keep `reply: None`).
    pub fn outcomes(&self) -> &[PingOutcome] {
        &self.outcomes
    }

    /// Record `plan_idx` as in flight under the next sequence number.
    fn track_inflight(&mut self, plan_idx: usize) -> u16 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let slot = seq as usize;
        if slot >= self.inflight.len() {
            self.inflight.resize(slot + 1, NOT_INFLIGHT);
        }
        self.inflight[slot] = u32::try_from(plan_idx)
            .ok()
            .filter(|&idx| idx != NOT_INFLIGHT)
            .expect("plan index fits the u32 in-flight table");
        seq
    }

    /// The plan index in flight under `seq`, clearing the slot.
    fn untrack_inflight(&mut self, seq: u16) -> Option<usize> {
        let slot = self.inflight.get_mut(seq as usize)?;
        let plan_idx = std::mem::replace(slot, NOT_INFLIGHT);
        (plan_idx != NOT_INFLIGHT).then_some(plan_idx as usize)
    }

    /// Send plan `plan_idx`'s echo request to `mac_target`, the MAC the
    /// caller resolved for the plan's target.
    fn send_echo(
        &mut self,
        now: SimTime,
        plan_idx: usize,
        mac_target: MacAddr,
        out: &mut Vec<Action>,
    ) {
        let (port, ip, mac) = self.iface.expect("host bound");
        let outcome = &mut self.outcomes[plan_idx];
        outcome.mark_sent(now);
        let (target, probe_ttl) = (outcome.target, outcome.probe_ttl);
        let seq = self.track_inflight(plan_idx);
        out.push(Action::send(
            port,
            Frame {
                src: mac,
                dst: mac_target,
                payload: Payload::Ipv4(Ipv4Packet {
                    src: ip,
                    dst: target,
                    ttl: probe_ttl,
                    payload: IcmpMessage::EchoRequest {
                        id: self.icmp_id,
                        seq,
                    },
                }),
            },
        ));
    }

    /// Timer fired for plan `token`: send the probe, ARPing first if
    /// needed. Actions are appended to `out`.
    pub fn on_timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        let plan_idx = token as usize;
        let Some(target) = self.outcomes.get(plan_idx).map(|o| o.target) else {
            return;
        };
        if let Some(mac_target) = self.arp_lookup(target) {
            self.send_echo(now, plan_idx, mac_target, out);
        } else {
            let (port, ip, mac) = self.iface.expect("host bound");
            let waiting = match self.awaiting_arp.binary_search_by_key(&target, |(k, _)| *k) {
                Ok(pos) => &mut self.awaiting_arp[pos].1,
                Err(pos) => {
                    self.awaiting_arp.insert(pos, (target, Vec::new()));
                    &mut self.awaiting_arp[pos].1
                }
            };
            waiting.push(plan_idx);
            // Re-ARP on every new probe burst while unresolved, so a target
            // that was down earlier can still resolve later in the campaign.
            if waiting.len() % 8 == 1 {
                out.push(Action::send(port, Frame::arp_request(ip, mac, target)));
            }
        }
    }

    /// [`on_timer_into`](Self::on_timer_into), collecting into a fresh
    /// vector.
    pub fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(now, token, &mut out);
        out
    }

    /// Handle an incoming frame, appending the resulting actions to `out`.
    pub fn on_frame_into(
        &mut self,
        now: SimTime,
        _port: PortId,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        let Some((port, ip, mac)) = self.iface else {
            return;
        };
        match frame.payload {
            Payload::Arp(arp) => match arp.op {
                ArpOp::Request => {
                    if arp.target_ip == ip {
                        out.push(Action::send(port, Frame::arp_reply(&arp, ip, mac)));
                    }
                    self.arp_learn(arp.sender_ip, arp.sender_mac);
                }
                ArpOp::Reply => {
                    self.arp_learn(arp.sender_ip, arp.sender_mac);
                    if let Ok(pos) = self
                        .awaiting_arp
                        .binary_search_by_key(&arp.sender_ip, |(k, _)| *k)
                    {
                        let (_, waiting) = self.awaiting_arp.remove(pos);
                        for plan_idx in waiting {
                            self.send_echo(now, plan_idx, arp.sender_mac, out);
                        }
                    }
                }
            },
            Payload::Ipv4(pkt) => {
                if pkt.dst != ip {
                    return;
                }
                match pkt.payload {
                    IcmpMessage::EchoReply { id, seq } if id == self.icmp_id => {
                        if let Some(plan_idx) = self.untrack_inflight(seq) {
                            self.outcomes[plan_idx].record_reply(
                                now,
                                pkt.ttl,
                                pkt.src,
                                ReplyKind::EchoReply,
                            );
                        }
                    }
                    IcmpMessage::TimeExceeded { id, seq, .. } if id == self.icmp_id => {
                        if let Some(plan_idx) = self.untrack_inflight(seq) {
                            self.outcomes[plan_idx].record_reply(
                                now,
                                pkt.ttl,
                                pkt.src,
                                ReplyKind::TimeExceeded,
                            );
                        }
                    }
                    IcmpMessage::EchoRequest { id, seq } => {
                        // Be a good citizen: answer pings aimed at us.
                        out.push(Action::Send {
                            port,
                            frame: Frame {
                                src: mac,
                                dst: frame.src,
                                payload: Payload::Ipv4(Ipv4Packet {
                                    src: ip,
                                    dst: pkt.src,
                                    ttl: 64,
                                    payload: IcmpMessage::EchoReply { id, seq },
                                }),
                            },
                            after: SimDuration::from_micros(50),
                        });
                    }
                    IcmpMessage::EchoReply { .. } | IcmpMessage::TimeExceeded { .. } => {
                        // someone else's probes
                    }
                }
            }
        }
    }

    /// [`on_frame_into`](Self::on_frame_into), collecting into a fresh
    /// vector.
    pub fn on_frame(&mut self, now: SimTime, port: PortId, frame: Frame) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_frame_into(now, port, frame, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound_host() -> (Host, Ipv4Addr, MacAddr) {
        let mut h = Host::new(42);
        let ip = "10.0.0.1".parse().unwrap();
        let mac = MacAddr::from_index(1);
        h.bind(PortId(0), ip, mac);
        (h, ip, mac)
    }

    #[test]
    fn probe_without_arp_sends_arp_first() {
        let (mut h, _, _) = bound_host();
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let token = h.register_plan(SimTime(100), target);
        let acts = h.on_timer(SimTime(100), token);
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Send { frame, .. } => {
                assert!(matches!(frame.payload, Payload::Arp(a) if a.op == ArpOp::Request));
            }
            _ => panic!(),
        }
        assert_eq!(h.outcomes()[0].sent_at(), None);
    }

    #[test]
    fn arp_reply_flushes_pending_probes_and_reply_records_rtt_ttl() {
        let (mut h, _my_ip, my_mac) = bound_host();
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let t_mac = MacAddr::from_index(9);
        let t0 = h.register_plan(SimTime(100), target);
        let t1 = h.register_plan(SimTime(100), target);
        h.on_timer(SimTime(100), t0);
        h.on_timer(SimTime(100), t1);

        // ARP reply at t=200 → both queued echoes go out.
        let arp_reply = Frame {
            src: t_mac,
            dst: my_mac,
            payload: Payload::Arp(crate::frame::ArpPacket {
                op: ArpOp::Reply,
                sender_ip: target,
                sender_mac: t_mac,
                target_ip: "10.0.0.1".parse().unwrap(),
                target_mac: my_mac,
            }),
        };
        let acts = h.on_frame(SimTime(200), PortId(0), arp_reply);
        assert_eq!(acts.len(), 2);
        assert_eq!(h.outcomes()[0].sent_at(), Some(SimTime(200)));

        // Echo reply for seq 0 arrives 1 ms later with TTL 255.
        let reply = Frame {
            src: t_mac,
            dst: my_mac,
            payload: Payload::Ipv4(Ipv4Packet {
                src: target,
                dst: "10.0.0.1".parse().unwrap(),
                ttl: 255,
                payload: IcmpMessage::EchoReply { id: 42, seq: 0 },
            }),
        };
        h.on_frame(SimTime(200 + 1_000_000), PortId(0), reply);
        let o = h.outcomes()[0];
        let r = o.reply().expect("reply recorded");
        assert_eq!(r.rtt, SimDuration::from_millis(1));
        assert_eq!(r.ttl, 255);
        assert_eq!(r.src, target);
        // Second probe still unanswered.
        assert!(h.outcomes()[1].reply().is_none());
    }

    #[test]
    fn foreign_icmp_id_is_ignored() {
        let (mut h, my_ip, my_mac) = bound_host();
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let tok = h.register_plan(SimTime(0), target);
        h.arp_learn(target, MacAddr::from_index(9));
        h.on_timer(SimTime(0), tok);
        let reply = Frame {
            src: MacAddr::from_index(9),
            dst: my_mac,
            payload: Payload::Ipv4(Ipv4Packet {
                src: target,
                dst: my_ip,
                ttl: 255,
                payload: IcmpMessage::EchoReply { id: 1, seq: 0 }, // wrong id
            }),
        };
        h.on_frame(SimTime(500), PortId(0), reply);
        assert!(h.outcomes()[0].reply().is_none());
    }

    #[test]
    fn answers_arp_and_echo_requests() {
        let (mut h, my_ip, _) = bound_host();
        let req = Frame::arp_request("10.0.0.9".parse().unwrap(), MacAddr::from_index(9), my_ip);
        assert_eq!(h.on_frame(SimTime(0), PortId(0), req).len(), 1);
        let echo = Frame {
            src: MacAddr::from_index(9),
            dst: MacAddr::from_index(1),
            payload: Payload::Ipv4(Ipv4Packet {
                src: "10.0.0.9".parse().unwrap(),
                dst: my_ip,
                ttl: 33,
                payload: IcmpMessage::EchoRequest { id: 5, seq: 5 },
            }),
        };
        let acts = h.on_frame(SimTime(0), PortId(0), echo);
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn unresolvable_target_never_sends() {
        let (mut h, _, _) = bound_host();
        let ghost: Ipv4Addr = "10.0.0.250".parse().unwrap();
        for i in 0..5 {
            let tok = h.register_plan(SimTime(i), ghost);
            h.on_timer(SimTime(i), tok);
        }
        assert!(h
            .outcomes()
            .iter()
            .all(|o| o.sent_at().is_none() && o.reply().is_none()));
    }

    #[test]
    fn ping_outcome_size_is_pinned() {
        // One record per planned ping: growing it is a deliberate change.
        assert!(std::mem::size_of::<PingOutcome>() <= 40);
    }

    #[test]
    fn outcome_accessors_round_trip_every_state() {
        let target: Ipv4Addr = "10.0.0.9".parse().unwrap();
        let mut o = PingOutcome::planned(SimTime(7), target, 3);
        assert_eq!(
            (o.target(), o.probe_ttl(), o.planned_at()),
            (target, 3, SimTime(7))
        );
        assert_eq!((o.sent_at(), o.reply()), (None, None));
        // Sent at time zero is still sent.
        o.mark_sent(SimTime::ZERO);
        assert_eq!((o.sent_at(), o.reply()), (Some(SimTime::ZERO), None));
        let src: Ipv4Addr = "10.0.0.250".parse().unwrap();
        o.record_reply(SimTime(900), 62, src, ReplyKind::TimeExceeded);
        assert_eq!(o.sent_at(), Some(SimTime::ZERO));
        assert_eq!(
            o.reply(),
            Some(PingReply {
                rtt: SimDuration::from_nanos(900),
                ttl: 62,
                src,
                kind: ReplyKind::TimeExceeded,
            })
        );
    }

    #[test]
    fn inflight_sequence_numbers_wrap_at_16_bits() {
        let mut h = Host::new(7);
        for plan in 0..70_000usize {
            assert_eq!(h.track_inflight(plan), plan as u16);
        }
        // One slot per sequence number; later probes reuse earlier slots.
        assert_eq!(h.inflight.len(), 1 << 16);
        assert_eq!(h.untrack_inflight(0), Some(65_536));
        assert_eq!(h.untrack_inflight(0), None);
        assert_eq!(h.untrack_inflight(4_463), Some(69_999));
        assert_eq!(h.untrack_inflight(4_464), Some(4_464));
        assert_eq!(h.record_bytes(), (h.inflight.capacity() * 4) as u64);
    }

    #[test]
    #[should_panic(expected = "plan index fits the u32 in-flight table")]
    fn plan_index_past_u32_panics_instead_of_aliasing_a_free_slot() {
        Host::new(7).track_inflight(u32::MAX as usize);
    }
}
