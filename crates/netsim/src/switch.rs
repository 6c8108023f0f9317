//! A transparent MAC-learning layer-2 switch.
//!
//! Switches are the invisible middlemen of the paper: IXP fabrics and
//! remote-peering pseudowires are built from them, and because a switch
//! never touches the IP header, traffic crossing half the planet through
//! one arrives with its TTL intact — indistinguishable on layer 3 from a
//! local hop. That invisibility is the phenomenon under study.
//!
//! Like a real IXP fabric behind an ARP sponge, a switch does not flood a
//! broadcast ARP request when the network knows which port leads to the
//! device answering for the target address (see `sponge.rs`): the request
//! goes out that port only.

use crate::frame::{Frame, MacAddr};
use crate::sim::{Action, PortId};

/// Sentinel for "no port learned yet" in the dense table.
const UNLEARNED: u16 = u16::MAX;

/// MAC-learning switch state.
///
/// The simulator allocates MACs sequentially ([`MacAddr::from_index`]),
/// so the learned-port table is a dense array indexed by the MAC's
/// allocation index — one bounds-checked load per lookup instead of a
/// hash — with a tiny linear-scan side table for addresses outside the
/// allocator's namespace (hand-built test frames).
#[derive(Debug, Default)]
pub struct Switch {
    /// Learned egress port per MAC allocation index; [`UNLEARNED`] marks
    /// empty slots. Grows on demand to the highest index seen.
    by_index: Vec<u16>,
    /// Learned entries for non-allocator addresses.
    other: Vec<(MacAddr, PortId)>,
}

impl Switch {
    /// A switch with an empty MAC table.
    pub fn new() -> Self {
        Self::default()
    }

    fn learn(&mut self, mac: MacAddr, port: PortId) {
        match mac.as_index() {
            Some(idx) => {
                let idx = idx as usize;
                if idx >= self.by_index.len() {
                    self.by_index.resize(idx + 1, UNLEARNED);
                }
                self.by_index[idx] = port.0;
            }
            None => match self.other.iter_mut().find(|(m, _)| *m == mac) {
                Some(entry) => entry.1 = port,
                None => self.other.push((mac, port)),
            },
        }
    }

    fn lookup(&self, mac: MacAddr) -> Option<PortId> {
        match mac.as_index() {
            Some(idx) => match self.by_index.get(idx as usize) {
                Some(&p) if p != UNLEARNED => Some(PortId(p)),
                _ => None,
            },
            None => self.other.iter().find(|(m, _)| *m == mac).map(|&(_, p)| p),
        }
    }

    /// Handle a frame arriving on `in_port` of a switch with `n_ports`
    /// ports: learn the source, then forward (unicast if known, flood
    /// otherwise). `owner` is the port toward the device that answers a
    /// broadcast ARP request's target, when the network knows one: such a
    /// request goes out that port only, and is dropped when the owner sits
    /// behind the ingress port. Frames are forwarded unmodified — no TTL
    /// decrement, no address rewrite. Actions are appended to `out`.
    pub fn on_frame_into(
        &mut self,
        in_port: PortId,
        n_ports: u16,
        frame: Frame,
        owner: Option<PortId>,
        out: &mut Vec<Action>,
    ) {
        self.learn(frame.src, in_port);
        if let Some(port) = owner {
            if port != in_port {
                out.push(Action::send(port, frame));
            }
            return;
        }
        match self.lookup(frame.dst) {
            Some(port) if !frame.dst.is_broadcast() => {
                // A hairpin (destination lives where the frame came from)
                // is dropped.
                if port != in_port {
                    out.push(Action::send(port, frame));
                }
            }
            _ => out.extend(
                (0..n_ports)
                    .map(PortId)
                    .filter(|p| *p != in_port)
                    .map(|p| Action::send(p, frame)),
            ),
        }
    }

    /// [`on_frame_into`](Self::on_frame_into) with no known ARP owner,
    /// collecting into a fresh vector.
    pub fn on_frame(&mut self, in_port: PortId, n_ports: u16, frame: Frame) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_frame_into(in_port, n_ports, frame, None, &mut out);
        out
    }

    /// Number of learned MAC entries (diagnostics).
    pub fn learned(&self) -> usize {
        self.by_index.iter().filter(|&&p| p != UNLEARNED).count() + self.other.len()
    }

    /// Heap bytes of the MAC table, by capacity.
    pub(crate) fn table_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.by_index.capacity() * size_of::<u16>()
            + self.other.capacity() * size_of::<(MacAddr, PortId)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, IcmpMessage, Ipv4Packet, MacAddr, Payload};

    fn frame(src: u64, dst: MacAddr) -> Frame {
        Frame {
            src: MacAddr::from_index(src),
            dst,
            payload: Payload::Ipv4(Ipv4Packet {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.0.2".parse().unwrap(),
                ttl: 64,
                payload: IcmpMessage::EchoRequest { id: 1, seq: 1 },
            }),
        }
    }

    fn out_ports(actions: &[Action]) -> Vec<u16> {
        actions
            .iter()
            .map(|a| match a {
                Action::Send { port, .. } => port.0,
                _ => panic!("switch only sends"),
            })
            .collect()
    }

    #[test]
    fn floods_unknown_destination() {
        let mut sw = Switch::new();
        let acts = sw.on_frame(PortId(0), 4, frame(1, MacAddr::from_index(9)));
        assert_eq!(out_ports(&acts), vec![1, 2, 3]);
    }

    #[test]
    fn floods_broadcast() {
        let mut sw = Switch::new();
        let acts = sw.on_frame(PortId(2), 4, frame(1, MacAddr::BROADCAST));
        assert_eq!(out_ports(&acts), vec![0, 1, 3]);
    }

    #[test]
    fn learns_and_unicasts() {
        let mut sw = Switch::new();
        // A talks from port 0; B replies from port 3.
        sw.on_frame(PortId(0), 4, frame(1, MacAddr::BROADCAST));
        let acts = sw.on_frame(PortId(3), 4, frame(2, MacAddr::from_index(1)));
        assert_eq!(out_ports(&acts), vec![0]);
        assert_eq!(sw.learned(), 2);
    }

    #[test]
    fn drops_frame_hairpinning_to_ingress() {
        let mut sw = Switch::new();
        sw.on_frame(PortId(1), 4, frame(1, MacAddr::BROADCAST));
        let acts = sw.on_frame(PortId(1), 4, frame(2, MacAddr::from_index(1)));
        assert!(acts.is_empty());
    }

    #[test]
    fn learns_addresses_outside_the_allocator_namespace() {
        // A hand-built MAC (not from_index-decodable) must still be
        // learned and unicast to, via the side table.
        let mut sw = Switch::new();
        let foreign = MacAddr([0xAA, 1, 2, 3, 4, 5]);
        let mut f = frame(1, MacAddr::BROADCAST);
        f.src = foreign;
        sw.on_frame(PortId(2), 4, f);
        let acts = sw.on_frame(PortId(0), 4, frame(1, foreign));
        assert_eq!(out_ports(&acts), vec![2]);
        assert_eq!(sw.learned(), 2);
    }

    fn arp_request(src: u64) -> Frame {
        Frame::arp_request(
            "10.0.0.1".parse().unwrap(),
            MacAddr::from_index(src),
            "10.0.0.9".parse().unwrap(),
        )
    }

    fn sponged(sw: &mut Switch, in_port: u16, frame: Frame, owner: Option<u16>) -> Vec<u16> {
        let mut out = Vec::new();
        sw.on_frame_into(PortId(in_port), 4, frame, owner.map(PortId), &mut out);
        out_ports(&out)
    }

    #[test]
    fn sponged_request_reaches_only_the_owner_port() {
        let mut sw = Switch::new();
        assert_eq!(sponged(&mut sw, 0, arp_request(1), Some(2)), vec![2]);
    }

    #[test]
    fn sponged_request_whose_owner_is_behind_the_ingress_is_dropped() {
        let mut sw = Switch::new();
        assert!(sponged(&mut sw, 2, arp_request(1), Some(2)).is_empty());
    }

    #[test]
    fn request_for_an_unowned_target_floods() {
        let mut sw = Switch::new();
        assert_eq!(sponged(&mut sw, 1, arp_request(1), None), vec![0, 2, 3]);
    }

    #[test]
    fn sponged_request_still_teaches_the_source() {
        let mut sw = Switch::new();
        sponged(&mut sw, 3, arp_request(1), Some(0));
        assert_eq!(sw.learned(), 1);
        // The reply to the requester is unicast back out its port.
        let acts = sw.on_frame(PortId(0), 4, frame(2, MacAddr::from_index(1)));
        assert_eq!(out_ports(&acts), vec![3]);
    }

    #[test]
    fn forwarding_preserves_payload_exactly() {
        let mut sw = Switch::new();
        let f = frame(1, MacAddr::from_index(9));
        let acts = sw.on_frame(PortId(0), 2, f);
        match &acts[0] {
            Action::Send { frame: out, .. } => assert_eq!(*out, f),
            _ => panic!(),
        }
    }
}
