//! Frames and packets.
//!
//! The simulator models exactly the protocol surface the measurement method
//! touches: Ethernet-style frames carrying ARP or IPv4, and ICMP echo inside
//! IPv4. Payloads are plain enums rather than wire-format byte buffers —
//! nothing in the paper depends on serialization, and structured payloads
//! keep the hot path allocation-free.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The Ethernet broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally-administered unicast MAC derived from an index; the
    /// simulator hands these out sequentially.
    pub fn from_index(i: u64) -> Self {
        let b = i.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// True for the broadcast address.
    #[inline]
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// Inverse of [`from_index`](Self::from_index): the allocation index
    /// of a simulator-issued MAC, or `None` for any address outside that
    /// namespace (broadcast, hand-built test addresses). Lets switches
    /// keep their learned-port tables as dense arrays instead of hash
    /// maps.
    #[inline]
    pub fn as_index(self) -> Option<u64> {
        let b = self.0;
        if b[0] != 0x02 {
            return None;
        }
        Some(u64::from_be_bytes([0, 0, 0, b[1], b[2], b[3], b[4], b[5]]))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArpOp {
    /// Who-has query.
    Request,
    /// Is-at answer.
    Reply,
}

/// An ARP packet (the subset of RFC 826 the scenes need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArpPacket {
    /// Request or reply.
    pub op: ArpOp,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Queried / answered protocol address.
    pub target_ip: Ipv4Addr,
    /// Zero-filled in requests.
    pub target_mac: MacAddr,
}

/// ICMP message: echo (ping) and Time Exceeded (traceroute's working
/// principle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcmpMessage {
    /// A ping.
    EchoRequest {
        /// Sender's ICMP identifier.
        id: u16,
        /// Probe sequence number.
        seq: u16,
    },
    /// A ping answer.
    EchoReply {
        /// Echoed identifier.
        id: u16,
        /// Echoed sequence number.
        seq: u16,
    },
    /// Sent by a router that decremented a packet's TTL to zero. Carries
    /// enough of the original header (destination, echo id/seq) for the
    /// sender to match it to its probe — exactly what traceroute needs and
    /// exactly what layer-2 pseudowires never generate.
    TimeExceeded {
        /// Destination of the expired packet.
        original_dst: Ipv4Addr,
        /// Echoed identifier of the expired probe.
        id: u16,
        /// Echoed sequence number of the expired probe.
        seq: u16,
    },
}

/// An IPv4 packet carrying ICMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time-to-live. Routers decrement on forward and drop at zero;
    /// layer-2 switches never touch it. The TTL observed by the paper's
    /// LG servers is the responder's initial TTL minus the number of IP
    /// hops on the reply path — the heart of the TTL-match filter.
    pub ttl: u8,
    /// The ICMP message carried.
    pub payload: IcmpMessage,
}

/// Frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// Address resolution.
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
}

/// An Ethernet-style frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Source hardware address.
    pub src: MacAddr,
    /// Destination hardware address ([`MacAddr::BROADCAST`] floods).
    pub dst: MacAddr,
    /// Carried payload.
    pub payload: Payload,
}

impl Frame {
    /// Nominal on-the-wire size in bytes, counted by the per-link-class
    /// byte timelines: Ethernet + ARP is a minimum-size frame; ICMP echo
    /// carries the classic 56-byte ping payload.
    pub fn wire_size(&self) -> u32 {
        match self.payload {
            Payload::Arp(_) => 64,
            Payload::Ipv4(_) => 98,
        }
    }

    /// Build an ARP request asking who holds `target_ip`.
    pub fn arp_request(sender_ip: Ipv4Addr, sender_mac: MacAddr, target_ip: Ipv4Addr) -> Frame {
        Frame {
            src: sender_mac,
            dst: MacAddr::BROADCAST,
            payload: Payload::Arp(ArpPacket {
                op: ArpOp::Request,
                sender_ip,
                sender_mac,
                target_ip,
                target_mac: MacAddr([0; 6]),
            }),
        }
    }

    /// Build the ARP reply answering `req` on behalf of `ip`/`mac`.
    pub fn arp_reply(req: &ArpPacket, ip: Ipv4Addr, mac: MacAddr) -> Frame {
        Frame {
            src: mac,
            dst: req.sender_mac,
            payload: Payload::Arp(ArpPacket {
                op: ArpOp::Reply,
                sender_ip: ip,
                sender_mac: mac,
                target_ip: req.sender_ip,
                target_mac: req.sender_mac,
            }),
        }
    }
}

/// Handle into a [`FrameArena`]: a dense 4-byte index that in-flight
/// events carry instead of a 40-byte [`Frame`] copy.
///
/// Under `debug_assertions` the id also remembers which arena issued it,
/// so presenting one network's frame id to another network's arena panics
/// instead of silently reading an unrelated slot: every network owns a
/// private arena, so a frame that leaves one must travel *by value*,
/// never by id. Equality ignores the tag, so debug and release builds
/// agree on id comparisons.
#[derive(Debug, Clone, Copy, Eq)]
pub struct FrameId {
    idx: u32,
    #[cfg(debug_assertions)]
    arena: u32,
}

impl PartialEq for FrameId {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}

#[cfg(debug_assertions)]
static NEXT_ARENA_TAG: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Slab allocator for in-flight frames.
///
/// Every frame traversing a link lives in exactly one slot between its
/// `Send` and its arrival (or drop); the scheduler frees the slot the
/// moment the frame is handed to the receiving device, so the arena's
/// high-water mark tracks the number of *simultaneously* in-flight
/// frames — a few dozen per campaign — not the total frame count.
/// Freed slots are recycled LIFO so the hot path keeps touching the same
/// few cache lines.
///
/// Lifecycle misuse (double free, use after free, and — since each network
/// owns its own arena — handing a [`FrameId`] to a foreign arena) is
/// caught by a slot-liveness bitmap and a per-arena tag under
/// `debug_assertions`; release builds pay nothing for either.
#[derive(Debug)]
pub struct FrameArena {
    slots: Vec<Frame>,
    free: Vec<u32>,
    #[cfg(debug_assertions)]
    live: Vec<bool>,
    #[cfg(debug_assertions)]
    tag: u32,
}

impl Default for FrameArena {
    fn default() -> Self {
        FrameArena {
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            live: Vec::new(),
            // The tag only ever feeds debug assertions, so drawing it from
            // a process-wide counter cannot perturb simulation results.
            #[cfg(debug_assertions)]
            tag: NEXT_ARENA_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }
}

impl FrameArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn check_owned(&self, id: FrameId) {
        debug_assert!(
            id.arena == self.tag,
            "foreign arena: {id:?} was issued by arena {}, not arena {} — \
             frames leave an arena by value, never by id",
            id.arena,
            self.tag
        );
    }

    /// Store `frame`, reusing the most recently freed slot if any.
    #[inline]
    pub fn alloc(&mut self, frame: Frame) -> FrameId {
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = frame;
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.live[idx as usize], "allocating a live slot");
                self.live[idx as usize] = true;
            }
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("frame arena overflow");
            self.slots.push(frame);
            #[cfg(debug_assertions)]
            self.live.push(true);
            idx
        };
        FrameId {
            idx,
            #[cfg(debug_assertions)]
            arena: self.tag,
        }
    }

    /// Read a live frame.
    #[inline]
    pub fn get(&self, id: FrameId) -> &Frame {
        #[cfg(debug_assertions)]
        {
            self.check_owned(id);
            debug_assert!(self.live[id.idx as usize], "use after free: {id:?}");
        }
        &self.slots[id.idx as usize]
    }

    /// Copy the frame out and release its slot.
    #[inline]
    pub fn take(&mut self, id: FrameId) -> Frame {
        #[cfg(debug_assertions)]
        self.check_owned(id);
        let frame = self.slots[id.idx as usize];
        self.release(id);
        frame
    }

    /// Release a slot without reading it (dropped frames).
    #[inline]
    pub fn release(&mut self, id: FrameId) {
        #[cfg(debug_assertions)]
        {
            self.check_owned(id);
            debug_assert!(self.live[id.idx as usize], "double free: {id:?}");
            self.live[id.idx as usize] = false;
        }
        self.free.push(id.idx);
    }

    /// Number of frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (the in-flight high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Exact heap bytes retained by the arena: slot storage plus the free
    /// list (and, in debug builds, the liveness bitmap). This is capacity,
    /// not occupancy: slots freed by delivered frames stay allocated for
    /// the arena's lifetime, so after a run this is its high-water mark.
    pub fn retained_bytes(&self) -> u64 {
        let b = (self.slots.capacity() * std::mem::size_of::<Frame>()) as u64
            + (self.free.capacity() * std::mem::size_of::<u32>()) as u64;
        #[cfg(debug_assertions)]
        let b = b + self.live.capacity() as u64;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_detection() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::from_index(3).is_broadcast());
    }

    #[test]
    fn macs_from_distinct_indices_differ() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
        // Locally administered, unicast.
        assert_eq!(a.0[0] & 0x03, 0x02);
    }

    #[test]
    fn mac_index_round_trips() {
        for i in [0u64, 1, 255, 256, 0xFFFF_FFFF, (1 << 40) - 1] {
            assert_eq!(MacAddr::from_index(i).as_index(), Some(i));
        }
        assert_eq!(MacAddr::BROADCAST.as_index(), None);
        assert_eq!(MacAddr([0xAA, 0, 0, 0, 0, 1]).as_index(), None);
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0x02, 0, 0, 0, 1, 0xAB]).to_string(),
            "02:00:00:00:01:ab"
        );
    }

    #[test]
    fn arp_round_trip() {
        let lg_ip: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let lg_mac = MacAddr::from_index(1);
        let member_ip: Ipv4Addr = "10.0.0.7".parse().unwrap();
        let member_mac = MacAddr::from_index(2);
        let req = Frame::arp_request(lg_ip, lg_mac, member_ip);
        assert!(req.dst.is_broadcast());
        let Payload::Arp(arp) = req.payload else {
            panic!()
        };
        assert_eq!(arp.op, ArpOp::Request);
        let reply = Frame::arp_reply(&arp, member_ip, member_mac);
        assert_eq!(reply.dst, lg_mac);
        let Payload::Arp(rarp) = reply.payload else {
            panic!()
        };
        assert_eq!(rarp.op, ArpOp::Reply);
        assert_eq!(rarp.sender_ip, member_ip);
        assert_eq!(rarp.sender_mac, member_mac);
        assert_eq!(rarp.target_ip, lg_ip);
    }

    fn probe(seq: u16) -> Frame {
        Frame {
            src: MacAddr::from_index(1),
            dst: MacAddr::from_index(2),
            payload: Payload::Ipv4(Ipv4Packet {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.0.2".parse().unwrap(),
                ttl: 64,
                payload: IcmpMessage::EchoRequest { id: 7, seq },
            }),
        }
    }

    #[test]
    fn arena_reuses_slots_lifo() {
        let mut arena = FrameArena::new();
        let a = arena.alloc(probe(0));
        let b = arena.alloc(probe(1));
        assert_ne!(a, b);
        assert_eq!(arena.in_flight(), 2);
        assert_eq!(arena.take(b), probe(1));
        assert_eq!(arena.in_flight(), 1);
        // LIFO recycling: the slot just freed is handed out again.
        let c = arena.alloc(probe(2));
        assert_eq!(c, b);
        assert_eq!(arena.capacity(), 2);
        assert_eq!(*arena.get(a), probe(0));
        assert_eq!(*arena.get(c), probe(2));
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn arena_catches_double_free() {
        let mut arena = FrameArena::new();
        let id = arena.alloc(probe(0));
        arena.release(id);
        arena.release(id);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    #[cfg(debug_assertions)]
    fn arena_catches_use_after_free() {
        let mut arena = FrameArena::new();
        let id = arena.alloc(probe(0));
        arena.release(id);
        let _ = arena.get(id);
    }

    #[test]
    #[should_panic(expected = "foreign arena")]
    #[cfg(debug_assertions)]
    fn arena_catches_foreign_release() {
        // Arena A's id freed into arena B: B's liveness state must not be
        // consulted with another arena's index.
        let mut arena_a = FrameArena::new();
        let mut arena_b = FrameArena::new();
        let id_a = arena_id(&mut arena_a);
        let _ = arena_b.alloc(probe(1)); // same slot index exists in B
        arena_b.release(id_a);
    }

    #[test]
    #[should_panic(expected = "foreign arena")]
    #[cfg(debug_assertions)]
    fn arena_catches_foreign_take() {
        let mut arena_a = FrameArena::new();
        let mut arena_b = FrameArena::new();
        let id_a = arena_id(&mut arena_a);
        let _ = arena_b.alloc(probe(1));
        let _ = arena_b.take(id_a);
    }

    #[test]
    #[should_panic(expected = "foreign arena")]
    #[cfg(debug_assertions)]
    fn arena_catches_foreign_get() {
        let mut arena_a = FrameArena::new();
        let mut arena_b = FrameArena::new();
        let id_a = arena_id(&mut arena_a);
        let _ = arena_b.alloc(probe(1));
        let _ = arena_b.get(id_a);
    }

    #[cfg(debug_assertions)]
    fn arena_id(arena: &mut FrameArena) -> FrameId {
        arena.alloc(probe(0))
    }
}
