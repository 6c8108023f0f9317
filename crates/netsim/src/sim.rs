//! The network container and sharded event loop.
//!
//! `Network` owns every device and link, partitioned into one or more
//! *shards* — each with its own calendar event queue, frame arena, RNG
//! streams, and fault injector. Shards advance in lock-step *windows*
//! bounded by a conservative lookahead (the minimum one-way base delay of
//! any link that crosses a shard boundary); frames crossing shards are
//! buffered in per-destination outboxes and delivered at the epoch barrier
//! between windows.
//!
//! Determinism contract: the same construction sequence and seed produce
//! the same event trace, frame for frame, **at any shard count and on any
//! number of threads**. Every source of per-event state is keyed to an
//! entity that lives on exactly one shard:
//!
//! - event ordering uses the intrinsic [`EventKey`] `(creator, seq)` pair,
//!   a pure function of each creator's own history (see `event.rs`);
//! - link jitter draws from a per-*direction* stream owned by the
//!   transmitting side's shard;
//! - router per-event RNGs are indexed by a per-node count of non-ARP
//!   dispatches;
//! - fault decisions draw from per-`(link, direction)` streams
//!   (see `fault.rs`).
//!
//! ARP frames touch none of these streams: they travel at the link's
//! jitter-free delay ([`DelayModel::floor_at`]), skip the fault injector
//! and never advance a router's RNG index.
//! So the number of ARP copies a fabric delivers cannot move an IP result.
//!
//! None of these depend on how entities are assigned to shards, so any
//! partition — including the trivial one-shard partition — yields
//! bit-identical observables. The epoch barrier guarantees no event is
//! dispatched before a cross-shard frame that precedes it: a shard that
//! has drained everything before `T` cannot receive a cross-shard frame
//! earlier than `T + lookahead` (every delay term is additive and
//! non-negative), and windows never extend past `t_min + lookahead`.

use crate::event::{Event, EventKey, EventQueue};
use crate::fault::{FaultCounts, FaultInjector, TxFaults, DUPLICATE_GAP};
use crate::frame::{ArpOp, Frame, FrameArena, IcmpMessage, MacAddr, Payload};
use crate::host::Host;
use crate::link::DelayModel;
use crate::router::{Router, RouterBehavior};
use crate::sponge::{OwnerTable, Wiring};
use crate::switch::Switch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_types::{seed, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Index of a node (device) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Index of a port on a node. Ports are allocated in [`Network::connect`]
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub u16);

impl PortId {
    /// Index into per-port storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Something a device wants done after handling an event.
#[derive(Debug, Clone)]
pub enum Action {
    /// Transmit `frame` out of `port` after a local delay (processing time).
    Send {
        /// Egress port.
        port: PortId,
        /// Frame to transmit.
        frame: Frame,
        /// Local processing delay before the frame enters the link.
        after: SimDuration,
    },
    /// Fire a timer for this device at absolute time `at`.
    Schedule {
        /// When the timer fires.
        at: SimTime,
        /// Opaque token handed back to the device.
        token: u64,
    },
}

impl Action {
    /// A send with no local processing delay.
    pub fn send(port: PortId, frame: Frame) -> Action {
        Action::Send {
            port,
            frame,
            after: SimDuration::ZERO,
        }
    }
}

/// The device living at a node.
#[derive(Debug)]
pub enum Device {
    /// A MAC-learning layer-2 switch.
    Switch(Switch),
    /// An IP router.
    Router(Router),
    /// A measurement host.
    Host(Host),
}

#[derive(Debug, Clone, Copy)]
struct Attachment {
    far_node: NodeId,
    far_port: PortId,
    /// Shard owning the far node (frames to it may need a handoff).
    far_shard: u32,
    link: u32,
    /// Which direction of the (full-duplex) link this side transmits on.
    dir: u8,
    /// Index of this direction's [`DirState`] in the transmitting shard.
    dir_loc: u32,
}

/// Shard placement and port wiring of one node. Devices themselves live
/// inside their shard, so a window's drain touches only its own shard.
#[derive(Debug)]
struct NodeMeta {
    ports: Vec<Attachment>,
    /// Owning shard.
    shard: u32,
    /// Index into the owning shard's `devices`/`seqs`/`rx` vectors.
    loc: u32,
}

/// Topology role of a link, declared at [`Network::connect_classed`] time.
///
/// Classes exist for the deterministic timelines: traffic is attributed
/// to the *canonical* topology partition (what kind of link a frame
/// crossed), never to the physical shard layout — so the per-class byte
/// series are identical at `--shards 1` and `--shards 8`. In particular
/// `InterSite` marks the inter-fabric-site spans that *would* cross
/// shards at full sharding: its frame count is the canonical handoff
/// volume, defined even when the whole fabric runs on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkClass {
    /// Anything unclassified (fabric-internal hops, test rigs).
    #[default]
    Core,
    /// A member's access port onto the IXP fabric (port utilization).
    Access,
    /// A fiber span between fabric sites of one distributed IXP.
    InterSite,
    /// A remote-peering pseudowire long-haul segment.
    Pseudowire,
}

/// Immutable link description; per-direction mutable state ([`DirState`])
/// lives in the transmitting shard.
#[derive(Debug)]
struct LinkMeta {
    delay: DelayModel,
    a: NodeId,
    b: NodeId,
    class: LinkClass,
}

/// Mutable per-direction link state, owned by the shard of the node that
/// transmits in this direction.
#[derive(Debug)]
struct DirState {
    /// Jitter stream for this direction; `None` for fully deterministic
    /// delay models, which skip RNG construction and per-frame sampling.
    /// Streams are per-direction (not per-link) so both endpoints of a
    /// cross-shard link can sample without coordination — and so draws are
    /// a pure function of each direction's own traffic, independent of the
    /// shard layout.
    rng: Option<StdRng>,
}

/// A frame in transit to another shard, buffered until the next barrier.
#[derive(Debug)]
struct Xfer {
    at: SimTime,
    key: EventKey,
    node: NodeId,
    port: PortId,
    frame: Frame,
}

/// Read-only state every shard needs while draining a window. Shards hold
/// devices and queues by value; this is the only data shared between
/// shards, and it is never written during a window.
struct Ctx<'a> {
    nodes: &'a [NodeMeta],
    links: &'a [LinkMeta],
    /// The fabric ARP sponge: where a broadcast ARP request may go.
    owners: &'a OwnerTable,
    router_key: seed::DomainKey,
    obs_active: bool,
    /// Debug-only skew added to cross-shard deliveries; see
    /// [`Network::debug_skew_cross_shard`].
    xshard_skew: SimDuration,
}

/// One shard of the data plane: a self-contained event loop over the
/// devices assigned to it, plus outboxes for frames leaving the shard.
struct Shard {
    /// This shard's index, so `deliver` can tell local from cross-shard.
    me: u32,
    devices: Vec<Device>,
    /// Per-device event-creation counters (the `seq` of [`EventKey`]),
    /// indexed by device `loc`.
    seqs: Vec<u64>,
    /// Per-router count of dispatched non-ARP frames, indexed by `loc`
    /// (zero for other devices): the router per-event RNG index, so it is
    /// independent of shard layout and of how many ARP frames a router
    /// sees.
    rx: Vec<u64>,
    /// Per-direction link state, indexed by `Attachment::dir_loc`.
    dirs: Vec<DirState>,
    queue: EventQueue,
    /// Slab of in-flight frames: events carry 4-byte
    /// [`crate::frame::FrameId`]s instead of frame copies; slots are freed
    /// the moment a frame is delivered. Strictly per-shard — cross-shard
    /// frames travel by value and are re-allocated in the destination
    /// arena at the barrier.
    frames: FrameArena,
    now: SimTime,
    /// Stand-in generator passed to routers for ARP frames, whose handling
    /// never draws — ARP is invisible to every random stream, so no
    /// per-event stream is derived for it (a request for an unowned
    /// address still floods every member of a fabric). Debug builds
    /// assert after every use that it was in fact never advanced.
    arp_rng: StdRng,
    /// Scratch buffer device handlers write their actions into; reused
    /// across every dispatch so the hot loop never allocates.
    scratch: Vec<Action>,
    /// Optional fault injection consulted on every frame transmission.
    /// Per-shard like every other stream; decision streams are keyed by
    /// `(link, dir)`, so the split cannot change outcomes.
    faults: Option<FaultInjector>,
    events_processed: u64,
    /// Dispatched events by kind (`EV_*` index order); flushed as the
    /// `netsim.sim.events.<kind>` counters.
    events_by_kind: [u64; EV_KINDS],
    /// Frames dropped because a device transmitted on an unconnected port.
    dropped_unconnected: u64,
    /// Commutative trace digest: the wrapping sum of a mixed hash of
    /// `(time, node, kind)` over every dispatched event. Addition commutes,
    /// so the merged digest is independent of how events interleave across
    /// shards — it pins *which* events ran at *what* times, which together
    /// with per-entity keying pins the whole trace.
    digest: u64,
    /// Frames bound for other shards, buffered until the next barrier.
    /// `outbox[dst]` for `dst == me` stays empty.
    outbox: Vec<Vec<Xfer>>,
    /// Total frames this shard handed to other shards.
    handoffs: u64,
    /// Sim-time timeline series recorded by this shard (only while
    /// observability is on); drained into the process registry by
    /// [`Network::flush_obs`]. Everything recorded here is a pure
    /// function of the shard-invariant event trace — see the
    /// `rp_obs::timeline` module docs for the rules.
    timeline: rp_obs::TimelineRecorder,
    /// The per-event rate series ([`TL_RATES`]) batched per sim-time
    /// bucket in front of `timeline`: dispatch is the hottest loop in the
    /// repo, so each event costs one register add until the bucket changes.
    tl_rates: rp_obs::RateRegister<5>,
}

/// The rate series every shard records per event or per transmitted
/// frame, in [`Shard::tl_rates`] index order.
const TL_RATES: [&str; 5] = [
    "netsim.events",
    "netsim.access_bytes",
    "netsim.inter_site_bytes",
    "netsim.inter_site_frames",
    "netsim.pseudowire_bytes",
];
const TL_EVENTS: usize = 0;
const TL_ACCESS_BYTES: usize = 1;
const TL_INTER_SITE_BYTES: usize = 2;
const TL_INTER_SITE_FRAMES: usize = 3;
const TL_PSEUDOWIRE_BYTES: usize = 4;

/// Kinds of dispatched event, as indices into [`Shard::events_by_kind`].
const EV_ARP_REQUEST: usize = 0;
const EV_ARP_REPLY: usize = 1;
const EV_ICMP_ECHO_REQUEST: usize = 2;
const EV_ICMP_ECHO_REPLY: usize = 3;
const EV_ICMP_OTHER: usize = 4;
const EV_TIMER: usize = 5;
const EV_KINDS: usize = 6;

/// The `netsim.sim.events.<kind>` counter names, in `EV_*` index order.
const EV_COUNTERS: [&str; EV_KINDS] = [
    "netsim.sim.events.arp_request",
    "netsim.sim.events.arp_reply",
    "netsim.sim.events.icmp_echo_request",
    "netsim.sim.events.icmp_echo_reply",
    "netsim.sim.events.icmp_other",
    "netsim.sim.events.timer",
];

#[inline]
fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed, dependency-free.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[inline]
fn event_hash(at: SimTime, node: u32, kind: u64) -> u64 {
    mix64(
        at.nanos()
            .wrapping_add(mix64((u64::from(node) << 1) | kind)),
    )
}

impl Shard {
    fn new(me: u32, total: usize) -> Self {
        Shard {
            me,
            devices: Vec::new(),
            seqs: Vec::new(),
            rx: Vec::new(),
            dirs: Vec::new(),
            queue: EventQueue::new(),
            frames: FrameArena::new(),
            now: SimTime::ZERO,
            arp_rng: StdRng::seed_from_u64(0),
            scratch: Vec::new(),
            faults: None,
            events_processed: 0,
            events_by_kind: [0; EV_KINDS],
            dropped_unconnected: 0,
            digest: 0,
            outbox: (0..total).map(|_| Vec::new()).collect(),
            handoffs: 0,
            timeline: rp_obs::TimelineRecorder::new(),
            tl_rates: rp_obs::RateRegister::new(TL_RATES),
        }
    }

    /// Exact heap bytes retained by this shard's data-plane storage: the
    /// event queue's bucket capacity plus the frame arena's slots.
    fn retained_bytes(&self) -> u64 {
        self.queue.retained_bytes() + self.frames.retained_bytes()
    }

    /// Mint the next event key for the device at `loc` (global id `node`).
    #[inline]
    fn next_key(&mut self, node: NodeId, loc: usize) -> EventKey {
        let seq = self.seqs[loc];
        self.seqs[loc] += 1;
        EventKey {
            creator: node.0,
            seq,
        }
    }

    /// Drain every event strictly before `horizon`.
    fn drain_window(&mut self, ctx: &Ctx<'_>, horizon: SimTime) {
        while let Some((at, event)) = self.queue.pop_before(horizon) {
            self.now = at;
            self.dispatch(ctx, event);
        }
    }

    fn dispatch(&mut self, ctx: &Ctx<'_>, event: Event) {
        self.events_processed += 1;
        let (node, kind) = match &event {
            Event::FrameArrival { node, .. } => (*node, 0u64),
            Event::Timer { node, .. } => (*node, 1u64),
        };
        self.digest = self.digest.wrapping_add(event_hash(self.now, node.0, kind));
        if ctx.obs_active {
            self.tl_rates
                .add(&mut self.timeline, TL_EVENTS, self.now.nanos(), 1);
        }
        let meta = &ctx.nodes[node.index()];
        let loc = meta.loc as usize;
        let mut actions = std::mem::take(&mut self.scratch);
        match event {
            Event::FrameArrival { port, frame, .. } => {
                // Copy the frame out of the arena and release its slot
                // immediately: delivery ends the in-flight lifetime.
                let frame = self.frames.take(frame);
                self.events_by_kind[match &frame.payload {
                    Payload::Arp(a) if a.op == ArpOp::Request => EV_ARP_REQUEST,
                    Payload::Arp(_) => EV_ARP_REPLY,
                    Payload::Ipv4(p) => match p.payload {
                        IcmpMessage::EchoRequest { .. } => EV_ICMP_ECHO_REQUEST,
                        IcmpMessage::EchoReply { .. } => EV_ICMP_ECHO_REPLY,
                        IcmpMessage::TimeExceeded { .. } => EV_ICMP_OTHER,
                    },
                }] += 1;
                let n_ports = meta.ports.len() as u16;
                let now = self.now;
                match &mut self.devices[loc] {
                    Device::Switch(sw) => {
                        let owner = match &frame.payload {
                            Payload::Arp(a)
                                if a.op == ArpOp::Request && frame.dst.is_broadcast() =>
                            {
                                ctx.owners.port(node, a.target_ip)
                            }
                            _ => None,
                        };
                        sw.on_frame_into(port, n_ports, frame, owner, &mut actions)
                    }
                    Device::Router(r) => {
                        if matches!(frame.payload, Payload::Arp(_)) {
                            // The ARP arms never draw, so the per-event
                            // stream need not be derived at all: an
                            // untouched generator leaves no trace.
                            r.on_frame_into(now, port, frame, &mut self.arp_rng, &mut actions);
                            debug_assert_eq!(
                                self.arp_rng,
                                StdRng::seed_from_u64(0),
                                "router ARP handling drew from its RNG; \
                                 the ARP fast path is no longer sound"
                            );
                        } else {
                            // Derive a per-event RNG from (node, per-node
                            // non-ARP dispatch count). The count is a
                            // property of the node's own IP history, so the
                            // stream is the same at every shard count and
                            // whatever ARP traffic the router sees.
                            self.rx[loc] += 1;
                            let mut rng = seed::rng_from_key(
                                ctx.router_key,
                                (node.0 as u64) << 40 | self.rx[loc],
                            );
                            r.on_frame_into(now, port, frame, &mut rng, &mut actions);
                        }
                    }
                    Device::Host(h) => h.on_frame_into(now, port, frame, &mut actions),
                }
            }
            Event::Timer { token, .. } => {
                self.events_by_kind[EV_TIMER] += 1;
                let now = self.now;
                if let Device::Host(h) = &mut self.devices[loc] {
                    h.on_timer_into(now, token, &mut actions);
                }
            }
        }
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    port,
                    mut frame,
                    after,
                } => {
                    let Some(att) = meta.ports.get(port.index()).copied() else {
                        self.dropped_unconnected += 1;
                        continue; // unconnected port: drop
                    };
                    // ARP traffic is invisible to every random stream: it
                    // bypasses fault decisions and draws no jitter. How
                    // many ARP copies a fabric delivers can then never move
                    // an IP result.
                    let arp = matches!(frame.payload, Payload::Arp(_));
                    let fx = match self.faults.as_mut() {
                        Some(inj) if !arp => {
                            inj.on_transmit(self.now, att.link, att.dir, &mut frame)
                        }
                        _ => TxFaults::default(),
                    };
                    if fx.drop {
                        continue; // injected loss: the frame never transmits
                    }
                    let start = self.now + after;
                    let link = &ctx.links[att.link as usize];
                    if ctx.obs_active {
                        // Per-class wire-byte timelines, keyed by transmit
                        // start (sim time) and the link's *canonical* role —
                        // both shard-invariant. InterSite frames are the
                        // canonical cross-shard handoff volume.
                        let bytes = frame.wire_size() as u64;
                        let t = start.nanos();
                        let (rates, rec) = (&mut self.tl_rates, &mut self.timeline);
                        match link.class {
                            LinkClass::Core => {}
                            LinkClass::Access => rates.add(rec, TL_ACCESS_BYTES, t, bytes),
                            LinkClass::InterSite => {
                                rates.add(rec, TL_INTER_SITE_BYTES, t, bytes);
                                rates.add(rec, TL_INTER_SITE_FRAMES, t, 1);
                            }
                            LinkClass::Pseudowire => rates.add(rec, TL_PSEUDOWIRE_BYTES, t, bytes),
                        }
                    }
                    let delay = match self.dirs[att.dir_loc as usize].rng.as_mut() {
                        Some(rng) if !arp => link.delay.sample(start, rng),
                        _ => link.delay.floor_at(start),
                    };
                    let arrival = start + delay + fx.extra_delay;
                    if fx.duplicate {
                        let key = self.next_key(node, loc);
                        self.deliver(ctx, &att, arrival + DUPLICATE_GAP, key, frame);
                    }
                    let key = self.next_key(node, loc);
                    self.deliver(ctx, &att, arrival, key, frame);
                }
                Action::Schedule { at, token } => {
                    if ctx.obs_active {
                        self.timeline
                            .level("netsim.queue_depth", self.now.nanos(), at.nanos(), 1);
                    }
                    let key = self.next_key(node, loc);
                    self.queue.push(at, key, Event::Timer { node, token });
                }
            }
        }
        self.scratch = actions;
    }

    /// Route a transmitted frame to its destination: locally if the far
    /// node shares this shard, otherwise into the outbox for delivery at
    /// the next epoch barrier.
    fn deliver(
        &mut self,
        ctx: &Ctx<'_>,
        att: &Attachment,
        at: SimTime,
        key: EventKey,
        frame: Frame,
    ) {
        if ctx.obs_active {
            // Both level series use (creation sim-time → scheduled
            // sim-time) intervals known right here, so the value at every
            // bucket boundary is exact and independent of which shard the
            // frame physically traverses. Queue depth counts pending
            // events (frames + timers); frames-in-flight is the logical
            // arena occupancy — frames between transmission and arrival.
            let (t0, t1) = (self.now.nanos(), at.nanos());
            self.timeline.level("netsim.queue_depth", t0, t1, 1);
            self.timeline.level("netsim.frames_in_flight", t0, t1, 1);
        }
        if att.far_shard == self.me {
            let frame = self.frames.alloc(frame);
            self.queue.push(
                at,
                key,
                Event::FrameArrival {
                    node: att.far_node,
                    port: att.far_port,
                    frame,
                },
            );
        } else {
            self.handoffs += 1;
            self.outbox[att.far_shard as usize].push(Xfer {
                at: at + ctx.xshard_skew,
                key,
                node: att.far_node,
                port: att.far_port,
                frame,
            });
        }
    }
}

/// A simulated network of switches, routers, and hosts, partitioned into
/// one or more independently scheduled shards.
pub struct Network {
    seed: u64,
    nodes: Vec<NodeMeta>,
    links: Vec<LinkMeta>,
    shards: Vec<Shard>,
    next_mac: u64,
    /// Counter for construction-time plans (`plan_ping`/`plan_traceroute`);
    /// their event keys use [`EventKey::PLAN_CREATOR`] with this sequence.
    plan_seq: u64,
    /// Precomputed `(seed, "router-frame")` key: the per-event router RNG
    /// is derived once per frame, so the domain-label hash is hoisted out
    /// of the hot loop.
    router_key: seed::DomainKey,
    /// `rp_obs::enabled()` sampled at run start: the event loop is the
    /// hottest code in the repo, so per-event work reads one bool instead
    /// of the atomic, and counters flush to the registry once per run.
    obs_active: bool,
    obs_flushed_events: u64,
    obs_flushed_kinds: [u64; EV_KINDS],
    obs_flushed_drops: u64,
    obs_flushed_barriers: u64,
    obs_flushed_handoffs: u64,
    /// Cached conservative lookahead: `Some(None)` means "computed: no
    /// cross-shard links" (windows are unbounded); invalidated by
    /// [`Network::connect`].
    lookahead_cache: Option<Option<SimDuration>>,
    /// The ARP owner table, built at the start of a run from the wiring
    /// and device bindings; invalidated by anything that can change them
    /// (adding a node, connecting, mutable device access).
    owners: Option<OwnerTable>,
    /// Test-only: run with an empty owner table, so every broadcast ARP
    /// request floods — the reference the sponge must match.
    #[cfg(test)]
    flood_arp: bool,
    /// Number of epoch barriers executed.
    barrier_rounds: u64,
    /// Wall-clock nanoseconds spent inside barriers (obs runs only).
    barrier_wait_ns: u64,
    /// Debug-only extra delay on cross-shard deliveries; breaks the
    /// shard-count invariance on purpose so oracle tests can prove their
    /// checkers fire. Zero in all real runs.
    xshard_skew: SimDuration,
    /// Label for scoped timeline series (`<scope>.port_util_bytes`),
    /// typically `ixp.<ACRONYM>` set by the campaign layer. `None` keeps
    /// the aggregate series only.
    timeline_scope: Option<String>,
}

impl Network {
    /// An empty single-shard network. All per-device and per-link
    /// randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_shards(seed, 1)
    }

    /// An empty network with `shards` data-plane shards (clamped to at
    /// least 1). Devices are placed with [`Network::add_switch_on`] and
    /// friends; results are bit-identical at every shard count as long as
    /// the construction sequence is the same.
    pub fn with_shards(seed: u64, shards: usize) -> Self {
        let n = shards.max(1);
        Network {
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
            shards: (0..n).map(|me| Shard::new(me as u32, n)).collect(),
            next_mac: 1,
            plan_seq: 0,
            router_key: seed::domain_key(seed, "router-frame"),
            obs_active: false,
            obs_flushed_events: 0,
            obs_flushed_kinds: [0; EV_KINDS],
            obs_flushed_drops: 0,
            obs_flushed_barriers: 0,
            obs_flushed_handoffs: 0,
            lookahead_cache: None,
            owners: None,
            #[cfg(test)]
            flood_arp: false,
            barrier_rounds: 0,
            barrier_wait_ns: 0,
            xshard_skew: SimDuration::ZERO,
            timeline_scope: None,
        }
    }

    /// Label this network's scoped timeline series: the access-port byte
    /// series is additionally published as `<scope>.port_util_bytes`
    /// (the campaign passes `ixp.<ACRONYM>` so per-IXP port utilization
    /// survives the cross-IXP aggregation).
    pub fn set_timeline_scope(&mut self, scope: String) {
        self.timeline_scope = Some(scope);
    }

    /// Number of data-plane shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Exact heap bytes currently retained by every shard's data-plane
    /// storage (capacity, not occupancy). Nothing ever shrinks, so after a
    /// run this is the network's high-water capacity.
    pub fn retained_bytes(&self) -> u64 {
        self.shards.iter().map(Shard::retained_bytes).sum()
    }

    /// Install a fault injector; every subsequent frame transmission
    /// consults it. Replaces any previously installed injector. Each shard
    /// gets its own copy — decision streams are keyed by `(link, dir)`, so
    /// the copies never interfere and tallies merge exactly.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        let cfg = injector.config().clone();
        for s in &mut self.shards {
            s.faults = Some(FaultInjector::new(cfg.clone()));
        }
    }

    /// Exact tallies of injected faults, merged across shards (all zero
    /// without an injector).
    pub fn fault_counts(&self) -> FaultCounts {
        let mut total = FaultCounts::default();
        for s in &self.shards {
            if let Some(inj) = &s.faults {
                total.merge(&inj.counts());
            }
        }
        total
    }

    fn add_node_on(&mut self, shard: usize, device: Device) -> NodeId {
        assert!(
            shard < self.shards.len(),
            "shard {shard} out of range: network has {} shards",
            self.shards.len()
        );
        let id = NodeId(self.nodes.len() as u32);
        self.owners = None;
        let s = &mut self.shards[shard];
        let loc = s.devices.len() as u32;
        s.devices.push(device);
        s.seqs.push(0);
        s.rx.push(0);
        self.nodes.push(NodeMeta {
            ports: Vec::new(),
            shard: shard as u32,
            loc,
        });
        id
    }

    /// Add a MAC-learning layer-2 switch on shard 0.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_switch_on(0)
    }

    /// Add a MAC-learning layer-2 switch on the given shard.
    pub fn add_switch_on(&mut self, shard: usize) -> NodeId {
        self.add_node_on(shard, Device::Switch(Switch::new()))
    }

    /// Add an IP router with the given responder behavior on shard 0.
    pub fn add_router(&mut self, behavior: RouterBehavior) -> NodeId {
        self.add_router_on(0, behavior)
    }

    /// Add an IP router with the given responder behavior on the given
    /// shard.
    pub fn add_router_on(&mut self, shard: usize, behavior: RouterBehavior) -> NodeId {
        self.add_node_on(shard, Device::Router(Router::new(behavior)))
    }

    /// Add a measurement host on shard 0. Its ICMP id is derived from the
    /// node index.
    pub fn add_host(&mut self) -> NodeId {
        self.add_host_on(0)
    }

    /// Add a measurement host on the given shard. Its ICMP id is derived
    /// from the (global) node index, so placement cannot change it.
    pub fn add_host_on(&mut self, shard: usize) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.add_node_on(shard, Device::Host(Host::new(0x4000 | id.0 as u16)))
    }

    /// Allocate a fresh unicast MAC address.
    pub fn alloc_mac(&mut self) -> MacAddr {
        let m = MacAddr::from_index(self.next_mac);
        self.next_mac += 1;
        m
    }

    /// Connect `a` and `b` with a link; returns the allocated port on each
    /// side. Delay is sampled independently per traversal direction, from
    /// a stream owned by the transmitting side's shard.
    pub fn connect(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> (PortId, PortId) {
        self.connect_classed(a, b, delay, LinkClass::Core)
    }

    /// [`Network::connect`] with an explicit [`LinkClass`], so the
    /// deterministic timelines can attribute traffic to the canonical
    /// topology role of the link.
    pub fn connect_classed(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: DelayModel,
        class: LinkClass,
    ) -> (PortId, PortId) {
        let link_idx = self.links.len() as u32;
        let seed = self.seed;
        let deterministic = delay.is_deterministic();
        self.links.push(LinkMeta { delay, a, b, class });
        self.lookahead_cache = None;
        self.owners = None;
        let (shard_a, shard_b) = (self.nodes[a.index()].shard, self.nodes[b.index()].shard);
        let dir_state = |shards: &mut Vec<Shard>, shard: u32, dir: u8| {
            let s = &mut shards[shard as usize];
            let loc = s.dirs.len() as u32;
            s.dirs.push(DirState {
                rng: if deterministic {
                    None
                } else {
                    Some(seed::rng2(seed, "link", link_idx as u64, dir as u64))
                },
            });
            loc
        };
        // Direction 0 carries a→b (transmitter a), direction 1 carries b→a.
        let a_dir_loc = dir_state(&mut self.shards, shard_a, 0);
        let b_dir_loc = dir_state(&mut self.shards, shard_b, 1);
        let pa = PortId(self.nodes[a.index()].ports.len() as u16);
        let pb = PortId(self.nodes[b.index()].ports.len() as u16);
        self.nodes[a.index()].ports.push(Attachment {
            far_node: b,
            far_port: pb,
            far_shard: shard_b,
            link: link_idx,
            dir: 0,
            dir_loc: a_dir_loc,
        });
        self.nodes[b.index()].ports.push(Attachment {
            far_node: a,
            far_port: pa,
            far_shard: shard_a,
            link: link_idx,
            dir: 1,
            dir_loc: b_dir_loc,
        });
        (pa, pb)
    }

    fn device_mut(&mut self, id: NodeId) -> &mut Device {
        self.owners = None;
        let meta = &self.nodes[id.index()];
        &mut self.shards[meta.shard as usize].devices[meta.loc as usize]
    }

    /// Mutable access to a router (panics if `id` is not a router).
    pub fn router_mut(&mut self, id: NodeId) -> &mut Router {
        match self.device_mut(id) {
            Device::Router(r) => r,
            other => panic!("{id} is not a router: {other:?}"),
        }
    }

    /// Shared access to a host (panics if `id` is not a host).
    pub fn host(&self, id: NodeId) -> &Host {
        let meta = &self.nodes[id.index()];
        match &self.shards[meta.shard as usize].devices[meta.loc as usize] {
            Device::Host(h) => h,
            other => panic!("{id} is not a host: {other:?}"),
        }
    }

    /// Mutable access to a host (panics if `id` is not a host).
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match self.device_mut(id) {
            Device::Host(h) => h,
            other => panic!("{id} is not a host: {other:?}"),
        }
    }

    /// Bind a host interface on `port` with address `ip` (MAC allocated
    /// internally).
    pub fn bind_host(&mut self, host: NodeId, port: PortId, ip: Ipv4Addr) {
        let mac = self.alloc_mac();
        self.host_mut(host).bind(port, ip, mac);
    }

    /// Bind a router interface on `port` with address `ip` (MAC allocated
    /// internally).
    pub fn bind_router(&mut self, router: NodeId, port: PortId, ip: Ipv4Addr) {
        let mac = self.alloc_mac();
        self.router_mut(router).bind(port, ip, mac);
    }

    /// Mint the key for a construction-time plan event.
    fn plan_key(&mut self) -> EventKey {
        let seq = self.plan_seq;
        self.plan_seq += 1;
        EventKey {
            creator: EventKey::PLAN_CREATOR,
            seq,
        }
    }

    /// Plan a ping from `host` to `target` at absolute time `at`.
    pub fn plan_ping(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr) {
        let token = self.host_mut(host).register_plan(at, target);
        let key = self.plan_key();
        let shard = self.nodes[host.index()].shard as usize;
        if rp_obs::enabled() {
            // Plan timers sit in the queue from construction (sim t=0)
            // until they fire.
            self.shards[shard]
                .timeline
                .level("netsim.queue_depth", 0, at.nanos(), 1);
        }
        self.shards[shard]
            .queue
            .push(at, key, Event::Timer { node: host, token });
    }

    /// Plan a traceroute: one probe per hop TTL `1..=max_ttl`, one second
    /// apart, starting at `at`. Read the result with
    /// [`Host::traceroute_hops`].
    pub fn plan_traceroute(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr, max_ttl: u8) {
        for hop in 1..=max_ttl {
            let t = at + SimDuration::from_secs(hop as u64 - 1);
            let token = self.host_mut(host).register_probe(t, target, hop);
            let key = self.plan_key();
            let shard = self.nodes[host.index()].shard as usize;
            if rp_obs::enabled() {
                self.shards[shard]
                    .timeline
                    .level("netsim.queue_depth", 0, t.nanos(), 1);
            }
            self.shards[shard]
                .queue
                .push(t, key, Event::Timer { node: host, token });
        }
    }

    /// Total events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Events processed so far by kind, across all shards, in the order
    /// `arp_request`, `arp_reply`, `icmp_echo_request`, `icmp_echo_reply`,
    /// `icmp_other`, `timer`.
    pub fn events_by_kind(&self) -> [u64; EV_KINDS] {
        let mut total = [0; EV_KINDS];
        for s in &self.shards {
            for (t, n) in total.iter_mut().zip(s.events_by_kind) {
                *t += n;
            }
        }
        total
    }

    /// Frames dropped so far at unconnected ports.
    pub fn frames_dropped_unconnected(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_unconnected).sum()
    }

    /// Frames that crossed a shard boundary so far.
    pub fn cross_shard_handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.handoffs).sum()
    }

    /// Epoch barriers executed so far.
    pub fn barrier_rounds(&self) -> u64 {
        self.barrier_rounds
    }

    /// Commutative digest over `(time, node, kind)` of every dispatched
    /// event: each event contributes a mixed hash via wrapping addition,
    /// so the merged value is independent of dispatch interleaving — and
    /// therefore identical at every shard and thread count. Two runs that
    /// dispatch the same events at the same times — the bit-reproducibility
    /// contract — report the same digest regardless of how the event queue,
    /// frame storage, or shard layout is implemented.
    pub fn trace_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.digest))
    }

    /// Debug/test hook: delay every cross-shard delivery by `skew`. This
    /// deliberately breaks the shard-count-invariance contract (a
    /// multi-shard run no longer matches `--shards 1`), so metamorphic
    /// broken-oracle tests can prove their checkers actually fire. Never
    /// call this outside tests.
    #[doc(hidden)]
    pub fn debug_skew_cross_shard(&mut self, skew: SimDuration) {
        self.xshard_skew = skew;
    }

    /// Conservative lookahead: the minimum one-way base delay over links
    /// whose endpoints live on different shards, or `None` when no link
    /// crosses a shard boundary (windows are then unbounded — the
    /// single-shard case). Panics on a zero-delay cross-shard link, which
    /// would force zero-length windows.
    fn lookahead(&mut self) -> Option<SimDuration> {
        if let Some(cached) = self.lookahead_cache {
            return cached;
        }
        let mut min: Option<SimDuration> = None;
        for lm in &self.links {
            let (sa, sb) = (
                self.nodes[lm.a.index()].shard,
                self.nodes[lm.b.index()].shard,
            );
            if sa == sb {
                continue;
            }
            let l = lm.delay.min_one_way();
            assert!(
                l > SimDuration::ZERO,
                "cross-shard link between {} and {} has zero base delay: \
                 the epoch-barrier scheduler needs positive lookahead on \
                 every link that crosses a shard boundary — keep such links \
                 inside one shard or give them a positive base delay",
                lm.a,
                lm.b
            );
            min = Some(match min {
                Some(m) => m.min(l),
                None => l,
            });
        }
        self.lookahead_cache = Some(min);
        min
    }

    /// Test-only: make every switch flood every broadcast ARP request, the
    /// behavior the sponge must be indistinguishable from.
    #[cfg(test)]
    pub(crate) fn flood_arp(&mut self) {
        self.flood_arp = true;
        self.owners = None;
    }

    /// Derive the ARP owner table from the wiring and from what every
    /// router (bound addresses, proxy entries) and host answers for.
    fn owner_table(&self) -> OwnerTable {
        #[cfg(test)]
        if self.flood_arp {
            return OwnerTable::default();
        }
        let mut w = Wiring::default();
        for (i, meta) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            w.far.push(
                meta.ports
                    .iter()
                    .map(|a| (a.far_node, a.far_port))
                    .collect(),
            );
            let device = &self.shards[meta.shard as usize].devices[meta.loc as usize];
            w.switch.push(matches!(device, Device::Switch(_)));
            match device {
                Device::Switch(_) => {}
                Device::Router(r) => {
                    w.claims
                        .extend(r.arp_claims().map(|(port, ip)| (node, port, ip)));
                    w.answers_all
                        .extend(r.arp_answers_all().map(|port| (node, port)));
                }
                Device::Host(h) => {
                    w.claims
                        .extend(h.binding().map(|(port, ip)| (node, port, ip)));
                }
            }
        }
        OwnerTable::build(&w)
    }

    /// Drain one window (all events strictly before `horizon`) on every
    /// shard, in shard order on the calling thread.
    fn run_window(&mut self, horizon: SimTime) {
        let ctx = Ctx {
            nodes: &self.nodes,
            links: &self.links,
            owners: self.owners.as_ref().expect("owner table built by drain"),
            router_key: self.router_key,
            obs_active: self.obs_active,
            xshard_skew: self.xshard_skew,
        };
        for s in &mut self.shards {
            s.drain_window(&ctx, horizon);
        }
    }

    /// Deliver buffered cross-shard frames into their destination queues
    /// and arenas. Runs between windows — the epoch barrier.
    fn deliver_handoffs(&mut self) {
        if self.shards.len() <= 1 {
            return;
        }
        let t0 = self.obs_active.then(std::time::Instant::now);
        self.barrier_rounds += 1;
        let n = self.shards.len();
        let mut moved = 0u64;
        for src in 0..n {
            for dst in 0..n {
                if src == dst || self.shards[src].outbox[dst].is_empty() {
                    continue;
                }
                let xs = std::mem::take(&mut self.shards[src].outbox[dst]);
                let d = &mut self.shards[dst];
                moved += xs.len() as u64;
                for x in xs {
                    let frame = d.frames.alloc(x.frame);
                    d.queue.push(
                        x.at,
                        x.key,
                        Event::FrameArrival {
                            node: x.node,
                            port: x.port,
                            frame,
                        },
                    );
                }
            }
        }
        if moved > 0 && rp_obs::trace::active() {
            rp_obs::trace::instant("netsim.barrier", moved);
        }
        if let Some(t0) = t0 {
            self.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Push the run's event/drop deltas, the largest shard's retained
    /// capacity, and (multi-shard runs) barrier statistics to the
    /// process-wide metrics registry.
    fn flush_obs(&mut self) {
        if !self.obs_active {
            return;
        }
        let events = self.events_processed();
        rp_obs::counter!("netsim.sim.events_processed").add(events - self.obs_flushed_events);
        self.obs_flushed_events = events;
        let kinds = self.events_by_kind();
        for ((name, n), flushed) in EV_COUNTERS
            .iter()
            .zip(kinds)
            .zip(&mut self.obs_flushed_kinds)
        {
            rp_obs::metrics::counter(name).add(n - *flushed);
            *flushed = n;
        }
        let drops = self.frames_dropped_unconnected();
        rp_obs::counter!("netsim.sim.frames_dropped_unconnected")
            .add(drops - self.obs_flushed_drops);
        self.obs_flushed_drops = drops;
        let held = self
            .shards
            .iter()
            .map(Shard::retained_bytes)
            .max()
            .unwrap_or(0);
        rp_obs::gauge!("netsim.shard.arena_bytes").record_max(held);
        if self.shards.len() > 1 {
            rp_obs::gauge!("netsim.shard.count").record_max(self.shards.len() as u64);
            rp_obs::counter!("netsim.shard.barriers")
                .add(self.barrier_rounds - self.obs_flushed_barriers);
            self.obs_flushed_barriers = self.barrier_rounds;
            let handoffs = self.cross_shard_handoffs();
            rp_obs::counter!("netsim.shard.handoffs").add(handoffs - self.obs_flushed_handoffs);
            self.obs_flushed_handoffs = handoffs;
            rp_obs::gauge!("netsim.shard.events_max").record_max(
                self.shards
                    .iter()
                    .map(|s| s.events_processed)
                    .max()
                    .unwrap_or(0),
            );
            rp_obs::gauge!("netsim.shard.barrier_wait_ns").record_max(self.barrier_wait_ns);
        }
        // Drain the per-shard timelines into the process registry, merged
        // in canonical shard order (the merge is commutative anyway — the
        // order is for reading the code, not for correctness). Scoped
        // port-utilization is re-published per IXP when a scope is set.
        let mut tl = rp_obs::TimelineRecorder::new();
        for s in &mut self.shards {
            s.tl_rates.flush(&mut s.timeline);
            tl.merge(&s.timeline);
            s.timeline = rp_obs::TimelineRecorder::new();
        }
        if !tl.is_empty() {
            if let Some(scope) = &self.timeline_scope {
                if let Some(data) = tl.series_data("netsim.access_bytes") {
                    rp_obs::timeline::publish_as(format!("{scope}.port_util_bytes"), data);
                }
            }
            rp_obs::timeline::publish(&tl);
        }
    }

    /// Run until no events remain: the bounded-lag event loop. Repeatedly
    /// pick the global minimum pending time, drain every shard up to
    /// `t_min + lookahead`, then exchange cross-shard frames at the
    /// barrier.
    pub fn run_to_completion(&mut self) {
        self.obs_active = rp_obs::enabled();
        let _sp = rp_obs::span("netsim.run");
        let lookahead = self.lookahead();
        if self.owners.is_none() {
            self.owners = Some(self.owner_table());
        }
        while let Some(t_min) = self
            .shards
            .iter_mut()
            .filter_map(|s| s.queue.peek_time())
            .min()
        {
            // Window horizon is exclusive. With cross-shard links the
            // lookahead is positive (enforced above), so the window always
            // contains the t_min event: progress is guaranteed.
            let horizon = match lookahead {
                Some(l) => SimTime(t_min.nanos().saturating_add(l.nanos())),
                None => SimTime(u64::MAX),
            };
            self.run_window(horizon);
            self.deliver_handoffs();
        }
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// The Figure 1 scene: an LG server and a direct member on the IXP
    /// fabric, plus a remote member reaching the fabric through a two-switch
    /// layer-2 pseudowire spanning real distance.
    struct Figure1 {
        net: Network,
        lg: NodeId,
        direct_ip: Ipv4Addr,
        remote_ip: Ipv4Addr,
    }

    fn figure1(seed: u64) -> Figure1 {
        figure1_sharded(seed, 1)
    }

    /// Same scene at any shard count: with more than one shard the remote
    /// provider chain (both provider switches and the remote router) lives
    /// on shard 1, coupled to shard 0 only through the fabric↔prov_ixp
    /// link. The construction sequence is identical at every shard count,
    /// so all observables must be too.
    fn figure1_sharded(seed: u64, shards: usize) -> Figure1 {
        let mut net = Network::with_shards(seed, shards);
        let far = shards.saturating_sub(1).min(1);
        let fabric = net.add_switch();

        // LG server in the IXP subnet.
        let lg = net.add_host();
        let (_, lg_port) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lg_port, ip("10.0.0.1"));

        // Direct member: colo cross-connect, ~0.4 ms one way.
        let direct = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let (_, dp) = net.connect(fabric, direct, DelayModel::with_one_way_ms(0.4));
        net.bind_router(direct, dp, ip("10.0.0.10"));

        // Remote member: provider switch at the IXP, long-haul span,
        // provider switch at the member metro, member access link.
        let prov_ixp = net.add_switch_on(far);
        let prov_far = net.add_switch_on(far);
        net.connect(fabric, prov_ixp, DelayModel::with_one_way_ms(0.05));
        net.connect(prov_ixp, prov_far, DelayModel::with_one_way_ms(12.0)); // ~2,400 km
        let remote = net.add_router_on(
            far,
            RouterBehavior {
                initial_ttl: 64,
                ..Default::default()
            },
        );
        let (_, rp) = net.connect(prov_far, remote, DelayModel::with_one_way_ms(0.3));
        net.bind_router(remote, rp, ip("10.0.0.20"));

        Figure1 {
            net,
            lg,
            direct_ip: ip("10.0.0.10"),
            remote_ip: ip("10.0.0.20"),
        }
    }

    fn ping_n(net: &mut Network, lg: NodeId, target: Ipv4Addr, n: u32) {
        for k in 0..n {
            let at = SimTime::ZERO + SimDuration::from_secs(1 + k as u64);
            net.plan_ping(lg, at, target);
        }
    }

    #[test]
    #[should_panic(expected = "10.0.0.10 is answered by both node2 (port 0) and node6 (port 0)")]
    fn two_owners_of_one_address_on_a_fabric_panic() {
        let mut f = figure1(1);
        let fabric = NodeId(0);
        let twin = f.net.add_router(RouterBehavior::default());
        let (_, tp) = f
            .net
            .connect(fabric, twin, DelayModel::with_one_way_ms(0.4));
        f.net.bind_router(twin, tp, f.direct_ip);
        ping_n(&mut f.net, f.lg, f.direct_ip, 1);
        f.net.run_to_completion();
    }

    #[test]
    fn direct_member_answers_fast_with_max_ttl() {
        let mut f = figure1(1);
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        let outs: Vec<_> = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.target == f.direct_ip)
            .collect();
        assert_eq!(outs.len(), 5);
        for o in outs {
            let r = o.reply.expect("direct member replies");
            assert_eq!(r.ttl, 255, "no IP hop on the reply path");
            let ms = r.rtt.as_millis_f64();
            assert!((0.8..3.0).contains(&ms), "direct RTT {ms} ms");
        }
    }

    #[test]
    fn remote_member_keeps_max_ttl_but_shows_distance() {
        let mut f = figure1(2);
        ping_n(&mut f.net, f.lg, f.remote_ip, 5);
        f.net.run_to_completion();
        let min_rtt = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.target == f.remote_ip)
            .filter_map(|o| o.reply)
            .map(|r| {
                assert_eq!(r.ttl, 64, "pseudowire is pure layer 2");
                r.rtt
            })
            .min()
            .expect("remote member replies");
        let ms = min_rtt.as_millis_f64();
        assert!(
            (24.0..30.0).contains(&ms),
            "remote RTT {ms} ms reflects geography"
        );
    }

    /// The shard-equivalence contract in miniature: the same scene split
    /// across two shards (remote chain on shard 1, everything else on
    /// shard 0) must reproduce the single-shard run bit for bit — same
    /// outcomes, same event count, same trace digest.
    #[test]
    fn sharded_run_matches_single_shard_bit_for_bit() {
        let run = |shards: usize| {
            let mut f = figure1_sharded(42, shards);
            ping_n(&mut f.net, f.lg, f.direct_ip, 6);
            ping_n(&mut f.net, f.lg, f.remote_ip, 6);
            f.net.run_to_completion();
            let kinds = f.net.events_by_kind();
            assert_eq!(kinds.iter().sum::<u64>(), f.net.events_processed());
            for (k, &n) in kinds.iter().enumerate() {
                // No router forwards an expired probe in this scene, so
                // the only ICMP is echo traffic.
                assert_eq!(n > 0, k != EV_ICMP_OTHER, "kind {k} of {kinds:?}");
            }
            (
                f.net.host(f.lg).outcomes().to_vec(),
                kinds,
                f.net.trace_digest(),
                f.net.cross_shard_handoffs(),
            )
        };
        let (out1, ev1, dig1, ho1) = run(1);
        let (out2, ev2, dig2, ho2) = run(2);
        assert_eq!(out1, out2, "outcomes must not depend on the shard count");
        assert_eq!(ev1, ev2, "event counts must not depend on the shard count");
        assert_eq!(
            dig1, dig2,
            "trace digests must not depend on the shard count"
        );
        assert_eq!(ho1, 0, "one shard can have no handoffs");
        assert!(ho2 > 0, "the remote chain must actually cross shards");
    }

    /// The broken-oracle hook: skewing cross-shard deliveries must change
    /// observables, proving the equivalence assertions above have teeth.
    #[test]
    fn cross_shard_skew_breaks_equivalence() {
        let run = |skew_us: u64| {
            let mut f = figure1_sharded(42, 2);
            f.net
                .debug_skew_cross_shard(SimDuration::from_micros(skew_us));
            ping_n(&mut f.net, f.lg, f.remote_ip, 6);
            f.net.run_to_completion();
            (f.net.host(f.lg).outcomes().to_vec(), f.net.trace_digest())
        };
        let (out_clean, dig_clean) = run(0);
        let (out_skewed, dig_skewed) = run(500);
        assert_ne!(dig_clean, dig_skewed, "skew must perturb the trace");
        assert_ne!(out_clean, out_skewed, "skew must perturb RTTs");
    }

    /// A zero-delay link may not cross shards: the scheduler needs positive
    /// lookahead, and collapsing windows silently would be worse.
    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_delay_cross_shard_link_panics() {
        let mut net = Network::with_shards(7, 2);
        let a = net.add_switch_on(0);
        let b = net.add_switch_on(1);
        net.connect(a, b, DelayModel::ideal(SimDuration::ZERO));
        let lg = net.add_host_on(0);
        let (_, lgp) = net.connect(a, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        net.plan_ping(
            lg,
            SimTime::ZERO + SimDuration::from_secs(1),
            ip("10.0.0.2"),
        );
        net.run_to_completion();
    }

    #[test]
    fn extra_ip_hop_decrements_reply_ttl() {
        // Registry-stale scenario: the probed address actually lives on an
        // inner router one IP hop behind the fabric-facing front router.
        let mut net = Network::new(3);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));

        let target = ip("10.0.0.30");
        let front = net.add_router(RouterBehavior::default());
        let (_, f_fab) = net.connect(fabric, front, DelayModel::with_one_way_ms(0.3));
        net.bind_router(front, f_fab, ip("10.0.0.31"));
        let inner = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let (f_in, i_port) = net.connect(front, inner, DelayModel::with_one_way_ms(1.0));
        net.bind_router(front, f_in, ip("192.168.0.1"));
        net.bind_router(inner, i_port, target);

        let front_r = net.router_mut(front);
        front_r.add_proxy_arp(f_fab, target);
        front_r.add_route(target, f_in);
        front_r.set_default_route(f_fab);
        net.router_mut(inner).set_default_route(i_port);
        net.router_mut(inner).set_proxy_arp_all(i_port);
        // The inner router routes replies back via the front router; the
        // front router proxy-answers ARP on the inner segment.
        net.router_mut(front).set_proxy_arp_all(f_in);

        for k in 0..6 {
            net.plan_ping(lg, SimTime::ZERO + SimDuration::from_secs(k), target);
        }
        net.run_to_completion();
        let replies: Vec<_> = net
            .host(lg)
            .outcomes()
            .iter()
            .filter_map(|o| o.reply)
            .collect();
        assert!(!replies.is_empty(), "gadget must answer");
        for r in replies {
            assert_eq!(r.ttl, 254, "one forwarding hop eats one TTL");
        }
    }

    /// A persistent episode lifts the delay floor only inside its window:
    /// every probe during it is slow, and the minimum recovers after.
    #[test]
    fn congestion_episode_inflates_rtt_but_min_recovers() {
        let mut net = Network::new(4);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        let member = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let episode = crate::link::CongestionEpisode {
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs(100),
            extra_mean_ms: 40.0,
        };
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::with_one_way_ms(0.4).with_persistent_episode(episode),
        );
        net.bind_router(member, mp, ip("10.0.0.10"));

        // Probes both during and after the episode.
        for k in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(10 + k),
                ip("10.0.0.10"),
            );
        }
        for k in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(200 + k),
                ip("10.0.0.10"),
            );
        }
        net.run_to_completion();
        let rtts: Vec<f64> = net
            .host(lg)
            .outcomes()
            .iter()
            .filter_map(|o| o.reply)
            .map(|r| r.rtt.as_millis_f64())
            .collect();
        assert_eq!(rtts.len(), 10);
        let during_min = rtts[..5].iter().cloned().fold(f64::INFINITY, f64::min);
        let after_min = rtts[5..].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            during_min > 80.0,
            "episode lifts the floor: min {during_min} ms"
        );
        assert!(after_min < 3.0, "min-RTT recovers: {after_min} ms");
    }

    #[test]
    fn unconstrained_links_do_not_queue() {
        let mut net = Network::new(12);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::ideal(SimDuration::from_micros(5)));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        let member = net.add_router(RouterBehavior {
            initial_ttl: 255,
            proc_delay_us: (10, 10),
            ..Default::default()
        });
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::ideal(SimDuration::from_micros(50)),
        );
        net.bind_router(member, mp, ip("10.0.0.10"));
        net.plan_ping(
            lg,
            SimTime::ZERO + SimDuration::from_secs(1),
            ip("10.0.0.10"),
        );
        for _ in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(2),
                ip("10.0.0.10"),
            );
        }
        net.run_to_completion();
        let rtts: Vec<f64> = net
            .host(lg)
            .outcomes()
            .iter()
            .skip(1)
            .filter_map(|o| o.reply)
            .map(|r| r.rtt.as_millis_f64())
            .collect();
        let spread = rtts.iter().cloned().fold(0.0, f64::max)
            - rtts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.01,
            "no queueing without a capacity: spread {spread} ms"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_outcomes() {
        let run = |seed| {
            let mut f = figure1(seed);
            ping_n(&mut f.net, f.lg, f.direct_ip, 8);
            ping_n(&mut f.net, f.lg, f.remote_ip, 8);
            f.net.run_to_completion();
            f.net.host(f.lg).outcomes().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fault_injection_replays_exactly_and_degrades_the_run() {
        use crate::fault::{FaultConfig, FaultInjector};
        let run = |fault_seed: u64, shards: usize| {
            let mut f = figure1_sharded(21, shards);
            f.net.install_faults(FaultInjector::new(FaultConfig {
                probe_loss: 0.3,
                reply_duplication: 0.2,
                jitter_spike: 0.2,
                jitter_spike_ms: 30.0,
                ttl_rewrite: 0.1,
                ttl_rewrite_to: 7,
                ..FaultConfig::quiet(fault_seed)
            }));
            ping_n(&mut f.net, f.lg, f.direct_ip, 30);
            f.net.run_to_completion();
            let outcomes = f.net.host(f.lg).outcomes().to_vec();
            (outcomes, f.net.fault_counts())
        };
        let (a_out, a_counts) = run(7, 1);
        let (b_out, b_counts) = run(7, 1);
        assert_eq!(a_out, b_out, "same fault seed must replay bit for bit");
        assert_eq!(a_counts, b_counts);
        assert!(a_counts.total() > 0, "faults must actually fire");
        assert!(a_counts.probe_drops > 0, "{a_counts:?}");
        let lost = a_out.iter().filter(|o| o.reply.is_none()).count();
        assert!(lost > 0, "probe loss must cost replies");

        // Fault decisions key on (link, dir), so the shard layout cannot
        // change what fires — counts included.
        let (s_out, s_counts) = run(7, 2);
        assert_eq!(a_out, s_out, "fault outcomes must survive sharding");
        assert_eq!(a_counts, s_counts);

        let (c_out, c_counts) = run(8, 1);
        assert!(
            a_out != c_out || a_counts != c_counts,
            "different fault seeds must differ somewhere"
        );
    }

    #[test]
    fn quiet_faults_change_nothing() {
        use crate::fault::{FaultConfig, FaultInjector};
        let run = |faulted: bool| {
            let mut f = figure1(22);
            if faulted {
                f.net
                    .install_faults(FaultInjector::new(FaultConfig::quiet(99)));
            }
            ping_n(&mut f.net, f.lg, f.remote_ip, 10);
            f.net.run_to_completion();
            f.net.host(f.lg).outcomes().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn ttl_rewrite_shows_up_in_replies() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut f = figure1(23);
        f.net.install_faults(FaultInjector::new(FaultConfig {
            ttl_rewrite: 1.0,
            ttl_rewrite_to: 9,
            ..FaultConfig::quiet(5)
        }));
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        for o in f.net.host(f.lg).outcomes() {
            if let Some(r) = o.reply {
                assert_eq!(r.ttl, 9, "every reply TTL is rewritten in flight");
            }
        }
    }

    #[test]
    fn flap_window_silences_flapping_links() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut f = figure1(24);
        let window = (SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1_000));
        f.net.install_faults(FaultInjector::new(FaultConfig {
            link_flap: 1.0, // every link flaps...
            flap_window: Some(window),
            ..FaultConfig::quiet(6)
        }));
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        let answered = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.reply.is_some())
            .count();
        assert_eq!(answered, 0, "nothing crosses a flapping link");
        assert!(f.net.fault_counts().flap_drops > 0);
    }
}
