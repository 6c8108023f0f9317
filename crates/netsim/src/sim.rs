//! The network container and its event loop.
//!
//! `Network` owns every device and link of one simulated scene and drives
//! them from a single event loop: one event queue (the campaign's planned
//! pings in a presorted run beside a small heap for frames in flight; see
//! `event.rs`), one frame arena and one set of counters. The campaign
//! probes each IXP on its own, so a network is the unit of parallel work:
//! `probe_all` spreads networks over the rayon pool, and each network runs
//! on the thread that probes its IXP.
//!
//! Determinism contract: the same construction sequence and seed produce
//! the same event trace, frame for frame, on any number of threads. Every
//! source of per-event state is keyed to the entity it belongs to, so each
//! stream is a pure function of that entity's own history:
//!
//! - event ordering uses the intrinsic [`EventKey`] `(creator, seq)` pair
//!   (see `event.rs`);
//! - link jitter draws from a per-*direction* stream;
//! - router per-event RNGs are indexed by a per-node count of non-ARP
//!   dispatches;
//! - fault decisions draw from per-`(link, direction)` streams
//!   (see `fault.rs`).
//!
//! ARP frames touch none of these streams: they travel at the link's
//! jitter-free delay ([`DelayModel::floor_at`]), skip the fault injector
//! and never advance a router's RNG index.
//! So the number of ARP copies a fabric delivers cannot move an IP result.

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

/// What one port of a node is wired to.
#[derive(Debug, Clone, Copy)]
struct Attachment {
    far_node: NodeId,
    far_port: PortId,
    link: u32,
    /// Which direction of the (full-duplex) link this side transmits on.
    dir: u8,
}

impl Attachment {
    /// Index of this direction's jitter stream in [`Engine::jitter`].
    #[inline]
    fn dir_index(self) -> usize {
        2 * self.link as usize + self.dir as usize
    }
}

/// Topology role of a link, declared at [`Network::connect_classed`] time.
///
/// Classes exist for the deterministic timelines: traffic is attributed
/// to what kind of link a frame crossed. `InterSite` marks the fiber spans
/// between the fabric sites of one distributed IXP, so its frame count is
/// the inter-site traffic volume.
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

/// Immutable link description; the per-direction jitter streams live in
/// [`Engine::jitter`].
#[derive(Debug)]
struct LinkMeta {
    delay: DelayModel,
    class: LinkClass,
}

/// Read-only wiring the event loop consults while the [`Engine`] is
/// borrowed mutably.
struct Ctx<'a> {
    /// Per-node port wiring, indexed by [`NodeId`].
    ports: &'a [Vec<Attachment>],
    links: &'a [LinkMeta],
    /// The fabric ARP sponge: where a broadcast ARP request may go.
    owners: &'a OwnerTable,
    router_key: seed::DomainKey,
    obs_active: bool,
}

/// The mutable state of the event loop: every device, the event queue,
/// the frame arena, the random streams and the counters.
struct Engine {
    /// Devices, indexed by [`NodeId`].
    devices: Vec<Device>,
    /// Per-device event-creation counters (the `seq` of [`EventKey`]).
    seqs: Vec<u64>,
    /// Per-router count of dispatched non-ARP frames (zero for other
    /// devices): the router per-event RNG index, so it does not depend on
    /// how many ARP frames a router sees.
    rx: Vec<u64>,
    /// Jitter stream per link direction, indexed by
    /// [`Attachment::dir_index`]; `None` for fully deterministic delay
    /// models, which skip RNG construction and per-frame sampling.
    /// Streams are per-direction (not per-link), so draws are a pure
    /// function of each direction's own traffic.
    jitter: Vec<Option<StdRng>>,
    queue: EventQueue,
    /// Slab of in-flight frames: events carry 4-byte
    /// [`crate::frame::FrameId`]s instead of frame copies; slots are freed
    /// the moment a frame is delivered.
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
    faults: Option<FaultInjector>,
    events_processed: u64,
    /// Dispatched events by kind (`EV_*` index order); flushed as the
    /// `netsim.sim.events.<kind>` counters.
    events_by_kind: [u64; EV_KINDS],
    /// Frames dropped because a device transmitted on an unconnected port.
    dropped_unconnected: u64,
    /// Trace digest: the wrapping sum of a mixed hash of
    /// `(time, node, kind)` over every dispatched event. It pins *which*
    /// events ran at *what* times, which together with per-entity keying
    /// pins the whole trace.
    digest: u64,
    /// Sim-time timeline series recorded by this run (only while
    /// observability is on); drained into the process registry by
    /// [`Network::flush_obs`]. Everything recorded here is a pure
    /// function of the event trace — see the `rp_obs::timeline` module
    /// docs for the rules.
    timeline: rp_obs::TimelineRecorder,
    /// The per-event rate series ([`TL_RATES`]) batched per sim-time
    /// bucket in front of `timeline`: dispatch is the hottest loop in the
    /// repo, so each event costs one register add until the bucket changes.
    tl_rates: rp_obs::RateRegister<5>,
}

/// The rate series the event loop records per event or per transmitted
/// frame, in [`Engine::tl_rates`] index order.
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

/// Kinds of dispatched event, as indices into [`Engine::events_by_kind`].
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

impl Engine {
    fn new() -> Self {
        Engine {
            devices: Vec::new(),
            seqs: Vec::new(),
            rx: Vec::new(),
            jitter: Vec::new(),
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
            timeline: rp_obs::TimelineRecorder::new(),
            tl_rates: rp_obs::RateRegister::new(TL_RATES),
        }
    }

    /// Mint the next event key for `node`.
    #[inline]
    fn next_key(&mut self, node: NodeId) -> EventKey {
        let seq = &mut self.seqs[node.index()];
        let key = EventKey {
            creator: node.0,
            seq: *seq,
        };
        *seq += 1;
        key
    }

    /// Pop and dispatch events until the queue is empty.
    fn run(&mut self, ctx: &Ctx<'_>) {
        while let Some((at, event)) = self.queue.pop() {
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
        let ports = &ctx.ports[node.index()];
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
                let n_ports = ports.len() as u16;
                let now = self.now;
                match &mut self.devices[node.index()] {
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
                            // stream is the same whatever ARP traffic the
                            // router sees.
                            let rx = &mut self.rx[node.index()];
                            *rx += 1;
                            let mut rng =
                                seed::rng_from_key(ctx.router_key, (node.0 as u64) << 40 | *rx);
                            r.on_frame_into(now, port, frame, &mut rng, &mut actions);
                        }
                    }
                    Device::Host(h) => h.on_frame_into(now, port, frame, &mut actions),
                }
            }
            Event::Timer { token, .. } => {
                self.events_by_kind[EV_TIMER] += 1;
                let now = self.now;
                if let Device::Host(h) = &mut self.devices[node.index()] {
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
                    let Some(att) = ports.get(port.index()).copied() else {
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
                        // start (sim time) and the link's topology role.
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
                    let delay = match self.jitter[att.dir_index()].as_mut() {
                        Some(rng) if !arp => link.delay.sample(start, rng),
                        _ => link.delay.floor_at(start),
                    };
                    let arrival = start + delay + fx.extra_delay;
                    if fx.duplicate {
                        self.deliver(ctx, node, att, arrival + DUPLICATE_GAP, frame);
                    }
                    self.deliver(ctx, node, att, arrival, frame);
                }
                Action::Schedule { at, token } => {
                    if ctx.obs_active {
                        self.timeline
                            .level("netsim.queue_depth", self.now.nanos(), at.nanos(), 1);
                    }
                    let key = self.next_key(node);
                    self.queue.push(at, key, Event::Timer { node, token });
                }
            }
        }
        self.scratch = actions;
    }

    /// Queue the arrival of a frame `node` transmitted on `att` at `at`.
    fn deliver(&mut self, ctx: &Ctx<'_>, node: NodeId, att: Attachment, at: SimTime, frame: Frame) {
        if ctx.obs_active {
            // Both level series use (creation sim-time → scheduled
            // sim-time) intervals known right here, so the value at every
            // bucket boundary is exact. Queue depth counts pending events
            // (frames + timers); frames-in-flight is the logical arena
            // occupancy — frames between transmission and arrival.
            let (t0, t1) = (self.now.nanos(), at.nanos());
            self.timeline.level("netsim.queue_depth", t0, t1, 1);
            self.timeline.level("netsim.frames_in_flight", t0, t1, 1);
        }
        let key = self.next_key(node);
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
    }
}

/// A simulated network of switches, routers, and hosts, run by one event
/// loop.
pub struct Network {
    seed: u64,
    /// Per-node port wiring, indexed by [`NodeId`].
    ports: Vec<Vec<Attachment>>,
    links: Vec<LinkMeta>,
    /// Boxed: with the engine inline in `Network`, paper-scale
    /// `netsim.run` measured 15–33% slower over the same event trace
    /// (cause not isolated; the boxed layout matches the old per-shard
    /// `Vec` of engines, which ran at the boxed speed).
    engine: Box<Engine>,
    next_mac: u64,
    /// Counter for construction-time plans (`plan_ping`/`plan_traceroute`);
    /// their event keys use [`EventKey::PLAN_CREATOR`] with this sequence.
    plan_seq: u64,
    /// Precomputed `(seed, "router-frame")` key: the per-event router RNG
    /// is derived once per frame, so the domain-label hash is hoisted out
    /// of the hot loop.
    router_key: seed::DomainKey,
    obs_flushed_events: u64,
    obs_flushed_kinds: [u64; EV_KINDS],
    obs_flushed_drops: u64,
    /// The ARP owner table, built at the start of a run from the wiring
    /// and device bindings; invalidated by anything that can change them
    /// (adding a node, connecting, mutable device access).
    owners: Option<OwnerTable>,
    /// Test-only: run with an empty owner table, so every broadcast ARP
    /// request floods — the reference the sponge must match.
    #[cfg(test)]
    flood_arp: bool,
    /// Label for scoped timeline series (`<scope>.port_util_bytes`),
    /// typically `ixp.<ACRONYM>` set by the campaign layer. `None` keeps
    /// the aggregate series only.
    timeline_scope: Option<String>,
}

impl Network {
    /// An empty network. All per-device and per-link randomness derives
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        Network {
            seed,
            ports: Vec::new(),
            links: Vec::new(),
            engine: Box::new(Engine::new()),
            next_mac: 1,
            plan_seq: 0,
            router_key: seed::domain_key(seed, "router-frame"),
            obs_flushed_events: 0,
            obs_flushed_kinds: [0; EV_KINDS],
            obs_flushed_drops: 0,
            owners: None,
            #[cfg(test)]
            flood_arp: false,
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

    /// Exact heap bytes currently retained by the data-plane storage: the
    /// event queue's plan-run and heap capacity plus the frame arena's
    /// slots (capacity, not occupancy). Nothing ever shrinks, so after a
    /// run this is the network's high-water capacity.
    pub fn retained_bytes(&self) -> u64 {
        self.engine.queue.retained_bytes() + self.engine.frames.retained_bytes()
    }

    /// Exact heap bytes the network's hosts hold for their probes, by
    /// capacity: one record per planned ping plus the in-flight tables,
    /// the ARP wait lists and the ARP caches. Kept apart from
    /// [`Network::retained_bytes`], which counts only the event queue and
    /// the frame arena.
    pub fn host_record_bytes(&self) -> u64 {
        self.engine
            .devices
            .iter()
            .map(|d| match d {
                Device::Host(h) => h.record_bytes(),
                Device::Switch(_) | Device::Router(_) => 0,
            })
            .sum()
    }

    /// Exact heap bytes of the network's devices and wiring, by capacity:
    /// the per-node port lists, the link metadata and the per-direction
    /// jitter streams, the ARP owner table, the device table with every
    /// switch's MAC table and every router's state, and the per-device
    /// counters. The hosts' probe state is [`Network::host_record_bytes`].
    pub fn device_bytes(&self) -> u64 {
        use std::mem::size_of;
        let e = &self.engine;
        let ports: usize = self.ports.iter().map(Vec::capacity).sum();
        let links: u64 = self.links.iter().map(|l| l.delay.heap_bytes()).sum();
        let devices: u64 = e
            .devices
            .iter()
            .map(|d| match d {
                Device::Switch(s) => s.table_bytes(),
                Device::Router(r) => r.state_bytes(),
                Device::Host(_) => 0,
            })
            .sum();
        (self.ports.capacity() * size_of::<Vec<Attachment>>()
            + ports * size_of::<Attachment>()
            + self.links.capacity() * size_of::<LinkMeta>()
            + e.jitter.capacity() * size_of::<Option<StdRng>>()
            + e.devices.capacity() * size_of::<Device>()
            + (e.seqs.capacity() + e.rx.capacity()) * size_of::<u64>()
            + e.scratch.capacity() * size_of::<Action>()) as u64
            + links
            + devices
            + self.owners.as_ref().map_or(0, OwnerTable::bytes)
    }

    /// Install a fault injector; every subsequent frame transmission
    /// consults it. Replaces any previously installed injector.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.engine.faults = Some(injector);
    }

    /// Exact tallies of injected faults (all zero without an injector).
    pub fn fault_counts(&self) -> FaultCounts {
        self.engine
            .faults
            .as_ref()
            .map(FaultInjector::counts)
            .unwrap_or_default()
    }

    fn add_node(&mut self, device: Device) -> NodeId {
        let id = NodeId(self.ports.len() as u32);
        self.owners = None;
        self.ports.push(Vec::new());
        self.engine.devices.push(device);
        self.engine.seqs.push(0);
        self.engine.rx.push(0);
        id
    }

    /// Add a MAC-learning layer-2 switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(Device::Switch(Switch::new()))
    }

    /// Add an IP router with the given responder behavior.
    pub fn add_router(&mut self, behavior: RouterBehavior) -> NodeId {
        self.add_node(Device::Router(Router::new(behavior)))
    }

    /// Add a measurement host. Its ICMP id is derived from the node index.
    pub fn add_host(&mut self) -> NodeId {
        let id = NodeId(self.ports.len() as u32);
        self.add_node(Device::Host(Host::new(0x4000 | id.0 as u16)))
    }

    /// Allocate a fresh unicast MAC address.
    pub fn alloc_mac(&mut self) -> MacAddr {
        let m = MacAddr::from_index(self.next_mac);
        self.next_mac += 1;
        m
    }

    /// Connect `a` and `b` with a link; returns the allocated port on each
    /// side. Delay is sampled independently per traversal direction.
    pub fn connect(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> (PortId, PortId) {
        self.connect_classed(a, b, delay, LinkClass::Core)
    }

    /// [`Network::connect`] with an explicit [`LinkClass`], so the
    /// deterministic timelines can attribute traffic to the topology role
    /// of the link.
    pub fn connect_classed(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: DelayModel,
        class: LinkClass,
    ) -> (PortId, PortId) {
        let link = self.links.len() as u32;
        self.owners = None;
        // Direction 0 carries a→b (transmitter a), direction 1 carries b→a.
        for dir in 0..2 {
            let rng = (!delay.is_deterministic())
                .then(|| seed::rng2(self.seed, "link", link as u64, dir));
            self.engine.jitter.push(rng);
        }
        self.links.push(LinkMeta { delay, class });
        let pa = PortId(self.ports[a.index()].len() as u16);
        let pb = PortId(self.ports[b.index()].len() as u16);
        self.ports[a.index()].push(Attachment {
            far_node: b,
            far_port: pb,
            link,
            dir: 0,
        });
        self.ports[b.index()].push(Attachment {
            far_node: a,
            far_port: pa,
            link,
            dir: 1,
        });
        (pa, pb)
    }

    fn device_mut(&mut self, id: NodeId) -> &mut Device {
        self.owners = None;
        &mut self.engine.devices[id.index()]
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
        match &self.engine.devices[id.index()] {
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

    /// Queue a construction-time plan timer for `host` at `at`, keyed by
    /// [`EventKey::PLAN_CREATOR`] and the next plan sequence number.
    fn push_plan(&mut self, host: NodeId, at: SimTime, token: u64) {
        let key = EventKey {
            creator: EventKey::PLAN_CREATOR,
            seq: self.plan_seq,
        };
        self.plan_seq += 1;
        if rp_obs::enabled() {
            // Plan timers sit in the queue from construction (sim t=0)
            // until they fire.
            self.engine
                .timeline
                .level("netsim.queue_depth", 0, at.nanos(), 1);
        }
        self.engine
            .queue
            .push(at, key, Event::Timer { node: host, token });
    }

    /// Size the event queue's plan run and each host's probe records for
    /// exactly the pings about to be planned, given as `(host, count)`
    /// pairs, so planning them leaves no `Vec` doubling slack behind.
    pub fn reserve_pings(&mut self, per_host: &[(NodeId, usize)]) {
        let total = per_host.iter().map(|&(_, n)| n).sum();
        self.engine.queue.reserve_plans(total);
        for &(host, n) in per_host {
            self.host_mut(host).reserve_probes(n);
        }
    }

    /// Plan a ping from `host` to `target` at absolute time `at`.
    pub fn plan_ping(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr) {
        let token = self.host_mut(host).register_plan(at, target);
        self.push_plan(host, at, token);
    }

    /// Plan a traceroute: one probe per hop TTL `1..=max_ttl`, one second
    /// apart, starting at `at`. Read the result with
    /// [`Host::traceroute_hops`].
    pub fn plan_traceroute(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr, max_ttl: u8) {
        for hop in 1..=max_ttl {
            let t = at + SimDuration::from_secs(hop as u64 - 1);
            let token = self.host_mut(host).register_probe(t, target, hop);
            self.push_plan(host, t, token);
        }
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed
    }

    /// Events processed so far by kind, in the order `arp_request`,
    /// `arp_reply`, `icmp_echo_request`, `icmp_echo_reply`, `icmp_other`,
    /// `timer`.
    pub fn events_by_kind(&self) -> [u64; EV_KINDS] {
        self.engine.events_by_kind
    }

    /// Frames dropped so far at unconnected ports.
    pub fn frames_dropped_unconnected(&self) -> u64 {
        self.engine.dropped_unconnected
    }

    /// Digest over `(time, node, kind)` of every dispatched event: each
    /// event contributes a mixed hash via wrapping addition, so the value
    /// does not depend on the order in which same-time events dispatch.
    /// Two runs that dispatch the same events at the same times — the
    /// bit-reproducibility contract — report the same digest regardless of
    /// how the event queue or frame storage is implemented.
    pub fn trace_digest(&self) -> u64 {
        self.engine.digest
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
        for (i, (ports, device)) in self.ports.iter().zip(&self.engine.devices).enumerate() {
            let node = NodeId(i as u32);
            w.far
                .push(ports.iter().map(|a| (a.far_node, a.far_port)).collect());
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

    /// Push the run's event/drop deltas, the retained data-plane capacity
    /// and the recorded timelines to the process-wide registries.
    fn flush_obs(&mut self) {
        // Named for the shard layout this crate once had; the name stays
        // because benchmark harnesses read it.
        rp_obs::gauge!("netsim.shard.arena_bytes").record_max(self.retained_bytes());
        let e = &mut self.engine;
        rp_obs::counter!("netsim.sim.events_processed")
            .add(e.events_processed - self.obs_flushed_events);
        self.obs_flushed_events = e.events_processed;
        for ((name, n), flushed) in EV_COUNTERS
            .iter()
            .zip(e.events_by_kind)
            .zip(&mut self.obs_flushed_kinds)
        {
            rp_obs::metrics::counter(name).add(n - *flushed);
            *flushed = n;
        }
        rp_obs::counter!("netsim.sim.frames_dropped_unconnected")
            .add(e.dropped_unconnected - self.obs_flushed_drops);
        self.obs_flushed_drops = e.dropped_unconnected;
        // Publish the run's timelines; scoped port utilization is
        // re-published per IXP when a scope is set.
        e.tl_rates.flush(&mut e.timeline);
        let tl = std::mem::take(&mut e.timeline);
        if !tl.is_empty() {
            if let Some(scope) = &self.timeline_scope {
                if let Some(data) = tl.series_data("netsim.access_bytes") {
                    rp_obs::timeline::publish_as(format!("{scope}.port_util_bytes"), data);
                }
            }
            rp_obs::timeline::publish(&tl);
        }
    }

    /// Run until no events remain: pop the earliest event and dispatch it,
    /// in `(time, EventKey)` order.
    pub fn run_to_completion(&mut self) {
        let obs_active = rp_obs::enabled();
        let _sp = rp_obs::span("netsim.run");
        if self.owners.is_none() {
            self.owners = Some(self.owner_table());
        }
        let ctx = Ctx {
            ports: &self.ports,
            links: &self.links,
            owners: self.owners.as_ref().expect("owner table built above"),
            router_key: self.router_key,
            obs_active,
        };
        self.engine.run(&ctx);
        if obs_active {
            self.flush_obs();
        }
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
        let mut net = Network::new(seed);
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
        let prov_ixp = net.add_switch();
        let prov_far = net.add_switch();
        net.connect(fabric, prov_ixp, DelayModel::with_one_way_ms(0.05));
        net.connect(prov_ixp, prov_far, DelayModel::with_one_way_ms(12.0)); // ~2,400 km
        let remote = net.add_router(RouterBehavior {
            initial_ttl: 64,
            ..Default::default()
        });
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
    fn reserved_pings_leave_no_slack() {
        // Sized up front, the plan run and the host's records hold
        // exactly the planned pings: 24 + 40 bytes each, before the run.
        let mut f = figure1(1);
        f.net.reserve_pings(&[(f.lg, 5)]);
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        assert_eq!(f.net.retained_bytes(), 5 * 24);
        assert_eq!(
            f.net.host_record_bytes(),
            5 * std::mem::size_of::<crate::host::PingOutcome>() as u64
        );
        f.net.run_to_completion();
        assert!(
            f.net.host_record_bytes() > 5 * 40,
            "in-flight table and ARP state count"
        );
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
            .filter(|o| o.target() == f.direct_ip)
            .collect();
        assert_eq!(outs.len(), 5);
        for o in outs {
            let r = o.reply().expect("direct member replies");
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
            .filter(|o| o.target() == f.remote_ip)
            .filter_map(|o| o.reply())
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

    /// Every dispatched event is counted under exactly one kind.
    #[test]
    fn events_by_kind_partition_the_dispatched_events() {
        let mut f = figure1(42);
        ping_n(&mut f.net, f.lg, f.direct_ip, 6);
        ping_n(&mut f.net, f.lg, f.remote_ip, 6);
        f.net.run_to_completion();
        let kinds = f.net.events_by_kind();
        assert_eq!(kinds.iter().sum::<u64>(), f.net.events_processed());
        for (k, &n) in kinds.iter().enumerate() {
            // No router forwards an expired probe in this scene, so the
            // only ICMP is echo traffic.
            assert_eq!(n > 0, k != EV_ICMP_OTHER, "kind {k} of {kinds:?}");
        }
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
            .filter_map(|o| o.reply())
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
            .filter_map(|o| o.reply())
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
            .filter_map(|o| o.reply())
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
        let run = |fault_seed: u64| {
            let mut f = figure1(21);
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
        let (a_out, a_counts) = run(7);
        let (b_out, b_counts) = run(7);
        assert_eq!(a_out, b_out, "same fault seed must replay bit for bit");
        assert_eq!(a_counts, b_counts);
        assert!(a_counts.total() > 0, "faults must actually fire");
        assert!(a_counts.probe_drops > 0, "{a_counts:?}");
        let lost = a_out.iter().filter(|o| o.reply().is_none()).count();
        assert!(lost > 0, "probe loss must cost replies");

        let (c_out, c_counts) = run(8);
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
            if let Some(r) = o.reply() {
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
            .filter(|o| o.reply().is_some())
            .count();
        assert_eq!(answered, 0, "nothing crosses a flapping link");
        assert!(f.net.fault_counts().flap_drops > 0);
    }
}
