#![warn(missing_docs)]

//! # rp-netsim
//!
//! A deterministic discrete-event packet simulator for layer-2/layer-3
//! scenes — the substrate under the paper's ping-based detection method
//! (section 3). Each network runs one event loop (see `sim.rs`); results
//! are bit-identical at every thread count.
//!
//! The paper's six measurement filters are only meaningful if the network
//! artifacts they guard against can actually occur. This simulator models
//! them mechanically rather than by assumption:
//!
//! - **TTL semantics** — MAC-learning switches forward frames untouched, so
//!   a ping reply that stays inside an IXP's layer-2 subnet arrives with the
//!   responder's initial TTL (64 or 255, configurable, switchable
//!   mid-campaign to emulate OS changes). IP routers decrement TTL when
//!   forwarding, so a registry-stale target that actually sits behind an
//!   extra IP hop returns a reply whose TTL betrays the hop — exactly what
//!   the paper's TTL-match filter discards.
//! - **Geographic delay** — every link carries a propagation delay derived
//!   from fiber distance, so a remote peer's interface answers with an RTT
//!   that reflects where the router really is, not where the IXP is.
//! - **Jitter and delay epochs** — links add exponential per-frame jitter,
//!   and persistent episodes raise a link's delay floor for a whole epoch,
//!   giving the RTT-consistent and LG-consistent filters real work.
//! - **Blackholing** — responders can silently drop echo requests, which the
//!   sample-size filter must absorb.
//!
//! Design follows the event-driven, no-surprises spirit of `smoltcp`: plain
//! structs, no async runtime (the workload is pure computation), and a
//! strictly deterministic event order (time, then intrinsic creator key).

pub mod event;
pub mod fault;
pub mod frame;
pub mod host;
pub mod link;
pub mod router;
pub mod sim;
mod sponge;
pub mod switch;

pub use fault::{FaultConfig, FaultCounts, FaultInjector, FaultKind};
pub use frame::{ArpOp, ArpPacket, Frame, IcmpMessage, Ipv4Packet, MacAddr, Payload};
pub use host::{Host, PingOutcome, PingReply};
pub use link::{CongestionEpisode, DelayModel};
pub use router::{Router, RouterBehavior};
pub use sim::{Device, LinkClass, Network, NodeId, PortId};
pub use switch::Switch;

// The campaign runs one `Network` per worker thread, so the simulator types
// must stay `Send` (and the shared config types `Sync`). These assertions
// turn an accidental `Rc`/`RefCell`/raw-pointer regression into a compile
// error at the crate boundary instead of a trait-bound error deep inside a
// `par_iter` call chain.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Network>();
    assert_sync::<Network>();
    assert_send::<RouterBehavior>();
    assert_sync::<RouterBehavior>();
    assert_send::<DelayModel>();
    assert_sync::<DelayModel>();
    assert_send::<CongestionEpisode>();
    assert_sync::<CongestionEpisode>();
    assert_send::<Host>();
    assert_send::<Router>();
    assert_send::<Switch>();
    assert_send::<FaultInjector>();
    assert_sync::<FaultConfig>();
};
