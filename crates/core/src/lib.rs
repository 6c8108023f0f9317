#![warn(missing_docs)]

//! # remote-peering
//!
//! A faithful reproduction of *Remote Peering: More Peering without Internet
//! Flattening* (Castro, Cardona, Gorinsky, Francois — CoNEXT 2014), built on
//! a fully simulated Internet so every experiment in the paper can be re-run
//! on a laptop.
//!
//! The paper's thesis: **remote peering** — peering at a distant IXP through
//! a layer-2 provider — is widespread (section 3), can offload a substantial
//! share of a network's transit traffic (section 4), and is economically
//! viable under a precise condition (section 5). Because the intermediary
//! lives on layer 2, it is invisible to layer-3 topology inference, so more
//! peering does *not* imply a flatter Internet.
//!
//! ## What this crate adds on top of the substrates
//!
//! - [`world`] — deterministic scenario construction: a synthetic Internet
//!   ([`rp_topology`]), IXPs with looking glasses and remote-peering
//!   pseudowires ([`rp_ixp`]), a RedIRIS-like study network wired with its
//!   real-world peerings (two tier-1 transit providers, GÉANT-style partner
//!   NRENs, home IXPs in Madrid and Barcelona, pre-existing CDN peerings),
//!   routing ([`rp_bgp`]) and transit traffic ([`rp_traffic`]).
//! - [`campaign`] — the section 3.1 measurement method: ping member
//!   interfaces from LG servers *inside* each IXP over a simulated 4-month
//!   window, under the paper's per-server rate limits and per-query ping
//!   counts, against a packet-level simulation ([`rp_netsim`]) where TTL,
//!   congestion, and blackholing behave mechanically.
//! - [`filters`] — the six conservative filters, applied in the paper's
//!   order with full discard accounting: sample-size, TTL-switch,
//!   TTL-match, RTT-consistent, LG-consistent, ASN-change.
//! - [`classify`] — the 10 ms remoteness threshold and the RTT ranges of
//!   figures 2 and 3.
//! - [`identify`] — interface→ASN→network identification and the IXP-count
//!   distributions of figure 4.
//! - [`validate`] — ground-truth validation (precision/recall against the
//!   scene, which the detector itself never sees) and the TorIX-style
//!   route-server RTT cross-check of section 3.3.
//! - [`fork`] — copy-on-write world forking: cheap children sharing the
//!   parent's planes, a [`fork::Delta`] log of scene mutations, and the
//!   dirty set that lets [`Campaign::probe_all_with`] re-probe only what
//!   a delta touched.
//! - [`metrics`] — scalar per-run metrics (precision/recall/F1, remote
//!   fraction, offload fractions, viability margin) extracted from one
//!   probed world under configurable methodology parameters — the unit of
//!   observation for `rp-scenario` sweeps.
//! - [`offload`] — the section 4 study: exclusion rules, the four peer
//!   groups, per-IXP offload potential, greedy IXP expansion, and the
//!   reachable-interfaces metric (figures 5–10).
//! - [`flattening`] — the titular claim quantified: organization counts on
//!   paths under layer-3 vs layer-2-aware views (a section 6 extension).
//! - [`implications`] — section 6's reliability (fate-sharing multihoming)
//!   and security (invisible geography) arguments, made quantitative.
//! - [`report`] — text rendering of every table and figure for the `repro`
//!   binary, plus CDF helpers.
//!
//! ## Quickstart
//!
//! ```
//! use remote_peering::world::{World, WorldConfig};
//! use remote_peering::campaign::Campaign;
//! use remote_peering::detect::DetectionStudy;
//!
//! // A reduced world (a few hundred ASes) builds in seconds.
//! let world = World::build(&WorldConfig::test_scale(7));
//! // Probe the first studied IXP and classify its interfaces.
//! let ixp = world.scene.studied().next().unwrap().id;
//! let samples = Campaign::default_paper().probe_ixp(&world, ixp);
//! let study = DetectionStudy::analyze_ixp(&world, ixp, &samples);
//! println!(
//!     "{}: {} analyzed, {} remote",
//!     world.scene.ixp(ixp).meta.acronym,
//!     study.analyzed.len(),
//!     study.remote_count()
//! );
//! ```

pub mod campaign;
pub mod classify;
pub mod detect;
pub mod filters;
pub mod flattening;
pub mod fork;
pub mod identify;
pub mod implications;
pub mod lookup;
pub mod memo;
pub mod metrics;
pub mod offload;
pub mod probe;
pub mod report;
pub mod validate;
pub mod world;

pub use campaign::Campaign;
pub use classify::{RttRange, REMOTENESS_THRESHOLD_MS};
pub use detect::{DetectionReport, DetectionStudy};
pub use fork::{Delta, WorldFork};
pub use offload::{OffloadStudy, PeerGroup};
pub use world::{World, WorldConfig};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use rp_bgp as bgp;
pub use rp_econ as econ;
pub use rp_ixp as ixp;
pub use rp_netsim as netsim;
pub use rp_topology as topology;
pub use rp_traffic as traffic;
pub use rp_types as types;
