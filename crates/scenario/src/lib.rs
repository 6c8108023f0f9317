#![warn(missing_docs)]

//! # rp-scenario
//!
//! Declarative sensitivity sweeps over the remote-peering pipeline.
//!
//! The paper's claims rest on point estimates: one Internet, one 10 ms
//! threshold, one month of NetFlow. The simulator knows full ground truth,
//! so it can do what the paper couldn't — quantify how detection
//! precision/recall, offload curves, and economic viability move as the
//! measurement pathologies, methodology knobs, and topology assumptions
//! vary. This crate turns that question into a declarative artifact:
//!
//! - [`spec`] — a [`spec::ScenarioSpec`] (JSON file or built-in preset)
//!   names axes of overrides over [`remote_peering::world::WorldConfig`]
//!   and the methodology parameters, expanded into a cross-product grid of
//!   cells.
//! - [`engine`] — [`engine::run_sweep`] runs every cell over N replicate
//!   seeds with *common random numbers*: the same replicate seed is paired
//!   across all arms (via [`rp_types::seed::derive2`]), so per-replicate
//!   arm deltas cancel the world-to-world variance and the paired-delta
//!   confidence intervals are much tighter than independent-seed ones.
//!   Cells that differ only in analysis-time parameters share one world
//!   build and probing campaign per replicate. The (world-group ×
//!   replicate) matrix runs on rayon with bit-identical results at any
//!   thread count.
//!
//! The statistics layer (mean/stddev, Student-t and bootstrap CIs, paired
//! deltas) lives in [`rp_types::stats`] so other crates can reuse it.

pub mod engine;
pub mod spec;

pub use engine::{run_sweep, run_sweep_with, SweepConfig};
pub use spec::{Axis, AxisValue, Cell, Param, ScenarioSpec, SpecError};
