//! The Monte-Carlo replication engine.
//!
//! [`run_sweep`] evaluates every cell of a [`ScenarioSpec`] over N
//! replicate seeds and returns the full result as a JSON value. Three
//! properties are load-bearing:
//!
//! * **Common random numbers.** Replicate `r` uses the seed
//!   `seed::derive2(cfg.seed, "scenario-replicate", r, 0)` in *every*
//!   cell, so arms see the same sequence of worlds and their
//!   per-replicate differences cancel world-to-world variance. The
//!   paired-delta CIs in the output exploit exactly this pairing.
//! * **World sharing.** Cells that differ only in method parameters
//!   (threshold, filter mask, peer group) share one world build and
//!   probing campaign per replicate — the expensive 99% of the work.
//! * **Schedule independence.** The (world-group × replicate) tasks run
//!   on rayon, but every observation is keyed by `(cell, replicate)` and
//!   statistics are computed over index-sorted samples
//!   ([`rp_types::stats::Accumulator`]), so the output is bit-identical
//!   at any thread count.

use crate::spec::{Cell, ScenarioSpec};
use rayon::prelude::*;
use remote_peering::campaign::Campaign;
use remote_peering::metrics::{PreparedRun, RunMetrics};
use remote_peering::world::{Scale, WorldConfig};
use rp_types::seed;
use rp_types::stats::{paired_deltas, t_interval, Accumulator};
use serde_json::{json, Value};

/// Engine configuration: seeding, world scale, and CI settings.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; replicate seeds derive from it.
    pub seed: u64,
    /// World size per replicate: test-scale (sub-second), paper-scale
    /// (minutes), or production-scale (tens of seconds to build, ≥10⁵
    /// interfaces).
    pub scale: Scale,
    /// Replicate seeds per cell.
    pub replicates: u64,
    /// Two-sided confidence level for every interval (e.g. 0.95).
    pub confidence: f64,
    /// Bootstrap resamples per (cell, metric) interval.
    pub resamples: usize,
    /// Data-plane shards per simulated IXP network (0 = one per fabric
    /// site, capped at the available cores). Pure performance policy:
    /// sweep results are bit-identical at every value, so the knob never
    /// appears in the output JSON.
    pub shards: usize,
}

impl SweepConfig {
    /// Test-scale defaults: 8 replicates, 95% intervals, 400 resamples.
    pub fn test_default(seed: u64) -> Self {
        SweepConfig {
            seed,
            scale: Scale::Test,
            replicates: 8,
            confidence: 0.95,
            resamples: 400,
            shards: 0,
        }
    }
}

/// Run `spec` under `cfg` and return the sweep result as JSON.
///
/// The result echoes the spec and engine configuration, then lists one
/// object per cell: its parameters, whether it is the baseline arm, a
/// per-metric summary (`n`, `mean`, `std`, Student-t and bootstrap CIs),
/// and — for non-baseline cells — paired-delta CIs against the baseline
/// arm over the shared replicate seeds.
///
/// Each task fetches its build and probe set from the process-wide memo,
/// so tasks that revisit a (config, campaign) pair — e.g. the baseline
/// group across presets run in one process — share the expensive work.
pub fn run_sweep(spec: &ScenarioSpec, cfg: &SweepConfig) -> Value {
    run_sweep_with(spec, cfg, PreparedRun::probe_cached)
}

/// [`run_sweep`] with the per-task build + probe step supplied by the
/// caller. `run_sweep` passes the memoized [`PreparedRun::probe_cached`];
/// `rp-testkit`'s sweep reference passes an uncached build and probe, and
/// the output must not differ by a byte.
pub fn run_sweep_with(
    spec: &ScenarioSpec,
    cfg: &SweepConfig,
    prepare: impl Fn(&WorldConfig, &Campaign) -> PreparedRun + Sync,
) -> Value {
    let _sp = rp_obs::span("scenario.run_sweep");
    let cells = spec.cells();

    // Group cells by their world signature, preserving first-appearance
    // order; each (group, replicate) pair is one schedulable task sharing
    // a single build + probe.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (idx, cell) in cells.iter().enumerate() {
        let key = cell.world_key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(idx),
            None => groups.push((key, vec![idx])),
        }
    }
    rp_obs::counter!("scenario.cells").add(cells.len() as u64);
    rp_obs::counter!("scenario.world_groups").add(groups.len() as u64);
    rp_obs::counter!("scenario.replicates").add(cfg.replicates);
    // Sweep shape over the group axis: how many cells share each world
    // group. Recorded before the parallel fan-out, so it is trivially
    // schedule-independent.
    for (g, (_, members)) in groups.iter().enumerate() {
        rp_obs::timeline::index_point("scenario.sweep.group_cells", g as u64, members.len() as u64);
    }

    let tasks: Vec<(usize, u64)> = (0..groups.len())
        .flat_map(|g| (0..cfg.replicates).map(move |r| (g, r)))
        .collect();

    // Worker results carry their (cell, replicate) key, so the order in
    // which rayon delivers them is irrelevant to the statistics below.
    let observations: Vec<Vec<(usize, u64, RunMetrics)>> = tasks
        .par_iter()
        .map(|&(g, r)| {
            let _tsp = rp_obs::span("scenario.task");
            let t0 = std::time::Instant::now();
            let members = &groups[g].1;
            // The same replicate seed in every group: common random numbers.
            let rep_seed = seed::derive2(cfg.seed, "scenario-replicate", r, 0);
            let base = cfg.scale.config(rep_seed);
            let world_cfg = cells[members[0]].apply_world(&base);
            let campaign = Campaign {
                shards: cfg.shards,
                memory_budget_bytes: cfg.scale.default_memory_budget(),
                ..Campaign::default_paper()
            };
            let run = prepare(&world_cfg, &campaign);
            let out: Vec<(usize, u64, RunMetrics)> = members
                .iter()
                .map(|&ci| (ci, r, RunMetrics::collect(&run, &cells[ci].method_params())))
                .collect();
            rp_obs::histogram!("scenario.task_ms", rp_obs::metrics::TASK_MS_BUCKETS)
                .observe(t0.elapsed().as_secs_f64() * 1_000.0);
            out
        })
        .collect();

    let n_metrics = RunMetrics::NAMES.len();
    let mut accs: Vec<Vec<Accumulator>> = (0..cells.len())
        .map(|_| vec![Accumulator::new(); n_metrics])
        .collect();
    for obs in observations.iter().flatten() {
        let (ci, r, metrics) = obs;
        for (mi, (_, value)) in metrics.named().iter().enumerate() {
            accs[*ci][mi].record(*r, *value);
        }
    }

    let baseline_idx = cells
        .iter()
        .position(|c| c.is_baseline(spec))
        .expect("every axis baseline is among its values, so the grid contains the baseline cell");

    let cell_objects: Vec<Value> = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| cell_json(cfg, cell, ci, &accs, baseline_idx))
        .collect();

    json!({
        "spec": spec.to_json(),
        "config": {
            "seed": cfg.seed,
            "scale": cfg.scale.as_str(),
            "replicates": cfg.replicates,
            "confidence": cfg.confidence,
            "bootstrap_resamples": cfg.resamples,
        },
        "cells": cell_objects,
    })
}

fn cell_json(
    cfg: &SweepConfig,
    cell: &Cell,
    ci: usize,
    accs: &[Vec<Accumulator>],
    baseline_idx: usize,
) -> Value {
    let mut metrics = Vec::with_capacity(RunMetrics::NAMES.len());
    for (mi, name) in RunMetrics::NAMES.iter().enumerate() {
        let acc = &accs[ci][mi];
        let s = acc.summary();
        let t = acc.t_interval(cfg.confidence);
        let boot_seed = seed::derive2(cfg.seed, "scenario-bootstrap", ci as u64, mi as u64);
        let b = acc.bootstrap_interval(cfg.confidence, cfg.resamples, boot_seed);
        metrics.push((
            name.to_string(),
            json!({
                "n": s.n,
                "mean": s.mean,
                "std": s.std_dev,
                "t_ci": [t.lo, t.hi],
                "bootstrap_ci": [b.lo, b.hi],
            }),
        ));
    }
    let is_baseline = ci == baseline_idx;
    let mut obj = vec![
        ("label".to_string(), Value::String(cell.label())),
        ("params".to_string(), cell.params_json()),
        ("baseline".to_string(), Value::Bool(is_baseline)),
        ("metrics".to_string(), Value::Object(metrics)),
    ];
    if !is_baseline {
        let mut deltas = Vec::with_capacity(RunMetrics::NAMES.len());
        for (mi, name) in RunMetrics::NAMES.iter().enumerate() {
            let ds = paired_deltas(&accs[ci][mi], &accs[baseline_idx][mi]);
            let t = t_interval(&ds, cfg.confidence);
            deltas.push((
                name.to_string(),
                json!({
                    "mean": rp_types::stats::mean(&ds),
                    "t_ci": [t.lo, t.hi],
                }),
            ));
        }
        obj.push(("delta_vs_baseline".to_string(), Value::Object(deltas)));
    }
    Value::Object(obj)
}
