//! `rpbench`: the repository's seeded benchmark.
//!
//! ```text
//! rpbench --workload <paper_study|dense_sharded|serve_mix> --seed N
//!         --seconds S --trace 0|1 --repro PATH --scratch DIR [--rev REV]
//! ```
//!
//! Each workload builds its inputs from `--seed`, times closed-loop ops for
//! `--seconds`, checks every op's output, prints its settings and metrics,
//! and ends stdout with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics with rp-obs collection off; `--trace 1` reports the
//! per-layer metrics from a run with collection on. A wrong output fails
//! its op and makes the process exit 1. `rpbench/run.py` builds this
//! binary and `repro` from source and runs it.

mod jobs;
mod serve;
mod stats;
mod study;

use std::path::PathBuf;

/// Rayon width of the benchmark process and of the served `repro`. The
/// benchmark host has two cores; pinning the width keeps an ambient
/// `RAYON_NUM_THREADS` from changing what is measured. `dense_sharded`
/// times its studies at one thread (see `study::DENSE_SHARDED`).
pub const THREADS: usize = 2;

/// End-to-end metrics in the result line, reported by every workload with
/// tracing off. Peak RSS is that of the process doing the work (the server
/// on `serve_mix`): the median of its per-op (per-interval on `serve_mix`)
/// peaks.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Printed beside the end-to-end metrics but left out of the result line.
/// An "op" is the workload's unit of work: one full study on `paper_study`
/// and `dense_sharded`, one served job on `serve_mix`, timed from submit to
/// the last result byte. A cold op is one no cache can answer: every study,
/// and the cold campaign jobs of `serve_mix`. On a shared two-vCPU VM these
/// wall-clock figures followed the host's speed, which changed by up to
/// 2.3x within minutes: their spread across ten seeds reached 0.36 on
/// `paper_study` and 0.79 on `dense_sharded`, beyond any usable regression
/// bound. The traced run reports them among the per-layer metrics, under
/// `untraced.`.
pub const SHOWN: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cold_op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reports 0 and is marked `n/a`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.world.build_ms", "ms"),
    ("topology.generate_ms", "ms"),
    ("ixp.build_scene_ms", "ms"),
    ("ixp.registry_crawl_ms", "ms"),
    ("bgp.routing_view_ms", "ms"),
    ("traffic.contributions_ms", "ms"),
    ("core.world.approx_mb", "MB"),
    ("core.campaign.probe_all_ms", "ms"),
    ("core.campaign.probe_ixp_max_ms", "ms"),
    ("core.campaign.materialize_ms", "ms"),
    ("core.campaign.multisite_ms", "ms"),
    ("core.plane_mb", "MB"),
    ("netsim.run_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.events_per_iface", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.shard.barriers", "count"),
    ("netsim.shard.handoffs", "count"),
    ("netsim.shard.barrier_wait_ms", "ms"),
    ("netsim.shard.capacity_evictions", "count"),
    ("netsim.shard.arena_mb", "MB"),
    ("core.filters.analyze_ms", "ms"),
    ("core.filters.kept_ratio", "ratio"),
    ("core.metrics.collect_ms", "ms"),
    ("core.offload.study_ms", "ms"),
    ("core.memo.world_hit_ratio", "ratio"),
    ("core.memo.probe_hit_ratio", "ratio"),
    ("core.memo.probe_hits", "count"),
    ("core.memo.probe_lookups", "count"),
    ("core.memo.world_evict", "count"),
    ("core.fork.probe_reused", "count"),
    ("server.submit_ms", "ms"),
    ("server.poll_ms", "ms"),
    ("server.run_ms.campaign", "ms"),
    ("server.wait_ms", "ms"),
    ("server.polls_per_job", "count"),
    ("server.jobs.deduped", "count"),
    ("server.queue.depth_hwm", "count"),
    ("scenario.sweep_run_ms", "ms"),
    ("testkit.check_run_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("untraced.op_p50_ms", "ms"),
    ("untraced.op_p90_ms", "ms"),
    ("untraced.cold_op_p50_ms", "ms"),
    ("untraced.ops_per_s", "1/s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `repro` binary `serve_mix` serves from.
    pub repro: PathBuf,
    /// Scratch space for the served results directory.
    pub scratch: PathBuf,
    /// Source revision, printed with the settings.
    pub rev: String,
}

/// One measured value and how many samples it summarizes.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn v(name: &'static str, value: f64, samples: usize) -> Value {
    Value {
        name,
        value,
        samples,
    }
}

/// What one workload run measured and whether its outputs were right.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<Value>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rpbench --workload <paper_study|dense_sharded|serve_mix> --seed N \
         --seconds S --trace 0|1 --repro PATH --scratch DIR [--rev REV]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut scratch = None;
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--rev" => rev = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !matches!(
        workload.as_str(),
        "paper_study" | "dense_sharded" | "serve_mix"
    ) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        repro: repro.unwrap_or_else(|| usage("--repro is required")),
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
        rev,
    }
}

/// Print the settings every result depends on.
pub fn print_settings(args: &Args, lines: &[(&str, String)]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} rev {} nproc {nproc} rayon_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
        rayon::current_num_threads()
    );
    for (k, v) in lines {
        println!("  {k}: {v}");
    }
}

/// A metric with no samples (NaN) is written as 0, and shown as `n/a`. JSON
/// has no infinity: a latency made infinite by failed ops is `null`, in a
/// result that is already marked incorrect.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        "null".to_string()
    } else {
        format!("{v}")
    }
}

/// Latency and throughput of an untraced phase: `samples` are its op
/// times (`f64::INFINITY` for a failed op), `cold` those of its cold ops.
/// Named as end-to-end (and shown) metrics with `--trace 0`, and as
/// `untraced.` per-layer metrics with `--trace 1`.
pub fn summarize(trace: bool, samples: &[f64], cold: &[f64], elapsed_s: f64, out: &mut Vec<Value>) {
    let names = if trace {
        [
            "untraced.op_p50_ms",
            "untraced.op_p90_ms",
            "untraced.cold_op_p50_ms",
            "untraced.ops_per_s",
        ]
    } else {
        ["op_p50_ms", "op_p90_ms", "cold_op_p50_ms", "ops_per_s"]
    };
    let n = samples.len();
    let ok = samples.iter().filter(|s| s.is_finite()).count();
    out.extend([
        v(names[0], stats::median(samples), n),
        v(names[1], stats::percentile(samples, 0.9), n),
        v(names[2], stats::median(cold), cold.len()),
        v(names[3], ok as f64 / elapsed_s, ok),
    ]);
}

fn report(args: &Args, outcome: &Outcome) {
    let (catalog, shown) = if args.trace {
        (PER_LAYER, &[][..])
    } else {
        (END_TO_END, SHOWN)
    };
    for v in &outcome.values {
        assert!(
            catalog.iter().chain(shown).any(|(name, _)| *name == v.name),
            "{} is not a declared metric",
            v.name
        );
    }
    let mut fields = Vec::new();
    for &(name, unit) in catalog.iter().chain(shown) {
        let found = outcome.values.iter().find(|v| v.name == name);
        let value = found.map_or(0.0, |v| v.value);
        let note = if catalog.iter().any(|c| c.0 == name) {
            ""
        } else {
            " (shown only)"
        };
        match found.filter(|v| !v.value.is_nan()) {
            Some(v) => println!("{name:<34} {value:>16.4} {unit:<6} n={}{note}", v.samples),
            None => println!("{name:<34} {value:>16.4} {unit:<6} n/a{note}"),
        }
        if note.is_empty() {
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }
    println!(
        "ops attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

fn main() {
    let args = parse_args();
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .expect("pin the rayon width");
    let outcome = match args.workload.as_str() {
        "paper_study" => study::run(&study::PAPER_STUDY, &args),
        "dense_sharded" => study::run(&study::DENSE_SHARDED, &args),
        _ => serve::run(&args),
    };
    report(&args, &outcome);
    if !outcome.correct {
        std::process::exit(1);
    }
}
