//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--seed N] [--scale test|paper|production] [--out DIR]
//!       [--threads N]
//! repro sweep <SPEC.json|PRESET> [--replicates N] [other flags]
//! repro check [--faults N] [--fuzz N] [other flags]
//! ```
//!
//! Run `repro --help` for the experiment list. Text goes to stdout; raw
//! numbers are written as JSON under `--out` (default `results/`).
//!
//! `repro sweep` runs an `rp-scenario` Monte-Carlo sensitivity sweep from a
//! spec file or a built-in preset and writes the full per-cell statistics
//! to `<out>/sweeps/<name>.json`.
//!
//! `repro check` runs the `rp-testkit` correctness harness — a clean and a
//! fault-injected campaign, the metamorphic invariant suite over both, and
//! the seeded parser fuzzer — and writes `<out>/check_report.json` (a pure
//! function of the seed: bit-identical at any thread count). Exit code 1
//! when an invariant is violated or a parser panics.
//!
//! Every form accepts the four observability sinks: `--report [PATH]`
//! writes a `run_report.json` (default `<out>/run_report.json`) with the
//! subcommand's own sections, the span tree with call counts and
//! self/total times, and every registered metric; `--trace` prints the
//! span tree to stderr; `--trace-json PATH` and `--trace-chrome PATH`
//! stream events to a JSONL or Chrome trace-event file. `main` opens them
//! as one `rp_obs::Session` and closes it once, whichever subcommand ran.
//! Any sink enables collection; results are bit-identical with or without
//! it (the instrumentation only reads pipeline state — pinned by
//! `tests/report_schema.rs`).

use remote_peering::campaign::Campaign;
use remote_peering::detect::DetectionReport;
use remote_peering::identify::Identification;
use remote_peering::offload::{GreedyMetric, OffloadStudy, PeerGroup};
use remote_peering::world::{Scale, World, WorldConfig};
use rp_bench::experiments::{self, ExperimentOutput};
use rp_obs::Sink;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every experiment name `repro` accepts, in the order they run.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "validate",
    "threshold",
    "ablate",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fit",
    "flattening",
    "inference",
    "invisibility",
    "implications",
    "africa",
    "seeds",
    "econ",
    "all",
];

/// Every subcommand name; like an experiment name, never a `--report` PATH.
const SUBCOMMANDS: &[&str] = &["sweep", "check", "bench", "profile", "serve", "job"];

/// What a subcommand hands back to `main`: its run-report sections (after
/// `meta`) and whether it passed (exit 1 when not).
type Outcome = (Vec<(String, Value)>, bool);

struct Args {
    experiment: String,
    seed: u64,
    scale: String,
    out: PathBuf,
    threads: usize,
    /// `--trace`, `--report [PATH]`, `--trace-json P`, `--trace-chrome P`:
    /// at most one sink of each kind, the last flag winning.
    sinks: Vec<Sink>,
    /// The operand of `sweep` (spec file or preset), `job` (spec file) or
    /// `profile` (experiment).
    operand: Option<String>,
    /// `--replicates` override for `sweep` (default: the spec's own).
    replicates: Option<u64>,
    /// `--faults` perturbation-trial count for `check` (default 200).
    faults: Option<u64>,
    /// `--fuzz` iteration count for `check` (default 500).
    fuzz: Option<u64>,
    /// `--quick` single-repetition smoke mode for `bench` (CI).
    quick: bool,
    /// `--addr` listen address for `serve`.
    addr: String,
    /// `--workers` job worker threads for `serve`.
    workers: usize,
    /// `--queue-cap` pending-job queue bound for `serve`.
    queue_cap: usize,
    /// `--pool-bytes` world-pool byte budget for `serve` (None: entry
    /// bound only).
    pool_bytes: Option<u64>,
}

fn usage_text() -> String {
    let mut s = String::from(
        "usage: repro [EXPERIMENT] [--seed N] [--scale test|paper|production] [--out DIR]\n\
         \x20            [--threads N]\n\
         \x20      repro sweep <SPEC.json|PRESET> [--replicates N] [other flags]\n\
         \x20      repro check [--faults N] [--fuzz N] [other flags]\n\
         \x20      repro bench [--quick] [other flags]\n\
         \x20      repro profile <EXPERIMENT> [other flags]\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
         \x20            [--pool-bytes N] [other flags]\n\
         \x20      repro job <SPEC.json> [other flags]\n\
         every form also takes the sink flags: [--report [PATH]] [--trace]\n\
         \x20      [--trace-json P] [--trace-chrome P]\n\nexperiments:\n",
    );
    for chunk in EXPERIMENTS.chunks(8) {
        s.push_str("  ");
        s.push_str(&chunk.join(" | "));
        s.push('\n');
    }
    s.push_str("\nsweep presets:\n  ");
    s.push_str(&rp_scenario::ScenarioSpec::preset_names().join(" | "));
    s.push_str(
        "\n\nflags:\n\
         \x20 --seed N          master seed (default 42)\n\
         \x20 --scale S         world scale: test | paper | production (default paper)\n\
         \x20 --out DIR         JSON output directory (default results/)\n\
         \x20 --threads N       worker threads, 0 = automatic (default 0)\n\
         \x20 --replicates N    sweep replicate seeds per cell (default: the spec's)\n\
         \x20 --faults N        check: perturbation trials (default 200)\n\
         \x20 --fuzz N          check: fuzzer iterations per target (default 500)\n\
         \x20 --quick           bench: single repetition (CI smoke run)\n\
         \x20 --addr HOST:PORT  serve: listen address (default 127.0.0.1:8080,\n\
         \x20                   port 0 picks a free port)\n\
         \x20 --workers N       serve: job worker threads (default 2)\n\
         \x20 --queue-cap N     serve: pending-job queue bound (default 256)\n\
         \x20 --pool-bytes N    serve: world-pool byte budget (default: entry\n\
         \x20                   bound only)\n\n\
         sink flags (any subcommand; each enables span/metric collection):\n\
         \x20 --report [PATH]   write a run report\n\
         \x20                   (default PATH: <out>/run_report.json)\n\
         \x20 --trace           print the span tree to stderr\n\
         \x20 --trace-json P    stream span/metric events to a JSONL file\n\
         \x20 --trace-chrome P  write a Chrome trace-event file (chrome://tracing,\n\
         \x20                   Perfetto)\n",
    );
    s
}

/// Add `sink`, replacing an earlier flag of the same kind.
fn set_sink(sinks: &mut Vec<Sink>, sink: Sink) {
    sinks.retain(|s| std::mem::discriminant(s) != std::mem::discriminant(&sink));
    sinks.push(sink);
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// The one exit path for every unrecognized token — flag, experiment, or
/// subcommand argument. One-line `error: unknown <kind> <token>` plus the
/// usage text, exit 2 (via [`bad_usage`]); `tests/cli_usage.rs` pins the
/// shape for both kinds.
fn unknown(kind: &str, token: &str) -> ! {
    bad_usage(&format!("unknown {kind} {token}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".into(),
        seed: 42,
        scale: "paper".into(),
        out: PathBuf::from("results"),
        threads: 0,
        sinks: Vec::new(),
        operand: None,
        replicates: None,
        faults: None,
        fuzz: None,
        quick: false,
        addr: "127.0.0.1:8080".into(),
        workers: 2,
        queue_cap: 256,
        pool_bytes: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--seed requires a numeric seed"))
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--scale requires test|paper|production"))
            }
            "--out" => {
                args.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| bad_usage("--out requires a directory"))
            }
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    bad_usage("--threads requires a numeric count (0 = automatic)")
                })
            }
            "--report" => {
                // PATH is optional: consume the next token only when it is
                // not a flag, an experiment or a subcommand. An empty path
                // stands for the default, resolved against `--out` below.
                let path = match it.peek() {
                    Some(next)
                        if !next.starts_with('-')
                            && !EXPERIMENTS.contains(&next.as_str())
                            && !SUBCOMMANDS.contains(&next.as_str()) =>
                    {
                        PathBuf::from(it.next().expect("peeked"))
                    }
                    _ => PathBuf::new(),
                };
                set_sink(&mut args.sinks, Sink::Report(path));
            }
            "--replicates" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--replicates requires a positive count"));
                if n == 0 {
                    bad_usage("--replicates requires a positive count");
                }
                args.replicates = Some(n);
            }
            "--faults" => {
                args.faults = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--faults requires a numeric count")),
                )
            }
            "--fuzz" => {
                args.fuzz = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--fuzz requires a numeric count")),
                )
            }
            "--quick" => args.quick = true,
            "--trace" => set_sink(&mut args.sinks, Sink::Tree),
            "--trace-json" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--trace-json requires a file path"));
                set_sink(&mut args.sinks, Sink::Jsonl(path.into()));
            }
            "--trace-chrome" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--trace-chrome requires a file path"));
                set_sink(&mut args.sinks, Sink::Chrome(path.into()));
            }
            "--addr" => {
                args.addr = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--addr requires HOST:PORT"))
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--workers requires a numeric count"))
            }
            "--queue-cap" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--queue-cap requires a positive count"));
                if n == 0 {
                    bad_usage("--queue-cap requires a positive count");
                }
                args.queue_cap = n;
            }
            "--pool-bytes" => {
                args.pool_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--pool-bytes requires a byte count")),
                )
            }
            "--help" | "-h" => {
                print!("{}", usage_text());
                std::process::exit(0);
            }
            sub if SUBCOMMANDS.contains(&sub) => args.experiment = sub.to_string(),
            other if !other.starts_with('-') => {
                let takes_operand = ["sweep", "job", "profile"].contains(&args.experiment.as_str());
                if takes_operand && args.operand.is_none() {
                    if args.experiment == "profile" && !EXPERIMENTS.contains(&other) {
                        unknown("experiment", other);
                    }
                    args.operand = Some(other.to_string());
                } else if EXPERIMENTS.contains(&other) {
                    args.experiment = other.to_string();
                } else {
                    unknown("experiment", other);
                }
            }
            other => unknown("flag", other),
        }
    }
    if Scale::parse(&args.scale).is_none() {
        bad_usage(&format!(
            "unknown scale {} (use test|paper|production)",
            args.scale
        ));
    }
    let missing_operand = match args.experiment.as_str() {
        "sweep" => "sweep requires a spec file or preset name",
        "job" => "job requires a spec file",
        "profile" => "profile requires an experiment name",
        _ => "",
    };
    if !missing_operand.is_empty() && args.operand.is_none() {
        bad_usage(missing_operand);
    }
    for sink in &mut args.sinks {
        if *sink == Sink::Report(PathBuf::new()) {
            *sink = Sink::Report(args.out.join("run_report.json"));
        }
    }
    args
}

impl Args {
    /// The parsed world scale. `parse_args` already rejected every other
    /// `--scale` value.
    fn scale(&self) -> Scale {
        Scale::parse(&self.scale).expect("parse_args validated --scale")
    }

    /// The operand of `sweep`, `job` or `profile`.
    fn operand(&self) -> &str {
        self.operand
            .as_deref()
            .expect("parse_args required the operand")
    }
}

/// Exit with a one-line diagnostic when an input can't be read or an
/// output path can't be written (missing permissions, a file where a
/// directory should be, a full disk). Exit code 2, like the usage errors —
/// the run itself didn't fail, its input or destination did.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Write `contents` to `path`, creating missing parent directories.
fn write_output(path: &Path, contents: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, contents)
    };
    write().unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", path.display())));
}

/// Run one experiment under its span and write its text/JSON outputs.
fn emit(out_dir: &Path, span: &'static str, f: impl FnOnce() -> ExperimentOutput) {
    let _sp = rp_obs::span(span);
    let output = f();
    println!(
        "==== {} {}",
        output.id,
        "=".repeat(60_usize.saturating_sub(output.id.len()))
    );
    println!("{}", output.text);
    let path = out_dir.join(format!("{}.json", output.id));
    write_output(
        &path,
        &serde_json::to_string_pretty(&output.json).expect("serialize"),
    );
}

/// The campaign every subcommand runs: the paper defaults under the
/// scale's default memory budget.
fn campaign_for(args: &Args) -> Campaign {
    Campaign {
        memory_budget_bytes: args.scale().default_memory_budget(),
        ..Campaign::default_paper()
    }
}

/// Run `experiment` (one name from [`EXPERIMENTS`]) and return its
/// run-report sections: a world summary and the filter funnel.
fn run_experiments(args: &Args, experiment: &str) -> Vec<(String, Value)> {
    // The top-level span; dropping it (at the end of this function) flushes
    // the main thread's collector so the report sees the full tree.
    let _run = rp_obs::span("repro.run");

    let cfg = args.scale().config(args.seed);

    let t0 = Instant::now();
    eprintln!(
        "building world (scale={}, seed={})...",
        args.scale, args.seed
    );
    let world = World::build(&cfg);
    eprintln!(
        "  {} ASes, {} IXPs, {} interfaces, vantage {} [{:.1?}]",
        world.topology.len(),
        world.scene.ixps.len(),
        world.scene.total_interfaces(),
        world.topology.node(world.vantage).asn,
        t0.elapsed()
    );

    let campaign = campaign_for(args);
    let wants = |ids: &[&str]| ids.contains(&experiment) || experiment == "all";

    // Detection-side experiments share one probing run.
    let detection_needed = wants(&[
        "table1",
        "fig2",
        "fig3",
        "fig4a",
        "fig4b",
        "validate",
        "threshold",
    ]);
    let report = if detection_needed {
        let t = Instant::now();
        eprintln!(
            "running probing campaign at {} IXPs...",
            world.studied_ixps().len()
        );
        let r = DetectionReport::run(&world, &campaign);
        eprintln!(
            "  {} interfaces analyzed [{:.1?}]",
            r.stats.analyzed,
            t.elapsed()
        );
        Some(r)
    } else {
        None
    };

    // Offload-side experiments share one study.
    let offload_needed = wants(&[
        "fig5a",
        "fig5b",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fit",
        "flattening",
    ]);
    let study = if offload_needed {
        let t = Instant::now();
        eprintln!("preparing offload study...");
        let s = OffloadStudy::new(&world);
        eprintln!("  done [{:.1?}]", t.elapsed());
        Some(s)
    } else {
        None
    };

    // Run and write one experiment when it was asked for (or `all`), under
    // its `repro.<id>` span.
    macro_rules! run {
        ($id:literal, $f:expr) => {
            if wants(&[$id]) {
                emit(&args.out, concat!("repro.", $id), || $f);
            }
        };
    }

    if let Some(report) = &report {
        let ident = Identification::from_report(report);
        run!("table1", experiments::table1(&world, report));
        run!("fig2", experiments::fig2(report));
        run!("fig3", experiments::fig3(&world, report));
        run!("fig4a", experiments::fig4a(&ident));
        run!("fig4b", experiments::fig4b(&ident));
        run!(
            "validate",
            experiments::validation(&world, &campaign, report)
        );
        run!(
            "threshold",
            experiments::threshold_sweep(&world, &campaign, report)
        );
    }

    // Ablation re-probes with modified filter configs; it is opt-in (also
    // included in `all`).
    run!("ablate", experiments::filter_ablation(&world, &campaign));

    if let Some(study) = &study {
        run!("fig5a", experiments::fig5a(&world, study));
        run!("fig5b", experiments::fig5b(&world, study));
        run!("fig6", experiments::fig6(&world, study));
        run!("fig7", experiments::fig7(&world, study));
        run!("fig8", experiments::fig8(&world, study));
        run!("fig9", experiments::fig9(&world, study));
        run!("fig10", experiments::fig10(&world, study));
        run!("fit", experiments::decay_fit(&world, study));
        run!("flattening", experiments::flattening(&world, study));
    }

    run!("inference", experiments::inference(&world));
    run!("invisibility", experiments::invisibility(&world, &campaign));
    run!("implications", experiments::implications(&world));
    run!("africa", experiments::africa(&world));

    if experiment == "seeds" {
        // Not part of `all` (it rebuilds the world five times).
        emit(&args.out, "repro.seeds", || {
            experiments::seed_robustness(args.seed, args.scale() == Scale::Paper)
        });
    }

    run!("econ", experiments::econ_analysis());

    eprintln!("total: {:.1?}", t0.elapsed());
    vec![
        (
            "world".to_string(),
            json!({
                "ases": world.topology.len(),
                "ixps": world.scene.ixps.len(),
                "studied_ixps": world.studied_ixps().len(),
                "interfaces": world.scene.total_interfaces(),
                "vantage_asn": world.topology.node(world.vantage).asn.0,
                "campaign_days": world.config.campaign_days,
            }),
        ),
        (
            "filter_funnel".to_string(),
            report.map_or(Value::Null, |d| d.stats.funnel_json()),
        ),
    ]
}

/// Resolve the `sweep` spec argument: an existing file is parsed as JSON;
/// otherwise it must name a built-in preset.
fn resolve_spec(arg: &str) -> rp_scenario::ScenarioSpec {
    use rp_scenario::ScenarioSpec;
    if Path::new(arg).is_file() {
        let text = std::fs::read_to_string(arg)
            .unwrap_or_else(|e| fail(format_args!("cannot read {arg}: {e}")));
        ScenarioSpec::from_json(&text).unwrap_or_else(|e| fail(format_args!("{arg}: {e}")))
    } else {
        ScenarioSpec::preset(arg).unwrap_or_else(|| {
            bad_usage(&format!(
                "no spec file or preset named {arg} (presets: {})",
                ScenarioSpec::preset_names().join(", ")
            ))
        })
    }
}

/// One row of the `bench` subcommand's schema-stable output.
struct BenchRow {
    name: &'static str,
    ops: u64,
    ns_per_op: f64,
    /// Simulator events retired per op (0 when the bench has no event
    /// loop; the queue microbenches count queue operations as events).
    events_per_op: f64,
}

impl BenchRow {
    fn events_per_sec(&self) -> f64 {
        if self.events_per_op == 0.0 {
            0.0
        } else {
            self.events_per_op * 1e9 / self.ns_per_op
        }
    }
}

/// The `bench` subcommand: a fixed suite of pipeline benchmarks whose
/// JSON output (`<out>/bench.json`) keeps the same keys from run to run;
/// the committed `BENCH_*.json` baselines at the repository root are
/// copies of it, compared by `scripts/check_bench_trend.py`. Each paired
/// row (serial vs parallel probing, uncached vs cached greedy) is asserted
/// equal before it is timed. Besides the microbench rows, a
/// `fork_vs_rebuild` section quantifies what copy-on-write forking and
/// incremental recompute buy over from-scratch rebuilds, with each pair
/// asserted byte-identical in-process before its speedup is reported, and
/// a `production_world` section records what the `--scale production`
/// preset costs to build, probe, and drain under its memory budget, with
/// the measured peak RSS beside the modelled bytes. `--quick` drops to a
/// single repetition and smaller sharded/production worlds so CI can
/// smoke-run the suite without paying for stable numbers.
fn run_bench_command(args: &Args) -> Outcome {
    use rp_netsim::event::{Event, EventKey, EventQueue};
    use rp_netsim::NodeId;
    use rp_types::SimTime;

    let cfg = args.scale().config(args.seed);
    let reps: u64 = if args.quick { 1 } else { 5 };
    let mut rows: Vec<BenchRow> = Vec::new();

    eprintln!(
        "bench: scale={} seed={} reps={} ...",
        args.scale, args.seed, reps
    );

    // World construction (topology + scene + registry + routing).
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(World::build(&cfg));
    }
    rows.push(BenchRow {
        name: "world_build",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: 0.0,
    });

    let world = World::build(&cfg);
    let campaign = campaign_for(args);
    let ixps = world.studied_ixps();

    // One full campaign pass counts the events and warms the allocator.
    let events: u64 = ixps
        .iter()
        .map(|&ixp| campaign.run_ixp(&world, ixp, false).events)
        .sum();

    // Serial event-loop throughput: build + schedule + run every studied
    // IXP and collect its samples.
    let t = Instant::now();
    for _ in 0..reps {
        let n: u64 = ixps
            .iter()
            .map(|&ixp| campaign.run_ixp(&world, ixp, false).events)
            .sum();
        assert_eq!(n, events, "event count must be reproducible");
    }
    rows.push(BenchRow {
        name: "probe_trace_serial",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: events as f64,
    });

    // The production path: parallel over IXPs, with sample collection.
    // The untimed first pass must equal the serial reference arm, so the
    // serial/parallel pair above and below races on identical work.
    assert_eq!(
        campaign.probe_all(&world),
        rp_testkit::differential::probe_all_serial(&campaign, &world),
        "parallel probe_all diverged from serial"
    );
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(campaign.probe_all(&world));
    }
    rows.push(BenchRow {
        name: "probe_all",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: events as f64,
    });

    // Greedy IXP expansion (figs 9/10), recomputing every cone from the
    // member lists vs over the study's memoized per-IXP cone cache. The
    // equality assert runs the cached arm first, so the cache is warm
    // before either arm is timed.
    let study = OffloadStudy::new(&world);
    let greedy = |cached: bool| {
        if cached {
            study.greedy_by(PeerGroup::All, 30, GreedyMetric::Traffic)
        } else {
            study.greedy_by_uncached(PeerGroup::All, 30, GreedyMetric::Traffic)
        }
    };
    assert_eq!(greedy(true), greedy(false), "cached greedy diverged");
    for (name, cached) in [("greedy_uncached_30", false), ("greedy_cached_30", true)] {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(greedy(cached));
        }
        rows.push(BenchRow {
            name,
            ops: reps,
            ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
            events_per_op: 0.0,
        });
    }

    // Event-queue microbenches. Both push device keys, so they time the
    // queue's heap half only; planned pings go to the presorted plan run,
    // which the probing rows above time. Spread: pops chase pushes at
    // distinct times. Burst: 200 same-time events per drain round (an ARP
    // flood's shape).
    let timer = |i: u32| Event::Timer {
        node: NodeId(i),
        token: 0,
    };
    let n: u64 = if args.quick { 100_000 } else { 1_000_000 };
    let t = Instant::now();
    let mut q = EventQueue::new();
    for i in 0..n {
        q.push(
            SimTime(i * 1_000_000),
            EventKey { creator: 0, seq: i },
            timer(i as u32),
        );
        if i % 4 == 3 {
            for _ in 0..4 {
                std::hint::black_box(q.pop());
            }
        }
    }
    rows.push(BenchRow {
        name: "event_queue_spread",
        ops: n,
        ns_per_op: t.elapsed().as_nanos() as f64 / n as f64,
        events_per_op: 1.0,
    });

    let rounds = n / 200;
    let t = Instant::now();
    let mut q = EventQueue::new();
    for r in 0..rounds {
        let at = SimTime(r * 50_000_000);
        for i in 0..200u32 {
            q.push(at, EventKey { creator: i, seq: r }, timer(i));
        }
        while q.pop().is_some() {}
    }
    rows.push(BenchRow {
        name: "event_queue_burst200",
        ops: rounds * 200,
        ns_per_op: t.elapsed().as_nanos() as f64 / (rounds * 200) as f64,
        events_per_op: 1.0,
    });

    // Sharded-world benchmark (named for the shard layout the simulator
    // once had; the names stay so the committed baselines keep pairing):
    // one big multi-fabric world — the `world_scale` topology knob times
    // the membership scale gives ~10× the members of the base world —
    // drained one IXP at a time on the calling thread. Single repetition:
    // this section measures scale behavior, not run-to-run noise.
    let wscale = if args.quick { 2.0 } else { 10.0 };
    let mut big_cfg = WorldConfig::test_scale(args.seed);
    big_cfg.topology.world_scale = wscale;
    big_cfg.scene.scale *= wscale;
    eprintln!("bench: building sharded-world topology ({wscale}x members)...");
    let t = Instant::now();
    let big = World::build(&big_cfg);
    rows.push(BenchRow {
        name: "sharded_world_build",
        ops: 1,
        ns_per_op: t.elapsed().as_nanos() as f64,
        events_per_op: 0.0,
    });
    let t = Instant::now();
    let big_events: u64 = big
        .studied_ixps()
        .iter()
        .map(|&ixp| Campaign::default_paper().run_ixp(&big, ixp, false).events)
        .sum();
    rows.push(BenchRow {
        name: "sharded_world_1shard",
        ops: 1,
        ns_per_op: t.elapsed().as_nanos() as f64,
        events_per_op: big_events as f64,
    });

    // Production-scale world: the `--scale production` preset (the
    // Euro-IX scene replicated ×10 via `world_scale`, membership density
    // raised past 10⁵ member interfaces) built and drained under its
    // default memory budget. Quick mode shrinks the same recipe so CI can
    // smoke the code path; committed BENCH numbers come from a full run.
    // One repetition per row: like the sharded-world section, this
    // measures scale behavior, not run-to-run noise.
    let prod_cfg = if args.quick {
        let mut c = WorldConfig::production_scale(args.seed);
        c.topology.world_scale = 1.0;
        c.scene.scale = 2.0;
        c
    } else {
        WorldConfig::production_scale(args.seed)
    };
    let prod_budget = Scale::Production.default_memory_budget();
    eprintln!(
        "bench: building production world ({}x topology, {}x members)...",
        prod_cfg.topology.world_scale, prod_cfg.scene.scale
    );
    let t = Instant::now();
    let prod = World::build(&prod_cfg);
    let prod_build_ns = t.elapsed().as_nanos() as f64;
    rows.push(BenchRow {
        name: "production_world_build",
        ops: 1,
        ns_per_op: prod_build_ns,
        events_per_op: 0.0,
    });
    let prod_campaign = Campaign {
        memory_budget_bytes: prod_budget,
        ..Campaign::default_paper()
    };
    // The full probing path — parallel over IXPs, sample collection, the
    // probe planes materialized — inside the byte budget. This is the row
    // that says "a 10⁵-interface world probes end to end".
    let t = Instant::now();
    let prod_probes = prod_campaign.probe_all(&prod);
    let prod_probe_ns = t.elapsed().as_nanos() as f64;
    let prod_peak_rss = rp_obs::peak_rss_bytes();
    let prod_plane_bytes: u64 = prod_probes.iter().map(|(_, p)| p.plane_bytes()).sum();
    drop(prod_probes);
    // Pure drain throughput: every studied IXP's event loop run in turn
    // on the calling thread, the aggregate events/s on a world this size.
    let t = Instant::now();
    let prod_events: u64 = prod
        .studied_ixps()
        .iter()
        .map(|&ixp| prod_campaign.run_ixp(&prod, ixp, false).events)
        .sum();
    rows.push(BenchRow {
        name: "production_drain_1shard",
        ops: 1,
        ns_per_op: t.elapsed().as_nanos() as f64,
        events_per_op: prod_events as f64,
    });
    rows.push(BenchRow {
        name: "production_probe_all",
        ops: 1,
        ns_per_op: prod_probe_ns,
        events_per_op: prod_events as f64,
    });
    let prod_section = serde_json::json!({
        "world_scale": prod_cfg.topology.world_scale,
        "membership_scale": prod_cfg.scene.scale,
        "ases": prod.topology.len(),
        "interfaces": prod.scene.total_interfaces(),
        "approx_bytes": prod.approx_bytes(),
        "peak_rss_bytes": prod_peak_rss,
        "memory_budget_bytes": prod_budget,
        "events_per_campaign": prod_events,
        "probe_plane_bytes": prod_plane_bytes,
    });
    drop(prod);

    // Fork vs rebuild: what the copy-on-write fork machinery buys. Both
    // arms of each pair do the same logical work — the bench asserts
    // their outputs byte-identical right here, so the speedup column can
    // never quietly come from diverging computation.
    use rp_testkit::differential::{
        arms_identical, check_reference, incremental_arm, rebuild_arm, sweep_reference,
    };
    eprintln!("bench: fork vs rebuild ...");
    let visible_delta = ixps.iter().copied().find_map(|ixp| {
        world
            .scene
            .ixp(ixp)
            .members
            .iter()
            .position(|m| m.listing.listed && !m.profile.absent)
            .map(|slot| remote_peering::fork::Delta::RowStale {
                ixp,
                slot: slot as u32,
            })
    });
    let mut fork_section = Vec::new();
    if let Some(delta) = visible_delta {
        // One dirty IXP out of the whole scene: the rebuild arm builds
        // the world again and probes every IXP, the fork arm forks and
        // re-probes only the delta's target.
        let deltas = [delta];
        let parent_probes = campaign.probe_all(&world);
        let t = Instant::now();
        let mut reference = None;
        for _ in 0..reps {
            reference = Some(rebuild_arm(&cfg, &campaign, &deltas));
        }
        let rebuild_ns = t.elapsed().as_nanos() as f64 / reps as f64;
        rows.push(BenchRow {
            name: "fork_rebuild_arm",
            ops: reps,
            ns_per_op: rebuild_ns,
            events_per_op: events as f64,
        });
        let t = Instant::now();
        let mut forked = None;
        for _ in 0..reps {
            forked = Some(incremental_arm(&world, &parent_probes, &campaign, &deltas));
        }
        let incremental_ns = t.elapsed().as_nanos() as f64 / reps as f64;
        rows.push(BenchRow {
            name: "fork_incremental_arm",
            ops: reps,
            ns_per_op: incremental_ns,
            events_per_op: events as f64,
        });
        assert!(
            arms_identical(&reference.expect("reps >= 1"), &forked.expect("reps >= 1")),
            "fork arm diverged from the rebuild arm — the speedup would be meaningless"
        );
        fork_section.push(("probe_1delta", rebuild_ns, incremental_ns));
    }

    // The check harness's faulted arm, reference-rebuilt vs forked. Small
    // trial counts and test scale: the interesting delta is the world
    // handling, not the invariant sweep riding on top of it.
    let check_base = rp_testkit::CheckConfig {
        seed: args.seed,
        fault_trials: 20,
        fuzz_iters: 20,
        scale: Scale::Test,
        shards: 0,
    };
    // Untimed warm pass per arm: the fork path's world memo and the
    // allocator reach steady state, which is what a long-lived process
    // (and `repro serve`) actually runs at. The fork's win here is two
    // world builds out of a run dominated by the invariant sweep, so the
    // pair is timed as a min-of-3 to keep the small delta above the
    // single-run jitter.
    std::hint::black_box(check_reference(&check_base));
    std::hint::black_box(rp_testkit::run_check(&check_base));
    let min_of_3 = |run: &dyn Fn() -> rp_testkit::CheckOutcome| {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let t = Instant::now();
            last = Some(run());
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        (best, last.expect("three runs"))
    };
    let (check_rebuild_ns, check_ref) = min_of_3(&|| check_reference(&check_base));
    rows.push(BenchRow {
        name: "check_reference_rebuild",
        ops: 3,
        ns_per_op: check_rebuild_ns,
        events_per_op: 0.0,
    });
    let (check_fork_ns, check_fork) = min_of_3(&|| rp_testkit::run_check(&check_base));
    rows.push(BenchRow {
        name: "check_fork",
        ops: 3,
        ns_per_op: check_fork_ns,
        events_per_op: 0.0,
    });
    assert_eq!(
        serde_json::to_string(&check_ref.to_json()).expect("render check report"),
        serde_json::to_string(&check_fork.to_json()).expect("render check report"),
        "check artifacts diverged between fork and rebuild"
    );
    fork_section.push(("check", check_rebuild_ns, check_fork_ns));

    // A method-axis sweep, testkit's uncached reference arm vs the
    // memoized production path: cells that differ only in method
    // parameters share one memoized build + probe.
    let sweep_spec = rp_scenario::ScenarioSpec::preset("smoke").expect("smoke preset exists");
    let sweep_base = rp_scenario::SweepConfig {
        replicates: 2,
        ..rp_scenario::SweepConfig::test_default(args.seed)
    };
    std::hint::black_box(sweep_reference(&sweep_spec, &sweep_base));
    std::hint::black_box(rp_scenario::run_sweep(&sweep_spec, &sweep_base));
    let t = Instant::now();
    let sweep_rebuilt = sweep_reference(&sweep_spec, &sweep_base);
    let sweep_rebuild_ns = t.elapsed().as_nanos() as f64;
    rows.push(BenchRow {
        name: "sweep_probe_rebuild",
        ops: 1,
        ns_per_op: sweep_rebuild_ns,
        events_per_op: 0.0,
    });
    let t = Instant::now();
    let sweep_reused = rp_scenario::run_sweep(&sweep_spec, &sweep_base);
    let sweep_reuse_ns = t.elapsed().as_nanos() as f64;
    rows.push(BenchRow {
        name: "sweep_probe_reuse",
        ops: 1,
        ns_per_op: sweep_reuse_ns,
        events_per_op: 0.0,
    });
    assert_eq!(
        serde_json::to_string(&sweep_rebuilt).expect("render sweep"),
        serde_json::to_string(&sweep_reused).expect("render sweep"),
        "sweep artifacts diverged between rebuild and reuse"
    );
    fork_section.push(("sweep_smoke", sweep_rebuild_ns, sweep_reuse_ns));

    println!("==== bench {}", "=".repeat(55));
    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "benchmark", "ops", "ns/op", "events/sec"
    );
    for row in &rows {
        println!(
            "{:<22} {:>10} {:>14.1} {:>16.0}",
            row.name,
            row.ops,
            row.ns_per_op,
            row.events_per_sec()
        );
    }

    let bench_values: Vec<serde_json::Value> = rows
        .iter()
        .map(|row| {
            serde_json::json!({
                "name": row.name,
                "ops": row.ops,
                "ns_per_op": row.ns_per_op,
                "events_per_op": row.events_per_op,
                "events_per_sec": row.events_per_sec(),
            })
        })
        .collect();
    let out = serde_json::json!({
        "schema": "rp-bench/1",
        "seed": args.seed,
        "scale": args.scale,
        "quick": args.quick,
        "threads": rayon::current_num_threads(),
        "total_events_per_campaign": events,
        "sharded_world": {
            "world_scale": wscale,
            "interfaces": big.scene.total_interfaces(),
            "events_per_campaign": big_events,
        },
        "production_world": prod_section,
        // Each pair was asserted byte-identical above, so `speedup` is a
        // pure performance delta, never a semantic one.
        "fork_vs_rebuild": serde_json::Value::Object(
            fork_section
                .iter()
                .map(|(name, rebuild_ns, fork_ns)| {
                    (
                        name.to_string(),
                        serde_json::json!({
                            "rebuild_ns": rebuild_ns,
                            "fork_ns": fork_ns,
                            "speedup": rebuild_ns / fork_ns,
                            "byte_identical": true,
                        }),
                    )
                })
                .collect(),
        ),
        "benches": bench_values,
    });
    let path = args.out.join("bench.json");
    write_output(
        &path,
        &serde_json::to_string_pretty(&out).expect("serialize bench output"),
    );
    eprintln!("bench results: {}", path.display());
    (Vec::new(), true)
}

/// The job `check`, `sweep` or `job` runs: built from flags, from a sweep
/// spec file or preset, or read from a job-spec file.
fn job_spec(args: &Args) -> rp_server::JobSpec {
    use rp_server::JobSpec;
    match args.experiment.as_str() {
        "check" => JobSpec::Check(rp_testkit::CheckConfig {
            seed: args.seed,
            fault_trials: args.faults.unwrap_or(200),
            fuzz_iters: args.fuzz.unwrap_or(500),
            scale: args.scale(),
            shards: 0,
        }),
        "sweep" => JobSpec::Sweep {
            spec: resolve_spec(args.operand()),
            seed: args.seed,
            scale: args.scale(),
            replicates: args.replicates,
            shards: 0,
        },
        _ => {
            let path = args.operand();
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
            let value: Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(format_args!("{path}: JSON parse error: {e:?}")));
            JobSpec::parse(&value).unwrap_or_else(|e| fail(format_args!("{path}: {e}")))
        }
    }
}

/// The `check`, `sweep` and `job` subcommands: run one job exactly as a
/// `repro serve` worker would (`rp_server::run_job` — which is what keeps
/// served artifacts byte-identical to CLI ones), print its digest, and
/// write its artifact under `--out`. `check` runs the `rp-testkit`
/// harness and fails when an invariant is violated or a parser panics.
/// The report section is named after the job kind and holds its document.
fn run_job_command(args: &Args) -> Outcome {
    let spec = job_spec(args);
    let t0 = Instant::now();
    eprintln!("{} job {}...", spec.kind(), spec.id());
    let result = rp_server::run_job(&spec);
    eprintln!("  done [{:.1?}]", t0.elapsed());

    print!("{}", result.digest);
    let path = args.out.join(result.artifact_rel_path());
    write_output(&path, &result.artifact);
    eprintln!("{} result: {}", result.kind, path.display());
    (vec![(result.kind.to_string(), result.doc)], result.passed)
}

/// The `profile` subcommand: run one experiment with the sampling profiler
/// armed, write the collapsed-stack profile (flamegraph-ready), and print
/// the hottest span paths. Wall-clock by nature — the profile is *not* a
/// determinism-gated artifact.
fn run_profile_command(args: &Args) -> Outcome {
    let target = args.operand();
    let profiler = rp_obs::profile::start();
    let sections = run_experiments(args, target);
    let profile = profiler.stop();

    let path = args.out.join("profile.folded");
    write_output(&path, &profile.collapsed());
    eprintln!("profile: {}", path.display());

    println!("==== profile:{target} {}", "=".repeat(48));
    println!(
        "{} samples at {:?}",
        profile.total_samples,
        rp_obs::profile::SAMPLE_INTERVAL
    );
    for (stack, n) in profile.top(10) {
        let pct = 100.0 * n as f64 / profile.total_samples.max(1) as f64;
        println!("{pct:6.2}%  {n:>8}  {stack}");
    }
    (sections, true)
}

/// The `serve` subcommand: bind the job service and run until SIGTERM,
/// SIGINT, or `POST /v1/shutdown`, then drain — finish every accepted
/// job, flush artifacts under `--out`, and return so the process exits 0.
fn run_serve_command(args: &Args) -> Outcome {
    let cfg = rp_server::ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_capacity: args.queue_cap,
        pool_bytes: args.pool_bytes,
        results_dir: Some(args.out.clone()),
        ..rp_server::ServeConfig::default()
    };
    let server = rp_server::Server::bind(cfg)
        .unwrap_or_else(|e| fail(format_args!("cannot bind {}: {e}", args.addr)));
    // The e2e drain test and CI parse this line for the resolved address.
    eprintln!("serving on {}", server.local_addr());
    eprintln!(
        "  {} workers, queue cap {}, results under {}",
        args.workers,
        args.queue_cap,
        args.out.display()
    );
    let stats = server.run_until_signal();
    eprintln!(
        "drained: {} done, {} failed, {} cancelled",
        stats.done, stats.failed, stats.cancelled
    );
    (Vec::new(), true)
}

fn main() {
    let args = parse_args();
    // One observability session for every subcommand: opened here, closed
    // once below, so every sink sees the whole run.
    let session = rp_obs::Session::open(args.sinks.clone()).unwrap_or_else(|e| fail(e));
    // Results are bit-identical at any thread count (per-IXP seeding plus
    // order-preserving collection); --threads only trades wall-clock time.
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build_global()
        .expect("install global thread pool");
    eprintln!("worker threads: {}", rayon::current_num_threads());

    let mut sections = vec![(
        "meta".to_string(),
        json!({
            "experiment": args.experiment,
            "seed": args.seed,
            "scale": args.scale,
            "threads": rayon::current_num_threads(),
            "out_dir": args.out.display().to_string(),
        }),
    )];
    let (own, passed) = match args.experiment.as_str() {
        "check" | "sweep" | "job" => run_job_command(&args),
        "bench" => run_bench_command(&args),
        "profile" => run_profile_command(&args),
        "serve" => run_serve_command(&args),
        experiment => (run_experiments(&args, experiment), true),
    };
    sections.extend(own);
    // Every span has closed, so the session's snapshot sees the whole run.
    session.close(sections).unwrap_or_else(|e| fail(e));
    if !passed {
        std::process::exit(1);
    }
}
