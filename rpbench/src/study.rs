//! `paper_study` and `dense_sharded`: the paper's whole study, in process.
//!
//! One op is `PreparedRun::probe(world.clone(), &campaign)` followed by
//! `RunMetrics::collect`: LG probing at the 22 studied IXPs, the six
//! filters, classification, offload top-5 and the eq. 14 margin. The world
//! is built in set-up. Every op's `RunMetrics` (as `f64::to_bits`) must
//! equal the first op's; in the traced run so must its netsim event total.

use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use crate::{print_settings, summarize, v, Args, Outcome, Value, THREADS};
use remote_peering::metrics::{filtered_analysis, MethodParams, PreparedRun, RunMetrics};
use remote_peering::{Campaign, OffloadStudy, World, WorldConfig};
use rp_obs::span::SpanNode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One study workload's settings.
pub struct StudyWorkload {
    /// `SceneConfig::scale`: IXP membership density (1.0 = the paper's).
    density: f64,
    /// `Campaign::shards` (0 = one per fabric site, capped at cores).
    shards: usize,
    /// `Campaign::memory_budget_bytes`.
    budget: Option<u64>,
    /// Rayon width of the timed studies.
    threads: usize,
    /// Also check the result against an untimed single-shard, unbudgeted
    /// study of the same world.
    reference: bool,
}

/// Why: the single-shard event loop and the ARP flood do almost all the
/// work (~5.7M events per study; AMS-IX alone is about a third of it). It
/// bypasses sharding, the memo, forks and the server, so a change to those
/// should leave it unmoved.
pub const PAPER_STUDY: StudyWorkload = StudyWorkload {
    density: 1.0,
    shards: 1,
    budget: None,
    threads: THREADS,
    reference: false,
};

/// Why: the only workload that exercises the epoch-barrier data plane and
/// memory-budget chunking. Doubling membership density (~18k interfaces,
/// ~2.0k events per listed interface against ~1.2k on `paper_study`) shows
/// how the L·M² ARP flood grows with membership. The 64 MiB budget splits
/// `probe_all` into chunks and hands each shard a budget slice, as
/// production's 1 GiB budget does at 10^5 interfaces.
///
/// The timed studies run on one thread. At two, every large window of the
/// multi-site IXPs spawns its own shard threads, and on a shared two-vCPU
/// VM the per-op peak RSS then spread by 20% across ten seeds (5% at one
/// thread), too wide for a regression bound. The traced run still times
/// the multi-site IXPs' parallel shard drain at two threads
/// (`core.campaign.multisite_ms`).
pub const DENSE_SHARDED: StudyWorkload = StudyWorkload {
    density: 2.0,
    shards: 0,
    budget: Some(64 << 20),
    threads: 1,
    reference: true,
};

/// World builds in set-up; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
/// Repetitions behind each analysis-layer timing in the traced run.
const LAYER_REPS: usize = 5;

fn bits(m: &RunMetrics) -> Vec<u64> {
    m.named().iter().map(|(_, v)| v.to_bits()).collect()
}

fn events_counter() -> u64 {
    rp_obs::metrics::counter("netsim.sim.events_processed").get()
}

/// Timed ops of one phase.
struct Phase {
    /// Per-op wall time, ms; `f64::INFINITY` for a failed op.
    samples: Vec<f64>,
    /// Per-op peak RSS of the process, MiB.
    rss_mb: Vec<f64>,
    failed: u64,
    elapsed_s: f64,
    /// Output of the first successful op.
    first: Option<(Vec<u64>, RunMetrics, Option<u64>)>,
    last_run: Option<PreparedRun>,
}

/// Run study ops back to back until `seconds` have passed. With `traced`,
/// each op's netsim event total is read from the rp-obs counter and
/// checked too.
fn timed_ops(
    world: &World,
    campaign: &Campaign,
    params: &MethodParams,
    seconds: f64,
    traced: bool,
    expect: Option<&[u64]>,
) -> Phase {
    let mut phase = Phase {
        samples: Vec::new(),
        rss_mb: Vec::new(),
        failed: 0,
        elapsed_s: 0.0,
        first: None,
        last_run: None,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let events_before = events_counter();
        reset_peak_rss(None);
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let run = PreparedRun::probe(world.clone(), campaign);
            let metrics = RunMetrics::collect(&run, params);
            (run, metrics)
        }));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        phase.rss_mb.extend(peak_rss_mb(None));
        let events = traced.then(|| events_counter() - events_before);
        let ok = match result {
            Ok((run, metrics)) => {
                let b = bits(&metrics);
                let ok = match (&phase.first, expect) {
                    (Some((first, _, first_events)), _) => *first == b && *first_events == events,
                    (None, Some(want)) => want == b.as_slice(),
                    (None, None) => true,
                };
                if phase.first.is_none() && ok {
                    phase.first = Some((b, metrics, events));
                }
                phase.last_run = Some(run);
                ok
            }
            Err(_) => false,
        };
        if ok {
            phase.samples.push(ms);
        } else {
            eprintln!(
                "study op {} produced a different result",
                phase.samples.len()
            );
            phase.samples.push(f64::INFINITY);
            phase.failed += 1;
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Every node called `name` anywhere in the span forest.
fn find<'a>(nodes: &'a [SpanNode], name: &str, out: &mut Vec<&'a SpanNode>) {
    for n in nodes {
        if n.name == name {
            out.push(n);
        }
        find(&n.children, name, out);
    }
}

/// Total busy ms of every span called `name`, and their close count.
fn span_total(tree: &[SpanNode], name: &str) -> (f64, u64) {
    let mut hits = Vec::new();
    find(tree, name, &mut hits);
    let ns: u64 = hits.iter().map(|n| n.total_ns).sum();
    (ns as f64 / 1e6, hits.iter().map(|n| n.count).sum())
}

/// Mean ms per close of the span called `name`.
fn span_mean_ms(tree: &[SpanNode], name: &str) -> f64 {
    let (ms, count) = span_total(tree, name);
    ms / count.max(1) as f64
}

fn metric_value(name: &str) -> u64 {
    rp_obs::metrics::snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| match v {
            rp_obs::metrics::MetricValue::Counter(c) | rp_obs::metrics::MetricValue::Gauge(c) => c,
            rp_obs::metrics::MetricValue::Histogram { count, .. } => count,
        })
}

fn time_reps<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Filters, offload and whole-analysis timings on one prepared run, from
/// the benchmark's side of the calls. Shared with `serve_mix`, which
/// times them on a test-scale world.
pub fn analysis_layers(run: &PreparedRun, params: &MethodParams, out: &mut Vec<Value>) {
    let analyze_ms = time_reps(|| filtered_analysis(&run.world, &run.probed, &params.filters));
    let offload_ms = time_reps(|| OffloadStudy::new(&run.world).single_ixp_ranking());
    let collect_ms = time_reps(|| RunMetrics::collect(run, params));
    let probed: usize = run.probed.iter().map(|(_, p)| p.len()).sum();
    let analyzed = RunMetrics::collect(run, params).analyzed;
    out.extend([
        v("core.filters.analyze_ms", analyze_ms, LAYER_REPS),
        v(
            "core.filters.kept_ratio",
            analyzed / probed.max(1) as f64,
            1,
        ),
        v("core.metrics.collect_ms", collect_ms, LAYER_REPS),
        v("core.offload.study_ms", offload_ms, LAYER_REPS),
    ]);
}

/// World-layer timings from the spans of the builds in `tree`.
pub fn world_layers(tree: &[SpanNode], world: &World, out: &mut Vec<Value>) {
    let builds = span_total(tree, "core.world.build").1 as usize;
    for (metric, span) in [
        ("core.world.build_ms", "core.world.build"),
        ("topology.generate_ms", "topology.generate"),
        ("ixp.build_scene_ms", "ixp.build_scene"),
        ("ixp.registry_crawl_ms", "ixp.registry.crawl"),
        ("bgp.routing_view_ms", "bgp.routing_view"),
        ("traffic.contributions_ms", "traffic.contributions"),
    ] {
        out.push(v(metric, span_mean_ms(tree, span), builds));
    }
    out.push(v(
        "core.world.approx_mb",
        world.approx_bytes() as f64 / f64::from(1 << 20),
        1,
    ));
}

fn pin_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("pin the rayon width");
}

pub fn run(w: &StudyWorkload, args: &Args) -> Outcome {
    pin_threads(w.threads);
    let mut cfg = WorldConfig::paper_scale(args.seed);
    cfg.scene.scale = w.density;
    let campaign = Campaign {
        shards: w.shards,
        memory_budget_bytes: w.budget,
        ..Campaign::default_paper()
    };
    let params = MethodParams::default();
    print_settings(
        args,
        &[
            (
                "world",
                format!("paper scale, scene.scale (density) {}", w.density),
            ),
            ("campaign.shards", w.shards.to_string()),
            (
                "campaign.memory_budget_bytes",
                w.budget.map_or("none".to_string(), |b| b.to_string()),
            ),
        ],
    );

    if args.trace {
        rp_obs::enable();
    }
    let mut builds = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_BUILDS {
        drop(world.take());
        let t = Instant::now();
        world = Some(World::build(&cfg));
        builds.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up build");
    let listed: usize = world
        .scene
        .studied()
        .map(|x| x.members.iter().filter(|m| m.listing.listed).count())
        .sum();
    println!(
        "world: {} interfaces, {listed} listed at {} studied IXPs",
        world
            .scene
            .ixps
            .iter()
            .map(|x| x.members.len())
            .sum::<usize>(),
        world.studied_ixps().len()
    );

    let mut values = Vec::new();
    let (phase, traced) = if args.trace {
        world_layers(&rp_obs::span::snapshot_tree(), &world, &mut values);
        // Tracing overhead: the first half of the time untraced, the
        // second half traced, on the same world.
        rp_obs::disable();
        let plain = timed_ops(&world, &campaign, &params, args.seconds / 2.0, false, None);
        let want = plain.first.as_ref().map(|f| f.0.clone());
        rp_obs::reset();
        rp_obs::enable();
        let traced = timed_ops(
            &world,
            &campaign,
            &params,
            args.seconds / 2.0,
            true,
            want.as_deref(),
        );
        (plain, Some(traced))
    } else {
        (
            timed_ops(&world, &campaign, &params, args.seconds, false, None),
            None,
        )
    };
    let mut failed = phase.failed + traced.as_ref().map_or(0, |t| t.failed);
    let mut attempted =
        (phase.samples.len() + traced.as_ref().map_or(0, |t| t.samples.len())) as u64;

    if let Some(t) = &traced {
        let tree = rp_obs::span::snapshot_tree();
        let ops = t.samples.len().max(1) as f64;
        let n = t.samples.len();
        let per_op = |name: &str| metric_value(name) as f64 / ops;
        let (run_ms, _) = span_total(&tree, "netsim.run");
        let (probe_ixp_ms, _) = span_total(&tree, "core.campaign.probe_ixp");
        let events = per_op("netsim.sim.events_processed");
        let ifaces = per_op("core.campaign.interfaces_probed");
        values.extend([
            v(
                "core.campaign.probe_all_ms",
                span_mean_ms(&tree, "core.campaign.probe_all"),
                n,
            ),
            v(
                "core.campaign.materialize_ms",
                (probe_ixp_ms - run_ms) / ops,
                n,
            ),
            v(
                "core.plane_mb",
                metric_value("core.plane_bytes") as f64 / f64::from(1 << 20),
                n,
            ),
            v("netsim.run_ms", run_ms / ops, n),
            v("netsim.events", events, n),
            v("netsim.events_per_iface", events / ifaces.max(1.0), n),
            v("netsim.events_per_s", events / (run_ms / ops / 1e3), n),
            v("netsim.shard.barriers", per_op("netsim.shard.barriers"), n),
            v("netsim.shard.handoffs", per_op("netsim.shard.handoffs"), n),
            v(
                "netsim.shard.barrier_wait_ms",
                per_op("netsim.shard.barrier_wait_ns") / 1e6,
                n,
            ),
            v(
                "netsim.shard.capacity_evictions",
                per_op("netsim.shard.capacity_evictions"),
                n,
            ),
            v(
                "netsim.shard.arena_mb",
                metric_value("netsim.shard.arena_bytes") as f64 / f64::from(1 << 20),
                n,
            ),
        ]);
        rp_obs::disable();

        // Per-IXP probes at two threads, timed from outside: the largest
        // IXP is the critical path under two threads; the multi-site IXPs
        // are the ones a shard count above one splits, and drains in
        // parallel.
        pin_threads(THREADS);
        let mut max_ms: f64 = 0.0;
        let mut multisite_ms = 0.0;
        let mut multisite = Vec::new();
        for inst in world.scene.studied() {
            let t = Instant::now();
            std::hint::black_box(campaign.probe_ixp(&world, inst.id));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            max_ms = max_ms.max(ms);
            if inst.sites.len() > 1 {
                multisite_ms += ms;
                multisite.push(inst.meta.acronym);
            }
        }
        pin_threads(w.threads);
        println!("multi-site studied IXPs: {}", multisite.join(", "));
        values.extend([
            v("core.campaign.probe_ixp_max_ms", max_ms, 1),
            v("core.campaign.multisite_ms", multisite_ms, 1),
        ]);
        if let Some(run) = &t.last_run {
            analysis_layers(run, &params, &mut values);
        }
        let plain_p50 = median(&phase.samples);
        let traced_p50 = median(&t.samples);
        println!("study p50: untraced {plain_p50:.3} ms, traced {traced_p50:.3} ms");
        values.extend([
            v("trace.op_p50_ms", traced_p50, n),
            v("trace.overhead_ms", traced_p50 - plain_p50, n),
        ]);
    }

    let shown: Vec<String> = phase.samples.iter().map(|ms| format!("{ms:.0}")).collect();
    println!("study ms, in run order: {}", shown.join(" "));
    let mut correct = failed == 0 && phase.first.is_some();
    if let Some((_, metrics, _)) = &phase.first {
        for (k, x) in metrics.named() {
            println!("result {k} = {x}");
        }
        if let Some(e) = traced.as_ref().and_then(|t| t.first.as_ref()?.2) {
            println!("result netsim events per study = {e}");
        }
    }
    if w.reference {
        // The same study on one shard without a budget must give the same
        // bits: sharding and budgeting are pure performance policy.
        let single = Campaign {
            shards: 1,
            memory_budget_bytes: None,
            ..campaign.clone()
        };
        let reference = RunMetrics::collect(&PreparedRun::probe(world.clone(), &single), &params);
        attempted += 1;
        let same = phase
            .first
            .as_ref()
            .is_some_and(|f| f.0 == bits(&reference));
        println!("single-shard unbudgeted reference matches: {same}");
        if !same {
            correct = false;
            failed += 1;
        }
    }

    summarize(
        args.trace,
        &phase.samples,
        &phase.samples,
        phase.elapsed_s,
        &mut values,
    );
    if let Some(t) = &traced {
        let peak = phase
            .rss_mb
            .iter()
            .chain(&t.rss_mb)
            .fold(0.0, |a: f64, &b| a.max(b));
        let n = phase.rss_mb.len() + t.rss_mb.len();
        values.push(v("process.peak_rss_mb", peak, n));
    } else {
        values.extend([
            v("setup_s", median(&builds), builds.len()),
            v("peak_rss_mb", median(&phase.rss_mb), phase.rss_mb.len()),
        ]);
    }
    Outcome {
        correct,
        attempted,
        failed,
        values,
    }
}
