//! Process-wide metrics registry: counters, high-water-mark gauges, and
//! fixed-bucket histograms.
//!
//! Handles are `&'static` — registration leaks one small allocation per
//! distinct name (bounded by the instrumentation sites in the codebase) so
//! the hot path touches only lock-free atomics. Names follow the
//! `<crate>.<subsystem>.<name>` convention. Use the [`crate::counter!`],
//! [`crate::gauge!`], and [`crate::histogram!`] macros at call sites: they
//! cache the handle in a per-site `OnceLock`, so the registry lock is taken
//! once per site per process.
//!
//! All mutators are gated on [`crate::enabled`]; while collection is off
//! they cost one relaxed load and a branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Histogram bounds for round-trip times in milliseconds (upper edges;
/// values above the last bound land in an overflow bucket).
pub const RTT_MS_BUCKETS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0, 500.0, 1000.0,
];

/// Histogram bounds for span durations in microseconds — 10 µs up to
/// 10 minutes, roughly log-spaced.
pub const DURATION_US_BUCKETS: &[f64] = &[
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    60_000_000.0,
    600_000_000.0,
];

/// Histogram bounds for coarse work units in milliseconds — sweep tasks,
/// world builds, probing campaigns. Spans hundreds of microseconds (a
/// method-only re-analysis) up to tens of minutes (a paper-scale replicate),
/// roughly log-spaced.
pub const TASK_MS_BUCKETS: &[f64] = &[
    1.0,
    5.0,
    20.0,
    100.0,
    500.0,
    2_000.0,
    10_000.0,
    60_000.0,
    300_000.0,
    1_200_000.0,
];

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. A no-op while collection is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A high-water-mark gauge: keeps the maximum of every recorded value.
#[derive(Debug)]
pub struct Gauge {
    max: AtomicU64,
}

impl Gauge {
    /// Raise the high-water mark to `v` if larger. A no-op while
    /// collection is disabled.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if crate::enabled() {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current high-water mark (zero if nothing recorded).
    pub fn get(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram. Bucket `i` counts observations `≤ bounds[i]`
/// (first matching bound); one extra overflow bucket catches the rest.
/// Tracks total count and an approximate sum (milli-units, so fractional
/// RTTs accumulate without floats in the atomic).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_milli: AtomicU64,
}

impl Histogram {
    /// Record one observation. A no-op while collection is disabled.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let milli = if v.is_finite() && v > 0.0 {
            (v * 1_000.0) as u64
        } else {
            0
        };
        self.sum_milli.fetch_add(milli, Ordering::Relaxed);
    }

    /// Upper bucket edges this histogram was registered with.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate sum of observations (milli-unit resolution).
    pub fn sum(&self) -> f64 {
        self.sum_milli.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_milli.store(0, Ordering::Relaxed);
    }
}

/// One documented metric: the source of truth behind `METRICS.md`.
///
/// Every production metric name must appear here with its kind; the
/// registration functions enforce it (names under the `test.` prefix are
/// exempt), and `crates/obs/tests/metrics_doc.rs` asserts `METRICS.md`
/// renders exactly [`catalog_markdown`]. Adding a metric therefore means
/// adding a catalog row and regenerating the doc — the two cannot drift.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// Metric name (`<crate>.<subsystem>.<name>`).
    pub name: &'static str,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Unit / scale of the recorded values.
    pub scale: &'static str,
    /// One-line meaning.
    pub doc: &'static str,
}

/// Every production metric, sorted by name.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        name: "core.campaign.interfaces_probed",
        kind: "counter",
        scale: "interfaces",
        doc: "Listed member interfaces probed across all campaigns",
    },
    CatalogEntry {
        name: "core.campaign.ixps_probed",
        kind: "counter",
        scale: "IXPs",
        doc: "Studied IXPs whose probing campaign ran (22 per full study)",
    },
    CatalogEntry {
        name: "core.campaign.rtt_ms",
        kind: "histogram",
        scale: "ms",
        doc: "Per-probe round-trip times from the vantage looking glasses",
    },
    CatalogEntry {
        name: "core.filters.analyzed",
        kind: "counter",
        scale: "interfaces",
        doc: "Interfaces surviving all six detection filters",
    },
    CatalogEntry {
        name: "core.filters.discard.asn_change",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: interface ASN changed between campaign snapshots",
    },
    CatalogEntry {
        name: "core.filters.discard.lg_consistent",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: looking-glass RTTs disagree beyond the closeness bound",
    },
    CatalogEntry {
        name: "core.filters.discard.rtt_consistent",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: RTT samples inconsistent across the campaign window",
    },
    CatalogEntry {
        name: "core.filters.discard.sample_size",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: too few RTT samples to classify",
    },
    CatalogEntry {
        name: "core.filters.discard.ttl_match",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: reply TTL matches no plausible initial TTL",
    },
    CatalogEntry {
        name: "core.filters.discard.ttl_switch",
        kind: "counter",
        scale: "interfaces",
        doc: "Discards: TTL indicates the reply crossed the IXP switch twice",
    },
    CatalogEntry {
        name: "core.filters.probed",
        kind: "counter",
        scale: "interfaces",
        doc: "Interfaces entering the filter funnel (funnel top)",
    },
    CatalogEntry {
        name: "core.fork.deltas_applied",
        kind: "counter",
        scale: "deltas",
        doc: "Deltas applied to copy-on-write world forks",
    },
    CatalogEntry {
        name: "core.fork.forks",
        kind: "counter",
        scale: "forks",
        doc: "Copy-on-write world forks created",
    },
    CatalogEntry {
        name: "core.fork.probe_recomputed",
        kind: "counter",
        scale: "IXPs",
        doc: "Incremental probes that re-ran an IXP's campaign (dirty or unseeded)",
    },
    CatalogEntry {
        name: "core.fork.probe_reused",
        kind: "counter",
        scale: "IXPs",
        doc: "Incremental probes that reused the fork parent's samples for an IXP",
    },
    CatalogEntry {
        name: "core.memo.probe_hit",
        kind: "counter",
        scale: "lookups",
        doc: "Campaign probe-set memo hits (reused a prior identical campaign)",
    },
    CatalogEntry {
        name: "core.memo.probe_miss",
        kind: "counter",
        scale: "lookups",
        doc: "Campaign probe-set memo misses (campaign actually ran)",
    },
    CatalogEntry {
        name: "core.memo.world_bytes",
        kind: "gauge",
        scale: "bytes",
        doc: "High-water estimated bytes resident in the world pool",
    },
    CatalogEntry {
        name: "core.memo.world_evict",
        kind: "counter",
        scale: "worlds",
        doc: "World-pool entries evicted by the LRU entry/byte bounds",
    },
    CatalogEntry {
        name: "core.memo.world_hit",
        kind: "counter",
        scale: "lookups",
        doc: "World-build memo hits (reused a prior identical world)",
    },
    CatalogEntry {
        name: "core.memo.world_miss",
        kind: "counter",
        scale: "lookups",
        doc: "World-build memo misses (world actually built)",
    },
    CatalogEntry {
        name: "core.offload.cone_cache.hits",
        kind: "counter",
        scale: "lookups",
        doc: "Customer-cone cache hits during offload ranking",
    },
    CatalogEntry {
        name: "core.offload.cone_cache.misses",
        kind: "counter",
        scale: "lookups",
        doc: "Customer-cone cache misses (cone computed from scratch)",
    },
    CatalogEntry {
        name: "core.offload.greedy.reevaluations",
        kind: "counter",
        scale: "evaluations",
        doc: "Lazy-greedy (CELF) marginal-gain reevaluations in greedy_by",
    },
    CatalogEntry {
        name: "core.plane_bytes",
        kind: "gauge",
        scale: "bytes",
        doc: "High-water exact bytes held by a full campaign's probe planes",
    },
    CatalogEntry {
        name: "econ.fit.calls",
        kind: "counter",
        scale: "calls",
        doc: "Exponential-decay fits performed (econ eq. 14 pipeline)",
    },
    CatalogEntry {
        name: "econ.fit.points",
        kind: "counter",
        scale: "points",
        doc: "Data points consumed across all decay fits",
    },
    CatalogEntry {
        name: "netsim.link.queue_depth_hwm",
        kind: "gauge",
        scale: "events",
        doc: "High-water mark of any shard's pending event-queue depth",
    },
    CatalogEntry {
        name: "netsim.shard.arena_bytes",
        kind: "gauge",
        scale: "bytes",
        doc: "High-water exact bytes of any shard's retained frame-arena and event-queue capacity",
    },
    CatalogEntry {
        name: "netsim.shard.barrier_wait_ns",
        kind: "gauge",
        scale: "ns",
        doc: "Worst cumulative wall time a run spent at epoch barriers",
    },
    CatalogEntry {
        name: "netsim.shard.barriers",
        kind: "counter",
        scale: "rounds",
        doc: "Epoch-barrier rounds executed by sharded runs",
    },
    CatalogEntry {
        name: "netsim.shard.capacity_evictions",
        kind: "counter",
        scale: "rounds",
        doc: "Shard shrink rounds that released idle capacity under a memory budget",
    },
    CatalogEntry {
        name: "netsim.shard.count",
        kind: "gauge",
        scale: "shards",
        doc: "Largest shard count any network ran with",
    },
    CatalogEntry {
        name: "netsim.shard.events_max",
        kind: "gauge",
        scale: "events",
        doc: "Largest per-shard event count (load-balance indicator)",
    },
    CatalogEntry {
        name: "netsim.shard.handoffs",
        kind: "counter",
        scale: "frames",
        doc: "Frames handed across shard boundaries at epoch barriers",
    },
    CatalogEntry {
        name: "netsim.sim.events.arp_reply",
        kind: "counter",
        scale: "events",
        doc: "Dispatched events that delivered an ARP reply frame",
    },
    CatalogEntry {
        name: "netsim.sim.events.arp_request",
        kind: "counter",
        scale: "events",
        doc: "Dispatched events that delivered an ARP request frame (sponged toward the owner; unowned targets still flood)",
    },
    CatalogEntry {
        name: "netsim.sim.events.icmp_echo_reply",
        kind: "counter",
        scale: "events",
        doc: "Dispatched events that delivered an IPv4 frame carrying an ICMP echo reply",
    },
    CatalogEntry {
        name: "netsim.sim.events.icmp_echo_request",
        kind: "counter",
        scale: "events",
        doc: "Dispatched events that delivered an IPv4 frame carrying an ICMP echo request (a probe)",
    },
    CatalogEntry {
        name: "netsim.sim.events.icmp_other",
        kind: "counter",
        scale: "events",
        doc: "Dispatched events that delivered any other IPv4 frame (ICMP time exceeded)",
    },
    CatalogEntry {
        name: "netsim.sim.events.timer",
        kind: "counter",
        scale: "events",
        doc: "Dispatched timer events (planned probes and host timeouts)",
    },
    CatalogEntry {
        name: "netsim.sim.events_processed",
        kind: "counter",
        scale: "events",
        doc: "Simulation events dispatched across all networks (the sum of the four netsim.sim.events.* kinds)",
    },
    CatalogEntry {
        name: "netsim.sim.frames_dropped_unconnected",
        kind: "counter",
        scale: "frames",
        doc: "Frames dropped at ports with no attached link",
    },
    CatalogEntry {
        name: "obs.span.duration_us",
        kind: "histogram",
        scale: "µs",
        doc: "Duration of every closed span (all paths pooled)",
    },
    CatalogEntry {
        name: "scenario.cells",
        kind: "counter",
        scale: "cells",
        doc: "Sweep cells expanded from scenario specs",
    },
    CatalogEntry {
        name: "scenario.replicates",
        kind: "counter",
        scale: "replicates",
        doc: "Monte-Carlo replicates requested per sweep",
    },
    CatalogEntry {
        name: "scenario.task_ms",
        kind: "histogram",
        scale: "ms",
        doc: "Wall time of each (world-group × replicate) sweep task",
    },
    CatalogEntry {
        name: "scenario.world_groups",
        kind: "counter",
        scale: "groups",
        doc: "Distinct world configurations a sweep built (cells sharing a world)",
    },
    CatalogEntry {
        name: "server.http.errors",
        kind: "counter",
        scale: "responses",
        doc: "HTTP error responses (status >= 400) returned by repro serve",
    },
    CatalogEntry {
        name: "server.http.requests",
        kind: "counter",
        scale: "requests",
        doc: "HTTP connections handled by repro serve",
    },
    CatalogEntry {
        name: "server.jobs.cancelled",
        kind: "counter",
        scale: "jobs",
        doc: "Queued jobs cancelled before a worker picked them up",
    },
    CatalogEntry {
        name: "server.jobs.completed",
        kind: "counter",
        scale: "jobs",
        doc: "Jobs that ran to completion (state done)",
    },
    CatalogEntry {
        name: "server.jobs.deduped",
        kind: "counter",
        scale: "jobs",
        doc: "Submissions answered by an existing job with the same spec fingerprint",
    },
    CatalogEntry {
        name: "server.jobs.failed",
        kind: "counter",
        scale: "jobs",
        doc: "Jobs whose run panicked or whose result could not be flushed",
    },
    CatalogEntry {
        name: "server.jobs.id_collision",
        kind: "counter",
        scale: "jobs",
        doc: "Submissions whose FNV-64 job id matched an existing job with a different spec (re-id'd with a salted suffix)",
    },
    CatalogEntry {
        name: "server.jobs.rejected",
        kind: "counter",
        scale: "jobs",
        doc: "Submissions refused with 429 because the pending queue was full",
    },
    CatalogEntry {
        name: "server.jobs.run_ms",
        kind: "histogram",
        scale: "ms",
        doc: "Wall time each job spent running on a worker",
    },
    CatalogEntry {
        name: "server.jobs.submitted",
        kind: "counter",
        scale: "jobs",
        doc: "Job submissions accepted into the pending queue",
    },
    CatalogEntry {
        name: "server.queue.depth_hwm",
        kind: "gauge",
        scale: "jobs",
        doc: "High-water mark of the pending-job queue depth",
    },
    CatalogEntry {
        name: "testkit.faults.injected",
        kind: "counter",
        scale: "faults",
        doc: "Faults injected across all faulted check arms",
    },
    CatalogEntry {
        name: "testkit.invariants.checks",
        kind: "counter",
        scale: "checks",
        doc: "Metamorphic invariant trials executed by repro check",
    },
    CatalogEntry {
        name: "testkit.invariants.violations",
        kind: "counter",
        scale: "violations",
        doc: "Invariant trials that failed (nonzero fails the check)",
    },
];

/// The catalog rendered as the markdown table `METRICS.md` embeds
/// between its `BEGIN/END GENERATED` markers.
pub fn catalog_markdown() -> String {
    let mut out = String::from("| name | kind | scale | meaning |\n|---|---|---|---|\n");
    for e in CATALOG {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            e.name, e.kind, e.scale, e.doc
        ));
    }
    out
}

/// Registration gate: every production metric must be cataloged with the
/// right kind so `METRICS.md` cannot drift from the live registry.
/// `test.`-prefixed names (unit-test fixtures) are exempt.
fn assert_cataloged(name: &str, kind: &str) {
    if name.starts_with("test.") {
        return;
    }
    match CATALOG.iter().find(|e| e.name == name) {
        Some(e) if e.kind == kind => {}
        Some(e) => panic!(
            "metric {name} registered as {kind} but cataloged as {} — fix rp_obs::metrics::CATALOG",
            e.kind
        ),
        None => panic!(
            "metric {name} is not in rp_obs::metrics::CATALOG — add an entry and update METRICS.md"
        ),
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Resolve (or register) the counter `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> &'static Counter {
    assert_cataloged(name, "counter");
    let mut reg = registry().lock().expect("metrics registry lock");
    match reg.entry(name).or_insert_with(|| {
        Metric::Counter(Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
        })))
    }) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Resolve (or register) the gauge `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> &'static Gauge {
    assert_cataloged(name, "gauge");
    let mut reg = registry().lock().expect("metrics registry lock");
    match reg.entry(name).or_insert_with(|| {
        Metric::Gauge(Box::leak(Box::new(Gauge {
            max: AtomicU64::new(0),
        })))
    }) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Resolve (or register) the histogram `name` with the given bucket
/// bounds. The bounds of the first registration win.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str, bounds: &'static [f64]) -> &'static Histogram {
    assert_cataloged(name, "histogram");
    let mut reg = registry().lock().expect("metrics registry lock");
    match reg.entry(name).or_insert_with(|| {
        let buckets: Box<[AtomicU64]> = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Metric::Histogram(Box::leak(Box::new(Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_milli: AtomicU64::new(0),
        })))
    }) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The shared histogram every closed span feeds its duration into (µs).
pub fn span_duration_histogram() -> &'static Histogram {
    static CELL: OnceLock<&'static Histogram> = OnceLock::new();
    CELL.get_or_init(|| histogram("obs.span.duration_us", DURATION_US_BUCKETS))
}

/// A point-in-time copy of one registered metric's value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge high-water mark.
    Gauge(u64),
    /// Histogram state: upper bounds, per-bucket counts (last = overflow),
    /// total count, approximate sum.
    Histogram {
        /// Upper bucket edges.
        bounds: &'static [f64],
        /// Per-bucket counts; the last entry is the overflow bucket.
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Approximate sum of observations.
        sum: f64,
    },
}

/// Snapshot every registered metric, sorted by name.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    let reg = registry().lock().expect("metrics registry lock");
    reg.iter()
        .map(|(&name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    bounds: h.bounds(),
                    buckets: h.bucket_counts(),
                    count: h.count(),
                    sum: h.sum(),
                },
            };
            (name, v)
        })
        .collect()
}

/// Zero every registered metric (registrations persist).
pub(crate) fn reset() {
    let reg = registry().lock().expect("metrics registry lock");
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}
