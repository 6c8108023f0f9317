#![warn(missing_docs)]

//! # rp-obs
//!
//! Observability substrate for the remote-peering reproduction: what the
//! pipeline *did* and how long each part took, without perturbing what it
//! *computed*.
//!
//! Six modules, plus [`peak_rss_bytes`] for measured process memory:
//!
//! - [`mod@span`] — hierarchical spans with monotonic timing. Each thread
//!   accumulates span statistics in a thread-local collector; when the
//!   outermost span on a thread closes, the collector merges into the
//!   process-wide aggregate under one short lock. Worker threads (the
//!   vendored rayon's long-lived pool workers, which start every task
//!   with an empty span stack) attach their spans under an explicit parent
//!   handle ([`span_under`]), so the aggregated tree is identical at every
//!   thread count.
//! - [`metrics`] — a process-wide registry of counters, high-water-mark
//!   gauges, and fixed-bucket histograms. All increments are lock-free
//!   atomics; registration (first use of a name) takes a lock once.
//! - [`timeline`] — series bucketed on *simulation* time, the one
//!   determinism-gated part of the run report.
//! - [`trace`] — streams span and data-plane events to JSONL and Chrome
//!   trace-event files as they happen.
//! - [`report`] — the observability [`Session`]: one [`Sink`] list (span
//!   tree on stderr, run report, JSONL, Chrome trace) opened once and
//!   closed once from a single snapshot of the collectors, plus the
//!   `/metrics` and progress views `repro serve` answers with.
//! - [`profile`] — a sampling profiler over the live span stacks,
//!   emitting collapsed (flamegraph-ready) stacks.
//!
//! ## Cost model
//!
//! Everything is gated on a single process-wide flag ([`enabled`], one
//! relaxed atomic load). While disabled — the default — [`span()`] returns an
//! inert guard, counters skip their atomic write, and histograms skip the
//! bucket scan, so instrumented code paths cost one load and one branch.
//! The rpbench harness measures the enabled overhead as
//! `trace.overhead_ms`: a traced op's median minus the untraced one's.
//!
//! ## Determinism contract
//!
//! Instrumentation must never feed back into results: it draws no random
//! numbers, allocates no ids the simulation can see, and only ever *reads*
//! pipeline state. `tests/parallel_determinism.rs` pins this down by
//! asserting instrumented and uninstrumented runs produce identical
//! results, and `tests/report_schema.rs` asserts the emitted `results/*.json`
//! files are byte-identical with and without `--report`.
//!
//! ## Naming convention
//!
//! Metric and span names follow `<crate>.<subsystem>.<name>`, e.g.
//! `core.offload.cone_cache.hits` or `netsim.sim.events_processed`.

use std::sync::atomic::{AtomicBool, Ordering};

pub mod metrics;
pub mod profile;
pub mod report;
pub mod span;
pub mod timeline;
pub mod trace;

pub use report::{Session, Sink};
pub use span::{span, span_under, SpanGuard, SpanPath};
pub use timeline::{RateRegister, TimelineRecorder};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is collection on? One relaxed load; the gate for every collector.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on (idempotent). Fixes the monotonic time origin on
/// first call so span offsets are comparable across threads.
pub fn enable() {
    span::init_origin();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn collection off (idempotent). Open spans still record on close, so
/// disabling mid-span loses nothing already started.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clear all aggregated spans and zero every registered metric. Intended
/// for tests; collectors on *other* threads that have not yet flushed are
/// not reachable and keep their local state.
pub fn reset() {
    span::reset();
    metrics::reset();
    timeline::reset();
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`; `None` where that file does not exist (off Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// `VmHWM` in bytes from the text of a `/proc/<pid>/status` file.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = line.split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    if parts.next()? != "kB" {
        return None;
    }
    kb.checked_mul(1024)
}

/// Resolve (or register) a counter by name, caching the handle per call
/// site so the hot path is one `OnceLock` load.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Resolve (or register) a high-water-mark gauge by name, caching the
/// handle per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Resolve (or register) a fixed-bucket histogram by name, caching the
/// handle per call site. `$bounds` picks the bucket scale (see
/// [`metrics::RTT_MS_BUCKETS`] and [`metrics::DURATION_US_BUCKETS`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::metrics::histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status = "Name:\trepro\nVmPeak:\t  999999 kB\nVmHWM:\t   204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(204_800 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t1024 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
    }
}
