//! The observability session — one sink list, opened once and closed once
//! — and the JSON views of the collectors it and `repro serve` share: the
//! run report, `/metrics`, and the progress snapshot.
//!
//! [`Session::close`] runs after the instrumented work finishes (so every
//! thread-local span collector has flushed), takes one snapshot and
//! feeds every sink from it.

use crate::metrics::{self, MetricValue};
use crate::span::{self, SpanNode};
use crate::trace::{self, Format};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// One observability output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sink {
    /// The human-readable span tree, on stderr (`repro --trace`).
    Tree,
    /// The run report document at a path (`repro --report [PATH]`).
    Report(PathBuf),
    /// The JSONL event stream at a path (`repro --trace-json PATH`).
    Jsonl(PathBuf),
    /// The Chrome trace-event array at a path (`repro --trace-chrome PATH`).
    Chrome(PathBuf),
}

/// An open sink list; [`Session::close`] delivers every sink's output.
#[derive(Debug)]
pub struct Session {
    sinks: Vec<Sink>,
}

impl Session {
    /// Open `sinks`: enable collection if the list is non-empty and open
    /// the streaming sinks (their files are created now). Errors name the
    /// path that could not be written.
    pub fn open(sinks: Vec<Sink>) -> std::io::Result<Session> {
        for sink in &sinks {
            match sink {
                Sink::Jsonl(path) => trace::open(path, Format::Jsonl)?,
                Sink::Chrome(path) => trace::open(path, Format::Chrome)?,
                Sink::Tree | Sink::Report(_) => {}
            }
        }
        if !sinks.is_empty() {
            crate::enable();
        }
        Ok(Session { sinks })
    }

    /// Take one snapshot and feed every sink from it: print the span tree,
    /// write the run report (`sections` in order, then `timelines`,
    /// `spans` and `metrics`), close the streams, and print the `trace:`
    /// summary.
    pub fn close(self, mut sections: Vec<(String, Value)>) -> std::io::Result<()> {
        let snap = Snapshot::take();
        if self.sinks.contains(&Sink::Tree) {
            let mut out = String::new();
            for root in &snap.spans {
                render_node(&mut out, root, 0);
            }
            eprint!("{out}");
        }
        let mut doc = None;
        for sink in &self.sinks {
            if let Sink::Report(path) = sink {
                let doc =
                    doc.get_or_insert_with(|| report_doc(std::mem::take(&mut sections), &snap));
                write_doc(path, doc).map_err(|e| trace::at(path, e))?;
                eprintln!("run report: {}", path.display());
            }
        }
        if let Some((written, dropped)) = trace::close(&snap.metrics)? {
            eprintln!("trace: {written} event(s) written, {dropped} dropped");
        }
        Ok(())
    }
}

/// One point-in-time read of the span tree and every metric.
struct Snapshot {
    spans: Vec<SpanNode>,
    metrics: Vec<(&'static str, MetricValue)>,
}

impl Snapshot {
    fn take() -> Snapshot {
        Snapshot {
            spans: span::snapshot_tree(),
            metrics: metrics::snapshot(),
        }
    }
}

fn report_doc(mut entries: Vec<(String, Value)>, snap: &Snapshot) -> Value {
    if crate::timeline::any() {
        entries.push(("timelines".to_string(), crate::timeline::timelines_json()));
    }
    entries.push((
        "spans".to_string(),
        Value::Array(snap.spans.iter().map(node_json).collect()),
    ));
    entries.push(("metrics".to_string(), metrics_object(&snap.metrics)));
    Value::Object(entries)
}

fn write_doc(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text + "\n")
}

fn node_json(n: &SpanNode) -> Value {
    json!({
        "name": n.name,
        "count": n.count,
        "total_ns": n.total_ns,
        "self_ns": n.self_ns,
        "window_ns": n.window_ns,
        "first_start_ns": n.first_start_ns,
        "children": Value::Array(n.children.iter().map(node_json).collect()),
    })
}

/// One metric as its `/metrics` object (also the `metric` field of a
/// JSONL `metric` record).
pub(crate) fn metric_json(v: &MetricValue) -> Value {
    match v {
        MetricValue::Counter(n) => json!({"type": "counter", "value": n}),
        MetricValue::Gauge(n) => json!({"type": "gauge", "max": n}),
        MetricValue::Histogram {
            bounds,
            buckets,
            count,
            sum,
        } => json!({
            "type": "histogram",
            "bounds": bounds,
            "buckets": buckets,
            "count": count,
            "sum": sum,
        }),
    }
}

fn metrics_object(snap: &[(&'static str, MetricValue)]) -> Value {
    Value::Object(
        snap.iter()
            .map(|(name, v)| (name.to_string(), metric_json(v)))
            .collect(),
    )
}

/// Every registered metric as a JSON object keyed by metric name (what
/// `repro serve` answers on `/metrics`).
pub fn metrics_json() -> Value {
    metrics_object(&metrics::snapshot())
}

/// A live progress snapshot for long-running work, assembled from the
/// metric registry and the flushed span tree.
///
/// Counters and gauges are plain atomics, so their values here move while
/// instrumented work is still running; histograms are summarized to their
/// count and sum. Spans only appear after their root closes (collectors
/// flush at outermost-span exit), so the `spans` section reflects
/// *completed* units of work. The snapshot is process-wide by design —
/// `repro serve` exposes it per job-status request as "what the pipeline
/// has done so far", not as per-job attribution.
pub fn progress_snapshot() -> Value {
    let snap = Snapshot::take();
    let counters = snap
        .metrics
        .iter()
        .map(|(name, v)| {
            let value = match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => json!(n),
                MetricValue::Histogram { count, sum, .. } => json!({"count": count, "sum": sum}),
            };
            (name.to_string(), value)
        })
        .collect();
    let spans: Vec<Value> = snap
        .spans
        .iter()
        .map(|n| json!({"name": n.name, "count": n.count, "total_ns": n.total_ns}))
        .collect();
    json!({"counters": Value::Object(counters), "spans": spans})
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Append `n` and its subtree to the indented `--trace` listing.
fn render_node(out: &mut String, n: &SpanNode, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{}  count={} total={} self={} window={}\n",
        n.name,
        n.count,
        fmt_ns(n.total_ns),
        fmt_ns(n.self_ns),
        fmt_ns(n.window_ns),
    ));
    for c in &n.children {
        render_node(out, c, depth + 1);
    }
}
