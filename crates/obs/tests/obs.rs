//! Unit/integration tests for the observability substrate.
//!
//! Tests share the process-wide registry and enable flag, so every test
//! body runs under one lock and starts from `rp_obs::reset()`.

use rp_obs::metrics::{self, MetricValue, RTT_MS_BUCKETS};
use rp_obs::{counter, gauge, histogram, span, span_under};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    rp_obs::enable();
    rp_obs::reset();
    guard
}

fn find<'a>(tree: &'a [rp_obs::span::SpanNode], name: &str) -> &'a rp_obs::span::SpanNode {
    tree.iter()
        .find(|n| n.name == name)
        .unwrap_or_else(|| panic!("span {name} not in tree"))
}

#[test]
fn spans_nest_and_aggregate_by_path() {
    let _g = serial();
    {
        let _root = span("root");
        for _ in 0..3 {
            let _child = span("child");
        }
    }
    let tree = rp_obs::span::snapshot_tree();
    let root = find(&tree, "root");
    assert_eq!(root.count, 1);
    assert_eq!(root.children.len(), 1);
    let child = &root.children[0];
    assert_eq!(child.name, "child");
    assert_eq!(child.count, 3);
    assert!(child.window_ns <= root.window_ns);
    assert!(root.total_ns >= child.total_ns);
    assert_eq!(root.self_ns, root.total_ns - child.total_ns);
}

#[test]
fn span_under_parents_across_threads() {
    let _g = serial();
    {
        let parent = span("parallel_root");
        let path = parent.path();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = path.clone();
                s.spawn(move || {
                    let _w = span_under(&p, "worker");
                });
            }
        });
    }
    let tree = rp_obs::span::snapshot_tree();
    let root = find(&tree, "parallel_root");
    let worker = &root.children[0];
    assert_eq!(worker.name, "worker");
    assert_eq!(worker.count, 4);
    // Scoped workers join before the parent closes, so their aggregated
    // wall-clock window nests inside the parent's.
    assert!(worker.first_start_ns >= root.first_start_ns);
    assert!(worker.window_ns <= root.window_ns);
}

#[test]
fn span_under_nests_naturally_on_same_thread() {
    let _g = serial();
    {
        let parent = span("serial_root");
        let path = parent.path();
        // Same thread, stack non-empty: the explicit parent is redundant
        // and the span must land at the identical path.
        let _w = span_under(&path, "worker");
    }
    let tree = rp_obs::span::snapshot_tree();
    let root = find(&tree, "serial_root");
    assert_eq!(root.children.len(), 1);
    assert_eq!(root.children[0].name, "worker");
}

#[test]
fn disabled_spans_record_nothing() {
    let _g = serial();
    rp_obs::disable();
    {
        let _root = span("invisible");
    }
    rp_obs::enable();
    assert!(rp_obs::span::snapshot_tree().is_empty());
}

#[test]
fn counters_gauges_histograms_register_and_count() {
    let _g = serial();
    counter!("test.obs.hits").add(5);
    counter!("test.obs.hits").inc();
    gauge!("test.obs.depth").record_max(3);
    gauge!("test.obs.depth").record_max(9);
    gauge!("test.obs.depth").record_max(7);
    let h = histogram!("test.obs.rtt_ms", RTT_MS_BUCKETS);
    h.observe(0.3);
    h.observe(12.0);
    h.observe(5000.0); // overflow bucket

    let snap = metrics::snapshot();
    let get = |name: &str| {
        snap.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("metric {name} not registered"))
    };
    assert!(matches!(get("test.obs.hits"), MetricValue::Counter(6)));
    assert!(matches!(get("test.obs.depth"), MetricValue::Gauge(9)));
    match get("test.obs.rtt_ms") {
        MetricValue::Histogram {
            bounds,
            buckets,
            count,
            sum,
        } => {
            assert_eq!(bounds, RTT_MS_BUCKETS);
            assert_eq!(buckets.len(), RTT_MS_BUCKETS.len() + 1);
            assert_eq!(count, 3);
            assert_eq!(buckets[0], 1); // 0.3 ≤ 0.5
            assert_eq!(*buckets.last().unwrap(), 1); // 5000 overflows
            assert!((sum - 5012.3).abs() < 0.01);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn disabled_metrics_do_not_move() {
    let _g = serial();
    rp_obs::disable();
    counter!("test.obs.frozen").add(100);
    gauge!("test.obs.frozen_gauge").record_max(100);
    histogram!("test.obs.frozen_hist", RTT_MS_BUCKETS).observe(1.0);
    rp_obs::enable();
    assert_eq!(counter!("test.obs.frozen").get(), 0);
    assert_eq!(gauge!("test.obs.frozen_gauge").get(), 0);
    assert_eq!(
        histogram!("test.obs.frozen_hist", RTT_MS_BUCKETS).count(),
        0
    );
}

#[test]
fn report_document_has_spans_and_metrics() {
    let _g = serial();
    {
        let _root = span("report_root");
        counter!("test.obs.report_counter").inc();
    }
    let path = std::env::temp_dir().join(format!("rp_obs_report_{}.json", std::process::id()));
    let session = rp_obs::Session::open(vec![rp_obs::Sink::Report(path.clone())]).unwrap();
    session
        .close(vec![(
            "meta".to_string(),
            serde_json::json!({"seed": 42u64}),
        )])
        .expect("report written");
    let text = std::fs::read_to_string(&path).expect("report file");
    let _ = std::fs::remove_file(&path);
    let back = serde_json::from_str(&text).expect("report round-trips");
    let keys: Vec<&str> = match &back {
        serde_json::Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("report is not an object: {other:?}"),
    };
    assert_eq!(keys, ["meta", "spans", "metrics"], "caller sections first");
    assert_eq!(
        back.get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(|s| s.as_u64()),
        Some(42)
    );
    let spans = back.get("spans").and_then(|s| s.as_array()).unwrap();
    assert!(spans
        .iter()
        .any(|n| n.get("name").and_then(|v| v.as_str()) == Some("report_root")));
    let metrics = back.get("metrics").unwrap();
    assert_eq!(
        metrics
            .get("test.obs.report_counter")
            .and_then(|c| c.get("value"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
}

#[test]
fn progress_snapshot_agrees_with_metrics_json() {
    let _g = serial();
    for _ in 0..3 {
        counter!("test.obs.progress_a").inc();
    }
    counter!("test.obs.progress_b").add(7);
    {
        let _root = span("progress_root");
        let _child = span("progress_child");
    }
    let progress = rp_obs::report::progress_snapshot();
    let metrics = rp_obs::report::metrics_json();
    let counters = progress.get("counters").expect("counters");
    for name in ["test.obs.progress_a", "test.obs.progress_b"] {
        assert_eq!(
            counters.get(name).and_then(|v| v.as_u64()),
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_u64()),
            "{name}"
        );
    }
    assert_eq!(
        counters.get("test.obs.progress_a").and_then(|v| v.as_u64()),
        Some(3)
    );
    let spans = progress.get("spans").and_then(|s| s.as_array()).unwrap();
    let root = spans
        .iter()
        .find(|n| n.get("name").and_then(|v| v.as_str()) == Some("progress_root"))
        .expect("closed root listed");
    assert_eq!(root.get("count").and_then(|v| v.as_u64()), Some(1));
}

#[test]
fn metrics_md_matches_catalog() {
    // METRICS.md embeds the generated catalog table between markers; this
    // pins doc <-> catalog, and `assert_cataloged` (a hard panic at
    // registration) pins catalog <-> live registry — so the doc cannot
    // drift from what the code records.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md");
    let text = std::fs::read_to_string(path).expect("METRICS.md at the repository root");
    let begin = "<!-- BEGIN GENERATED: metrics catalog -->\n";
    let end = "<!-- END GENERATED: metrics catalog -->";
    let start = text.find(begin).expect("BEGIN GENERATED marker") + begin.len();
    let stop = text[start..].find(end).expect("END GENERATED marker") + start;
    assert_eq!(
        &text[start..stop],
        rp_obs::metrics::catalog_markdown(),
        "METRICS.md is stale: paste the output of \
         rp_obs::metrics::catalog_markdown() between its markers"
    );
}
