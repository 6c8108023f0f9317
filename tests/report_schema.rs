//! Schema and determinism checks for the `repro --report` run report.
//!
//! Drives the real `repro` binary (via `CARGO_BIN_EXE_repro`) at test
//! scale and asserts that (a) the emitted `run_report.json` parses and its
//! span tree is well-formed, (b) the filter funnel balances against the
//! probing metrics, (c) turning the instrumentation on does not change
//! a single byte of the scientific outputs under `results/`, and (d) every
//! subcommand feeds all four sinks.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn repro(out: &Path, extra: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .args(["--scale", "test", "--seed", "42"])
        .args(["--out", out.to_str().unwrap()])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro {extra:?} failed: {status}");
}

/// Byte-compare every `*.json` under `a` against the same name under `b`.
fn assert_outputs_identical(a: &Path, b: &Path, label: &str) -> usize {
    let mut compared = 0;
    for entry in std::fs::read_dir(a).expect("read results dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap();
        // Per-run diagnostics (the run report) are intentionally
        // wall-clock; only the scientific outputs are gated.
        if name == "run_report.json" {
            continue;
        }
        let lhs = std::fs::read(&path).expect("lhs output");
        let rhs = std::fs::read(b.join(name)).expect("rhs output");
        assert_eq!(lhs, rhs, "{} differs ({label})", name.to_string_lossy());
        compared += 1;
    }
    compared
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-report-schema-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Depth-first walk asserting the structural invariants of one span node;
/// returns the set of names seen.
fn check_span(node: &Value, parent_window: u64, names: &mut Vec<String>) {
    let name = node.get("name").and_then(Value::as_str).expect("span name");
    names.push(name.to_string());
    let count = node.get("count").and_then(Value::as_u64).expect("count");
    assert!(count >= 1, "{name}: span recorded zero events");
    let window = node
        .get("window_ns")
        .and_then(Value::as_u64)
        .expect("window_ns");
    let total = node
        .get("total_ns")
        .and_then(Value::as_u64)
        .expect("total_ns");
    let self_ns = node
        .get("self_ns")
        .and_then(Value::as_u64)
        .expect("self_ns");
    assert!(
        window <= parent_window,
        "{name}: child window {window}ns exceeds parent window {parent_window}ns"
    );
    assert!(
        self_ns <= total,
        "{name}: self time {self_ns}ns exceeds total {total}ns"
    );
    for child in node
        .get("children")
        .and_then(Value::as_array)
        .expect("children array")
    {
        check_span(child, window, names);
    }
}

#[test]
fn report_schema_and_outputs_are_deterministic() {
    let with = temp_dir("with");
    let without = temp_dir("without");
    repro(&with, &["--report"]);
    repro(&without, &[]);

    // --- (a) report parses and the span tree is well-formed -------------
    let raw = std::fs::read_to_string(with.join("run_report.json")).expect("run_report.json");
    let report: Value = serde_json::from_str(&raw).expect("report parses");

    let meta = report.get("meta").expect("meta section");
    assert_eq!(meta.get("scale").and_then(Value::as_str), Some("test"));
    assert_eq!(meta.get("seed").and_then(Value::as_u64), Some(42));
    assert!(meta.get("threads").and_then(Value::as_u64).unwrap() >= 1);

    let world = report.get("world").expect("world section");
    let interfaces = world
        .get("interfaces")
        .and_then(Value::as_u64)
        .expect("interface count");
    assert!(interfaces > 0);

    let spans = report
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans");
    assert!(!spans.is_empty(), "no spans recorded");
    let mut names = Vec::new();
    for root in spans {
        check_span(root, u64::MAX, &mut names);
    }
    for required in [
        "repro.run",
        "core.world.build",
        "core.campaign.probe_all",
        "core.campaign.probe_ixp",
        "core.filters.analyze_ixp",
        "core.offload.ranking",
        "core.offload.greedy",
        "netsim.run",
        "econ.fit.decay",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "span {required} missing from report (have: {names:?})"
        );
    }

    // --- (b) the filter funnel balances ---------------------------------
    let funnel = report.get("filter_funnel").expect("filter_funnel section");
    let probed = funnel
        .get("probed")
        .and_then(Value::as_u64)
        .expect("funnel probed");
    let analyzed = funnel
        .get("analyzed")
        .and_then(Value::as_u64)
        .expect("funnel analyzed");
    let discards = funnel
        .get("discards")
        .and_then(Value::as_object)
        .expect("funnel discards");
    assert_eq!(discards.len(), 6, "one funnel row per filter stage");
    let discarded: u64 = discards
        .iter()
        .map(|(_, v)| v.as_u64().expect("discard count"))
        .sum();
    assert_eq!(
        probed,
        analyzed + discarded,
        "funnel does not balance: {probed} probed vs {analyzed} analyzed + {discarded} discarded"
    );
    assert!(probed > 0, "empty funnel for a full detection run");

    let metrics = report.get("metrics").expect("metrics section");
    let filters_probed = metrics
        .get("core.filters.probed")
        .and_then(|m| m.get("value"))
        .and_then(Value::as_u64)
        .expect("core.filters.probed counter");
    assert!(
        filters_probed >= probed,
        "filter metric {filters_probed} below funnel total {probed}"
    );
    let cache_hits = metrics
        .get("core.offload.cone_cache.hits")
        .and_then(|m| m.get("value"))
        .and_then(Value::as_u64)
        .expect("cone cache hit counter");
    assert!(cache_hits > 0, "repeated sweeps should hit the cone cache");

    // --- (c) instrumentation changes no scientific output ---------------
    let mut compared = 0;
    for entry in std::fs::read_dir(&without).expect("read plain results") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap();
        let plain = std::fs::read(&path).expect("plain output");
        let instrumented = std::fs::read(with.join(name)).expect("instrumented output");
        assert_eq!(
            plain,
            instrumented,
            "{} differs between --report and plain runs",
            name.to_string_lossy()
        );
        compared += 1;
    }
    assert!(compared >= 10, "only {compared} outputs compared");

    let _ = std::fs::remove_dir_all(&with);
    let _ = std::fs::remove_dir_all(&without);
}

/// The full determinism matrix for the observability layer: every gated
/// artifact must be byte-identical across `--threads` 1/4, with tracing
/// and reporting on or off, and the `timelines` section of the run report
/// must itself be identical at every thread count (it samples simulation
/// time, never the schedule). The Chrome trace must parse as a
/// trace-event JSON array.
#[test]
fn timelines_and_outputs_are_thread_and_trace_invariant() {
    let base = temp_dir("matrix-base");
    repro(&base, &["--threads", "1"]);

    let mut timelines: Option<String> = None;
    for threads in ["1", "4"] {
        let dir = temp_dir(&format!("matrix-t{threads}"));
        let jsonl = dir.join("trace.jsonl");
        let chrome = dir.join("trace_chrome.json");
        repro(
            &dir,
            &[
                "--threads",
                threads,
                "--report",
                "--trace-json",
                jsonl.to_str().unwrap(),
                "--trace-chrome",
                chrome.to_str().unwrap(),
            ],
        );
        let compared = assert_outputs_identical(
            &base,
            &dir,
            &format!("threads=1 plain vs threads={threads} traced"),
        );
        assert!(compared >= 10, "only {compared} outputs compared");

        // The timelines section is determinism-gated even though the rest
        // of the run report is wall-clock: compare it as a serialized
        // string so ordering and values are pinned byte-for-byte.
        let report: Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join("run_report.json")).expect("run_report.json"),
        )
        .expect("report parses");
        let tl = report.get("timelines").expect("timelines section");
        let series = tl.get("series").and_then(Value::as_object).expect("series");
        for required in [
            "netsim.events",
            "netsim.queue_depth",
            "core.filter_funnel.probed",
            "core.filter_funnel.analyzed",
        ] {
            assert!(
                series.iter().any(|(k, _)| k == required),
                "series {required} missing"
            );
        }
        let rendered = serde_json::to_string(tl).expect("serialize timelines");
        match &timelines {
            None => timelines = Some(rendered),
            Some(first) => assert_eq!(
                first, &rendered,
                "timelines section changed at --threads {threads}"
            ),
        }

        // Trace sinks wrote valid, parseable output.
        let chrome_doc: Value =
            serde_json::from_str(&std::fs::read_to_string(&chrome).expect("chrome trace file"))
                .expect("chrome trace parses as JSON");
        let events = chrome_doc.as_array().expect("trace-event array");
        assert!(!events.is_empty(), "empty chrome trace");
        for ev in events {
            assert!(ev.get("ph").is_some(), "trace event missing ph: {ev:?}");
        }
        let jsonl_text = std::fs::read_to_string(&jsonl).expect("jsonl trace file");
        let mut saw_summary = false;
        for line in jsonl_text.lines() {
            let rec: Value = serde_json::from_str(line).expect("jsonl line parses");
            if rec.get("type").and_then(Value::as_str) == Some("summary") {
                saw_summary = true;
            }
        }
        assert!(saw_summary, "jsonl trace missing its summary line");

        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// `sweep`, `job` and `profile` honour all four sinks at once: the run
/// report names the subcommand and holds `repro.run`, both trace files are
/// complete, and the span tree reaches stderr.
#[test]
fn every_subcommand_feeds_every_sink() {
    let dir = temp_dir("sinks");
    let spec = dir.join("check_spec.json");
    std::fs::write(
        &spec,
        r#"{"kind": "check", "scale": "test", "faults": 2, "fuzz": 2}"#,
    )
    .expect("write job spec");
    let read = |p: &Path| std::fs::read_to_string(p).expect("sink output exists");
    let name_is = |v: &Value, name: &str| v.get("name").and_then(Value::as_str) == Some(name);
    for argv in [
        vec!["sweep", "smoke", "--replicates", "1"],
        vec!["job", spec.to_str().unwrap()],
        vec!["profile", "fig2"],
    ] {
        let sub = argv[0];
        let report = dir.join(format!("{sub}_report.json"));
        let jsonl = dir.join(format!("{sub}.jsonl"));
        let chrome = dir.join(format!("{sub}_chrome.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&argv)
            .args(["--scale", "test", "--trace", "--out"])
            .arg(&dir)
            .arg("--report")
            .arg(&report)
            .arg("--trace-json")
            .arg(&jsonl)
            .arg("--trace-chrome")
            .arg(&chrome)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{sub} failed:\n{stderr}");

        let doc: Value = serde_json::from_str(&read(&report)).expect("report parses");
        let meta = doc.get("meta").expect("meta section");
        assert_eq!(meta.get("experiment").and_then(Value::as_str), Some(sub));
        let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
        assert!(
            spans.iter().any(|n| name_is(n, "repro.run")),
            "{sub}: no repro.run"
        );

        let last = read(&jsonl).lines().last().map(str::to_string);
        let last: Value = serde_json::from_str(&last.expect("jsonl lines")).expect("parses");
        assert_eq!(
            last.get("type").and_then(Value::as_str),
            Some("summary"),
            "{sub}"
        );

        let events: Value = serde_json::from_str(&read(&chrome)).expect("chrome trace parses");
        let events = events.as_array().expect("trace-event array");
        assert!(events.iter().any(|e| name_is(e, "trace_summary")), "{sub}");

        assert!(
            stderr.lines().any(|l| l.starts_with("repro.run  count=")),
            "{sub}: no span tree on stderr:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
