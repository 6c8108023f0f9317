//! Pins of the deterministic parts of a campaign's run report.
//!
//! `tests/report_schema.rs` checks that the `timelines` section is the same
//! at every thread count and with tracing on or off; a change that moved
//! every run's timelines the same way would still pass it. This file pins
//! the section itself: the FNV-1a-64 of the serialized `timelines` of a
//! test-scale `repro table1` campaign (seed 42, collection on) at
//! `--threads` 1 and 2. A deliberate change to what the timelines record
//! updates the pin; the failing assertion prints the new value.
//!
//! It also checks the per-kind event counters (`netsim.sim.events.*`):
//! they sum to `netsim.sim.events_processed` and do not depend on the
//! thread count. The per-IXP series `core.campaign.events_by_ixp` and
//! `core.campaign.interfaces_by_ixp` must add up to the event and
//! probed-interface totals of the run.

use serde_json::Value;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// FNV-1a-64 of the serialized `timelines` section.
const TIMELINES_FNV: u64 = 0xdcf5dab7de802df7;

const EVENT_KINDS: [&str; 6] = [
    "netsim.sim.events.arp_request",
    "netsim.sim.events.arp_reply",
    "netsim.sim.events.icmp_echo_request",
    "netsim.sim.events.icmp_echo_reply",
    "netsim.sim.events.icmp_other",
    "netsim.sim.events.timer",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `repro table1` at test scale, seed 42, and return its run report.
/// Every call gets its own `--out` dir: the tests run in parallel and ask
/// for the same thread counts, so a dir keyed on those alone could be
/// removed under another call's running repro.
fn campaign_report(threads: u32) -> Value {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rp-run-report-golden-t{threads}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let report = dir.join("run_report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .args(["--scale", "test", "--seed", "42"])
        .args(["--threads", &threads.to_string()])
        .arg("--out")
        .arg(&dir)
        .arg("--report")
        .arg(&report)
        .stdout(std::process::Stdio::null())
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro table1 --threads {threads}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = serde_json::from_str(&std::fs::read_to_string(&report).expect("run report"))
        .expect("run report parses");
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

/// Sum of an index-axis timeline series' points.
fn series_total(report: &Value, name: &str) -> u64 {
    report
        .get("timelines")
        .and_then(|t| t.get("series"))
        .and_then(|s| s.get(name))
        .and_then(|s| s.get("points"))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("timeline series {name} missing from the run report"))
        .iter()
        .map(|p| {
            p.as_array()
                .and_then(|p| p.get(1))
                .and_then(Value::as_u64)
                .expect("point value")
        })
        .sum()
}

fn counter(report: &Value, name: &str) -> u64 {
    report
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing from the run report"))
}

#[test]
fn campaign_timelines_are_pinned() {
    for threads in [1, 2] {
        let report = campaign_report(threads);
        let timelines = report.get("timelines").expect("timelines section");
        let rendered = serde_json::to_string(timelines).expect("serialize timelines");
        let got = fnv1a(rendered.as_bytes());
        println!("--threads {threads}: timelines {got:#018x}");
        assert_eq!(
            got, TIMELINES_FNV,
            "timelines moved at --threads {threads}: {got:#018x}"
        );
    }
}

#[test]
fn event_kind_counters_sum_to_events_processed() {
    let by_threads: Vec<Vec<u64>> = [1, 2]
        .into_iter()
        .map(|threads| {
            let report = campaign_report(threads);
            let kinds: Vec<u64> = EVENT_KINDS.iter().map(|k| counter(&report, k)).collect();
            let total = counter(&report, "netsim.sim.events_processed");
            assert!(total > 0, "campaign dispatched no events");
            assert_eq!(
                kinds.iter().sum::<u64>(),
                total,
                "--threads {threads}: per-kind counts {kinds:?} do not sum to {total}"
            );
            assert_eq!(
                series_total(&report, "core.campaign.events_by_ixp"),
                total,
                "--threads {threads}: per-IXP events do not sum to the run's events"
            );
            assert_eq!(
                series_total(&report, "core.campaign.interfaces_by_ixp"),
                counter(&report, "core.campaign.interfaces_probed"),
                "--threads {threads}: per-IXP interfaces do not sum to the probed total"
            );
            kinds
        })
        .collect();
    assert_eq!(
        by_threads[0], by_threads[1],
        "per-kind event counts differ between --threads 1 and 2"
    );
}
