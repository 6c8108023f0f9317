//! The sharded data plane's end-to-end contract, driven through the real
//! `repro` binary: `--shards` is a pure performance policy, so every
//! artifact the pipeline writes must be **byte-identical** across the
//! full `--shards 1/2/4` × `--threads 1/4` matrix at the pinned seed 42 —
//! `check_report.json` (fault injection + invariants + fuzz) and the
//! two-arm smoke sweep's `smoke.json` (Monte-Carlo statistics) alike.
//!
//! The bytes are additionally pinned to golden FNV-1a digests, so the
//! matrix cannot silently drift *together*: a scheduler rework that
//! changes every cell the same way still fails here and must consciously
//! regenerate the goldens.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Golden FNV-1a digest of the seed-42 `check_report.json` (40 fault
/// trials, 60 fuzz iterations, test scale) — the same capture
/// `tests/check_determinism.rs` pins, asserted here at every matrix cell.
const GOLDEN_CHECK_REPORT_FNV: u64 = 0xaeb3_4479_2c0e_cdc9;

/// Golden FNV-1a digest of the seed-42 two-arm smoke sweep's
/// `sweeps/smoke.json` (2 replicates, thresholds 10/14, test scale).
const GOLDEN_SWEEP_SMOKE_FNV: u64 = 0x71ce_784a_d99e_8326;

const SHARD_COUNTS: [&str; 3] = ["1", "2", "4"];
const THREAD_COUNTS: [&str; 2] = ["1", "4"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-shard-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn run_check(out: &Path, threads: &str, shards: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["check", "--faults", "40", "--fuzz", "60"])
        .args(["--scale", "test", "--seed", "42"])
        .args(["--threads", threads, "--shards", shards])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("spawn repro check")
}

#[test]
fn check_report_is_byte_identical_across_the_shard_thread_matrix() {
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let cell = format!("s{shards}t{threads}");
            let out_dir = temp_dir(&format!("check-{cell}"));
            let out = run_check(&out_dir, threads, shards);
            assert!(
                out.status.success(),
                "check --shards {shards} --threads {threads} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let report = std::fs::read(out_dir.join("check_report.json")).expect("report exists");
            assert!(!report.is_empty());
            match &reference {
                None => {
                    // The first cell is also held to the golden capture, so
                    // the whole matrix is transitively pinned.
                    assert_eq!(
                        fnv1a(&report),
                        GOLDEN_CHECK_REPORT_FNV,
                        "check_report.json bytes diverged from the golden capture \
                         (got 0x{:016x} at --shards {shards} --threads {threads})",
                        fnv1a(&report)
                    );
                    reference = Some((report, out.stdout));
                }
                Some((ref_report, ref_stdout)) => {
                    assert_eq!(
                        &report, ref_report,
                        "check_report.json differs at --shards {shards} --threads {threads}"
                    );
                    assert_eq!(
                        String::from_utf8_lossy(&out.stdout),
                        String::from_utf8_lossy(ref_stdout),
                        "check stdout differs at --shards {shards} --threads {threads}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&out_dir);
        }
    }
}

/// The two-arm smoke spec: threshold 10 (baseline) vs 14, two replicate
/// worlds — small enough to probe six times, real enough to exercise the
/// full world-build → campaign → filter → offload → statistics pipeline.
const SMOKE_SPEC: &str = r#"{
    "name": "smoke",
    "description": "shard-determinism smoke sweep",
    "replicates": 2,
    "axes": [{"param": "threshold_ms", "values": [10, 14]}]
}"#;

fn run_sweep(spec: &Path, out: &Path, threads: &str, shards: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", spec.to_str().unwrap()])
        .args(["--scale", "test", "--seed", "42"])
        .args(["--threads", threads, "--shards", shards])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("spawn repro sweep")
}

#[test]
fn sweep_smoke_is_byte_identical_across_the_shard_thread_matrix() {
    let spec_dir = temp_dir("sweep-spec");
    let spec = spec_dir.join("smoke.json");
    std::fs::write(&spec, SMOKE_SPEC).expect("write smoke spec");

    let mut reference: Option<Vec<u8>> = None;
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let cell = format!("s{shards}t{threads}");
            let out_dir = temp_dir(&format!("sweep-{cell}"));
            let out = run_sweep(&spec, &out_dir, threads, shards);
            assert!(
                out.status.success(),
                "sweep --shards {shards} --threads {threads} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let json = std::fs::read(out_dir.join("sweeps").join("smoke.json"))
                .expect("sweep artifact exists");
            assert!(!json.is_empty());
            match &reference {
                None => {
                    assert_eq!(
                        fnv1a(&json),
                        GOLDEN_SWEEP_SMOKE_FNV,
                        "sweeps/smoke.json bytes diverged from the golden capture \
                         (got 0x{:016x} at --shards {shards} --threads {threads})",
                        fnv1a(&json)
                    );
                    reference = Some(json);
                }
                Some(ref_json) => {
                    assert_eq!(
                        &json, ref_json,
                        "sweeps/smoke.json differs at --shards {shards} --threads {threads}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&out_dir);
        }
    }
    let _ = std::fs::remove_dir_all(&spec_dir);
}
