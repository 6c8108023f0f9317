//! End-to-end byte identity of `check_report.json` across the parallel
//! widths of the real `repro` binary, at the pinned seed 42.
//!
//! The file keeps the name of the `--shards × --threads` matrix it once
//! ran. Each simulated network is now one event loop and the shard axis
//! is gone, so the matrix that remains is the worker-thread axis, walked
//! at every width from 1 to 4 (`tests/check_determinism.rs` runs only 1
//! and 4). Every cell must match the first byte for byte, report and
//! stdout alike, and the first is held to the golden FNV-1a capture, so
//! the cells cannot drift *together*.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Golden FNV-1a digest of the seed-42 `check_report.json` (40 fault
/// trials, 60 fuzz iterations, test scale) — the same capture
/// `tests/check_determinism.rs` pins.
const GOLDEN_CHECK_REPORT_FNV: u64 = 0xaeb3_4479_2c0e_cdc9;

const THREAD_COUNTS: [&str; 4] = ["1", "2", "3", "4"];

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

fn run_check(out: &Path, threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["check", "--faults", "40", "--fuzz", "60"])
        .args(["--scale", "test", "--seed", "42"])
        .args(["--threads", threads])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("spawn repro check")
}

#[test]
fn check_report_is_byte_identical_across_the_shard_thread_matrix() {
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for threads in THREAD_COUNTS {
        let out_dir = temp_dir(&format!("check-t{threads}"));
        let out = run_check(&out_dir, threads);
        assert!(
            out.status.success(),
            "check --threads {threads} failed: {}",
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
                     (got 0x{:016x} at --threads {threads})",
                    fnv1a(&report)
                );
                reference = Some((report, out.stdout));
            }
            Some((ref_report, ref_stdout)) => {
                assert_eq!(
                    &report, ref_report,
                    "check_report.json differs at --threads {threads}"
                );
                assert_eq!(
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(ref_stdout),
                    "check stdout differs at --threads {threads}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
