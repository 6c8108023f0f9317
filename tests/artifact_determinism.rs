//! End-to-end byte identity of the sweep artifact, driven through the
//! real `repro` binary: the two-arm smoke sweep's `smoke.json`
//! (Monte-Carlo statistics) must be **byte-identical** at `--threads` 1
//! and 4 at the pinned seed 42. `tests/check_determinism.rs` holds
//! `check_report.json` to the same standard.
//!
//! The bytes are additionally pinned to a golden FNV-1a digest, so the
//! runs cannot silently drift *together*: a scheduler rework that changes
//! every run the same way still fails here and must consciously
//! regenerate the golden.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Golden FNV-1a digest of the seed-42 two-arm smoke sweep's
/// `sweeps/smoke.json` (2 replicates, thresholds 10/14, test scale).
const GOLDEN_SWEEP_SMOKE_FNV: u64 = 0x71ce_784a_d99e_8326;

const THREAD_COUNTS: [&str; 2] = ["1", "4"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-artifact-det-{tag}-{}", std::process::id()));
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

/// The two-arm smoke spec: threshold 10 (baseline) vs 14, two replicate
/// worlds — small enough to run twice, real enough to exercise the
/// full world-build → campaign → filter → offload → statistics pipeline.
/// The description is echoed into the artifact, so the golden digest
/// covers it; it keeps the name this file had before.
const SMOKE_SPEC: &str = r#"{
    "name": "smoke",
    "description": "shard-determinism smoke sweep",
    "replicates": 2,
    "axes": [{"param": "threshold_ms", "values": [10, 14]}]
}"#;

fn run_sweep(spec: &Path, out: &Path, threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", spec.to_str().unwrap()])
        .args(["--scale", "test", "--seed", "42"])
        .args(["--threads", threads])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("spawn repro sweep")
}

#[test]
fn sweep_smoke_is_byte_identical_across_thread_counts() {
    let spec_dir = temp_dir("sweep-spec");
    let spec = spec_dir.join("smoke.json");
    std::fs::write(&spec, SMOKE_SPEC).expect("write smoke spec");

    let mut reference: Option<Vec<u8>> = None;
    for threads in THREAD_COUNTS {
        let out_dir = temp_dir(&format!("sweep-t{threads}"));
        let out = run_sweep(&spec, &out_dir, threads);
        assert!(
            out.status.success(),
            "sweep --threads {threads} failed: {}",
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
                     (got 0x{:016x} at --threads {threads})",
                    fnv1a(&json)
                );
                reference = Some(json);
            }
            Some(ref_json) => {
                assert_eq!(
                    &json, ref_json,
                    "sweeps/smoke.json differs at --threads {threads}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
    let _ = std::fs::remove_dir_all(&spec_dir);
}
