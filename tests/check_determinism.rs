//! End-to-end guarantees of the `repro check` subcommand, driven through
//! the real binary:
//!
//! * the fault-injection + invariant + fuzz run is **bit-identical across
//!   worker-thread counts** — `check_report.json` and the stdout summary
//!   may not differ by a byte between `--threads 1` and `--threads 4`;
//! * malformed scenario specs make `repro sweep` exit with code 2 and a
//!   clean one-line `error:` diagnostic — never a panic or backtrace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-check-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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

/// Golden FNV-1a digests of the seed-42 check run's outputs, re-captured
/// when ARP traffic stopped drawing from any random stream. The
/// determinism contract is stronger than thread-count invariance: the
/// *bytes themselves* must survive every event-queue, frame-pool, and
/// world-memo rework, so the expected digests are pinned rather than only
/// compared across runs.
const GOLDEN_CHECK_REPORT_FNV: u64 = 0xaeb3_4479_2c0e_cdc9;
const GOLDEN_CHECK_STDOUT_FNV: u64 = 0xdc89_b60d_bf56_3732;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn check_is_bit_identical_across_thread_counts() {
    let serial_out = temp_dir("serial");
    let parallel_out = temp_dir("parallel");
    let serial = run_check(&serial_out, "1");
    let parallel = run_check(&parallel_out, "4");

    assert!(
        serial.status.success(),
        "serial check failed: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        parallel.status.success(),
        "parallel check failed: {}",
        String::from_utf8_lossy(&parallel.stderr)
    );

    // The printed summary carries fault counts, invariant tallies, and the
    // verdict — all scheduling-independent by construction.
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "check stdout differs between thread counts"
    );
    let summary = String::from_utf8_lossy(&serial.stdout);
    assert!(
        summary.contains("check: PASS"),
        "check did not pass:\n{summary}"
    );

    let a = std::fs::read(serial_out.join("check_report.json")).expect("serial report");
    let b = std::fs::read(parallel_out.join("check_report.json")).expect("parallel report");
    assert!(!a.is_empty());
    assert_eq!(a, b, "check_report.json differs between thread counts");

    // Golden byte digests: the report and summary must be byte-identical
    // to the pre-refactor capture, at both thread counts.
    assert_eq!(
        fnv1a(&a),
        GOLDEN_CHECK_REPORT_FNV,
        "check_report.json bytes diverged from the golden capture \
         (got 0x{:016x})",
        fnv1a(&a)
    );
    assert_eq!(
        fnv1a(&serial.stdout),
        GOLDEN_CHECK_STDOUT_FNV,
        "check stdout bytes diverged from the golden capture (got 0x{:016x})",
        fnv1a(&serial.stdout)
    );

    let _ = std::fs::remove_dir_all(&serial_out);
    let _ = std::fs::remove_dir_all(&parallel_out);
}

fn run_sweep(spec_arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", spec_arg, "--scale", "test"])
        .output()
        .expect("spawn repro sweep")
}

/// Assert the process died with exit code 2 and a single clean `error:`
/// line on stderr (beyond the fixed worker-thread banner) — no panic, no
/// backtrace.
fn assert_clean_spec_rejection(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: expected exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{what}: rejection panicked:\n{stderr}"
    );
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(
        errors.len(),
        1,
        "{what}: expected exactly one error line, got:\n{stderr}"
    );
}

#[test]
fn malformed_specs_exit_two_with_one_line_errors() {
    let dir = temp_dir("specs");

    // Pathologically deep nesting: must hit the parser's depth limit, not
    // the stack.
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let out = run_sweep(deep.to_str().unwrap());
    assert_clean_spec_rejection(&out, "deep nesting");

    // Number overflow inside an otherwise plausible spec.
    let overflow = dir.join("overflow.json");
    std::fs::write(
        &overflow,
        r#"{"name": "t", "replicates": 2, "parameter": "probe_loss", "values": [1e999]}"#,
    )
    .unwrap();
    let out = run_sweep(overflow.to_str().unwrap());
    assert_clean_spec_rejection(&out, "number overflow");

    // Valid JSON, invalid spec shape.
    let shape = dir.join("shape.json");
    std::fs::write(&shape, r#"{"definitely": "not a spec"}"#).unwrap();
    let out = run_sweep(shape.to_str().unwrap());
    assert_clean_spec_rejection(&out, "wrong shape");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid scenario spec"),
        "shape rejection should say what is wrong"
    );

    // Not a file and not a preset: exit 2 with the preset list for help.
    let out = run_sweep("no-such-preset");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown preset: expected exit 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no spec file or preset named"),
        "unknown preset should be named:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
