//! Fork equivalence, end to end through the real `repro` binary: the
//! default paths — copy-on-write fork, incremental recompute, memoized
//! worlds and probe sets — must produce artifacts **byte-identical** to
//! `rp-testkit`'s from-scratch reference arms, at `--threads` 1 and 4.
//!
//! Two artifact surfaces are compared:
//!
//! * `repro check` — the default faulted arm forks the clean world and
//!   degrades it through deltas; [`check_reference`] rebuilds and
//!   degrades in place. `check_report.json` and the stdout digest may not
//!   differ by a byte.
//! * `repro sweep smoke` — the default engine reuses memoized worlds and
//!   probe sets across cells; [`sweep_reference`] rebuilds and re-probes
//!   everything. `sweeps/smoke.json` and the stdout digest may not differ
//!   by a byte.
//!
//! Each reference runs once, in process, and is rendered by the same
//! [`JobResult`] constructors `run_job` renders the CLI's artifacts with.
//! The library-level differential harness (`rp_testkit::differential`)
//! additionally covers randomized delta sequences and proves the
//! comparison can fail (broken oracle); this test pins the user-visible
//! artifacts on the real CLI surface.

use remote_peering::world::Scale;
use rp_scenario::{ScenarioSpec, SweepConfig};
use rp_server::JobResult;
use rp_testkit::differential::{check_reference, sweep_reference};
use rp_testkit::CheckConfig;
use std::path::{Path, PathBuf};
use std::process::Command;

const THREAD_COUNTS: [&str; 2] = ["1", "4"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rp-fork-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `repro <args>` at every thread count and require each
/// run's stdout and artifact (`artifact_rel` under `--out`) to equal the
/// reference rendering byte for byte.
fn assert_matrix_matches(args: &[&str], reference: &JobResult) {
    let artifact_rel = reference.artifact_rel_path();
    for threads in THREAD_COUNTS {
        let tag = format!("{}-t{threads}", reference.kind);
        let out_dir = temp_dir(&tag);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .args(["--threads", threads])
            .args(["--out", out_dir.to_str().unwrap()])
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "[{tag}] repro failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            reference.digest,
            "[{tag}] stdout differs from the reference arm"
        );
        let artifact = std::fs::read_to_string(Path::new(&out_dir).join(&artifact_rel))
            .expect("artifact written");
        assert!(!artifact.is_empty());
        assert!(
            artifact == reference.artifact,
            "[{tag}] {artifact_rel} differs from the reference arm"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}

#[test]
fn check_fork_path_matches_reference_rebuild_across_the_matrix() {
    let reference = check_reference(&CheckConfig {
        seed: 42,
        fault_trials: 40,
        fuzz_iters: 60,
        scale: Scale::Test,
        shards: 0,
    });
    assert!(reference.passed());
    assert_matrix_matches(
        &[
            "check", "--faults", "40", "--fuzz", "60", "--scale", "test", "--seed", "42",
        ],
        &JobResult::check(&reference),
    );
}

#[test]
fn sweep_probe_reuse_matches_probe_rebuild_across_the_matrix() {
    let spec = ScenarioSpec::preset("smoke").expect("smoke preset exists");
    // The configuration `run_job` builds for `repro sweep smoke`.
    let cfg = SweepConfig {
        replicates: spec.default_replicates,
        ..SweepConfig::test_default(42)
    };
    let reference = JobResult::sweep(&spec.name, sweep_reference(&spec, &cfg));
    assert_matrix_matches(
        &["sweep", "smoke", "--scale", "test", "--seed", "42"],
        &reference,
    );
}
