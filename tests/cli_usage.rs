//! Usage-error paths of the `repro` CLI.
//!
//! Every unrecognized token — flag, experiment, or subcommand argument —
//! funnels through one printer: a single `error: unknown <kind> <token>`
//! line followed by the usage text, exit code 2. These tests pin that
//! shape so the two paths cannot drift apart again.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Exit 2, exactly one `error:` line, and the usage text follows.
fn assert_usage_error(out: &Output, expected_first_line: &str) {
    assert_eq!(out.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut lines = stderr.lines();
    assert_eq!(
        lines.next(),
        Some(expected_first_line),
        "first stderr line must be the one-line diagnostic; got:\n{stderr}"
    );
    let error_lines = stderr.lines().filter(|l| l.starts_with("error:")).count();
    assert_eq!(error_lines, 1, "exactly one error line, got:\n{stderr}");
    assert!(
        stderr.contains("usage: repro"),
        "usage text must follow the diagnostic:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "diagnostics go to stderr, not stdout"
    );
}

#[test]
fn unknown_flag_is_one_line_error_exit_2() {
    let out = repro(&["--definitely-bogus"]);
    assert_usage_error(&out, "error: unknown flag --definitely-bogus");
}

#[test]
fn reference_arm_flags_are_unknown() {
    // The from-scratch reference arms live in rp-testkit; the CLI has no
    // flag that selects them.
    let out = repro(&["check", "--reference-rebuild"]);
    assert_usage_error(&out, "error: unknown flag --reference-rebuild");
    let out = repro(&["sweep", "smoke", "--probe-rebuild"]);
    assert_usage_error(&out, "error: unknown flag --probe-rebuild");
}

#[test]
fn unknown_experiment_is_one_line_error_exit_2() {
    let out = repro(&["definitely-bogus"]);
    assert_usage_error(&out, "error: unknown experiment definitely-bogus");
}

#[test]
fn unknown_profile_target_is_one_line_error_exit_2() {
    let out = repro(&["profile", "definitely-bogus"]);
    assert_usage_error(&out, "error: unknown experiment definitely-bogus");
}

#[test]
fn unknown_scale_is_rejected_at_parse_time() {
    let out = repro(&["fig2", "--scale", "bogus"]);
    assert_usage_error(
        &out,
        "error: unknown scale bogus (use test|paper|production)",
    );
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro"));
    assert!(stdout.contains("--trace-chrome"), "new flags documented");
    assert!(stdout.contains("repro profile"), "subcommands documented");
}
