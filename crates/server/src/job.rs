//! Job specs and the shared `run_job` entry point.
//!
//! A job is one unit of reproduction work — a sweep, a check, or a single
//! probing campaign — described by a small JSON envelope. [`run_job`] is
//! the *only* code path that turns a spec into artifact bytes: the `repro`
//! CLI subcommands and the `repro serve` workers both call it, so a served
//! result is byte-identical to the CLI's by construction rather than by
//! test.
//!
//! Job identity is content-addressed: the queue dedupes on the `memo::Key`
//! of the parsed (not raw) spec, so two submissions that normalize to the
//! same work — different key order, explicit defaults — share one job.

use remote_peering::memo::Key;
use remote_peering::metrics::{PreparedRun, RunMetrics};
use remote_peering::world::Scale;
use remote_peering::Campaign;
use rp_scenario::{Cell, ScenarioSpec};
use rp_testkit::CheckConfig;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// One parsed, validated unit of work.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A full scenario sweep (`repro sweep` behind an envelope).
    Sweep {
        spec: ScenarioSpec,
        seed: u64,
        scale: Scale,
        replicates: Option<u64>,
        /// The envelope's `"shards"` key. Ignored, since every IXP network
        /// runs one event loop, but kept: [`JobSpec::id`] hashes this
        /// enum's `Debug` text, and the job ids are pinned.
        shards: usize,
    },
    /// The correctness harness (`repro check`).
    Check(CheckConfig),
    /// One probing campaign over one world/method coordinate: the smallest
    /// useful job, sized so a queue of hundreds stays cheap.
    Campaign {
        cell: Cell,
        seed: u64,
        scale: Scale,
        /// Ignored; kept for the job id, as in [`JobSpec::Sweep`].
        shards: usize,
    },
}

fn scale_field(v: &Value, key: &str) -> Result<Scale, String> {
    match v.get(key) {
        None => Ok(Scale::Test),
        Some(s) => s.as_str().and_then(Scale::parse).ok_or_else(|| {
            format!("\"{key}\" must be \"test\", \"paper\", or \"production\", got {s}")
        }),
    }
}

fn u64_field(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer, got {n}")),
    }
}

impl JobSpec {
    /// Parse a job envelope. The common keys are `kind` (required:
    /// `sweep` | `check` | `campaign`), `seed` (default 42), `scale`
    /// (`test` default | `paper` | `production`), and `shards` (default
    /// 0; validated but ignored, see [`JobSpec::Sweep`]); unknown keys are
    /// rejected so typos fail loudly at submission.
    pub fn parse(v: &Value) -> Result<JobSpec, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| "job spec must be a JSON object".to_string())?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"kind\" (sweep | check | campaign)".to_string())?;
        let seed = u64_field(v, "seed", 42)?;
        let scale = scale_field(v, "scale")?;
        let shards = u64_field(v, "shards", 0)? as usize;
        match kind {
            "sweep" => {
                for (key, _) in obj {
                    if !matches!(
                        key.as_str(),
                        "kind" | "seed" | "scale" | "shards" | "replicates" | "spec" | "preset"
                    ) {
                        return Err(format!("unknown sweep key {key:?}"));
                    }
                }
                let spec = match (v.get("spec"), v.get("preset")) {
                    (Some(s), None) => {
                        ScenarioSpec::resolve_value(s).map_err(|e| e.message.clone())?
                    }
                    (None, Some(p)) => ScenarioSpec::resolve_value(&json!({ "preset": p }))
                        .map_err(|e| e.message.clone())?,
                    (Some(_), Some(_)) => {
                        return Err("give either \"spec\" or \"preset\", not both".to_string())
                    }
                    (None, None) => return Err("sweep needs a \"spec\" or \"preset\"".to_string()),
                };
                let replicates = match v.get("replicates") {
                    None => None,
                    Some(_) => Some(u64_field(v, "replicates", 0)?),
                };
                Ok(JobSpec::Sweep {
                    spec,
                    seed,
                    scale,
                    replicates,
                    shards,
                })
            }
            "check" => Ok(JobSpec::Check(CheckConfig::from_value(v)?)),
            "campaign" => {
                for (key, _) in obj {
                    if !matches!(
                        key.as_str(),
                        "kind" | "seed" | "scale" | "shards" | "params"
                    ) {
                        return Err(format!("unknown campaign key {key:?}"));
                    }
                }
                let cell = match v.get("params") {
                    None => Cell { coords: Vec::new() },
                    Some(p) => {
                        let entries = p
                            .as_object()
                            .ok_or_else(|| "\"params\" must be a JSON object".to_string())?;
                        if entries.is_empty() {
                            Cell { coords: Vec::new() }
                        } else {
                            // Validate through the scenario grammar: one
                            // single-value axis per parameter, then take the
                            // grid's only cell.
                            let axes: Vec<Value> = entries
                                .iter()
                                .map(|(k, val)| {
                                    json!({
                                        "param": k.as_str(),
                                        "values": Value::Array(vec![val.clone()]),
                                    })
                                })
                                .collect();
                            let spec = ScenarioSpec::parse(&json!({
                                "name": "job",
                                "axes": Value::Array(axes),
                            }))
                            .map_err(|e| e.message)?;
                            spec.cells().remove(0)
                        }
                    }
                };
                Ok(JobSpec::Campaign {
                    cell,
                    seed,
                    scale,
                    shards,
                })
            }
            other => Err(format!("unknown kind {other:?} (sweep | check | campaign)")),
        }
    }

    /// Content-addressed job id: the digest of the parsed spec's `memo::Key`,
    /// rendered as 16 hex digits. Deterministic across processes.
    pub fn id(&self) -> String {
        job_id(&Key::of(self))
    }

    /// Short kind tag for listings and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Sweep { .. } => "sweep",
            JobSpec::Check(_) => "check",
            JobSpec::Campaign { .. } => "campaign",
        }
    }
}

/// The job id of a spec whose key is `key`: its digest as 16 hex digits.
pub(crate) fn job_id(key: &Key) -> String {
    format!("{:016x}", key.digest())
}

/// Everything a finished job produced.
#[derive(Debug)]
pub struct JobResult {
    /// `sweep` | `check` | `campaign`.
    pub kind: &'static str,
    /// Output name (the artifact file stem for sweeps/campaigns).
    pub name: String,
    /// Exact artifact bytes, identical to what the CLI writes under its
    /// output directory.
    pub artifact: String,
    /// The human-readable digest the CLI prints to stdout (trailing
    /// newline included; `print!` it verbatim).
    pub digest: String,
    /// Did the job's own verdict pass? Always true except for a failed
    /// check harness.
    pub passed: bool,
    /// The artifact as a JSON document, for callers that post-process.
    pub doc: Value,
}

impl JobResult {
    /// Render a finished sweep (the `run_sweep` output for the spec named
    /// `name`) as its artifact and stdout digest.
    pub fn sweep(name: &str, out: Value) -> JobResult {
        JobResult {
            kind: "sweep",
            name: name.to_string(),
            artifact: serde_json::to_string_pretty(&out).expect("serialize sweep output"),
            digest: sweep_digest(name, &out),
            passed: true,
            doc: out,
        }
    }

    /// Render a finished check harness run as its report and stdout
    /// digest.
    pub fn check(outcome: &rp_testkit::CheckOutcome) -> JobResult {
        let doc = outcome.to_json();
        let mut artifact = serde_json::to_string_pretty(&doc).expect("serialize check report");
        artifact.push('\n');
        JobResult {
            kind: "check",
            name: "check".to_string(),
            artifact,
            digest: check_digest(outcome),
            passed: outcome.passed(),
            doc,
        }
    }

    /// Where the CLI would put this artifact, relative to its `--out` dir.
    pub fn artifact_rel_path(&self) -> String {
        match self.kind {
            "sweep" => format!("sweeps/{}.json", self.name),
            "check" => "check_report.json".to_string(),
            _ => format!("campaigns/{}.json", self.name),
        }
    }
}

/// Run one job to completion on the calling thread.
///
/// The compute runs under a `repro.run` span so rp-obs progress snapshots
/// and trace sinks see served jobs exactly like CLI runs. Rayon-parallel
/// stages inside (`run_sweep`, `run_check`) share the process-wide pool,
/// so the server's worker count bounds *jobs* in flight, not threads.
pub fn run_job(spec: &JobSpec) -> JobResult {
    match spec {
        JobSpec::Sweep {
            spec,
            seed,
            scale,
            replicates,
            ..
        } => {
            let cfg = rp_scenario::SweepConfig {
                seed: *seed,
                scale: *scale,
                replicates: replicates.unwrap_or(spec.default_replicates),
                confidence: 0.95,
                resamples: 400,
            };
            let out = {
                let _run = rp_obs::span("repro.run");
                rp_scenario::run_sweep(spec, &cfg)
            };
            JobResult::sweep(&spec.name, out)
        }
        JobSpec::Check(cfg) => {
            let outcome = {
                let _run = rp_obs::span("repro.run");
                rp_testkit::run_check(cfg)
            };
            JobResult::check(&outcome)
        }
        JobSpec::Campaign {
            cell, seed, scale, ..
        } => {
            let base = scale.config(*seed);
            let cfg = cell.apply_world(&base);
            let campaign = Campaign {
                memory_budget_bytes: scale.default_memory_budget(),
                ..Campaign::default_paper()
            };
            let (doc, digest, name) = {
                let _run = rp_obs::span("repro.run");
                let run = PreparedRun::probe_cached(&cfg, &campaign);
                let metrics = RunMetrics::collect(&run, &cell.method_params());
                let name = format!("campaign_{}", spec.id());
                let metrics_json = Value::Object(
                    metrics
                        .named()
                        .iter()
                        .map(|(k, v)| (k.to_string(), json!(v)))
                        .collect(),
                );
                let doc = json!({
                    "schema": "rp-campaign/1",
                    "seed": seed,
                    "scale": scale.as_str(),
                    "params": cell.params_json(),
                    "metrics": metrics_json,
                });
                let mut digest = String::new();
                let label = if cell.coords.is_empty() {
                    "defaults".to_string()
                } else {
                    cell.label()
                };
                let _ = writeln!(
                    digest,
                    "==== campaign:{} {}",
                    label,
                    "=".repeat(51_usize.saturating_sub(label.len()))
                );
                for (k, v) in metrics.named() {
                    let _ = writeln!(digest, "  {k:>18}  {v:10.4}");
                }
                (doc, digest, name)
            };
            let mut artifact = serde_json::to_string_pretty(&doc).expect("serialize campaign");
            artifact.push('\n');
            JobResult {
                kind: "campaign",
                name,
                artifact,
                digest,
                passed: true,
                doc,
            }
        }
    }
}

/// The sweep stdout digest, byte-identical to what `repro sweep` printed
/// before the server existed (the golden stdout pins hold).
fn sweep_digest(name: &str, out: &Value) -> String {
    let mut d = String::new();
    let _ = writeln!(
        d,
        "==== sweep:{} {}",
        name,
        "=".repeat(54_usize.saturating_sub(name.len()))
    );
    if let Some(cells) = out.get("cells").and_then(Value::as_array) {
        for cell in cells {
            let label = cell.get("label").and_then(Value::as_str).unwrap_or("?");
            let mark = if cell.get("baseline") == Some(&Value::Bool(true)) {
                " [baseline]"
            } else {
                ""
            };
            let _ = writeln!(d, "{label}{mark}");
            for name in ["precision", "recall", "remote_fraction", "econ_margin"] {
                let m = cell.get("metrics").and_then(|ms| ms.get(name));
                let mean = m
                    .and_then(|m| m.get("mean"))
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let ci = m.and_then(|m| m.get("t_ci")).and_then(Value::as_array);
                let (lo, hi) = match ci {
                    Some(b) if b.len() == 2 => (
                        b[0].as_f64().unwrap_or(f64::NAN),
                        b[1].as_f64().unwrap_or(f64::NAN),
                    ),
                    _ => (f64::NAN, f64::NAN),
                };
                let _ = writeln!(d, "  {name:>16}  {mean:8.4}  95% CI [{lo:8.4}, {hi:8.4}]");
            }
        }
    }
    d
}

/// The check stdout digest, byte-identical to the pre-server `repro check`
/// output (pinned by `GOLDEN_CHECK_STDOUT_FNV`).
fn check_digest(outcome: &rp_testkit::CheckOutcome) -> String {
    let mut d = String::new();
    let _ = writeln!(d, "==== check {}", "=".repeat(55));
    let _ = writeln!(
        d,
        "injected link faults: {} across {} transmit decisions",
        outcome.injected.total(),
        outcome.injected.decisions
    );
    for (kind, n) in outcome.injected.by_kind() {
        let _ = writeln!(d, "  {:>18}  {n}", kind.key());
    }
    let _ = writeln!(
        d,
        "scene faults: {} stale registry rows, {} dropped LG vantages",
        outcome.scene.stale_rows, outcome.scene.dropped_lgs
    );
    let _ = writeln!(
        d,
        "analyzed interfaces: {} clean, {} faulted",
        outcome.clean_analyzed, outcome.faulted_analyzed
    );
    let _ = writeln!(
        d,
        "invariants: {} checks, {} violations",
        outcome.harness.checks,
        outcome.harness.violations.len()
    );
    for v in &outcome.harness.violations {
        let _ = writeln!(d, "  VIOLATION {}: {}", v.invariant, v.detail);
    }
    let _ = writeln!(
        d,
        "fuzz: {} iterations per target, {} panics",
        outcome.fuzz.iterations,
        outcome.fuzz.panics.len()
    );
    for p in &outcome.fuzz.panics {
        let _ = writeln!(d, "  PANIC {p}");
    }
    let verdict = if outcome.passed() { "PASS" } else { "FAIL" };
    let _ = writeln!(d, "check: {verdict}");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobSpec, String> {
        JobSpec::parse(&serde_json::from_str(text).expect("test JSON"))
    }

    #[test]
    fn envelope_parses_all_three_kinds() {
        let sweep = parse(r#"{"kind": "sweep", "preset": "smoke", "seed": 7}"#).unwrap();
        match &sweep {
            JobSpec::Sweep {
                spec,
                seed,
                replicates,
                ..
            } => {
                assert_eq!(spec.name, "smoke");
                assert_eq!(*seed, 7);
                assert_eq!(*replicates, None);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let check = parse(r#"{"kind": "check", "faults": 5, "fuzz": 6}"#).unwrap();
        match &check {
            JobSpec::Check(cfg) => {
                assert_eq!(cfg.fault_trials, 5);
                assert_eq!(cfg.fuzz_iters, 6);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let camp =
            parse(r#"{"kind": "campaign", "params": {"threshold_ms": 12.5}, "seed": 3}"#).unwrap();
        match &camp {
            JobSpec::Campaign { cell, seed, .. } => {
                assert_eq!(cell.label(), "threshold_ms=12.5");
                assert_eq!(*seed, 3);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn envelope_rejects_garbage_with_a_reason() {
        assert!(parse(r#"{"seed": 1}"#).unwrap_err().contains("kind"));
        assert!(parse(r#"{"kind": "dance"}"#).unwrap_err().contains("dance"));
        assert!(parse(r#"{"kind": "sweep"}"#)
            .unwrap_err()
            .contains("preset"));
        assert!(parse(r#"{"kind": "sweep", "preset": "smoke", "sepc": 1}"#)
            .unwrap_err()
            .contains("sepc"));
        // The sweep reference arm lives in rp-testkit, not in the envelope.
        assert!(
            parse(r#"{"kind": "sweep", "preset": "smoke", "probe_reuse": false}"#)
                .unwrap_err()
                .contains("probe_reuse")
        );
        assert!(
            parse(r#"{"kind": "campaign", "params": {"not_a_param": 1}}"#)
                .unwrap_err()
                .contains("not_a_param")
        );
        assert!(parse(r#"{"kind": "check", "scale": "huge"}"#).is_err());
    }

    #[test]
    fn job_ids_are_content_addressed() {
        let a = parse(r#"{"kind": "campaign", "params": {"threshold_ms": 10}, "seed": 1}"#);
        let b = parse(r#"{"seed": 1, "params": {"threshold_ms": 10}, "kind": "campaign"}"#);
        let c = parse(r#"{"kind": "campaign", "params": {"threshold_ms": 11}, "seed": 1}"#);
        assert_eq!(a.as_ref().unwrap().id(), b.unwrap().id());
        assert_ne!(a.unwrap().id(), c.unwrap().id());
    }

    /// Job ids name persisted artifacts and answer clients, so they are
    /// pinned: these values are the ids the FNV-of-`Debug` scheme gave
    /// before the queue keyed on `memo::Key`, and must not move.
    #[test]
    fn job_ids_are_pinned_per_kind() {
        for (text, id) in [
            (
                r#"{"kind": "sweep", "preset": "smoke", "seed": 42}"#,
                "dc29dac79c2dd412",
            ),
            (
                r#"{"kind": "check", "faults": 5, "fuzz": 6}"#,
                "021651eaeeff7892",
            ),
            (
                r#"{"kind": "campaign", "params": {"threshold_ms": 10}, "seed": 42}"#,
                "1602e8d048ca9635",
            ),
        ] {
            assert_eq!(parse(text).unwrap().id(), id, "{text}");
        }
    }

    /// `JobSpec::parse` reads untrusted HTTP bodies: seeded mutants of
    /// valid envelopes must parse or fail cleanly, never panic.
    #[test]
    fn mutated_envelopes_parse_or_fail_cleanly() {
        let corpus: Vec<String> = [
            r#"{"kind": "sweep", "preset": "smoke", "seed": 7, "replicates": 2}"#,
            r#"{"kind": "sweep", "spec": {"name": "s", "axes": [{"param": "threshold_ms", "values": [5, 10]}]}}"#,
            r#"{"kind": "check", "faults": 5, "fuzz": 6, "scale": "test"}"#,
            r#"{"kind": "campaign", "params": {"threshold_ms": 12.5, "peer_group": "open"}, "shards": 2}"#,
        ]
        .map(String::from)
        .to_vec();
        let (mut accepted, mut rejected) = (0, 0);
        for input in rp_testkit::fuzz::mutants(42, &corpus, 2000) {
            let Ok(value) = serde_json::from_str(&input) else {
                continue;
            };
            let parsed = std::panic::catch_unwind(|| JobSpec::parse(&value).is_ok());
            match parsed {
                Ok(true) => accepted += 1,
                Ok(false) => rejected += 1,
                Err(_) => panic!("JobSpec::parse panicked on {input}"),
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn campaign_jobs_produce_a_digest_and_schema_tagged_artifact() {
        let spec = parse(r#"{"kind": "campaign", "params": {"threshold_ms": 10}}"#).unwrap();
        let result = run_job(&spec);
        assert_eq!(result.kind, "campaign");
        assert!(result.passed);
        assert!(result.digest.starts_with("==== campaign:threshold_ms=10 "));
        assert!(result.artifact.ends_with('\n'));
        assert_eq!(
            result.doc.get("schema").and_then(Value::as_str),
            Some("rp-campaign/1")
        );
        assert_eq!(
            result.artifact_rel_path(),
            format!("campaigns/campaign_{}.json", spec.id())
        );
        // Same spec, same bytes: the campaign path is deterministic.
        let again = run_job(&spec);
        assert_eq!(again.artifact, result.artifact);
        assert_eq!(again.digest, result.digest);
    }
}
