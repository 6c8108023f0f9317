//! Paper-fidelity gate: one `repro all --scale paper --seed 42` run,
//! checked two ways.
//!
//! (a) Every headline number the paper states for sections 3–5 is checked
//!     against a band around the *paper's* value. Each tolerance is a named
//!     constant below, fixed from the precision the paper states ("about",
//!     "more than 90%", an exact table count), never from what the
//!     reproduction happens to print. A quantity that sits outside its band
//!     today is listed in [`KNOWN_GAPS`] (and recorded in EXPERIMENTS.md):
//!     it is held to its recorded value ± the same tolerance, so it cannot
//!     drift further unnoticed, and the test fails once the gap closes so
//!     the entry gets removed. Bands are never widened to fit.
//! (b) Every file `all` writes must byte-equal the committed `results/`.
//!     A change that moves a result on purpose regenerates `results/` in the
//!     same commit (`repro all --scale paper --out results`).

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Table 1: the paper's analyzed-interface count per IXP.
const PAPER_TABLE1: [(&str, u64); 22] = [
    ("AMS-IX", 665),
    ("DE-CIX", 535),
    ("LINX", 521),
    ("HKIX", 278),
    ("NYIIX", 239),
    ("MSK-IX", 218),
    ("PLIX", 207),
    ("France-IX", 201),
    ("PTT", 180),
    ("SIX", 175),
    ("LoNAP", 166),
    ("JPIX", 163),
    ("TorIX", 161),
    ("VIX", 134),
    ("MIX", 131),
    ("TOP-IX", 91),
    ("Netnod", 71),
    ("KINX", 71),
    ("CABASE", 68),
    ("INEX", 66),
    ("DIX-IE", 56),
    ("TIE", 54),
];
/// Table 1's analyzed total.
const PAPER_TABLE1_TOTAL: f64 = 4_451.0;
/// The total may differ from the paper's by this fraction of it.
const TABLE1_TOTAL_TOL_FRAC: f64 = 0.02;
/// A per-IXP count may differ by this fraction of the paper's count...
const TABLE1_IXP_TOL_FRAC: f64 = 0.05;
/// ...or by this many interfaces, whichever is larger (small exchanges).
const TABLE1_IXP_TOL_MIN: f64 = 5.0;

/// Interfaces each filter discards, in the paper's application order
/// (sample-size, TTL-switch, TTL-match, RTT-consistent, LG-consistent,
/// ASN-change).
const PAPER_DISCARDS: [f64; 6] = [20.0, 82.0, 20.0, 100.0, 28.0, 5.0];
/// Discards are small event counts: each may differ from the paper's by
/// this many Poisson standard deviations (`k·√n`).
const DISCARD_SIGMAS: f64 = 3.0;

/// Figure 3: IXPs with remote peering (the paper's 20 of 22, ">90%").
const PAPER_IXPS_WITH_REMOTE: f64 = 20.0;
const PAPER_IXPS_STUDIED: f64 = 22.0;
/// The count is exact in the paper, so the band is exact.
const IXPS_WITH_REMOTE_TOL: f64 = 0.0;
/// The two studied IXPs where the paper found no remote peering.
const PAPER_NO_REMOTE: [&str; 2] = ["DIX-IE", "CABASE"];

/// Figure 4a: "about 285" remotely peering networks.
const PAPER_REMOTE_NETWORKS: f64 = 285.0;
/// "About" a count: this fraction of it either way.
const REMOTE_NETWORKS_TOL_FRAC: f64 = 0.15;

/// Figure 9: remaining-transit reduction at 30 reached IXPs, peer group
/// 1 (open policies, "about 8%") and group 4 (all policies, "about 25%",
/// 27% inbound and 33% outbound).
const PAPER_FIG9_OPEN: f64 = 0.08;
const PAPER_FIG9_ALL: f64 = 0.25;
/// "About" a share: this many percentage points either way.
const FIG9_TOL: f64 = 0.05;

/// Figure 10: interfaces reachable only through transit, in billions,
/// before any IXP ("2.6 B") and after the first reached IXP (all
/// policies, "about 1 B").
const PAPER_FIG10_START: f64 = 2.6;
const PAPER_FIG10_AFTER_FIRST: f64 = 1.0;
/// "About" a count of billions: this many billions either way.
const FIG10_TOL_BILLIONS: f64 = 0.3;

/// Section 5: the viability boundary is `b* = ln(g(p−v)/(h(p−u)))`, where
/// the eq. 14 margin crosses 1; checked to floating-point precision.
const ECON_TOL: f64 = 1e-9;

/// Quantities outside their paper band in today's output, with the value
/// the reproduction printed when the gap was recorded (EXPERIMENTS.md,
/// "Known deviations"). Each is held to that value ± its band's tolerance.
const KNOWN_GAPS: [(&str, f64); 2] = [
    // Group 4's reduction overshoots: the study network's cone covers more
    // offloadable mass than RedIRIS's did.
    ("fig9.all_policies_reduction", 0.351_331),
    // Pre-existing CDN, GÉANT and home-IXP peerings already take address
    // space off the transit links before the first IXP.
    ("fig10.start_billions", 2.164_106),
];

/// One quantity checked against a paper band `paper ± tol`.
struct Check {
    name: String,
    value: f64,
    paper: f64,
    tol: f64,
}

fn band(checks: &mut Vec<Check>, name: impl Into<String>, value: f64, paper: f64, tol: f64) {
    checks.push(Check {
        name: name.into(),
        value,
        paper,
        tol,
    });
}

fn read(dir: &Path, name: &str) -> Value {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("no field {key:?} in {v}"))
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or_else(|| panic!("not a number: {v}"))
}

fn str_of(v: &Value) -> &str {
    v.as_str().unwrap_or_else(|| panic!("not a string: {v}"))
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Run `repro all` at paper scale, seed 42, into a fresh directory.
fn run_all() -> PathBuf {
    let out = std::env::temp_dir().join(format!("rp-paper-fidelity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "paper", "--seed", "42", "--out"])
        .arg(&out)
        .output()
        .expect("spawn repro all");
    assert!(
        run.status.success(),
        "repro all --scale paper failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    out
}

/// Every paper band, evaluated on the outputs in `dir`.
fn paper_checks(dir: &Path) -> Vec<Check> {
    let mut checks = Vec::new();

    let table1 = read(dir, "table1.json");
    band(
        &mut checks,
        "table1.total",
        num(field(&table1, "total_analyzed")),
        PAPER_TABLE1_TOTAL,
        PAPER_TABLE1_TOTAL * TABLE1_TOTAL_TOL_FRAC,
    );
    let rows = field(&table1, "rows").as_array().expect("table1 rows");
    assert_eq!(rows.len(), PAPER_TABLE1.len(), "table 1 lists 22 IXPs");
    for (ixp, paper) in PAPER_TABLE1 {
        let row = rows
            .iter()
            .find(|r| str_of(field(r, "ixp")) == ixp)
            .unwrap_or_else(|| panic!("table 1 has no row for {ixp}"));
        let paper = paper as f64;
        band(
            &mut checks,
            format!("table1.{ixp}"),
            num(field(row, "analyzed")),
            paper,
            (paper * TABLE1_IXP_TOL_FRAC).max(TABLE1_IXP_TOL_MIN),
        );
    }
    let discards = field(&table1, "discards")
        .as_array()
        .expect("discard vector");
    assert_eq!(discards.len(), PAPER_DISCARDS.len(), "six filters");
    for (i, (got, paper)) in discards.iter().zip(PAPER_DISCARDS).enumerate() {
        band(
            &mut checks,
            format!("table1.discards[{i}]"),
            num(got),
            paper,
            DISCARD_SIGMAS * paper.sqrt(),
        );
    }

    let fig3 = read(dir, "fig3.json");
    assert_eq!(
        num(field(&fig3, "total")),
        PAPER_IXPS_STUDIED,
        "22 studied IXPs"
    );
    band(
        &mut checks,
        "fig3.ixps_with_remote",
        num(field(&fig3, "with_remote")),
        PAPER_IXPS_WITH_REMOTE,
        IXPS_WITH_REMOTE_TOL,
    );
    for ixp in PAPER_NO_REMOTE {
        let row = field(&fig3, "rows")
            .as_array()
            .expect("fig3 rows")
            .iter()
            .find(|r| str_of(field(r, "ixp")) == ixp)
            .unwrap_or_else(|| panic!("fig 3 has no row for {ixp}"));
        band(
            &mut checks,
            format!("fig3.{ixp}.remote_fraction"),
            num(field(row, "remote_fraction")),
            0.0,
            0.0,
        );
    }

    let fig4a = read(dir, "fig4a.json");
    band(
        &mut checks,
        "fig4a.remote_networks",
        num(field(&fig4a, "remote_networks")),
        PAPER_REMOTE_NETWORKS,
        PAPER_REMOTE_NETWORKS * REMOTE_NETWORKS_TOL_FRAC,
    );

    // Reductions are listed by peer group: open, open + top-10 selective,
    // open + selective, all policies.
    let fig9 = read(dir, "fig9.json");
    let reductions = field(&fig9, "reductions")
        .as_array()
        .expect("fig9 reductions");
    assert_eq!(reductions.len(), 4, "four peer groups");
    band(
        &mut checks,
        "fig9.open_policies_reduction",
        num(&reductions[0]),
        PAPER_FIG9_OPEN,
        FIG9_TOL,
    );
    band(
        &mut checks,
        "fig9.all_policies_reduction",
        num(&reductions[3]),
        PAPER_FIG9_ALL,
        FIG9_TOL,
    );

    let fig10 = read(dir, "fig10.json");
    let all_policies = field(&fig10, "curves_billions")
        .as_array()
        .expect("fig10 curves")[3]
        .as_array()
        .expect("fig10 all-policies curve");
    band(
        &mut checks,
        "fig10.start_billions",
        num(&all_policies[0]),
        PAPER_FIG10_START,
        FIG10_TOL_BILLIONS,
    );
    band(
        &mut checks,
        "fig10.after_first_billions",
        num(&all_policies[1]),
        PAPER_FIG10_AFTER_FIRST,
        FIG10_TOL_BILLIONS,
    );

    let econ = read(dir, "econ.json");
    let base = rp_econ::CostParams::example();
    let boundary = (base.g * (base.p - base.v) / (base.h * (base.p - base.u))).ln();
    band(
        &mut checks,
        "econ.boundary_b",
        num(field(&econ, "boundary_b")),
        boundary,
        ECON_TOL,
    );
    let at_boundary = rp_econ::viability_margin(&rp_econ::CostParams {
        b: boundary,
        ..base
    });
    band(
        &mut checks,
        "econ.margin_at_boundary",
        at_boundary,
        1.0,
        ECON_TOL,
    );
    for row in field(&econ, "sweep").as_array().expect("econ sweep") {
        let b = num(field(row, "b"));
        assert_eq!(
            field(row, "viable").as_bool(),
            Some(b < boundary),
            "econ: b = {b} is viable exactly when b < b* = {boundary}"
        );
    }
    checks
}

#[test]
fn paper_scale_run_matches_the_paper_and_the_committed_results() {
    let out = run_all();
    let checks = paper_checks(&out);

    let mut failures = Vec::new();
    for (gap, _) in KNOWN_GAPS {
        assert!(
            checks.iter().any(|c| c.name == gap),
            "KNOWN_GAPS names {gap}, which no check produces"
        );
    }
    for c in &checks {
        let in_band = (c.value - c.paper).abs() <= c.tol;
        match KNOWN_GAPS.iter().find(|(name, _)| *name == c.name) {
            None if !in_band => failures.push(format!(
                "{}: {} is outside the paper band {} ± {}",
                c.name, c.value, c.paper, c.tol
            )),
            Some(_) if in_band => failures.push(format!(
                "{}: {} is back inside the paper band {} ± {}; remove it from KNOWN_GAPS",
                c.name, c.value, c.paper, c.tol
            )),
            Some(&(_, recorded)) if (c.value - recorded).abs() > c.tol => failures.push(format!(
                "{}: known gap moved from {recorded} to {} (more than ± {})",
                c.name, c.value, c.tol
            )),
            _ => {}
        }
    }
    assert!(
        failures.is_empty(),
        "paper fidelity:\n{}",
        failures.join("\n")
    );

    let committed = results_dir();
    let mut written: Vec<_> = std::fs::read_dir(&out)
        .expect("read output dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    written.sort();
    assert!(!written.is_empty(), "repro all wrote nothing");
    let mut differing = Vec::new();
    for name in &written {
        let fresh = std::fs::read(out.join(name)).expect("read fresh output");
        match std::fs::read(committed.join(name)) {
            Ok(old) if old == fresh => {}
            Ok(_) => differing.push(format!("{} differs", name.to_string_lossy())),
            Err(_) => differing.push(format!("{} is not in results/", name.to_string_lossy())),
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        differing.is_empty(),
        "repro all --scale paper --seed 42 no longer reproduces results/ \
         (regenerate with `repro all --scale paper --out results`):\n{}",
        differing.join("\n")
    );
}
