//! The metamorphic invariant suite.
//!
//! Each checker states a *metamorphic relation*: a provable statement
//! about how a pipeline stage's output must change (or not change) under a
//! controlled perturbation of its input. No golden values — the oracle is
//! the relation itself, so the suite keeps working when scales, seeds, and
//! datasets move.
//!
//! Every checker takes the function under test as a closure, never calling
//! the production code directly. Production wiring (in [`crate::check`])
//! passes the real pipeline functions; the unit tests below pass
//! deliberately broken ones and assert the harness flags them — a mutated
//! oracle per invariant, proving each check can actually fail.
//!
//! Relations that are *not* provable are deliberately absent. "Dropping
//! probes never flips a filter from discard to keep" is false in general
//! (losing exactly the replies that carried a second TTL value un-trips
//! the TTL-switch filter), so the loss invariant here is restricted to the
//! sample-size stage, where removal provably cannot help.

use rand::rngs::StdRng;
use rand::RngExt;
use remote_peering::filters::Discard;
use remote_peering::probe::InterfaceSamples;
use rp_econ::CostParams;
use rp_types::stats::Accumulator;
use serde_json::{json, Value};
use std::fmt::Debug;

/// One violated invariant, with enough detail to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant.
    pub invariant: &'static str,
    /// What was observed (inputs and outputs, rendered).
    pub detail: String,
}

/// Accumulates check outcomes across the suite.
#[derive(Debug, Default)]
pub struct Harness {
    /// Individual relations evaluated.
    pub checks: u64,
    /// Relations that did not hold.
    pub violations: Vec<Violation>,
}

impl Harness {
    /// An empty harness.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Record one relation's outcome. `detail` is only rendered on
    /// failure.
    pub fn check(&mut self, invariant: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(Violation {
                invariant,
                detail: detail(),
            });
        }
    }

    /// True when nothing has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Report rendering: total checks plus every violation.
    pub fn to_json(&self) -> Value {
        json!({
            "checks": self.checks,
            "violations": Value::Array(
                self.violations
                    .iter()
                    .map(|v| json!({ "invariant": v.invariant, "detail": v.detail }))
                    .collect(),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// Classification invariants
// ---------------------------------------------------------------------------

/// Classification is monotone in RTT: adding a non-negative delta to a
/// minimum RTT never moves its class *toward* local. `classify` maps an
/// RTT to its class index (0 = most local).
pub fn classify_monotone(
    h: &mut Harness,
    classify: &dyn Fn(f64) -> usize,
    rtts: &[f64],
    deltas: &[f64],
) {
    for &rtt in rtts {
        for &delta in deltas {
            let (a, b) = (classify(rtt), classify(rtt + delta));
            h.check("classify_monotone", b >= a, || {
                format!("class({rtt}) = {a} but class({rtt} + {delta}) = {b}")
            });
        }
    }
}

/// The remote count is non-increasing in the remoteness threshold:
/// raising the bar never makes *more* interfaces remote. `remote_count`
/// maps a threshold (ms) to the number of interfaces called remote.
pub fn threshold_monotone(
    h: &mut Harness,
    remote_count: &dyn Fn(f64) -> usize,
    thresholds: &[f64],
) {
    let mut sorted = thresholds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
    for pair in sorted.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let (a, b) = (remote_count(lo), remote_count(hi));
        h.check("threshold_monotone", b <= a, || {
            format!("remote({lo} ms) = {a} but remote({hi} ms) = {b}")
        });
    }
}

// ---------------------------------------------------------------------------
// Filter invariants
// ---------------------------------------------------------------------------

/// The filter verdict ignores reply order: shuffling the replies within
/// each LG server's list leaves the outcome bit-identical (the filters
/// aggregate over sets — counts, minima, TTL sets).
pub fn permutation_invariant<K: PartialEq + Debug>(
    h: &mut Harness,
    apply: &dyn Fn(&InterfaceSamples) -> K,
    samples: &InterfaceSamples,
    rng: &mut StdRng,
) {
    let before = apply(samples);
    let mut shuffled = samples.clone();
    for (_, replies) in &mut shuffled.per_lg {
        // Fisher–Yates with the harness's own stream.
        for i in (1..replies.len()).rev() {
            let j = rng.random_range(0..(i + 1));
            replies.swap(i, j);
        }
    }
    let after = apply(&shuffled);
    h.check("filter_permutation_invariant", before == after, || {
        format!("{} reorder flipped {before:?} to {after:?}", samples.ip)
    });
}

/// Sample-size discards are absorbing under further loss: once an
/// interface lacks replies, removing another reply cannot resurrect it.
/// (Restricted to the sample-size stage on purpose — see the module docs.)
pub fn loss_conservative<K: Debug>(
    h: &mut Harness,
    apply: &dyn Fn(&InterfaceSamples) -> Result<K, Discard>,
    samples: &InterfaceSamples,
    rng: &mut StdRng,
) {
    if !matches!(apply(samples), Err(Discard::SampleSize)) {
        return;
    }
    let mut thinner = samples.clone();
    let populated: Vec<usize> = thinner
        .per_lg
        .iter()
        .enumerate()
        .filter(|(_, (_, r))| !r.is_empty())
        .map(|(i, _)| i)
        .collect();
    if populated.is_empty() {
        return;
    }
    let lg = populated[rng.random_range(0..populated.len())];
    let replies = &mut thinner.per_lg[lg].1;
    let victim = rng.random_range(0..replies.len());
    replies.remove(victim);
    let after = apply(&thinner);
    h.check(
        "filter_loss_conservative",
        matches!(after, Err(Discard::SampleSize)),
        || {
            format!(
                "{} was a sample-size discard but became {after:?} after losing a reply",
                samples.ip
            )
        },
    );
}

/// Uniform RTT inflation never discards a kept interface, and moves its
/// classification only toward remote. Provable for the paper's filters:
/// the RTT-consistency bound `min + max(5, 0.1·min)` grows at least as
/// fast as the minimum itself, so every reply near the old minimum stays
/// near the new one; the same argument covers the LG cross-check.
pub fn inflation_preserves_keep<K>(
    h: &mut Harness,
    apply: &dyn Fn(&InterfaceSamples) -> Result<K, Discard>,
    classify: &dyn Fn(f64) -> usize,
    samples: &InterfaceSamples,
    delta_ms: f64,
) {
    debug_assert!(delta_ms >= 0.0);
    if apply(samples).is_err() {
        return;
    }
    let before_min = samples.min_rtt_ms().expect("kept interfaces have replies");
    let mut inflated = samples.clone();
    for (_, replies) in &mut inflated.per_lg {
        for s in replies {
            s.rtt_ms += delta_ms;
        }
    }
    match apply(&inflated) {
        Err(d) => h.check("filter_inflation_keeps_keep", false, || {
            format!(
                "{} kept at min {before_min} ms but discarded ({d:?}) after +{delta_ms} ms",
                samples.ip
            )
        }),
        Ok(_) => {
            let after_min = inflated.min_rtt_ms().expect("still has replies");
            let (a, b) = (classify(before_min), classify(after_min));
            h.check("filter_inflation_keeps_keep", b >= a, || {
                format!(
                    "{} moved toward local under inflation: class {a} at {before_min} ms, \
                     class {b} at {after_min} ms",
                    samples.ip
                )
            });
        }
    }
}

/// Rewriting one reply's TTL to a value outside the accepted set always
/// discards a previously kept interface — through the TTL-switch stage
/// (two distinct TTLs now present) or, when the rewritten reply is the
/// only one, the TTL-match stage.
pub fn ttl_rewrite_discards<K: Debug>(
    h: &mut Harness,
    apply: &dyn Fn(&InterfaceSamples) -> Result<K, Discard>,
    samples: &InterfaceSamples,
    bad_ttl: u8,
    rng: &mut StdRng,
) {
    if apply(samples).is_err() {
        return;
    }
    let mut rewritten = samples.clone();
    let populated: Vec<usize> = rewritten
        .per_lg
        .iter()
        .enumerate()
        .filter(|(_, (_, r))| !r.is_empty())
        .map(|(i, _)| i)
        .collect();
    if populated.is_empty() {
        return;
    }
    let lg = populated[rng.random_range(0..populated.len())];
    let replies = &mut rewritten.per_lg[lg].1;
    let victim = rng.random_range(0..replies.len());
    if replies[victim].ttl == bad_ttl {
        return; // the rewrite would be a no-op; nothing to assert
    }
    replies[victim].ttl = bad_ttl;
    let after = apply(&rewritten);
    h.check(
        "filter_ttl_rewrite_discards",
        matches!(after, Err(Discard::TtlSwitch) | Err(Discard::TtlMatch)),
        || {
            format!(
                "{} kept, then TTL {bad_ttl} injected, expected a TTL discard but got {after:?}",
                samples.ip
            )
        },
    );
}

// ---------------------------------------------------------------------------
// Offload, econ, stats, and round-trip invariants
// ---------------------------------------------------------------------------

/// Offload potential is monotone under membership growth: adding a member
/// to an IXP never shrinks any peer group's offload potential there. The
/// caller evaluates the potentials before and after the addition and
/// passes the pairs; this checker owns only the relation.
pub fn cone_monotone(h: &mut Harness, pairs: &[(&'static str, f64, f64)]) {
    for &(label, before, after) in pairs {
        h.check("offload_member_add_monotone", after >= before, || {
            format!("{label}: potential fell from {before} to {after} after adding a member")
        })
    }
}

/// Eq. 14's viability verdict is scale-free: multiplying all per-traffic
/// prices `(p, u, v)` by a common factor — or both per-IXP costs
/// `(g, h)` — leaves the viability margin unchanged (the margin is a
/// ratio of price *differences*).
pub fn econ_scale_invariant(
    h: &mut Harness,
    margin: &dyn Fn(&CostParams) -> f64,
    params: &CostParams,
    lambdas: &[f64],
) {
    let base = margin(params);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for &l in lambdas {
        let mut traffic = *params;
        traffic.p *= l;
        traffic.u *= l;
        traffic.v *= l;
        let mt = margin(&traffic);
        h.check("econ_viability_scale_invariant", close(mt, base), || {
            format!("margin {base} became {mt} after scaling (p,u,v) by {l}")
        });
        let mut fixed = *params;
        fixed.g *= l;
        fixed.h *= l;
        let mf = margin(&fixed);
        h.check("econ_viability_scale_invariant", close(mf, base), || {
            format!("margin {base} became {mf} after scaling (g,h) by {l}")
        });
    }
}

/// Paired deltas are antisymmetric: swapping the two accumulators negates
/// every delta — the property that makes paired comparisons direction-
/// agnostic, and one that survives arbitrary fault-induced value changes.
pub fn paired_delta_antisymmetric(
    h: &mut Harness,
    deltas: &dyn Fn(&Accumulator, &Accumulator) -> Vec<f64>,
    a: &Accumulator,
    b: &Accumulator,
) {
    let fwd = deltas(a, b);
    let rev = deltas(b, a);
    let ok = fwd.len() == rev.len()
        && fwd
            .iter()
            .zip(&rev)
            .all(|(x, y)| (x + y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0));
    h.check("paired_delta_antisymmetry", ok, || {
        format!("deltas(a,b) = {fwd:?} but deltas(b,a) = {rev:?}")
    });
}

/// Budget-partition invariance: [`Campaign::memory_budget_bytes`] only
/// sets how many IXPs `probe_all` runs side by side, so the same world
/// must produce *bit-identical* metrics under every budget. `metrics` maps
/// a budget to the run's named metric values; `None` (one chunk holding
/// every IXP) is the reference each budget is held to. The comparison is
/// on the float bits, not within a tolerance: chunks concatenate in
/// studied-IXP order, so any drift at all is a chunking bug.
///
/// [`Campaign::memory_budget_bytes`]: remote_peering::campaign::Campaign::memory_budget_bytes
pub fn budget_partition_invariant(
    h: &mut Harness,
    metrics: &dyn Fn(Option<u64>) -> Vec<(&'static str, f64)>,
    budgets: &[u64],
) {
    let reference = metrics(None);
    for &budget in budgets {
        let got = metrics(Some(budget));
        let ok = got.len() == reference.len()
            && got
                .iter()
                .zip(&reference)
                .all(|((gn, gv), (rn, rv))| gn == rn && gv.to_bits() == rv.to_bits());
        h.check("budget_partition_invariant", ok, || {
            let diffs: Vec<String> = reference
                .iter()
                .zip(&got)
                .filter(|((_, rv), (_, gv))| rv.to_bits() != gv.to_bits())
                .map(|((name, rv), (_, gv))| format!("{name}: {rv} vs {gv}"))
                .collect();
            format!(
                "run under a {budget}-byte budget diverged from the unbudgeted reference: {}",
                if diffs.is_empty() {
                    "metric sets differ in shape".to_string()
                } else {
                    diffs.join(", ")
                }
            )
        });
    }
}

/// Fork commutativity: applying deltas A then B on one fork must equal
/// forking twice (A on one child, B on the other) and merging the second
/// into the first. `sequential` and `merged` each build their fork chain
/// and render a digest of the resulting world (content fingerprint of
/// the scene plus the fork's memo key); the two digests must be
/// identical — a divergence means delta application depends on which
/// fork object replayed it, exactly the aliasing bug copy-on-write
/// forking must not have.
pub fn fork_commutative(
    h: &mut Harness,
    sequential: &dyn Fn() -> String,
    merged: &dyn Fn() -> String,
) {
    let (a, b) = (sequential(), merged());
    h.check("fork_commutative", a == b, || {
        format!("sequential fork digest {a} but fork-and-merge digest {b}")
    });
}

/// Replay exactness: running the same seeded computation twice produces
/// bit-identical results. This is the invariant the whole fault harness
/// rests on — a fault sequence must be a pure function of its seed.
pub fn replay_exact<T: PartialEq + Debug>(
    h: &mut Harness,
    label: &'static str,
    run: &dyn Fn() -> T,
) {
    let (a, b) = (run(), run());
    h.check("replay_exact", a == b, || {
        format!("{label}: first run {a:?}, second run {b:?}")
    });
}

/// Serialization round-trips are stable: re-serializing a parsed document
/// reproduces it exactly, so specs survive being written, read, and
/// written again. `reserialize` parses `text` and renders it back.
pub fn roundtrip_stable(
    h: &mut Harness,
    reserialize: &dyn Fn(&str) -> Result<String, String>,
    name: &str,
    text: &str,
) {
    match reserialize(text) {
        Err(e) => h.check("spec_roundtrip_stable", false, || {
            format!("{name}: canonical form failed to re-parse: {e}")
        }),
        Ok(once) => match reserialize(&once) {
            Err(e) => h.check("spec_roundtrip_stable", false, || {
                format!("{name}: round-tripped form failed to re-parse: {e}")
            }),
            Ok(twice) => h.check("spec_roundtrip_stable", once == twice, || {
                format!("{name}: round-trip unstable:\n  first:  {once}\n  second: {twice}")
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remote_peering::classify::RttRange;
    use remote_peering::filters::{self, FilterConfig};
    use remote_peering::probe::Sample;
    use rp_econ::viability_margin;
    use rp_ixp::{LgOperator, ListingEntry};
    use rp_scenario::ScenarioSpec;
    use rp_types::stats::paired_deltas;
    use rp_types::{seed, Asn, SimTime};
    use std::cell::Cell;

    fn rng() -> StdRng {
        seed::rng(7, "invariant-test", 0)
    }

    fn class_index(rtt: f64) -> usize {
        RttRange::ALL
            .iter()
            .position(|r| *r == RttRange::of(rtt))
            .expect("RttRange::of returns a member of ALL")
    }

    /// Samples with `n` healthy replies per LG around `rtt` ms at `ttl`.
    fn healthy(n: usize, rtt: f64, ttl: u8) -> InterfaceSamples {
        let replies = |base: f64| -> Vec<Sample> {
            (0..n)
                .map(|k| Sample {
                    sent_at: SimTime::ZERO,
                    rtt_ms: base + 0.02 * k as f64,
                    ttl,
                })
                .collect()
        };
        InterfaceSamples {
            ip: "10.1.2.2".parse().unwrap(),
            per_lg: vec![
                (LgOperator::Pch, replies(rtt)),
                (LgOperator::RipeNcc, replies(rtt + 0.4)),
            ],
            unanswered: vec![(LgOperator::Pch, 0), (LgOperator::RipeNcc, 0)],
        }
    }

    fn real_apply(
        s: &InterfaceSamples,
    ) -> Result<remote_peering::filters::AnalyzedInterface, Discard> {
        let entry = ListingEntry {
            ip: s.ip,
            asns: vec![Asn(64500)],
        };
        filters::apply(s, &entry, &FilterConfig::default())
    }

    const RTTS: [f64; 6] = [0.4, 8.0, 11.0, 19.5, 42.0, 120.0];
    const DELTAS: [f64; 4] = [0.0, 0.5, 9.0, 60.0];

    #[test]
    fn classify_monotone_real_and_mutated() {
        let mut h = Harness::new();
        classify_monotone(&mut h, &class_index, &RTTS, &DELTAS);
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: an inverted classifier must be flagged.
        let mut h = Harness::new();
        classify_monotone(&mut h, &|r| if r > 15.0 { 0 } else { 3 }, &RTTS, &DELTAS);
        assert!(!h.ok());
        assert!(h
            .violations
            .iter()
            .all(|v| v.invariant == "classify_monotone"));
    }

    #[test]
    fn threshold_monotone_real_and_mutated() {
        let mins = [0.5, 3.0, 9.9, 10.0, 14.0, 33.0, 80.0];
        let count = |t: f64| mins.iter().filter(|&&m| m >= t).count();
        let mut h = Harness::new();
        threshold_monotone(&mut h, &count, &[5.0, 10.0, 20.0, 50.0]);
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: a count that *grows* with the threshold.
        let mut h = Harness::new();
        threshold_monotone(&mut h, &|t| t as usize, &[5.0, 10.0, 20.0]);
        assert!(!h.ok());
    }

    #[test]
    fn permutation_invariant_real_and_mutated() {
        let mut h = Harness::new();
        permutation_invariant(&mut h, &real_apply, &healthy(9, 2.0, 255), &mut rng());
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: an order-sensitive "filter" (returns the first
        // reply's RTT) must be flagged.
        let first = |s: &InterfaceSamples| s.per_lg[0].1.first().map(|r| r.rtt_ms.to_bits());
        let mut h = Harness::new();
        permutation_invariant(&mut h, &first, &healthy(9, 2.0, 255), &mut rng());
        assert!(!h.ok());
    }

    #[test]
    fn loss_conservative_real_and_mutated() {
        // 5 replies per LG < the default 8 → a sample-size discard.
        let starved = healthy(5, 2.0, 255);
        let mut h = Harness::new();
        for i in 0..20 {
            let mut r = seed::rng(7, "loss", i);
            loss_conservative(&mut h, &real_apply, &starved, &mut r);
        }
        assert!(h.ok(), "{:?}", h.violations);
        assert!(h.checks > 0);

        // Mutated oracle: discards at exactly 10 total replies and keeps
        // below — losing a reply then flips discard→keep.
        let flip = |s: &InterfaceSamples| -> Result<(), Discard> {
            if s.reply_count() == 10 {
                Err(Discard::SampleSize)
            } else {
                Ok(())
            }
        };
        let mut h = Harness::new();
        loss_conservative(&mut h, &flip, &starved, &mut rng());
        assert!(!h.ok());
    }

    #[test]
    fn inflation_preserves_keep_real_and_mutated() {
        let mut h = Harness::new();
        for &rtt in &RTTS {
            for &d in &DELTAS {
                inflation_preserves_keep(
                    &mut h,
                    &real_apply,
                    &class_index,
                    &healthy(9, rtt, 255),
                    d,
                );
            }
        }
        assert!(h.ok(), "{:?}", h.violations);
        assert!(h.checks > 0);

        // Mutated oracle: a filter with an absolute RTT ceiling is not
        // inflation-stable.
        let ceiling = |s: &InterfaceSamples| -> Result<(), Discard> {
            match s.min_rtt_ms() {
                Some(m) if m > 30.0 => Err(Discard::RttConsistent),
                Some(_) => Ok(()),
                None => Err(Discard::SampleSize),
            }
        };
        let mut h = Harness::new();
        inflation_preserves_keep(&mut h, &ceiling, &class_index, &healthy(9, 2.0, 255), 60.0);
        assert!(!h.ok());
    }

    #[test]
    fn ttl_rewrite_discards_real_and_mutated() {
        let mut h = Harness::new();
        ttl_rewrite_discards(&mut h, &real_apply, &healthy(9, 2.0, 255), 7, &mut rng());
        assert!(h.ok(), "{:?}", h.violations);
        assert_eq!(h.checks, 1);

        // Mutated oracle: a TTL-blind filter must be flagged.
        let blind = |_: &InterfaceSamples| -> Result<(), Discard> { Ok(()) };
        let mut h = Harness::new();
        ttl_rewrite_discards(&mut h, &blind, &healthy(9, 2.0, 255), 7, &mut rng());
        assert!(!h.ok());
    }

    #[test]
    fn cone_monotone_real_and_mutated() {
        let mut h = Harness::new();
        cone_monotone(&mut h, &[("open", 10.0, 10.0), ("all", 10.0, 12.5)]);
        assert!(h.ok(), "{:?}", h.violations);

        let mut h = Harness::new();
        cone_monotone(&mut h, &[("open", 10.0, 9.0)]);
        assert!(!h.ok());
    }

    #[test]
    fn econ_scale_invariant_real_and_mutated() {
        let margin = |p: &CostParams| viability_margin(p);
        let mut h = Harness::new();
        econ_scale_invariant(
            &mut h,
            &margin,
            &CostParams::example(),
            &[0.25, 2.0, 1000.0],
        );
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: a margin that depends on the absolute price.
        let absolute = |p: &CostParams| p.g * (p.p - p.v) / p.h;
        let mut h = Harness::new();
        econ_scale_invariant(&mut h, &absolute, &CostParams::example(), &[2.0]);
        assert!(!h.ok());
    }

    #[test]
    fn paired_delta_antisymmetry_real_and_mutated() {
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for i in 0..8u64 {
            a.record(i, i as f64 * 1.5);
            b.record(i, 10.0 - i as f64);
        }
        b.record(99, 3.0); // unpaired replicate, must be ignored symmetrically
        let mut h = Harness::new();
        paired_delta_antisymmetric(&mut h, &|x, y| paired_deltas(x, y), &a, &b);
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: a direction-blind delta.
        let mut h = Harness::new();
        paired_delta_antisymmetric(&mut h, &|_, _| vec![1.0], &a, &b);
        assert!(!h.ok());
    }

    #[test]
    fn budget_partition_invariant_real_and_mutated() {
        use remote_peering::campaign::Campaign;
        use remote_peering::metrics::{MethodParams, PreparedRun, RunMetrics};
        use remote_peering::world::{World, WorldConfig};
        let world = World::build(&WorldConfig::test_scale(23));
        let worst = world
            .scene
            .studied()
            .map(Campaign::approx_probe_bytes)
            .max()
            .expect("studied IXPs");
        let metrics = |budget: Option<u64>| {
            let campaign = Campaign {
                memory_budget_bytes: budget,
                ..Campaign::default_paper()
            };
            let run = PreparedRun::probe(world.clone(), &campaign);
            RunMetrics::collect(&run, &MethodParams::default())
                .named()
                .to_vec()
        };
        let mut h = Harness::new();
        budget_partition_invariant(&mut h, &metrics, &[worst, 2 * worst]);
        assert!(h.ok(), "{:?}", h.violations);
        assert_eq!(h.checks, 2);

        // Mutated oracle: a run whose first metric drifts by one ulp at
        // chunk width 2 only, the shape of a chunk-order bug. The checker
        // must fire on that width and stay quiet on the other.
        let mutated = |budget: Option<u64>| {
            let mut m = metrics(budget);
            if budget == Some(2 * worst) {
                m[0].1 = f64::from_bits(m[0].1.to_bits() ^ 1);
            }
            m
        };
        let mut h = Harness::new();
        budget_partition_invariant(&mut h, &mutated, &[worst, 2 * worst]);
        assert_eq!(h.checks, 2);
        assert_eq!(h.violations.len(), 1, "{:?}", h.violations);
        assert_eq!(h.violations[0].invariant, "budget_partition_invariant");
    }

    #[test]
    fn fork_commutative_real_and_mutated() {
        use remote_peering::fork::Delta;
        use remote_peering::world::{World, WorldConfig};
        let world = World::build(&WorldConfig::test_scale(23));
        let ixps = world.studied_ixps();
        let da = Delta::RowStale {
            ixp: ixps[0],
            slot: 0,
        };
        let db = Delta::PortUpgrade {
            ixp: ixps[1],
            slot: 0,
            delay_ms: 0.05,
        };
        let digest = |f: &remote_peering::fork::WorldFork| {
            format!(
                "{:016x}:{:016x}",
                f.fingerprint(),
                remote_peering::memo::fingerprint(&f.world().scene)
            )
        };

        let mut h = Harness::new();
        fork_commutative(
            &mut h,
            &|| {
                let mut f = world.fork();
                f.apply(da.clone());
                f.apply(db.clone());
                digest(&f)
            },
            &|| {
                let mut fa = world.fork();
                fa.apply(da.clone());
                let mut fb = world.fork();
                fb.apply(db.clone());
                fa.absorb(&fb);
                digest(&fa)
            },
        );
        assert!(h.ok(), "{:?}", h.violations);
        assert_eq!(h.checks, 1);

        // Mutated oracle: a merge that silently drops the other fork's
        // deltas — the worlds diverge and the checker must fire.
        let mut h = Harness::new();
        fork_commutative(
            &mut h,
            &|| {
                let mut f = world.fork();
                f.apply(da.clone());
                f.apply(db.clone());
                digest(&f)
            },
            &|| {
                let mut fa = world.fork();
                fa.apply(da.clone());
                let _dropped = world.fork();
                digest(&fa)
            },
        );
        assert!(!h.ok());
        assert!(h
            .violations
            .iter()
            .all(|v| v.invariant == "fork_commutative"));
    }

    #[test]
    fn replay_exact_real_and_mutated() {
        let mut h = Harness::new();
        replay_exact(&mut h, "seeded-draw", &|| {
            seed::rng(11, "replay", 0).random::<u64>()
        });
        assert!(h.ok(), "{:?}", h.violations);

        // Mutated oracle: hidden state across runs.
        let calls = Cell::new(0u64);
        let mut h = Harness::new();
        replay_exact(&mut h, "stateful", &|| {
            calls.set(calls.get() + 1);
            calls.get()
        });
        assert!(!h.ok());
    }

    #[test]
    fn roundtrip_stable_real_and_mutated() {
        let reser = |text: &str| -> Result<String, String> {
            ScenarioSpec::from_json(text)
                .map(|s| serde_json::to_string(&s.to_json()).expect("spec renders"))
                .map_err(|e| e.to_string())
        };
        let mut h = Harness::new();
        for name in ScenarioSpec::preset_names() {
            let spec = ScenarioSpec::preset(name).expect("listed preset exists");
            let text = serde_json::to_string(&spec.to_json()).expect("spec renders");
            roundtrip_stable(&mut h, &reser, name, &text);
        }
        assert!(h.ok(), "{:?}", h.violations);
        assert!(h.checks > 0);

        // Mutated oracle: a re-serializer that keeps appending.
        let growing = |text: &str| -> Result<String, String> { Ok(format!("{text} ")) };
        let mut h = Harness::new();
        roundtrip_stable(&mut h, &growing, "growing", "{}");
        assert!(!h.ok());
    }
}
