//! The six conservative filters of section 3.1, in the paper's order:
//! sample-size, TTL-switch, TTL-match, RTT-consistent, LG-consistent,
//! ASN-change.
//!
//! The paper reports that across the 22 IXPs the filters discarded
//! 20, 82, 20, 100, 28, and 5 interfaces respectively, leaving 4,451
//! analyzed interfaces. [`FilterStats`] reproduces that accounting for the
//! simulated campaign.

use crate::probe::ProbeRow;
use rp_ixp::registry::ListingEntry;
use rp_types::Asn;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Why an interface was removed from the analyzed set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Discard {
    /// Fewer than `min_replies_per_lg` replies from some probing LG server
    /// (blackholing, absent device, or plain unresponsiveness).
    SampleSize,
    /// The reply TTL changed during the measurement period (e.g. an
    /// operating-system change).
    TtlSwitch,
    /// The reply TTL is not one of the expected initial values (64 or
    /// 255) — the reply crossed an IP hop, or the device runs an
    /// infrequent TTL default.
    TtlMatch,
    /// Too few replies near the minimum RTT (persistent congestion makes
    /// the minimum untrustworthy).
    RttConsistent,
    /// The two LG servers' minimum RTTs disagree beyond the tolerance.
    LgConsistent,
    /// The registry's ASN mapping for the address changed mid-campaign.
    AsnChange,
}

impl Discard {
    /// All variants in application order.
    pub const ORDER: [Discard; 6] = [
        Discard::SampleSize,
        Discard::TtlSwitch,
        Discard::TtlMatch,
        Discard::RttConsistent,
        Discard::LgConsistent,
        Discard::AsnChange,
    ];

    /// Stable snake_case key for reports and metric names.
    pub fn key(self) -> &'static str {
        match self {
            Discard::SampleSize => "sample_size",
            Discard::TtlSwitch => "ttl_switch",
            Discard::TtlMatch => "ttl_match",
            Discard::RttConsistent => "rtt_consistent",
            Discard::LgConsistent => "lg_consistent",
            Discard::AsnChange => "asn_change",
        }
    }
}

/// Filter thresholds (defaults = the paper's).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Minimum replies per probing LG server (paper: 8).
    pub min_replies_per_lg: usize,
    /// Accepted initial-TTL values (paper: 64 and 255).
    pub accepted_ttls: [u8; 2],
    /// Absolute part of the consistency tolerance, ms (paper: 5).
    pub tolerance_abs_ms: f64,
    /// Relative part of the consistency tolerance (paper: 10%).
    pub tolerance_rel: f64,
    /// Minimum replies within tolerance of the minimum RTT (paper: 4).
    pub min_consistent_replies: usize,
    /// Disable one filter (ablation studies: what does each conservative
    /// filter actually buy?). `None` = the paper's full pipeline.
    pub skip: Option<Discard>,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            min_replies_per_lg: 8,
            accepted_ttls: [64, 255],
            tolerance_abs_ms: 5.0,
            tolerance_rel: 0.10,
            min_consistent_replies: 4,
            skip: None,
        }
    }
}

impl FilterConfig {
    /// The consistency bound above a minimum of `min_ms`:
    /// `min + max{5 ms, 10% · min}`.
    pub fn bound_above(&self, min_ms: f64) -> f64 {
        min_ms + self.tolerance_abs_ms.max(self.tolerance_rel * min_ms)
    }
}

/// An interface that survived all six filters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyzedInterface {
    /// The analyzed interface's address.
    pub ip: Ipv4Addr,
    /// Minimum RTT over all accepted replies from all LG servers.
    pub min_rtt_ms: f64,
    /// Stable ASN mapping from the registry (`None` = unidentifiable).
    pub asn: Option<Asn>,
}

/// Per-filter discard accounting over a set of probed interfaces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Interfaces probed.
    pub probed: usize,
    /// Discards by the sample-size filter.
    pub sample_size: usize,
    /// Discards by the TTL-switch filter.
    pub ttl_switch: usize,
    /// Discards by the TTL-match filter.
    pub ttl_match: usize,
    /// Discards by the RTT-consistent filter.
    pub rtt_consistent: usize,
    /// Discards by the LG-consistent filter.
    pub lg_consistent: usize,
    /// Discards by the ASN-change filter.
    pub asn_change: usize,
    /// Interfaces surviving all six filters.
    pub analyzed: usize,
}

impl FilterStats {
    /// Record one outcome.
    pub fn record(&mut self, outcome: &Result<AnalyzedInterface, Discard>) {
        self.probed += 1;
        match outcome {
            Ok(_) => self.analyzed += 1,
            Err(Discard::SampleSize) => self.sample_size += 1,
            Err(Discard::TtlSwitch) => self.ttl_switch += 1,
            Err(Discard::TtlMatch) => self.ttl_match += 1,
            Err(Discard::RttConsistent) => self.rtt_consistent += 1,
            Err(Discard::LgConsistent) => self.lg_consistent += 1,
            Err(Discard::AsnChange) => self.asn_change += 1,
        }
    }

    /// Merge another accounting into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        self.probed += other.probed;
        self.sample_size += other.sample_size;
        self.ttl_switch += other.ttl_switch;
        self.ttl_match += other.ttl_match;
        self.rtt_consistent += other.rtt_consistent;
        self.lg_consistent += other.lg_consistent;
        self.asn_change += other.asn_change;
        self.analyzed += other.analyzed;
    }

    /// Discards in the paper's application order.
    pub fn in_order(&self) -> [usize; 6] {
        [
            self.sample_size,
            self.ttl_switch,
            self.ttl_match,
            self.rtt_consistent,
            self.lg_consistent,
            self.asn_change,
        ]
    }

    /// Push this accounting into the process-wide metrics registry
    /// (`core.filters.*`). A no-op while collection is disabled, so the
    /// per-IXP call in the detection study costs one branch.
    pub fn publish_metrics(&self) {
        if !rp_obs::enabled() {
            return;
        }
        rp_obs::counter!("core.filters.probed").add(self.probed as u64);
        rp_obs::counter!("core.filters.analyzed").add(self.analyzed as u64);
        rp_obs::counter!("core.filters.discard.sample_size").add(self.sample_size as u64);
        rp_obs::counter!("core.filters.discard.ttl_switch").add(self.ttl_switch as u64);
        rp_obs::counter!("core.filters.discard.ttl_match").add(self.ttl_match as u64);
        rp_obs::counter!("core.filters.discard.rtt_consistent").add(self.rtt_consistent as u64);
        rp_obs::counter!("core.filters.discard.lg_consistent").add(self.lg_consistent as u64);
        rp_obs::counter!("core.filters.discard.asn_change").add(self.asn_change as u64);
    }

    /// The filter funnel as a JSON object: interfaces probed, discards per
    /// stage in application order, and the analyzed remainder (the run
    /// report's uniform rendering of this accounting).
    pub fn funnel_json(&self) -> serde_json::Value {
        let stages = Discard::ORDER
            .iter()
            .zip(self.in_order())
            .map(|(d, n)| (d.key().to_string(), serde_json::json!(n)))
            .collect();
        serde_json::json!({
            "probed": self.probed,
            "discards": serde_json::Value::Object(stages),
            "analyzed": self.analyzed,
        })
    }
}

/// Apply the six filters to one interface's samples and registry entry.
///
/// Generic over [`ProbeRow`] so the funnel streams
/// [`ProbePlane`](crate::probe::ProbePlane) rows — contiguous slices, no per-row
/// allocation — and still accepts owned
/// [`InterfaceSamples`](crate::probe::InterfaceSamples) from the testkit's
/// perturbation harness.
pub fn apply<R: ProbeRow>(
    samples: &R,
    entry: &ListingEntry,
    cfg: &FilterConfig,
) -> Result<AnalyzedInterface, Discard> {
    let on = |f: Discard| cfg.skip != Some(f);
    let groups = samples.lg_count();

    // 1. Sample-size: enough replies from every probing LG server.
    if on(Discard::SampleSize) {
        for k in 0..groups {
            if samples.lg(k).1.len() < cfg.min_replies_per_lg {
                return Err(Discard::SampleSize);
            }
        }
    }
    // With sample-size ablated an interface may carry zero replies and
    // cannot be analyzed either way; treat it as the same discard so the
    // ablation measures the filter's *judgement*, not arithmetic on empty
    // sets.
    if samples.reply_total() == 0 {
        return Err(Discard::SampleSize);
    }

    // 2. TTL-switch: replies must all carry one TTL value.
    let mut ttls: Vec<u8> = (0..groups)
        .flat_map(|k| samples.lg(k).1.iter().map(|s| s.ttl))
        .collect();
    ttls.sort_unstable();
    ttls.dedup();
    if on(Discard::TtlSwitch) && ttls.len() > 1 {
        return Err(Discard::TtlSwitch);
    }

    // 3. TTL-match: that value must be an expected initial TTL.
    let ttl = ttls[0];
    if on(Discard::TtlMatch) && !cfg.accepted_ttls.contains(&ttl) {
        return Err(Discard::TtlMatch);
    }

    // 4. RTT-consistent: the minimum must be corroborated by nearby
    // replies.
    let min = samples.min_rtt().expect("replies checked above");
    if on(Discard::RttConsistent) {
        let bound = cfg.bound_above(min);
        let near: usize = (0..groups)
            .map(|k| samples.lg(k).1.iter().filter(|s| s.rtt_ms <= bound).count())
            .sum();
        if near < cfg.min_consistent_replies {
            return Err(Discard::RttConsistent);
        }
    }

    // 5. LG-consistent: with two LG servers, the larger of the two minimum
    // RTTs must sit within tolerance of the smaller.
    if on(Discard::LgConsistent) && groups >= 2 {
        let mut small = f64::INFINITY;
        let mut large = 0.0f64;
        for k in 0..groups {
            let replies = samples.lg(k).1;
            if replies.is_empty() {
                continue;
            }
            let lg_min = replies
                .iter()
                .map(|s| s.rtt_ms)
                .fold(f64::INFINITY, f64::min);
            small = small.min(lg_min);
            large = large.max(lg_min);
        }
        if large > cfg.bound_above(small) {
            return Err(Discard::LgConsistent);
        }
    }

    // 6. ASN-change: the registry mapping must be stable.
    if on(Discard::AsnChange) && entry.asn_changed() {
        return Err(Discard::AsnChange);
    }

    Ok(AnalyzedInterface {
        ip: samples.ip(),
        min_rtt_ms: min,
        asn: entry.asn_in_phase(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{InterfaceSamples, Sample};
    use rp_ixp::LgOperator;

    fn entry(ip: &str, asns: Vec<u32>) -> ListingEntry {
        ListingEntry {
            ip: ip.parse().unwrap(),
            asns: asns.into_iter().map(Asn).collect(),
        }
    }

    fn samples(per_lg: Vec<(LgOperator, Vec<(f64, u8)>)>) -> InterfaceSamples {
        InterfaceSamples {
            ip: "10.0.2.2".parse().unwrap(),
            per_lg: per_lg
                .into_iter()
                .map(|(op, v)| {
                    (
                        op,
                        v.into_iter()
                            .map(|(rtt, ttl)| Sample { rtt_ms: rtt, ttl })
                            .collect(),
                    )
                })
                .collect(),
            unanswered: vec![],
        }
    }

    fn healthy(n: usize, rtt: f64, ttl: u8) -> Vec<(f64, u8)> {
        (0..n).map(|k| (rtt + 0.02 * k as f64, ttl)).collect()
    }

    #[test]
    fn healthy_interface_passes_with_min_rtt() {
        let s = samples(vec![(LgOperator::Pch, healthy(12, 1.0, 255))]);
        let a = apply(
            &s,
            &entry("10.0.2.2", vec![64500]),
            &FilterConfig::default(),
        )
        .unwrap();
        assert_eq!(a.min_rtt_ms, 1.0);
        assert_eq!(a.asn, Some(Asn(64500)));
    }

    #[test]
    fn sample_size_rejects_sparse_replies_from_any_lg() {
        let s = samples(vec![
            (LgOperator::Pch, healthy(12, 1.0, 255)),
            (LgOperator::RipeNcc, healthy(7, 1.0, 255)), // one short
        ]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::SampleSize)
        );
    }

    #[test]
    fn ttl_switch_rejects_changing_ttl() {
        let mut replies = healthy(8, 1.0, 64);
        replies.extend(healthy(8, 1.0, 255));
        let s = samples(vec![(LgOperator::Pch, replies)]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::TtlSwitch)
        );
    }

    #[test]
    fn ttl_match_rejects_decremented_and_unusual_ttls() {
        for ttl in [254u8, 63, 128, 32] {
            let s = samples(vec![(LgOperator::Pch, healthy(10, 1.0, ttl))]);
            assert_eq!(
                apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
                Err(Discard::TtlMatch),
                "ttl {ttl}"
            );
        }
    }

    #[test]
    fn rtt_consistent_rejects_lonely_minimum() {
        // One low outlier, everything else far above min + max(5, 10%·min).
        let mut replies: Vec<(f64, u8)> = vec![(1.0, 255)];
        replies.extend((0..10).map(|k| (40.0 + k as f64, 255)));
        let s = samples(vec![(LgOperator::Pch, replies)]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::RttConsistent)
        );
    }

    #[test]
    fn relative_tolerance_kicks_in_for_large_rtts() {
        // min = 100 ms; bound = 110 ms; 4 replies inside: pass.
        let replies: Vec<(f64, u8)> = vec![
            (100.0, 255),
            (104.0, 255),
            (108.0, 255),
            (109.9, 255),
            (130.0, 255),
            (131.0, 255),
            (132.0, 255),
            (133.0, 255),
        ];
        let s = samples(vec![(LgOperator::Pch, replies)]);
        let a = apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).unwrap();
        assert_eq!(a.min_rtt_ms, 100.0);
    }

    #[test]
    fn lg_consistent_rejects_disagreeing_servers() {
        let s = samples(vec![
            (LgOperator::Pch, healthy(12, 1.0, 255)),
            (LgOperator::RipeNcc, healthy(12, 8.0, 255)), // floor 7 ms higher
        ]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::LgConsistent)
        );
        // Within 5 ms: fine.
        let s = samples(vec![
            (LgOperator::Pch, healthy(12, 1.0, 255)),
            (LgOperator::RipeNcc, healthy(12, 4.0, 255)),
        ]);
        assert!(apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).is_ok());
    }

    #[test]
    fn asn_change_rejects_unstable_mappings() {
        let s = samples(vec![(LgOperator::Pch, healthy(12, 1.0, 255))]);
        assert_eq!(
            apply(
                &s,
                &entry("10.0.2.2", vec![64500, 64501]),
                &FilterConfig::default()
            ),
            Err(Discard::AsnChange)
        );
    }

    #[test]
    fn unidentifiable_interfaces_still_analyze() {
        // No ASN is not a reason to discard: the interface counts toward
        // the 4,451 analyzed even though identification later fails.
        let s = samples(vec![(LgOperator::Pch, healthy(12, 1.0, 255))]);
        let a = apply(&s, &entry("10.0.2.2", vec![]), &FilterConfig::default()).unwrap();
        assert_eq!(a.asn, None);
    }

    // ------------------------------------------------------------------
    // Exact-boundary cases, one positive and one negative per filter. The
    // paper's thresholds are all closed on the keep side: exactly 8
    // replies, exactly the tolerance bound, exactly an accepted TTL all
    // pass; one step past each discards.
    // ------------------------------------------------------------------

    #[test]
    fn sample_size_boundary_exactly_eight_passes_seven_fails() {
        let s = samples(vec![
            (LgOperator::Pch, healthy(8, 1.0, 255)),
            (LgOperator::RipeNcc, healthy(8, 1.0, 255)),
        ]);
        assert!(apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).is_ok());

        let s = samples(vec![
            (LgOperator::Pch, healthy(8, 1.0, 255)),
            (LgOperator::RipeNcc, healthy(7, 1.0, 255)),
        ]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::SampleSize)
        );
    }

    #[test]
    fn ttl_switch_boundary_one_deviant_reply_is_enough() {
        // All 16 replies at one TTL: keep.
        let s = samples(vec![(LgOperator::Pch, healthy(16, 1.0, 64))]);
        assert!(apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).is_ok());

        // A single reply at another (still accepted) TTL: discard.
        let mut replies = healthy(15, 1.0, 64);
        replies.push((1.3, 255));
        let s = samples(vec![(LgOperator::Pch, replies)]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::TtlSwitch)
        );
    }

    #[test]
    fn ttl_match_boundary_accepts_exactly_64_and_255() {
        for ttl in [64u8, 255] {
            let s = samples(vec![(LgOperator::Pch, healthy(10, 1.0, ttl))]);
            assert!(
                apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).is_ok(),
                "ttl {ttl}"
            );
        }
        for ttl in [63u8, 65, 254] {
            let s = samples(vec![(LgOperator::Pch, healthy(10, 1.0, ttl))]);
            assert_eq!(
                apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
                Err(Discard::TtlMatch),
                "ttl {ttl}"
            );
        }
    }

    #[test]
    fn rtt_consistent_boundary_is_closed_at_the_bound() {
        // min = 1 ms, bound = 1 + max(5, 0.1) = 6 ms. Three corroborating
        // replies at *exactly* 6 ms make four near replies: keep.
        let near = |at: f64| -> Vec<(f64, u8)> {
            let mut v = vec![(1.0, 255), (at, 255), (at, 255), (at, 255)];
            v.extend((0..4).map(|k| (40.0 + k as f64, 255)));
            v
        };
        let s = samples(vec![(LgOperator::Pch, near(6.0))]);
        let a = apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).unwrap();
        assert_eq!(a.min_rtt_ms, 1.0);

        // A hair past the bound leaves the minimum uncorroborated.
        let s = samples(vec![(LgOperator::Pch, near(6.01))]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::RttConsistent)
        );
    }

    #[test]
    fn rtt_consistent_relative_bound_is_closed_too() {
        // min = 100 ms: the 10% relative term dominates, bound = 110 ms.
        let near = |at: f64| -> Vec<(f64, u8)> {
            let mut v = vec![(100.0, 255), (at, 255), (at, 255), (at, 255)];
            v.extend((0..4).map(|k| (200.0 + k as f64, 255)));
            v
        };
        let s = samples(vec![(LgOperator::Pch, near(110.0))]);
        assert!(apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()).is_ok());
        let s = samples(vec![(LgOperator::Pch, near(110.1))]);
        assert_eq!(
            apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default()),
            Err(Discard::RttConsistent)
        );
    }

    #[test]
    fn lg_consistent_boundary_exact_five_ms_gap_passes() {
        // Small minimum 1 ms → tolerance bound 6 ms; the other server's
        // floor at exactly 6 ms (a 5 ms gap) is still consistent.
        let two = |large_min: f64| {
            samples(vec![
                (LgOperator::Pch, healthy(8, 1.0, 255)),
                (
                    LgOperator::RipeNcc,
                    (0..8).map(|_| (large_min, 255)).collect(),
                ),
            ])
        };
        assert!(apply(
            &two(6.0),
            &entry("10.0.2.2", vec![1]),
            &FilterConfig::default()
        )
        .is_ok());
        assert_eq!(
            apply(
                &two(6.01),
                &entry("10.0.2.2", vec![1]),
                &FilterConfig::default()
            ),
            Err(Discard::LgConsistent)
        );
    }

    #[test]
    fn asn_change_boundary_repeated_same_asn_is_stable() {
        let s = samples(vec![(LgOperator::Pch, healthy(12, 1.0, 255))]);
        // Two sources agreeing on one ASN is not a change...
        let a = apply(
            &s,
            &entry("10.0.2.2", vec![64500, 64500]),
            &FilterConfig::default(),
        )
        .unwrap();
        assert_eq!(a.asn, Some(Asn(64500)));
        // ...two distinct mappings is.
        assert_eq!(
            apply(
                &s,
                &entry("10.0.2.2", vec![64500, 64501]),
                &FilterConfig::default()
            ),
            Err(Discard::AsnChange)
        );
    }

    #[test]
    fn kept_minima_classify_across_the_10_20_50_ms_boundaries() {
        use crate::classify::RttRange;
        // Interfaces straddling each classification edge must all be kept
        // by the filters (the edges are classification business, not
        // filtering business), and must land in the paper's ranges.
        let cases = [
            (9.99, RttRange::Local),
            (10.0, RttRange::Intercity),
            (19.99, RttRange::Intercity),
            (20.0, RttRange::Intercountry),
            (49.99, RttRange::Intercountry),
            (50.0, RttRange::Intercontinental),
        ];
        for (rtt, want) in cases {
            let s = samples(vec![(LgOperator::Pch, healthy(12, rtt, 255))]);
            let a = apply(&s, &entry("10.0.2.2", vec![1]), &FilterConfig::default())
                .unwrap_or_else(|d| panic!("{rtt} ms interface discarded: {d:?}"));
            assert_eq!(a.min_rtt_ms, rtt);
            assert_eq!(RttRange::of(a.min_rtt_ms), want, "at {rtt} ms");
        }
    }

    fn stats_from(outcomes: &[Result<AnalyzedInterface, Discard>]) -> FilterStats {
        let mut s = FilterStats::default();
        for o in outcomes {
            s.record(o);
        }
        s
    }

    fn ok() -> Result<AnalyzedInterface, Discard> {
        Ok(AnalyzedInterface {
            ip: "10.0.2.2".parse().unwrap(),
            min_rtt_ms: 1.0,
            asn: None,
        })
    }

    #[test]
    fn merge_is_associative() {
        let a = stats_from(&[ok(), Err(Discard::TtlSwitch), Err(Discard::SampleSize)]);
        let b = stats_from(&[Err(Discard::RttConsistent), ok(), ok()]);
        let c = stats_from(&[Err(Discard::AsnChange), Err(Discard::LgConsistent)]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right);
        assert_eq!(left.probed, 8);
        assert_eq!(left.analyzed, 3);
    }

    #[test]
    fn empty_merge_is_identity() {
        let a = stats_from(&[ok(), Err(Discard::TtlMatch), Err(Discard::TtlMatch)]);
        let mut merged = a.clone();
        merged.merge(&FilterStats::default());
        assert_eq!(merged, a);
        let mut from_empty = FilterStats::default();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn in_order_tracks_application_order() {
        // Record one discard per stage, in reverse application order; the
        // report must still present them in Discard::ORDER positions, and
        // merging must not shuffle stages into each other.
        let mut stats = FilterStats::default();
        for d in Discard::ORDER.iter().rev() {
            stats.record(&Err(*d));
        }
        assert_eq!(stats.in_order(), [1; 6]);
        for (k, d) in Discard::ORDER.iter().enumerate() {
            let solo = stats_from(&[Err(*d)]);
            let mut expected = [0usize; 6];
            expected[k] = 1;
            assert_eq!(solo.in_order(), expected, "{d:?} at position {k}");
            let mut merged = stats.clone();
            merged.merge(&solo);
            let mut want = [1usize; 6];
            want[k] = 2;
            assert_eq!(merged.in_order(), want, "{d:?} merge stability");
        }
    }

    #[test]
    fn funnel_json_totals_balance() {
        let stats = stats_from(&[
            ok(),
            ok(),
            Err(Discard::SampleSize),
            Err(Discard::RttConsistent),
        ]);
        let v = stats.funnel_json();
        assert_eq!(v.get("probed").and_then(|p| p.as_u64()), Some(4));
        assert_eq!(v.get("analyzed").and_then(|a| a.as_u64()), Some(2));
        let discards = v.get("discards").and_then(|d| d.as_object()).unwrap();
        assert_eq!(
            discards.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            Discard::ORDER.iter().map(|d| d.key()).collect::<Vec<_>>()
        );
        let total: u64 = discards.iter().filter_map(|(_, n)| n.as_u64()).sum();
        assert_eq!(total + 2, 4);
    }

    #[test]
    fn stats_accounting_sums() {
        let mut stats = FilterStats::default();
        stats.record(&Ok(AnalyzedInterface {
            ip: "10.0.2.2".parse().unwrap(),
            min_rtt_ms: 1.0,
            asn: None,
        }));
        stats.record(&Err(Discard::TtlSwitch));
        stats.record(&Err(Discard::SampleSize));
        assert_eq!(stats.probed, 3);
        assert_eq!(stats.analyzed, 1);
        assert_eq!(stats.in_order(), [1, 1, 0, 0, 0, 0]);
        let mut other = FilterStats::default();
        other.record(&Err(Discard::AsnChange));
        stats.merge(&other);
        assert_eq!(stats.probed, 4);
        assert_eq!(stats.in_order(), [1, 1, 0, 0, 0, 1]);
    }
}
