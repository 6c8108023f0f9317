//! Orchestration of the section 3 detection study: campaign → filters →
//! classification, per IXP and across all 22.

use crate::campaign::Campaign;
use crate::classify::{RangeCounts, RttRange, REMOTENESS_THRESHOLD_MS};
use crate::filters::{apply, AnalyzedInterface, FilterConfig, FilterStats};
use crate::probe::{ProbePlane, ProbeRow};
use crate::world::World;
use rp_types::IxpId;
use serde::{Deserialize, Serialize};

/// Filter + classification results for one IXP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionStudy {
    /// The studied IXP.
    pub ixp: IxpId,
    /// Interfaces that survived all six filters.
    pub analyzed: Vec<AnalyzedInterface>,
    /// Filter discard accounting for this IXP.
    pub stats: FilterStats,
}

impl DetectionStudy {
    /// Run the filters over one IXP's samples, pairing each with its
    /// registry entry.
    pub fn analyze_ixp(world: &World, ixp: IxpId, samples: &ProbePlane) -> Self {
        let _sp = rp_obs::span("core.filters.analyze_ixp");
        let cfg = FilterConfig::default();
        let entries = crate::lookup::entry_table(world, ixp);
        let mut analyzed = Vec::new();
        let mut stats = FilterStats::default();
        for s in samples.rows() {
            let entry = *entries
                .get(s.ip())
                .unwrap_or_else(|| panic!("no registry entry for probed {}", s.ip()));
            let outcome = apply(&s, entry, &cfg);
            stats.record(&outcome);
            if let Ok(a) = outcome {
                analyzed.push(a);
            }
        }
        stats.publish_metrics();
        // Funnel progress over the IXP axis: how many interfaces entered
        // the filters and how many survived, per IXP. An Index-axis
        // timeline (not sim time), so the funnel reads as a bar per IXP.
        rp_obs::timeline::index_point(
            "core.filter_funnel.probed",
            ixp.0 as u64,
            samples.len() as u64,
        );
        rp_obs::timeline::index_point(
            "core.filter_funnel.analyzed",
            ixp.0 as u64,
            analyzed.len() as u64,
        );
        DetectionStudy {
            ixp,
            analyzed,
            stats,
        }
    }

    /// Interfaces at or above the remoteness threshold.
    pub fn remote_count(&self) -> usize {
        self.analyzed
            .iter()
            .filter(|a| a.min_rtt_ms >= REMOTENESS_THRESHOLD_MS)
            .count()
    }

    /// Figure 3 bar for this IXP.
    pub fn range_counts(&self) -> RangeCounts {
        RangeCounts::tally(self.analyzed.iter().map(|a| a.min_rtt_ms))
    }
}

/// The full 22-IXP detection study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionReport {
    /// One entry per studied IXP, in dataset order.
    pub studies: Vec<DetectionStudy>,
    /// Aggregate filter accounting (the paper's "20, 82, 20, 100, 28, 5").
    pub stats: FilterStats,
}

impl DetectionReport {
    /// Probe and analyze every studied IXP.
    ///
    /// The probe set comes from the process-wide memo
    /// ([`crate::memo::probes`]), so re-running the report for the
    /// same `(world, campaign)` — as `repro all`'s experiment groups do —
    /// reuses one campaign.
    pub fn run(world: &World, campaign: &Campaign) -> Self {
        let _sp = rp_obs::span("core.detect.run");
        let mut studies = Vec::new();
        let mut stats = FilterStats::default();
        let probed = crate::memo::probes(campaign, world);
        for (ixp, samples) in probed.iter() {
            let study = DetectionStudy::analyze_ixp(world, *ixp, samples);
            stats.merge(&study.stats);
            studies.push(study);
        }
        DetectionReport { studies, stats }
    }

    /// All analyzed minimum RTTs (the figure 2 CDF input).
    pub fn all_min_rtts(&self) -> Vec<f64> {
        self.studies
            .iter()
            .flat_map(|s| s.analyzed.iter().map(|a| a.min_rtt_ms))
            .collect()
    }

    /// Fraction of studied IXPs where at least one remote interface was
    /// detected (the paper: 91%, i.e. 20 of 22).
    pub fn ixps_with_remote_peering(&self) -> (usize, usize) {
        let with = self.studies.iter().filter(|s| s.remote_count() > 0).count();
        (with, self.studies.len())
    }

    /// Count of IXPs where intercontinental-range remote peering was
    /// detected (the paper: 12 of 22).
    pub fn ixps_with_intercontinental(&self) -> usize {
        self.studies
            .iter()
            .filter(|s| {
                s.analyzed
                    .iter()
                    .any(|a| RttRange::of(a.min_rtt_ms) == RttRange::Intercontinental)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn analyzed_world() -> (World, DetectionReport) {
        let world = World::build(&WorldConfig::test_scale(91));
        let report = DetectionReport::run(&world, &Campaign::default_paper());
        (world, report)
    }

    #[test]
    fn filters_leave_most_interfaces_analyzed() {
        let (_, report) = analyzed_world();
        assert!(report.stats.probed > 500, "{}", report.stats.probed);
        let kept = report.stats.analyzed as f64 / report.stats.probed as f64;
        assert!(kept > 0.9, "kept fraction {kept}");
        // Every filter except possibly the rarest ones fires somewhere.
        assert!(report.stats.ttl_switch > 0, "TTL-switch never fired");
        assert!(
            report.stats.rtt_consistent > 0,
            "RTT-consistent never fired"
        );
    }

    #[test]
    fn no_false_positives_against_ground_truth() {
        // The conservative threshold must never classify a directly peering
        // interface as remote — the paper's central design goal.
        let (world, report) = analyzed_world();
        for study in &report.studies {
            let inst = world.scene.ixp(study.ixp);
            let truth = crate::lookup::truth_table(&world, study.ixp);
            for a in &study.analyzed {
                if a.min_rtt_ms >= REMOTENESS_THRESHOLD_MS {
                    assert!(
                        truth.get(a.ip) == Some(&true),
                        "{}: {} detected remote but is direct (min {} ms)",
                        inst.meta.acronym,
                        a.ip,
                        a.min_rtt_ms
                    );
                }
            }
        }
    }

    #[test]
    fn remote_peering_is_widespread_but_absent_where_configured() {
        let (world, report) = analyzed_world();
        let (with, total) = report.ixps_with_remote_peering();
        assert_eq!(total, 22);
        assert!(with >= 18, "remote peering at only {with}/22 IXPs");
        for study in &report.studies {
            let meta = &world.scene.ixp(study.ixp).meta;
            if meta.remote_share == 0.0 {
                assert_eq!(
                    study.remote_count(),
                    0,
                    "{} configured without remote peers",
                    meta.acronym
                );
            }
        }
    }

    #[test]
    fn majority_of_interfaces_look_direct() {
        let (_, report) = analyzed_world();
        let rtts = report.all_min_rtts();
        let local = rtts
            .iter()
            .filter(|r| **r < REMOTENESS_THRESHOLD_MS)
            .count();
        assert!(
            local * 10 > rtts.len() * 7,
            "direct peers must dominate: {local}/{}",
            rtts.len()
        );
    }
}
