//! Per-run metric extraction shared by the scenario sweep engine and the
//! one-off experiments.
//!
//! A sweep cell varies either the *world* (topology / scene / traffic knobs,
//! which require rebuilding and reprobing) or the *method* (remoteness
//! threshold, filter mask, peer-group assumption — pure re-analysis of the
//! same probe samples). [`PreparedRun`] captures the expensive part once:
//! cells that share a world configuration can share one build + probe per
//! replicate and diverge only in [`MethodParams`], which is both a large
//! speedup and exactly the common-random-numbers pairing the paired-delta
//! statistics want.

use crate::campaign::Campaign;
use crate::classify::REMOTENESS_THRESHOLD_MS;
use crate::filters::{apply, AnalyzedInterface, FilterConfig};
use crate::memo::ProbeSet;
use crate::offload::{OffloadStudy, PeerGroup};
use crate::probe::{ProbePlane, ProbeRow};
use crate::validate::Confusion;
use crate::world::World;
use rp_econ::{viability_margin, CostParams};
use rp_types::IxpId;

/// Analysis-time methodology knobs. None of these require reprobing: they
/// reinterpret the same campaign samples.
#[derive(Debug, Clone)]
pub struct MethodParams {
    /// Remoteness threshold on the minimum RTT, ms (paper: 10).
    pub threshold_ms: f64,
    /// Filter pipeline configuration (including the ablation `skip`).
    pub filters: FilterConfig,
    /// Peer-group assumption for the offload metrics.
    pub peer_group: PeerGroup,
}

impl Default for MethodParams {
    fn default() -> Self {
        MethodParams {
            threshold_ms: REMOTENESS_THRESHOLD_MS,
            filters: FilterConfig::default(),
            peer_group: PeerGroup::All,
        }
    }
}

/// A built world plus its raw campaign samples, ready to be analyzed under
/// any [`MethodParams`].
///
/// Both fields are shared handles so prepared runs can come out of the
/// process-wide memo ([`PreparedRun::probe_cached`]) without copying;
/// deref coercion keeps `&run.world` / `&run.probed` usable wherever
/// `&World` / `&[(IxpId, _)]` are expected.
pub struct PreparedRun {
    /// The built world (ground truth included).
    pub world: std::sync::Arc<World>,
    /// Raw per-IXP campaign sample planes, in studied-IXP order.
    pub probed: std::sync::Arc<ProbeSet>,
}

impl PreparedRun {
    /// Build the probe set for `world` with `campaign`, bypassing the memo
    /// (benchmarks and determinism tests measure real work this way).
    pub fn probe(world: World, campaign: &Campaign) -> Self {
        let probed = campaign.probe_all(&world);
        PreparedRun {
            world: std::sync::Arc::new(world),
            probed: std::sync::Arc::new(probed),
        }
    }

    /// Memoized variant: fetch (or build) the world for `cfg` and its
    /// probe set from the process-wide memo. Sweep engine tasks that
    /// revisit a `(world config, campaign)` pair — identical replicate
    /// seeds across presets, repeated preset runs in one process — share
    /// one build + probe.
    pub fn probe_cached(cfg: &crate::world::WorldConfig, campaign: &Campaign) -> Self {
        let world = crate::memo::world(cfg);
        let probed = crate::memo::probes(campaign, &world);
        PreparedRun { world, probed }
    }
}

/// Run the filter pipeline over every studied IXP's samples under `cfg`.
pub fn filtered_analysis(
    world: &World,
    probed: &[(IxpId, ProbePlane)],
    cfg: &FilterConfig,
) -> Vec<(IxpId, Vec<AnalyzedInterface>)> {
    probed
        .iter()
        .map(|(ixp, samples)| {
            let entries = crate::lookup::entry_table(world, *ixp);
            let analyzed = samples
                .rows()
                .filter_map(|s| {
                    let entry = *entries.get(s.ip()).expect("probed ip has a registry entry");
                    apply(&s, entry, cfg).ok()
                })
                .collect();
            (*ixp, analyzed)
        })
        .collect()
}

/// Confusion matrix of the remoteness classifier at one IXP for an
/// arbitrary threshold (the [`crate::validate::confusion`] helper is fixed
/// at the paper's 10 ms).
pub fn confusion_at(
    world: &World,
    ixp: IxpId,
    analyzed: &[AnalyzedInterface],
    threshold_ms: f64,
) -> Confusion {
    let truth = crate::lookup::truth_table(world, ixp);
    let mut c = Confusion::default();
    for a in analyzed {
        let detected = a.min_rtt_ms >= threshold_ms;
        let is_remote = *truth.get(a.ip).expect("analyzed ip exists in the scene");
        match (is_remote, detected) {
            (true, true) => c.true_positive += 1,
            (false, true) => c.false_positive += 1,
            (false, false) => c.true_negative += 1,
            (true, false) => c.false_negative += 1,
        }
    }
    c
}

/// The scalar metrics a sweep tracks per (cell, replicate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Interfaces surviving the filter pipeline, summed over studied IXPs.
    pub analyzed: f64,
    /// Detected-remote share of the analyzed interfaces.
    pub remote_fraction: f64,
    /// Precision of the remote classification vs ground truth.
    pub precision: f64,
    /// Recall of the remote classification vs ground truth.
    pub recall: f64,
    /// F1 of the remote classification vs ground truth.
    pub f1: f64,
    /// Accuracy of the remote classification vs ground truth.
    pub accuracy: f64,
    /// Offload potential of the single best IXP as a fraction of total
    /// transit traffic, under the cell's peer group.
    pub offload_top1_frac: f64,
    /// Offload potential of the five best IXPs as a fraction of total
    /// transit traffic.
    pub offload_top5_frac: f64,
    /// Eq. 14 viability margin with cost parameters derived from the mean
    /// distance to the top-5 offload venues (the `africa` experiment's
    /// derivation, generalized).
    pub econ_margin: f64,
}

impl RunMetrics {
    /// Metric names, in [`RunMetrics::named`] order.
    pub const NAMES: [&'static str; 9] = [
        "analyzed",
        "remote_fraction",
        "precision",
        "recall",
        "f1",
        "accuracy",
        "offload_top1_frac",
        "offload_top5_frac",
        "econ_margin",
    ];

    /// `(name, value)` pairs for generic consumers (the sweep engine).
    pub fn named(&self) -> [(&'static str, f64); 9] {
        [
            ("analyzed", self.analyzed),
            ("remote_fraction", self.remote_fraction),
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1", self.f1),
            ("accuracy", self.accuracy),
            ("offload_top1_frac", self.offload_top1_frac),
            ("offload_top5_frac", self.offload_top5_frac),
            ("econ_margin", self.econ_margin),
        ]
    }

    /// Analyze `run` under `params` and extract every metric.
    pub fn collect(run: &PreparedRun, params: &MethodParams) -> RunMetrics {
        let _sp = rp_obs::span("core.metrics.collect");
        let world = &run.world;
        let per_ixp = filtered_analysis(world, &run.probed, &params.filters);
        let mut confusion = Confusion::default();
        let mut analyzed = 0usize;
        for (ixp, list) in &per_ixp {
            analyzed += list.len();
            confusion.merge(&confusion_at(world, *ixp, list, params.threshold_ms));
        }
        let detected = confusion.true_positive + confusion.false_positive;
        let remote_fraction = if analyzed == 0 {
            0.0
        } else {
            detected as f64 / analyzed as f64
        };

        let study = OffloadStudy::new(world);
        let group = params.peer_group;
        let mut rows = study.single_ixp_ranking();
        let gi = group.index();
        rows.sort_by(|a, b| {
            b.1[gi]
                .0
                .partial_cmp(&a.1[gi].0)
                .expect("potentials are finite")
                .then(a.0.cmp(&b.0))
        });
        let total = world.contributions.total_inbound() + world.contributions.total_outbound();
        let top5: Vec<IxpId> = rows.iter().take(5).map(|(ixp, _)| *ixp).collect();
        let frac_of = |ixps: &[IxpId]| -> f64 {
            if ixps.is_empty() {
                return 0.0;
            }
            let (i, o) = study.potential(ixps, group);
            (i + o).fraction_of(total)
        };
        let offload_top1_frac = frac_of(&top5[..top5.len().min(1)]);
        let offload_top5_frac = frac_of(&top5);

        // Cost-model translation (the `africa` experiment's derivation): the
        // traffic-independent direct-peering cost grows with the distance to
        // the venues, the remote fee is footprint-flat, and transit is
        // pricier far from the wholesale markets.
        let econ_margin = if top5.is_empty() {
            0.0
        } else {
            let home = world.topology.home_city(world.vantage).location;
            let mean_km = top5
                .iter()
                .map(|ixp| world.scene.ixp(*ixp).city().location.distance_km(home))
                .sum::<f64>()
                / top5.len() as f64;
            let p = 1.0 + mean_km / 5_000.0;
            let cost = CostParams {
                p,
                u: 0.2 * p,
                v: 0.45 * p,
                g: 0.06 + 0.04 * (mean_km / 1_000.0),
                h: 0.035,
                b: 0.55,
            };
            cost.validate()
                .expect("derived parameters respect the invariants");
            viability_margin(&cost)
        };

        RunMetrics {
            analyzed: analyzed as f64,
            remote_fraction,
            precision: confusion.precision(),
            recall: confusion.recall(),
            f1: confusion.f1(),
            accuracy: confusion.accuracy(),
            offload_top1_frac,
            offload_top5_frac,
            econ_margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::DetectionReport;
    use crate::world::WorldConfig;

    #[test]
    fn baseline_metrics_agree_with_the_detection_report() {
        let campaign = Campaign::default_paper();
        let run = PreparedRun::probe(World::build(&WorldConfig::test_scale(42)), &campaign);
        let m = RunMetrics::collect(&run, &MethodParams::default());
        let report = DetectionReport::run(&run.world, &campaign);
        assert_eq!(m.analyzed as usize, report.stats.analyzed);
        let remote: usize = report.studies.iter().map(|s| s.remote_count()).sum();
        assert!((m.remote_fraction - remote as f64 / report.stats.analyzed as f64).abs() < 1e-12);
        // The paper's central property at the default threshold.
        assert_eq!(m.precision, 1.0);
        assert!(m.recall > 0.0 && m.recall <= 1.0);
        assert!(m.f1 > 0.0 && m.accuracy > 0.9);
        assert!(m.offload_top1_frac > 0.0 && m.offload_top1_frac <= m.offload_top5_frac);
        assert!(m.econ_margin.is_finite() && m.econ_margin > 0.0);
    }

    #[test]
    fn method_params_reinterpret_without_reprobing() {
        let campaign = Campaign::default_paper();
        let run = PreparedRun::probe(World::build(&WorldConfig::test_scale(42)), &campaign);
        let base = RunMetrics::collect(&run, &MethodParams::default());
        // A tighter threshold can only flag more interfaces as remote.
        let tight = RunMetrics::collect(
            &run,
            &MethodParams {
                threshold_ms: 2.0,
                ..Default::default()
            },
        );
        assert!(tight.remote_fraction >= base.remote_fraction);
        assert!(tight.recall >= base.recall);
        // Skipping a filter re-admits interfaces.
        let skip = RunMetrics::collect(
            &run,
            &MethodParams {
                filters: FilterConfig {
                    skip: Some(crate::filters::Discard::RttConsistent),
                    ..FilterConfig::default()
                },
                ..Default::default()
            },
        );
        assert!(skip.analyzed >= base.analyzed);
    }
}
