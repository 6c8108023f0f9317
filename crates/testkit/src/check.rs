//! The `repro check` orchestrator: one clean run, one faulted run, the
//! invariant suite over both, and the parser fuzzer — producing a single
//! deterministic report of *injected faults vs. caught violations*.
//!
//! Everything is a pure function of [`CheckConfig`]: the probing fans out
//! over IXPs with rayon but collects keyed results in IXP order, the
//! perturbation trials run serially from per-trial seeds, and the fuzzer
//! is serial by construction — so the report JSON is bit-identical across
//! thread counts and replays exactly under the same seed.

use crate::faults::{FaultPlan, SceneFaults};
use crate::fuzz::{self, FuzzReport};
use crate::invariants::{self, Harness};
use rand::RngExt;
use remote_peering::campaign::Campaign;
use remote_peering::classify::RttRange;
use remote_peering::filters::{self, AnalyzedInterface, Discard, FilterConfig};
use remote_peering::metrics::{MethodParams, PreparedRun, RunMetrics};
use remote_peering::offload::{OffloadStudy, PeerGroup};
use remote_peering::probe::InterfaceSamples;
use remote_peering::world::{Scale, World};
use rp_econ::{viability_margin, CostParams};
use rp_ixp::model::ListingInfo;
use rp_ixp::{IxpInstance, ListingEntry, MemberInterface, ResponderProfile};
use rp_netsim::FaultCounts;
use rp_topology::PeeringPolicy;
use rp_types::stats::{paired_deltas, Accumulator};
use rp_types::{seed, Asn, IxpId};
use serde_json::{json, Value};

/// What to run and how hard.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Master seed; every stream below derives from it.
    pub seed: u64,
    /// Perturbation trials for the sample-level invariants.
    pub fault_trials: u64,
    /// Fuzzer iterations against each parser target.
    pub fuzz_iters: u64,
    /// Which world preset to build: test (default), paper, or production.
    pub scale: Scale,
    /// Ignored: every IXP network runs one event loop. Still parsed and
    /// validated, because `repro serve` job ids hash the `Debug` text of
    /// the job spec this config sits in, and those ids are pinned. Absent
    /// from the report JSON.
    pub shards: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 42,
            fault_trials: 200,
            fuzz_iters: 500,
            scale: Scale::Test,
            shards: 0,
        }
    }
}

impl CheckConfig {
    /// Parse a check configuration from a JSON object — the library form
    /// of the `repro check` flags, so services can accept check
    /// submissions without shelling out. Recognized keys (all optional,
    /// defaulting to the CLI's defaults): `seed`, `faults`, `fuzz`,
    /// `scale` (`"test"`, `"paper"`, or `"production"`), `shards`.
    /// Unknown keys are rejected so a typo'd knob fails loudly instead of
    /// silently running the default.
    pub fn from_value(v: &Value) -> Result<CheckConfig, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| "check config must be a JSON object".to_string())?;
        let mut cfg = CheckConfig::default();
        for (key, val) in obj {
            match key.as_str() {
                "kind" => {} // the job envelope's discriminant, not a knob
                "seed" => {
                    cfg.seed = val.as_u64().ok_or_else(|| {
                        format!("\"seed\" must be a non-negative integer, got {val}")
                    })?
                }
                "faults" => {
                    cfg.fault_trials = val.as_u64().ok_or_else(|| {
                        format!("\"faults\" must be a non-negative integer, got {val}")
                    })?
                }
                "fuzz" => {
                    cfg.fuzz_iters = val.as_u64().ok_or_else(|| {
                        format!("\"fuzz\" must be a non-negative integer, got {val}")
                    })?
                }
                "scale" => match val.as_str().and_then(Scale::parse) {
                    Some(scale) => cfg.scale = scale,
                    None => {
                        return Err(format!(
                            "\"scale\" must be \"test\", \"paper\", or \"production\", got {val}"
                        ))
                    }
                },
                "shards" => {
                    cfg.shards = val.as_u64().ok_or_else(|| {
                        format!("\"shards\" must be a non-negative integer, got {val}")
                    })? as usize
                }
                other => return Err(format!("unknown check config key {other:?}")),
            }
        }
        Ok(cfg)
    }
}

/// Everything one check run produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The configuration that produced this outcome.
    pub config: CheckConfig,
    /// Link-level faults injected across the faulted campaign.
    pub injected: FaultCounts,
    /// Scene-level faults applied before the faulted campaign.
    pub scene: SceneFaults,
    /// Interfaces surviving all six filters in the clean run.
    pub clean_analyzed: usize,
    /// Interfaces surviving all six filters in the faulted run.
    pub faulted_analyzed: usize,
    /// The invariant suite's tally.
    pub harness: Harness,
    /// The fuzzer's tally.
    pub fuzz: FuzzReport,
}

impl CheckOutcome {
    /// True when no invariant was violated and no parser panicked.
    pub fn passed(&self) -> bool {
        self.harness.ok() && self.fuzz.panics.is_empty()
    }

    /// The check report document (deterministic: no wall-clock content).
    pub fn to_json(&self) -> Value {
        let by_kind = Value::Object(
            self.injected
                .by_kind()
                .iter()
                .map(|(k, n)| (k.key().to_string(), json!(n)))
                .collect(),
        );
        json!({
            "config": {
                "seed": self.config.seed,
                "fault_trials": self.config.fault_trials,
                "fuzz_iters": self.config.fuzz_iters,
                "scale": self.config.scale.as_str(),
            },
            "faults": {
                "link": by_kind,
                "link_total": self.injected.total(),
                "decisions": self.injected.decisions,
                "stale_rows": self.scene.stale_rows,
                "dropped_lgs": self.scene.dropped_lgs,
            },
            "pipeline": {
                "clean_analyzed": self.clean_analyzed,
                "faulted_analyzed": self.faulted_analyzed,
            },
            "invariants": self.harness.to_json(),
            "fuzz": self.fuzz.to_json(),
            "passed": self.passed(),
        })
    }
}

/// One probed world's per-interface material, with registry entries
/// attached (the ASN-change filter needs them).
struct ProbedRun {
    /// `(ixp, samples, entry)` for every listed interface, in IXP order.
    interfaces: Vec<(IxpId, InterfaceSamples, ListingEntry)>,
    /// Analyzed (all-filters-passed) count per IXP, in IXP order.
    analyzed_per_ixp: Vec<(IxpId, usize)>,
}

impl ProbedRun {
    fn analyzed(&self) -> usize {
        self.analyzed_per_ixp.iter().map(|(_, n)| n).sum()
    }
}

fn attach_entries(
    world: &World,
    probed: &remote_peering::memo::ProbeSet,
    fcfg: &FilterConfig,
) -> ProbedRun {
    let mut interfaces = Vec::new();
    let mut analyzed_per_ixp = Vec::new();
    for &(ixp, ref plane) in probed {
        let by_ip = remote_peering::lookup::entry_table(world, ixp);
        let mut analyzed = 0usize;
        for i in 0..plane.len() {
            // The perturbation pool mutates rows in place, so lift each
            // plane row back into its owned form here.
            let s = plane.to_samples(i);
            let entry = by_ip
                .get(s.ip)
                .map(|e| (*e).clone())
                .unwrap_or(ListingEntry {
                    ip: s.ip,
                    asns: vec![Asn(64500)],
                });
            if filters::apply(&s, &entry, fcfg).is_ok() {
                analyzed += 1;
            }
            interfaces.push((ixp, s, entry));
        }
        analyzed_per_ixp.push((ixp, analyzed));
    }
    ProbedRun {
        interfaces,
        analyzed_per_ixp,
    }
}

/// The position of an RTT's class in [`RttRange::ALL`] (0 = most local).
fn class_index(rtt: f64) -> usize {
    RttRange::ALL
        .iter()
        .position(|r| *r == RttRange::of(rtt))
        .expect("RttRange::of returns a member of ALL")
}

/// Offload monotonicity under member addition, on the real world: add an
/// open-policy non-member to a non-home studied IXP and compare per-group
/// potentials. Group 2 (open + top-10 selective) is excluded on purpose:
/// its membership is itself data-dependent, so monotonicity is not a
/// theorem there.
///
/// The addition happens on a copy-on-write fork (a `MemberAdd` delta), or
/// — in the reference arm — as the legacy in-place push on a marked
/// clone; both leave `world` itself untouched, and the differential
/// harness holds the two paths to identical report bytes.
fn offload_invariant(h: &mut Harness, world: &World, reference: bool) {
    let home = world.home_ixps.clone();
    let Some(target) = world.studied_ixps().into_iter().find(|i| !home.contains(i)) else {
        return;
    };
    let members: std::collections::HashSet<_> = world
        .scene
        .ixp(target)
        .members
        .iter()
        .map(|m| m.network)
        .collect();
    let Some(net) = world
        .topology
        .ases
        .iter()
        .find(|a| a.policy == PeeringPolicy::Open && !members.contains(&a.id))
        .map(|a| a.id)
    else {
        return;
    };
    const GROUPS: [(&str, PeerGroup); 3] = [
        ("open", PeerGroup::Open),
        ("open+selective", PeerGroup::OpenSelective),
        ("all", PeerGroup::All),
    ];
    let potentials = |world: &World| -> Vec<(f64, f64)> {
        let study = OffloadStudy::new(world);
        GROUPS
            .iter()
            .map(|&(_, g)| {
                let (inbound, outbound) = study.potential(&[target], g);
                (inbound.0, outbound.0)
            })
            .collect()
    };
    let before = potentials(world);
    let slot = world.scene.ixp(target).members.len() as u32;
    let member = MemberInterface {
        network: net,
        ip: IxpInstance::ip_for_slot(target, slot),
        access: rp_ixp::Access::Direct {
            colo_delay_ms: 0.3,
            site: 0,
        },
        profile: ResponderProfile::default(),
        listing: ListingInfo {
            listed: false,
            identifiable: false,
            asn_change: false,
        },
    };
    let after = if reference {
        // Legacy path, kept as the differential reference: push the
        // member onto a marked clone (the mark retires the clone's memo
        // key so no probe memoization can alias the perturbed state).
        let mut perturbed = world.clone();
        perturbed.mark_mutated();
        remote_peering::fork::apply_delta_in_place(
            &mut perturbed,
            &remote_peering::fork::Delta::MemberAdd {
                ixp: target,
                member,
            },
        );
        potentials(&perturbed)
    } else {
        let mut fork = world.fork();
        fork.apply(remote_peering::fork::Delta::MemberAdd {
            ixp: target,
            member,
        });
        potentials(fork.world())
    };

    let mut pairs: Vec<(&'static str, f64, f64)> = Vec::new();
    for (i, &(label, _)) in GROUPS.iter().enumerate() {
        pairs.push((label, before[i].0, after[i].0));
        pairs.push((label, before[i].1, after[i].1));
    }
    invariants::cone_monotone(h, &pairs);
}

/// Run the whole correctness harness. See the module docs for the shape.
pub fn run_check(cfg: &CheckConfig) -> CheckOutcome {
    run_check_with(cfg, false)
}

/// [`run_check`], or with `reference` its from-scratch reference arm
/// ([`crate::differential::check_reference`]): every world is rebuilt
/// without the memo and degraded in place instead of forked. The report
/// must not differ by a byte.
pub(crate) fn run_check_with(cfg: &CheckConfig, reference: bool) -> CheckOutcome {
    let _sp = rp_obs::span("testkit.check");
    let world_cfg = cfg.scale.config(cfg.seed);
    let fcfg = FilterConfig::default();

    // Clean arm. The default path pulls the build *and* its probe set
    // from the process-wide memo, so repeated checks in one process (a
    // `repro serve` worker, the bench's fork-vs-rebuild pair) pay for the
    // clean arm once; the reference arm rebuilds and re-probes from scratch,
    // bypassing every cache, so the differential comparison covers the
    // memo layer too.
    let clean_campaign = Campaign {
        memory_budget_bytes: cfg.scale.default_memory_budget(),
        ..Campaign::default_paper()
    };
    let clean_run = {
        let _sp = rp_obs::span("testkit.check.clean");
        if reference {
            PreparedRun::probe(World::build(&world_cfg), &clean_campaign)
        } else {
            PreparedRun::probe_cached(&world_cfg, &clean_campaign)
        }
    };
    let clean_world = std::sync::Arc::clone(&clean_run.world);
    let clean = attach_entries(&clean_world, &clean_run.probed, &fcfg);

    // Faulted arm: same config, degraded scene, fault-injecting campaign.
    let plan = FaultPlan::standard(
        seed::derive(cfg.seed, "testkit-plan", 0),
        clean_world.campaign_duration(),
    );
    // Fork the clean build and apply the degradations as deltas — the
    // parent stays pristine and the fork gets a deterministic content
    // address. The reference arm replays the legacy path instead: a fresh
    // build degraded in place under a unique memo key. Identical bytes
    // either way (the fork-equivalence harness holds the report to it).
    let (faulted_world, scene) = if reference {
        let mut rebuilt = World::build(&world_cfg);
        let scene = plan.degrade_scene(&mut rebuilt);
        (rebuilt, scene)
    } else {
        let (fork, scene) = plan.degrade_fork(&clean_world);
        (fork.into_world(), scene)
    };
    let campaign = Campaign {
        memory_budget_bytes: cfg.scale.default_memory_budget(),
        ..plan.campaign()
    };
    let (probed, injected) = {
        let _sp = rp_obs::span("testkit.check.faulted");
        campaign.probe_all_with(&faulted_world, None)
    };
    rp_obs::counter!("testkit.faults.injected").add(injected.total());
    let faulted = attach_entries(&faulted_world, &probed, &fcfg);

    let mut h = Harness::new();
    let apply = |s: &InterfaceSamples,
                 entry: &ListingEntry|
     -> Result<AnalyzedInterface, Discard> { filters::apply(s, entry, &fcfg) };

    // Classification invariants over the observed minima plus a boundary
    // grid straddling the 10/20/50 ms class edges.
    {
        let _sp = rp_obs::span("testkit.check.invariants");
        let mut rtts: Vec<f64> = vec![0.3, 9.99, 10.0, 19.99, 20.0, 49.99, 50.0, 180.0];
        rtts.extend(
            clean
                .interfaces
                .iter()
                .chain(faulted.interfaces.iter())
                .filter_map(|(_, s, _)| s.min_rtt_ms())
                .take(64),
        );
        invariants::classify_monotone(&mut h, &class_index, &rtts, &[0.0, 0.01, 5.0, 40.0]);

        let minima: Vec<f64> = clean
            .interfaces
            .iter()
            .chain(faulted.interfaces.iter())
            .filter_map(|(_, s, _)| s.min_rtt_ms())
            .collect();
        let remote_count = |t: f64| -> usize { minima.iter().filter(|&&m| m >= t).count() };
        invariants::threshold_monotone(&mut h, &remote_count, &[2.0, 5.0, 10.0, 20.0, 50.0, 100.0]);

        // Sample-level perturbation trials, drawn round-robin from the
        // clean and faulted interface pools.
        let pool: Vec<&(IxpId, InterfaceSamples, ListingEntry)> = clean
            .interfaces
            .iter()
            .chain(faulted.interfaces.iter())
            .collect();
        if !pool.is_empty() {
            for trial in 0..cfg.fault_trials {
                let mut rng = seed::rng2(cfg.seed, "testkit-trial", trial, 0);
                let (_, s, entry) = pool[trial as usize % pool.len()];
                let bound = |s: &InterfaceSamples| apply(s, entry);
                invariants::permutation_invariant(&mut h, &bound, s, &mut rng);
                invariants::loss_conservative(&mut h, &bound, s, &mut rng);
                let delta = rng.random::<f64>() * 60.0;
                invariants::inflation_preserves_keep(&mut h, &bound, &class_index, s, delta);
                invariants::ttl_rewrite_discards(&mut h, &bound, s, 7, &mut rng);
            }
        }

        // Offload monotonicity on the (degraded) world.
        offload_invariant(&mut h, &faulted_world, reference);

        // Fork commutativity on the clean world: two deltas applied
        // sequentially on one fork must equal two single-delta forks
        // merged — the metamorphic form of "a fork is its delta log".
        {
            let ixps = clean_world.studied_ixps();
            if ixps.len() >= 2 {
                let da = remote_peering::fork::Delta::RowStale {
                    ixp: ixps[0],
                    slot: 0,
                };
                let db = remote_peering::fork::Delta::PortUpgrade {
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
                invariants::fork_commutative(
                    &mut h,
                    &|| {
                        let mut f = clean_world.fork();
                        f.apply(da.clone());
                        f.apply(db.clone());
                        digest(&f)
                    },
                    &|| {
                        let mut fa = clean_world.fork();
                        fa.apply(da.clone());
                        let mut fb = clean_world.fork();
                        fb.apply(db.clone());
                        fa.absorb(&fb);
                        digest(&fa)
                    },
                );
            }
        }

        // Budget-partition invariance on the clean world: re-probe under
        // budgets sized to the largest studied IXP, so `probe_all` runs at
        // chunk widths 1 and 2, and demand run metrics bit-identical to
        // the clean arm's. That reference is the clean arm's own campaign,
        // already probed above: unbudgeted below production scale, under
        // the 1 GiB default budget at production.
        let worst = clean_world
            .scene
            .studied()
            .map(Campaign::approx_probe_bytes)
            .max()
            .unwrap_or(1);
        let clean_metrics = RunMetrics::collect(&clean_run, &MethodParams::default())
            .named()
            .to_vec();
        let budget_metrics = |budget: u64| -> Vec<(&'static str, f64)> {
            let campaign = Campaign {
                memory_budget_bytes: Some(budget),
                ..Campaign::default_paper()
            };
            let run = PreparedRun::probe((*clean_world).clone(), &campaign);
            RunMetrics::collect(&run, &MethodParams::default())
                .named()
                .to_vec()
        };
        invariants::budget_partition_invariant(
            &mut h,
            &clean_metrics,
            &budget_metrics,
            &[worst, 2 * worst],
        );

        // Econ scale invariance at the example point and seeded nearby ones.
        let mut rng = seed::rng(cfg.seed, "testkit-econ", 0);
        let mut params = vec![CostParams::example()];
        for _ in 0..8 {
            let mut p = CostParams::example();
            p.p *= 1.0 + rng.random::<f64>();
            p.b = 0.1 + rng.random::<f64>() * 2.0;
            params.push(p);
        }
        for p in &params {
            invariants::econ_scale_invariant(
                &mut h,
                &|q: &CostParams| viability_margin(q),
                p,
                &[0.25, 2.0, 1000.0],
            );
        }

        // Paired-delta antisymmetry on the clean-vs-faulted analyzed
        // counts — the exact comparison shape `rp-scenario` sweeps use,
        // surviving the injected faults.
        let mut acc_clean = Accumulator::new();
        let mut acc_faulted = Accumulator::new();
        for (ixp, n) in &clean.analyzed_per_ixp {
            acc_clean.record(ixp.0 as u64, *n as f64);
        }
        for (ixp, n) in &faulted.analyzed_per_ixp {
            acc_faulted.record(ixp.0 as u64, *n as f64);
        }
        invariants::paired_delta_antisymmetric(
            &mut h,
            &|a, b| paired_deltas(a, b),
            &acc_clean,
            &acc_faulted,
        );

        // Replay exactness of a full faulted single-IXP probe.
        if let Some(&ixp) = faulted_world.studied_ixps().first() {
            invariants::replay_exact(&mut h, "faulted-probe", &|| {
                let run = campaign.run_ixp(&faulted_world, ixp, false);
                (run.plane, run.faults)
            });
        }

        // Spec round-trip stability for every preset.
        let reser = |text: &str| -> Result<String, String> {
            rp_scenario::ScenarioSpec::from_json(text)
                .map(|s| serde_json::to_string(&s.to_json()).expect("spec renders"))
                .map_err(|e| e.to_string())
        };
        for name in rp_scenario::ScenarioSpec::preset_names() {
            let spec = rp_scenario::ScenarioSpec::preset(name).expect("listed preset exists");
            let text = serde_json::to_string(&spec.to_json()).expect("spec renders");
            invariants::roundtrip_stable(&mut h, &reser, name, &text);
        }
    }

    // Parser fuzzing.
    let fuzz = {
        let _sp = rp_obs::span("testkit.check.fuzz");
        fuzz::run(seed::derive(cfg.seed, "testkit-fuzz", 0), cfg.fuzz_iters)
    };

    rp_obs::counter!("testkit.invariants.checks").add(h.checks);
    rp_obs::counter!("testkit.invariants.violations").add(h.violations.len() as u64);

    CheckOutcome {
        config: cfg.clone(),
        injected,
        scene,
        clean_analyzed: clean.analyzed(),
        faulted_analyzed: faulted.analyzed(),
        harness: h,
        fuzz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CheckConfig {
        CheckConfig {
            seed: 5,
            fault_trials: 24,
            fuzz_iters: 40,
            scale: Scale::Test,
            shards: 0,
        }
    }

    #[test]
    fn check_passes_and_replays_bit_identically() {
        let a = run_check(&small());
        assert!(a.passed(), "{:?} {:?}", a.harness.violations, a.fuzz.panics);
        assert!(a.injected.total() > 0, "the standard plan must inject");
        assert!(a.scene.stale_rows > 0);
        assert!(a.harness.checks > 50);
        assert!(
            a.faulted_analyzed < a.clean_analyzed,
            "faults should cost analyzed interfaces ({} vs {})",
            a.faulted_analyzed,
            a.clean_analyzed
        );

        let b = run_check(&small());
        assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap(),
            "check report must be a pure function of its config"
        );
    }

    #[test]
    fn check_config_parses_from_json_and_rejects_typos() {
        let v = serde_json::from_str(
            r#"{"kind": "check", "seed": 7, "faults": 10, "fuzz": 20, "scale": "paper", "shards": 2}"#,
        )
        .unwrap();
        let cfg = CheckConfig::from_value(&v).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.fault_trials, 10);
        assert_eq!(cfg.fuzz_iters, 20);
        assert_eq!(cfg.scale, Scale::Paper);

        let prod = serde_json::from_str(r#"{"scale": "production"}"#).unwrap();
        assert_eq!(
            CheckConfig::from_value(&prod).unwrap().scale,
            Scale::Production
        );
        assert_eq!(cfg.shards, 2);

        let defaults = CheckConfig::from_value(&serde_json::from_str("{}").unwrap()).unwrap();
        assert_eq!(defaults.fault_trials, 200);
        assert_eq!(defaults.fuzz_iters, 500);

        let typo = serde_json::from_str(r#"{"fautls": 10}"#).unwrap();
        assert!(CheckConfig::from_value(&typo)
            .unwrap_err()
            .contains("fautls"));
        let scale = serde_json::from_str(r#"{"scale": "huge"}"#).unwrap();
        assert!(CheckConfig::from_value(&scale).is_err());
        // The reference arm is a testkit function, not a settable knob.
        let reference = serde_json::from_str(r#"{"reference_rebuild": true}"#).unwrap();
        assert!(CheckConfig::from_value(&reference)
            .unwrap_err()
            .contains("reference_rebuild"));
    }

    #[test]
    fn different_seed_injects_differently() {
        let a = run_check(&small());
        let mut cfg = small();
        cfg.seed = 6;
        let b = run_check(&cfg);
        assert!(b.passed(), "{:?} {:?}", b.harness.violations, b.fuzz.panics);
        assert_ne!(a.injected, b.injected);
    }
}
