//! Hit, miss and dedupe classes of the content keys on a fixed sequence.
//!
//! The world pool, the probe cache, fork re-keying and job dedupe all key
//! on `memo::Key`, whose equality compares the keyed text after the
//! digest. This test drives one fixed sequence of world builds, probe
//! lookups, forks, in-place mutations and job submissions through the
//! public entry points and pins the counter deltas it produces. The
//! expected values are the deltas the same sequence gave when the caches
//! keyed on the bare 64-bit digest, so the switch to `Key` turned no hit
//! into a miss and no dedupe into a fresh job.
//!
//! It is the only test in its binary, so the process-wide counters see no
//! other work.

use remote_peering::campaign::Campaign;
use remote_peering::fork::Delta;
use remote_peering::memo;
use remote_peering::metrics::PreparedRun;
use remote_peering::world::WorldConfig;
use rp_server::{JobQueue, JobSpec, Submit};

const COUNTERS: [&str; 5] = [
    "core.memo.world_hit",
    "core.memo.world_miss",
    "core.memo.probe_hit",
    "core.memo.probe_miss",
    "server.jobs.deduped",
];

fn counts() -> [u64; 5] {
    COUNTERS.map(|name| rp_obs::metrics::counter(name).get())
}

fn parse_spec(text: &str) -> JobSpec {
    JobSpec::parse(&serde_json::from_str(text).expect("test JSON")).expect("valid spec")
}

#[test]
fn a_fixed_sequence_hits_misses_and_dedupes_as_under_digest_keys() {
    rp_obs::enable();
    let before = counts();

    // World pool and probe cache: repeats, a second campaign, a second
    // seed, and an equal config built afresh.
    let paper = Campaign::default_paper();
    let lighter = Campaign {
        queries_pch: 5,
        ..Campaign::default_paper()
    };
    let base = PreparedRun::probe_cached(&WorldConfig::test_scale(5101), &paper);
    PreparedRun::probe_cached(&WorldConfig::test_scale(5101), &paper);
    PreparedRun::probe_cached(&WorldConfig::test_scale(5101), &lighter);
    PreparedRun::probe_cached(&WorldConfig::test_scale(5102), &paper);
    PreparedRun::probe_cached(&WorldConfig::test_scale(5101), &paper);

    // Forks: equal delta logs share one probe set, a different log or a
    // different order does not, and an empty fork is its parent.
    let ixp = base.probed[0].0;
    let stale = |slot| Delta::RowStale { ixp, slot };
    let probe_fork = |deltas: &[Delta]| {
        let mut fork = base.world.fork();
        for d in deltas {
            fork.apply(d.clone());
        }
        memo::probes(&paper, fork.world());
    };
    probe_fork(&[stale(0)]);
    probe_fork(&[stale(0)]);
    probe_fork(&[stale(1)]);
    probe_fork(&[stale(0), stale(1)]);
    probe_fork(&[stale(1), stale(0)]);
    probe_fork(&[stale(0), stale(1)]);
    probe_fork(&[]);

    // In-place mutants: each mark is a fresh key that hits only itself.
    let mut mutant = (*base.world).clone();
    mutant.mark_mutated();
    memo::probes(&paper, &mutant);
    memo::probes(&paper, &mutant);
    mutant.mark_mutated();
    memo::probes(&paper, &mutant);

    // Job dedupe: key order and number spelling normalize away; seeds,
    // kinds and parameters do not. No workers run, so every job stays
    // queued and each repeat dedupes.
    let queue = JobQueue::new(64);
    let (mut accepted, mut existing) = (0, 0);
    for text in [
        r#"{"kind": "sweep", "preset": "smoke", "seed": 42}"#,
        r#"{"seed": 42, "preset": "smoke", "kind": "sweep"}"#,
        r#"{"kind": "sweep", "preset": "smoke", "seed": 43}"#,
        r#"{"kind": "check", "faults": 5, "fuzz": 6}"#,
        r#"{"kind": "check", "fuzz": 6, "faults": 5}"#,
        r#"{"kind": "check", "faults": 4, "fuzz": 6}"#,
        r#"{"kind": "campaign", "params": {"threshold_ms": 10}, "seed": 42}"#,
        r#"{"kind": "campaign", "params": {"threshold_ms": 10.0}, "seed": 42}"#,
        r#"{"kind": "campaign", "params": {"threshold_ms": 10}, "seed": 42, "shards": 2}"#,
        r#"{"kind": "sweep", "preset": "smoke", "seed": 42}"#,
    ] {
        match queue.submit(parse_spec(text)) {
            Submit::Accepted(_) => accepted += 1,
            Submit::Existing(..) => existing += 1,
            other => panic!("unexpected answer {other:?} for {text}"),
        }
    }

    let after = counts();
    let delta: Vec<(&str, u64)> = COUNTERS
        .iter()
        .zip(after.iter().zip(before))
        .map(|(name, (a, b))| (*name, a - b))
        .collect();
    assert_eq!(
        delta,
        [
            ("core.memo.world_hit", 3),
            ("core.memo.world_miss", 2),
            ("core.memo.probe_hit", 6),
            ("core.memo.probe_miss", 9),
            ("server.jobs.deduped", 4),
        ]
    );
    assert_eq!((accepted, existing), (6, 4));
}
