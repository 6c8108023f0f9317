//! The seeded job stream `serve_mix` submits.
//!
//! Jobs come in blocks of [`BLOCK_LEN`], each holding exactly
//! [`BLOCK_SHARES`] of every class in a seeded order, so any run of whole
//! blocks hits the class shares exactly and two seeds differ only in order
//! and values, not in mix:
//!
//! - warm (75%): a test-scale `campaign` on one of [`HOT_WORLDS`] hot world
//!   seeds (warmed in set-up) with a fresh `threshold_ms`/`peer_group`, so
//!   the spec is new but the world and probe set are memo hits;
//! - cold (15%): in turn, a campaign on a fresh seed, or on a hot seed with
//!   a fresh world-axis value (`remote_share_scale`, `stale_listing_rate`),
//!   which builds and probes a new world and evicts cache entries;
//! - resubmit (5%): an earlier warm spec sent again, answered by dedupe;
//! - heavy (5%): alternately a `smoke` sweep with 2 replicates and a small
//!   `check`, which go through the scenario, fork and testkit paths.
//!
//! With these shares the warm and resubmit jobs fill the fastest 80% of
//! latencies, so p50 sits mid-warm and p90 mid-cold, away from the class
//! boundaries.

/// Jobs per block.
pub const BLOCK_LEN: usize = 20;
/// Hot world seeds the warm jobs share.
pub const HOT_WORLDS: usize = 4;
/// Class counts per block.
pub const BLOCK_SHARES: [(Class, usize); 4] = [
    (Class::Warm, 15),
    (Class::Cold, 3),
    (Class::Resubmit, 1),
    (Class::Heavy, 1),
];

/// What a job exercises on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
    Resubmit,
    Heavy,
}

/// One submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub class: Class,
    /// The JSON job envelope.
    pub body: String,
    /// For a resubmission: the index of the job it repeats.
    pub original: Option<usize>,
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same stream on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A world seed: kept below 2^31 so every one reads naturally in JSON.
    fn world_seed(&mut self) -> u64 {
        self.next() >> 33
    }
}

/// The hot world seeds for `seed`.
pub fn hot_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng(seed ^ 0x4807_5EED);
    (0..HOT_WORLDS).map(|_| rng.world_seed()).collect()
}

/// The set-up jobs: one default campaign per hot world, which builds and
/// probes it so the timed warm jobs hit the memo.
pub fn warmup(seed: u64) -> Vec<String> {
    hot_seeds(seed)
        .iter()
        .map(|s| format!(r#"{{"kind": "campaign", "seed": {s}}}"#))
        .collect()
}

const PEER_GROUPS: [&str; 4] = ["open", "open_top10_selective", "open_selective", "all"];

/// The first `n` jobs of the stream for `seed`.
pub fn job_stream(seed: u64, n: usize) -> Vec<Job> {
    let hot = hot_seeds(seed);
    let mut rng = Rng(seed ^ 0x005E_ED0F_10B5);
    let mut jobs: Vec<Job> = Vec::with_capacity(n);
    let mut cold = 0usize;
    let mut heavy = 0usize;
    while jobs.len() < n {
        let block_start = jobs.len();
        let mut classes: Vec<Class> = BLOCK_SHARES
            .iter()
            .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
            .collect();
        debug_assert_eq!(classes.len(), BLOCK_LEN);
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.below(i + 1));
        }
        for class in classes {
            let i = jobs.len();
            let h = hot[rng.below(HOT_WORLDS)];
            let (body, original) = match class {
                // The index makes every threshold, and so every spec, new.
                Class::Warm => (
                    format!(
                        r#"{{"kind": "campaign", "seed": {h}, "params": {{"threshold_ms": {}, "peer_group": "{}"}}}}"#,
                        8.0 + i as f64 / 1000.0,
                        PEER_GROUPS[rng.below(PEER_GROUPS.len())]
                    ),
                    None,
                ),
                // The three kinds of cold job take turns, so every block
                // holds one of each.
                Class::Cold => {
                    cold += 1;
                    let body = match cold % 3 {
                        0 => format!(r#"{{"kind": "campaign", "seed": {}}}"#, rng.world_seed()),
                        1 => format!(
                            r#"{{"kind": "campaign", "seed": {h}, "params": {{"remote_share_scale": {}}}}}"#,
                            0.5 + i as f64 / 10_000.0
                        ),
                        _ => format!(
                            r#"{{"kind": "campaign", "seed": {h}, "params": {{"stale_listing_rate": {}}}}}"#,
                            0.01 + i as f64 / 100_000.0
                        ),
                    };
                    (body, None)
                }
                // An earlier block's warm job, long finished by now; the
                // first block repeats the hot worlds' set-up jobs instead.
                Class::Resubmit => {
                    let earlier: Vec<usize> = (0..block_start)
                        .filter(|&j| jobs[j].class == Class::Warm)
                        .collect();
                    if earlier.is_empty() {
                        (warmup(seed)[rng.below(HOT_WORLDS)].clone(), None)
                    } else {
                        let j = earlier[rng.below(earlier.len())];
                        (jobs[j].body.clone(), Some(j))
                    }
                }
                Class::Heavy => {
                    heavy += 1;
                    let s = rng.world_seed();
                    let body = if heavy % 2 == 1 {
                        format!(
                            r#"{{"kind": "sweep", "preset": "smoke", "replicates": 2, "seed": {s}}}"#
                        )
                    } else {
                        format!(r#"{{"kind": "check", "seed": {s}, "faults": 4, "fuzz": 16}}"#)
                    };
                    (body, None)
                }
            };
            jobs.push(Job {
                class,
                body,
                original,
            });
        }
    }
    jobs.truncate(n);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn count(jobs: &[Job], class: Class) -> usize {
        jobs.iter().filter(|j| j.class == class).count()
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        assert_eq!(job_stream(7, 300), job_stream(7, 300));
        assert_ne!(job_stream(7, 300), job_stream(8, 300));
        assert_eq!(hot_seeds(7), hot_seeds(7));
        assert_ne!(hot_seeds(7), hot_seeds(8));
        // A longer stream extends a shorter one.
        assert_eq!(job_stream(7, 40)[..], job_stream(7, 300)[..40]);
    }

    #[test]
    fn stream_hits_its_class_shares() {
        for seed in [1, 42, 1234] {
            let jobs = job_stream(seed, 20 * BLOCK_LEN);
            assert_eq!(count(&jobs, Class::Warm), 300);
            assert_eq!(count(&jobs, Class::Cold), 60);
            assert_eq!(count(&jobs, Class::Resubmit), 20);
            assert_eq!(count(&jobs, Class::Heavy), 20);
            for block in jobs.chunks(BLOCK_LEN) {
                for (class, k) in BLOCK_SHARES {
                    assert_eq!(count(block, class), k);
                }
                // One cold job of each kind per block.
                let cold: Vec<&Job> = block.iter().filter(|j| j.class == Class::Cold).collect();
                assert!(cold.iter().any(|j| !j.body.contains("params")));
                assert!(cold.iter().any(|j| j.body.contains("remote_share_scale")));
                assert!(cold.iter().any(|j| j.body.contains("stale_listing_rate")));
            }
        }
    }

    #[test]
    fn every_job_is_a_valid_spec_and_only_resubmits_repeat() {
        let seed = 42;
        let jobs = job_stream(seed, 10 * BLOCK_LEN);
        let warm = warmup(seed);
        let mut seen: HashSet<&str> = warm.iter().map(String::as_str).collect();
        for (i, job) in jobs.iter().enumerate() {
            let value = serde_json::from_str(&job.body).expect("job body is JSON");
            rp_server::JobSpec::parse(&value).expect("job body is a valid spec");
            let fresh = seen.insert(job.body.as_str());
            if job.class == Class::Resubmit {
                assert!(!fresh, "resubmission {i} repeats an earlier spec");
                match job.original {
                    Some(j) => {
                        assert!(j / BLOCK_LEN < i / BLOCK_LEN);
                        assert_eq!(jobs[j].class, Class::Warm);
                        assert_eq!(jobs[j].body, job.body);
                    }
                    None => assert!(warm.contains(&job.body)),
                }
            } else {
                assert!(fresh, "job {i} ({:?}) repeats a spec", job.class);
            }
        }
        let hot = hot_seeds(seed);
        for job in jobs.iter().filter(|j| j.class == Class::Warm) {
            assert!(hot
                .iter()
                .any(|h| job.body.contains(&format!("\"seed\": {h},"))));
        }
    }
}
