//! Links and delay models.
//!
//! A link's one-way delay is `base propagation + exponential jitter + any
//! active persistent episode`. The base term carries geography (section
//! 3's signal); jitter is the noise the min-RTT estimator defeats, and a
//! persistent episode shifts the achievable floor itself for an epoch —
//! the disagreement the LG-consistent filter exists to catch.

use rand::rngs::StdRng;
use rand::RngExt;
use rp_types::dist::exponential;
use rp_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A bounded interval of constant extra delay on a link (see
/// [`DelayModel::persistent_episodes`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionEpisode {
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
    /// Extra delay added while the episode is active, in milliseconds.
    pub extra_mean_ms: f64,
}

impl CongestionEpisode {
    /// True when `t` falls inside the episode.
    #[inline]
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Stochastic one-way delay model for a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayModel {
    /// Deterministic propagation delay (fiber distance).
    pub base: SimDuration,
    /// Mean of per-traversal exponential jitter, in milliseconds (queuing,
    /// serialization, scheduler noise). Zero disables jitter.
    pub jitter_mean_ms: f64,
    /// Windows of *constant* extra delay — long structural changes such as
    /// a rerouted circuit or a saturated epoch, which elevate the achievable
    /// floor itself instead of adding noise around it. The LG-consistent
    /// filter exists because such epochs make two vantage servers probing
    /// in different periods disagree on the minimum RTT.
    pub persistent_episodes: Vec<CongestionEpisode>,
}

impl DelayModel {
    /// An ideal link with only propagation delay.
    pub fn ideal(base: SimDuration) -> Self {
        DelayModel {
            base,
            jitter_mean_ms: 0.0,
            persistent_episodes: Vec::new(),
        }
    }

    /// A link whose one-way propagation is `ms` milliseconds, with light
    /// default jitter (30 µs mean) typical of an uncongested path.
    pub fn with_one_way_ms(ms: f64) -> Self {
        DelayModel {
            base: SimDuration::from_millis_f64(ms),
            jitter_mean_ms: 0.03,
            persistent_episodes: Vec::new(),
        }
    }

    /// Add a window of constant extra delay.
    pub fn with_persistent_episode(mut self, e: CongestionEpisode) -> Self {
        self.persistent_episodes.push(e);
        self
    }

    /// Set the jitter mean.
    pub fn with_jitter_ms(mut self, ms: f64) -> Self {
        self.jitter_mean_ms = ms;
        self
    }

    /// Sample the one-way delay for a frame entering the link at `now`:
    /// the jitter-free [`floor_at`](Self::floor_at) plus exponential
    /// jitter.
    pub fn sample(&self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        let mut jitter_ms = 0.0;
        if self.jitter_mean_ms > 0.0 {
            jitter_ms += exponential(rng, 1.0 / self.jitter_mean_ms);
        }
        // Touch the RNG even without jitter so enabling/disabling episodes
        // far in the future does not silently shift unrelated samples.
        let _ = rng.random::<u32>();
        self.base + SimDuration::from_millis_f64(self.plus_episodes(now, jitter_ms))
    }

    /// True when [`sample`](Self::sample) draws nothing from its RNG that
    /// affects the result: no jitter. Such a model's `sample` equals
    /// [`floor_at`](Self::floor_at), so its links skip RNG construction
    /// and per-frame sampling entirely — each link owns an isolated random
    /// stream, so never touching it cannot shift any other stream.
    pub fn is_deterministic(&self) -> bool {
        self.jitter_mean_ms <= 0.0
    }

    /// The jitter-free one-way delay for a frame entering the link at
    /// `now`: base plus any active persistent episode, with no random
    /// term. Deterministic links and ARP frames travel at this delay, so
    /// they never touch a link's random stream.
    pub fn floor_at(&self, now: SimTime) -> SimDuration {
        self.base + SimDuration::from_millis_f64(self.plus_episodes(now, 0.0))
    }

    /// `extra_ms` plus the extra delay of every persistent episode active
    /// at `now`, summed in episode order. `sample` passes its jitter in
    /// rather than adding a separate episode sum, so the floating-point
    /// additions keep the order every recorded artifact was produced with.
    fn plus_episodes(&self, now: SimTime, mut extra_ms: f64) -> f64 {
        for e in &self.persistent_episodes {
            if e.active_at(now) {
                extra_ms += e.extra_mean_ms;
            }
        }
        extra_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn ideal_link_is_exact() {
        let m = DelayModel::ideal(SimDuration::from_millis(5));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(SimTime::ZERO, &mut r), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn jitter_only_adds() {
        let m = DelayModel::with_one_way_ms(1.0);
        let mut r = rng();
        for _ in 0..200 {
            let d = m.sample(SimTime::ZERO, &mut r);
            assert!(d >= m.base);
        }
    }

    #[test]
    fn persistent_episode_raises_the_floor_inside_its_window() {
        let m = DelayModel::ideal(SimDuration::from_millis(1)).with_persistent_episode(
            CongestionEpisode {
                start: SimTime(100),
                end: SimTime(200),
                extra_mean_ms: 6.0,
            },
        );
        let mut r = rng();
        assert_eq!(m.sample(SimTime(50), &mut r), SimDuration::from_millis(1));
        assert_eq!(m.sample(SimTime(150), &mut r), SimDuration::from_millis(7));
        assert_eq!(m.sample(SimTime(250), &mut r), SimDuration::from_millis(1));
    }

    #[test]
    fn deterministic_models_sample_without_an_rng() {
        let det = DelayModel::ideal(SimDuration::from_millis(2)).with_persistent_episode(
            CongestionEpisode {
                start: SimTime(100),
                end: SimTime(200),
                extra_mean_ms: 6.0,
            },
        );
        assert!(det.is_deterministic());
        let mut r = rng();
        for t in [SimTime(0), SimTime(150), SimTime(300)] {
            assert_eq!(det.floor_at(t), det.sample(t, &mut r));
        }
        // Jitter disqualifies the fast path.
        assert!(!DelayModel::with_one_way_ms(1.0).is_deterministic());
        assert!(!det.with_jitter_ms(0.5).is_deterministic());
    }

    #[test]
    fn min_of_many_samples_approaches_floor() {
        // The measurement method's core assumption: repeated probing makes
        // min-RTT converge to propagation. Verify the substrate honors it.
        let m = DelayModel::with_one_way_ms(2.0).with_jitter_ms(0.5);
        let mut r = rng();
        let min = (0..500)
            .map(|_| m.sample(SimTime::ZERO, &mut r))
            .min()
            .unwrap();
        let slack = min - m.base;
        assert!(
            slack.as_millis_f64() < 0.05,
            "min {} vs base {}",
            min,
            m.base
        );
    }
}
