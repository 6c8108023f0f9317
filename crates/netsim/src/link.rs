//! Links and delay models.
//!
//! A link's one-way delay is `base propagation + exponential jitter +
//! persistent extra + any active congestion episode`. The base term carries
//! geography (section 3's signal); the other three terms are the noise the
//! paper's filters and min-RTT estimator exist to defeat.

use rand::rngs::StdRng;
use rand::RngExt;
use rp_types::dist::exponential;
use rp_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A bounded interval of elevated delay on a link — transient congestion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionEpisode {
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
    /// Mean of the exponential extra delay added while the episode is
    /// active, in milliseconds.
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
    /// Bound of additional per-traversal *uniform* jitter, in milliseconds —
    /// the saturated-port regime, where queue occupancy swings over a wide
    /// but bounded range. Bounded noise keeps the achievable minimum honest
    /// (the conservative threshold can never be crossed by congestion
    /// alone) while spreading replies so thin that few corroborate the
    /// minimum. Zero disables.
    pub jitter_uniform_ms: f64,
    /// Constant extra delay, in milliseconds — persistent congestion (the
    /// LG-consistent filter's target when it afflicts one LG's access link).
    pub persistent_extra_ms: f64,
    /// Transient congestion episodes (random extra delay while active).
    pub episodes: Vec<CongestionEpisode>,
    /// Windows of *constant* extra delay — long structural changes such as
    /// a rerouted circuit or a saturated epoch, which elevate the achievable
    /// floor itself instead of adding noise around it. The LG-consistent
    /// filter exists because such epochs make two vantage servers probing
    /// in different periods disagree on the minimum RTT.
    pub persistent_episodes: Vec<CongestionEpisode>,
    /// Link capacity in megabits per second. `None` = unconstrained (the
    /// default — measurement probes are far too sparse to queue on real
    /// IXP-grade links). With a capacity set, the simulator serializes
    /// frames through a per-direction FIFO: each frame occupies the line
    /// for `size / capacity` and later frames wait their turn.
    pub bandwidth_mbps: Option<f64>,
}

impl DelayModel {
    /// An ideal link with only propagation delay.
    pub fn ideal(base: SimDuration) -> Self {
        DelayModel {
            base,
            jitter_mean_ms: 0.0,
            jitter_uniform_ms: 0.0,
            persistent_extra_ms: 0.0,
            episodes: Vec::new(),
            persistent_episodes: Vec::new(),
            bandwidth_mbps: None,
        }
    }

    /// A link whose one-way propagation is `ms` milliseconds, with light
    /// default jitter (30 µs mean) typical of an uncongested path.
    pub fn with_one_way_ms(ms: f64) -> Self {
        DelayModel {
            base: SimDuration::from_millis_f64(ms),
            jitter_mean_ms: 0.03,
            jitter_uniform_ms: 0.0,
            persistent_extra_ms: 0.0,
            episodes: Vec::new(),
            persistent_episodes: Vec::new(),
            bandwidth_mbps: None,
        }
    }

    /// Add bounded uniform jitter (saturated-port noise).
    pub fn with_jitter_uniform_ms(mut self, bound_ms: f64) -> Self {
        self.jitter_uniform_ms = bound_ms;
        self
    }

    /// Constrain the link to a finite capacity.
    pub fn with_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.bandwidth_mbps = Some(mbps);
        self
    }

    /// Serialization time of `bytes` on this link ([`SimDuration::ZERO`]
    /// when unconstrained).
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        match self.bandwidth_mbps {
            Some(mbps) if mbps > 0.0 => {
                SimDuration::from_nanos((bytes as f64 * 8.0 * 1_000.0 / mbps) as u64)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Add a window of constant extra delay.
    pub fn with_persistent_episode(mut self, e: CongestionEpisode) -> Self {
        self.persistent_episodes.push(e);
        self
    }

    /// Add a transient congestion episode.
    pub fn with_episode(mut self, e: CongestionEpisode) -> Self {
        self.episodes.push(e);
        self
    }

    /// Set the jitter mean.
    pub fn with_jitter_ms(mut self, ms: f64) -> Self {
        self.jitter_mean_ms = ms;
        self
    }

    /// Set a persistent extra delay.
    pub fn with_persistent_extra_ms(mut self, ms: f64) -> Self {
        self.persistent_extra_ms = ms;
        self
    }

    /// Sample the one-way delay for a frame entering the link at `now`.
    pub fn sample(&self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        let mut extra_ms = self.persistent_extra_ms;
        if self.jitter_mean_ms > 0.0 {
            extra_ms += exponential(rng, 1.0 / self.jitter_mean_ms);
        }
        if self.jitter_uniform_ms > 0.0 {
            extra_ms += rng.random::<f64>() * self.jitter_uniform_ms;
        }
        for e in &self.episodes {
            if e.active_at(now) && e.extra_mean_ms > 0.0 {
                extra_ms += exponential(rng, 1.0 / e.extra_mean_ms);
            }
        }
        for e in &self.persistent_episodes {
            if e.active_at(now) {
                extra_ms += e.extra_mean_ms;
            }
        }
        // Touch the RNG even without jitter so enabling/disabling episodes
        // far in the future does not silently shift unrelated samples.
        let _ = rng.random::<u32>();
        self.base + SimDuration::from_millis_f64(extra_ms)
    }

    /// The minimum achievable one-way delay (no jitter, no episodes).
    #[inline]
    pub fn floor(&self) -> SimDuration {
        self.base + SimDuration::from_millis_f64(self.persistent_extra_ms)
    }

    /// A hard lower bound on *every* traversal of this link, at any time:
    /// `base`. All other terms — exponential and uniform jitter,
    /// persistent extras, congestion episodes, serialization, injected
    /// jitter spikes — only add delay. The sharded scheduler's
    /// conservative lookahead is the minimum of this bound over all
    /// cross-shard links: a shard that has processed everything before
    /// time `T` can never receive a cross-shard frame earlier than
    /// `T + min_one_way()`, which is what makes the epoch barrier safe.
    #[inline]
    pub fn min_one_way(&self) -> SimDuration {
        self.base
    }

    /// True when [`sample`](Self::sample) draws nothing from its RNG that
    /// affects the result: no exponential or uniform jitter, and no
    /// transient episode with a positive mean. Links with such models
    /// skip RNG construction and per-frame sampling entirely — each link
    /// owns an isolated random stream, so never touching it cannot shift
    /// any other stream.
    pub fn is_deterministic(&self) -> bool {
        self.jitter_mean_ms <= 0.0
            && self.jitter_uniform_ms <= 0.0
            && self.episodes.iter().all(|e| e.extra_mean_ms <= 0.0)
    }

    /// [`sample`](Self::sample) for deterministic models (see
    /// [`is_deterministic`](Self::is_deterministic)), computed without an
    /// RNG. Bit-identical to what `sample` returns on such a model.
    pub fn sample_deterministic(&self, now: SimTime) -> SimDuration {
        debug_assert!(self.is_deterministic());
        self.floor_at(now)
    }

    /// The jitter-free one-way delay for a frame entering the link at
    /// `now`: base, persistent extra and any active persistent episode,
    /// with no random term. ARP frames travel at this delay so they never
    /// touch a link's random stream.
    pub fn floor_at(&self, now: SimTime) -> SimDuration {
        let mut extra_ms = self.persistent_extra_ms;
        for e in &self.persistent_episodes {
            if e.active_at(now) {
                extra_ms += e.extra_mean_ms;
            }
        }
        self.base + SimDuration::from_millis_f64(extra_ms)
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
    fn episode_applies_only_inside_window() {
        let m = DelayModel::ideal(SimDuration::from_millis(1)).with_episode(CongestionEpisode {
            start: SimTime(1_000),
            end: SimTime(2_000),
            extra_mean_ms: 50.0,
        });
        let mut r = rng();
        // Outside: exact base.
        assert_eq!(m.sample(SimTime(0), &mut r), SimDuration::from_millis(1));
        assert_eq!(
            m.sample(SimTime(2_000), &mut r),
            SimDuration::from_millis(1)
        );
        // Inside: almost surely above base (mean 50 ms extra).
        let mut raised = 0;
        for _ in 0..50 {
            if m.sample(SimTime(1_500), &mut r) > SimDuration::from_millis(2) {
                raised += 1;
            }
        }
        assert!(raised > 45, "{raised}");
    }

    #[test]
    fn persistent_extra_raises_floor() {
        let m = DelayModel::ideal(SimDuration::from_millis(1)).with_persistent_extra_ms(3.0);
        assert_eq!(m.floor(), SimDuration::from_millis(4));
        let mut r = rng();
        assert!(m.sample(SimTime::ZERO, &mut r) >= SimDuration::from_millis(4));
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
    fn uniform_jitter_is_bounded() {
        let m = DelayModel::ideal(SimDuration::from_millis(1)).with_jitter_uniform_ms(8.0);
        let mut r = rng();
        for _ in 0..500 {
            let d = m.sample(SimTime::ZERO, &mut r);
            assert!(d >= SimDuration::from_millis(1));
            assert!(d <= SimDuration::from_millis_f64(9.0));
        }
    }

    #[test]
    fn deterministic_models_sample_without_an_rng() {
        let windowed = CongestionEpisode {
            start: SimTime(100),
            end: SimTime(200),
            extra_mean_ms: 6.0,
        };
        let det = DelayModel::ideal(SimDuration::from_millis(2))
            .with_persistent_extra_ms(1.0)
            .with_persistent_episode(windowed);
        assert!(det.is_deterministic());
        let mut r = rng();
        for t in [SimTime(0), SimTime(150), SimTime(300)] {
            assert_eq!(det.sample_deterministic(t), det.sample(t, &mut r));
        }
        // Any stochastic term disqualifies the fast path.
        assert!(!DelayModel::with_one_way_ms(1.0).is_deterministic());
        assert!(!DelayModel::ideal(SimDuration::ZERO)
            .with_jitter_uniform_ms(1.0)
            .is_deterministic());
        assert!(!DelayModel::ideal(SimDuration::ZERO)
            .with_episode(windowed)
            .is_deterministic());
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
