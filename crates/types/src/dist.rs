//! Random distributions used by the generators.
//!
//! Implemented here rather than pulled from `rand_distr` to keep the offline
//! dependency set to the sanctioned crates; each sampler is a handful of
//! lines and property-tested below.

use rand::RngExt;

/// Sample a standard normal via the Box–Muller transform.
pub fn standard_normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0): map the open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal with the given parameters of the *underlying* normal.
///
/// Used for the body of the traffic rank-size distribution and for per-AS
/// address-space sizes.
pub fn log_normal<R: RngExt + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Pareto (type I) with scale `x_min > 0` and shape `alpha > 0`.
///
/// Heavy tail for top traffic contributors and large customer cones.
pub fn pareto<R: RngExt + ?Sized>(rng: &mut R, x_min: f64, alpha: f64) -> f64 {
    debug_assert!(x_min > 0.0 && alpha > 0.0);
    let u: f64 = 1.0 - rng.random::<f64>(); // u ∈ (0, 1]
    x_min / u.powf(1.0 / alpha)
}

/// Exponential with rate `lambda > 0` (mean `1/lambda`).
pub fn exponential<R: RngExt + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / lambda
}

/// Zipf-like rank weight: `1 / rank^s`, normalized externally.
///
/// Deterministic helper (not a sampler) for rank-size scaffolding.
#[inline]
pub fn zipf_weight(rank: usize, s: f64) -> f64 {
    debug_assert!(rank >= 1);
    1.0 / (rank as f64).powf(s)
}

/// Positions of `weights` ordered by weight descending, ties to the lower
/// position: the list a stable descending sort of `(weight, position)`
/// returns. Each weight becomes an integer in float order, packed above its
/// position, so one unstable sort of plain integers does the work of a
/// comparator sort. Panics on a NaN weight, which has no place in the order.
pub fn rank_desc(weights: &[f64]) -> Vec<usize> {
    let mut keys: Vec<u128> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            assert!(!w.is_nan(), "weight {i} is NaN");
            // `+ 0.0` folds -0.0 into +0.0 (the two compare equal). Setting
            // the sign bit of a non-negative float, or flipping every bit
            // of a negative one, gives an integer in float order; its
            // complement sorts heavy weights first.
            let bits = (w + 0.0).to_bits();
            let ascending = if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            };
            (u128::from(!ascending) << 64) | i as u128
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u64 as usize).collect()
}

/// Sample an index in `[0, weights.len())` proportionally to `weights`.
///
/// Linear scan, for small candidate sets (continents, hub cities); large
/// pools of integer weights draw the same index through [`WeightTree`].
/// Returns `None` for an empty or all-zero weight vector.
pub fn weighted_index<R: RngExt + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if *w > 0.0 {
            target -= *w;
            if target <= 0.0 {
                return Some(i);
            }
        }
    }
    // Floating-point residue: fall back to the last positive weight.
    weights.iter().rposition(|w| *w > 0.0)
}

/// Integer weights in a Fenwick (binary indexed) tree: O(log n) updates and
/// weighted draws that return exactly what [`weighted_index`] returns on the
/// same weights (as `f64`) and the same RNG state.
///
/// Exactness: while the total stays below 2^53, every partial sum of integer
/// weights is exact in `f64`, and so is every `target - S_k` that
/// `weighted_index` computes while it is still positive (`target` is a
/// multiple of its own ulp ≤ 1, so the difference is too and fits in 53
/// bits). Its scan therefore returns the first positive-weight index whose
/// integer prefix sum `S_k` reaches `target`, i.e. the first index with
/// `S_k ≥ max(ceil(target), 1)` — a Fenwick lower-bound search. An all-zero
/// tree draws nothing from the RNG, as `weighted_index` does.
#[derive(Debug, Clone)]
pub struct WeightTree {
    /// 1-based Fenwick partial sums (`tree[0]` unused), kept modulo 2^64 so
    /// a decrease is a wrapping add; the true sums are never negative.
    tree: Vec<u64>,
    weights: Vec<u64>,
    total: u64,
}

impl WeightTree {
    /// A tree over `weights`, built in O(n).
    pub fn new(weights: &[u64]) -> Self {
        let n = weights.len();
        let mut tree = vec![0u64; n + 1];
        tree[1..].copy_from_slice(weights);
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] = tree[parent].wrapping_add(tree[i]);
            }
        }
        let total = weights.iter().sum();
        assert!(total < 1 << 53, "weight total {total} is not exact in f64");
        WeightTree {
            tree,
            weights: weights.to_vec(),
            total,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Set the weight at `i` to `w`, returning the old weight.
    pub fn set(&mut self, i: usize, w: u64) -> u64 {
        let old = std::mem::replace(&mut self.weights[i], w);
        let delta = w.wrapping_sub(old);
        self.total = self.total.wrapping_add(delta);
        assert!(self.total < 1 << 53, "weight total is not exact in f64");
        let mut k = i + 1;
        while k < self.tree.len() {
            self.tree[k] = self.tree[k].wrapping_add(delta);
            k += k & k.wrapping_neg();
        }
        old
    }

    /// Add `delta` to the weight at `i`.
    pub fn add(&mut self, i: usize, delta: u64) {
        self.set(i, self.weights[i] + delta);
    }

    /// Draw an index proportionally to the weights; see the type docs for
    /// why this equals [`weighted_index`] draw for draw.
    pub fn draw<R: RngExt + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let target = rng.random::<f64>() * self.total as f64;
        Some(self.lower_bound((target.ceil() as u64).max(1)))
    }

    /// The smallest index whose inclusive prefix sum is at least `k`, for
    /// `1 ≤ k ≤ total`.
    fn lower_bound(&self, k: u64) -> usize {
        let n = self.weights.len();
        let mut pos = 0usize;
        let mut rest = k;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] < rest {
                pos = next;
                rest -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// Bernoulli draw with probability `p` (clamped to [0, 1]).
pub fn coin<R: RngExt + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let mut r = rng();
        let n = 100_000;
        let mut above_10x = 0usize;
        for _ in 0..n {
            let x = pareto(&mut r, 2.0, 1.5);
            assert!(x >= 2.0);
            if x > 20.0 {
                above_10x += 1;
            }
        }
        // P(X > 10·x_min) = 10^-1.5 ≈ 0.0316.
        let frac = above_10x as f64 / n as f64;
        assert!((frac - 0.0316).abs() < 0.005, "tail fraction {frac}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = rng();
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| log_normal(&mut r, 1.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of log-normal is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut r, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_inputs() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 5.0]), Some(1));
    }

    #[test]
    fn zipf_weights_decay() {
        assert!(zipf_weight(1, 1.0) > zipf_weight(2, 1.0));
        assert!((zipf_weight(4, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coin_probability() {
        let mut r = rng();
        let hits = (0..50_000).filter(|_| coin(&mut r, 0.3)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
    }
}
