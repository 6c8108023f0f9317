//! Property-based tests on the foundation types.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rp_types::dist::{self, WeightTree};
use rp_types::geo::{GeoPoint, EARTH_RADIUS_KM};
use rp_types::seed;
use rp_types::{Bps, SimDuration, SimTime};

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-89.0f64..89.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    #[test]
    fn haversine_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        let ab = a.distance_km(b);
        let ba = b.distance_km(a);
        prop_assert!((ab - ba).abs() < 1e-6, "symmetry");
        prop_assert!(ab >= 0.0);
        prop_assert!(ab <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6, "half circumference bound");
        // Triangle inequality (great-circle distance is a metric).
        let ac = a.distance_km(c);
        let cb = c.distance_km(b);
        prop_assert!(ab <= ac + cb + 1e-6, "triangle: {ab} > {ac} + {cb}");
    }

    #[test]
    fn fiber_delay_monotone_in_distance(a in arb_point(), b in arb_point(), c in arb_point()) {
        let (d1, d2) = (a.distance_km(b), a.distance_km(c));
        let (t1, t2) = (a.fiber_delay_ms(b), a.fiber_delay_ms(c));
        if d1 < d2 {
            prop_assert!(t1 <= t2 + 1e-9);
        }
        prop_assert!(t1 >= 0.0);
    }

    #[test]
    fn seed_derivation_never_collides_across_domains(master in any::<u64>(), index in 0u64..1_000) {
        let a = seed::derive(master, "alpha", index);
        let b = seed::derive(master, "beta", index);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn bps_subtraction_saturates_and_fraction_bounded(x in 0.0f64..1e12, y in 0.0f64..1e12) {
        let diff = Bps(x) - Bps(y);
        prop_assert!(diff.0 >= 0.0);
        let f = Bps(x).fraction_of(Bps(y));
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..1u64 << 40, d in 0u64..1u64 << 30) {
        let t = SimTime(a) + SimDuration(d);
        prop_assert_eq!(t.since(SimTime(a)), SimDuration(d));
        prop_assert_eq!(SimTime(a).since(t), SimDuration::ZERO);
    }

    #[test]
    fn pareto_respects_scale(seed in any::<u64>(), x_min in 0.1f64..10.0, alpha in 0.3f64..3.0) {
        let mut rng = seed::rng(seed, "prop", 0);
        for _ in 0..50 {
            let x = dist::pareto(&mut rng, x_min, alpha);
            prop_assert!(x >= x_min);
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    fn rank_desc_matches_a_stable_descending_sort(
        picks in proptest::collection::vec((0usize..10, -5.0f64..5.0), 0..80),
    ) {
        // Both zeros, the infinities, a subnormal and repeats force ties
        // and sign handling; the last arms take a fresh weight.
        const PALETTE: [f64; 8] =
            [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -5e-324, 1.0, -1.0];
        let weights: Vec<f64> =
            picks.iter().map(|&(k, x)| PALETTE.get(k).copied().unwrap_or(x)).collect();
        let mut reference: Vec<usize> = (0..weights.len()).collect();
        reference.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
        prop_assert_eq!(dist::rank_desc(&weights), reference);
    }

    #[test]
    fn weighted_index_only_picks_positive_weights(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
    ) {
        let mut rng = seed::rng(seed, "prop-w", 1);
        match dist::weighted_index(&mut rng, &weights) {
            Some(i) => prop_assert!(weights[i] > 0.0),
            None => prop_assert!(weights.iter().all(|w| *w <= 0.0)),
        }
    }

    #[test]
    fn weight_tree_draws_match_weighted_index(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0u64..6, 0..60),
        scale in prop_oneof![Just(1u64), Just(3), Just(1_000), Just(1 << 30)],
        increments in proptest::collection::vec((0usize..60, 1u64..4), 0..12),
        rounds in 1usize..5,
        want in 0usize..6,
    ) {
        // The provider-attachment pattern: per round, `want` picks without
        // replacement, the picks restored, then a few weights grow.
        let weights: Vec<u64> = weights.iter().map(|w| w * scale).collect();
        let mut tree = WeightTree::new(&weights);
        let mut flat: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for round in 0..rounds {
            let mut picked = Vec::new();
            for _ in 0..want {
                let expected = dist::weighted_index(&mut a, &flat);
                let got = tree.draw(&mut b);
                prop_assert_eq!(got, expected, "round {}", round);
                let Some(i) = got else { break };
                picked.push((i, tree.set(i, 0)));
                flat[i] = 0.0;
            }
            for (i, w) in picked {
                tree.set(i, w);
                flat[i] = w as f64;
            }
            for &(i, delta) in &increments {
                if i < weights.len() {
                    tree.add(i, delta * scale);
                    flat[i] += (delta * scale) as f64;
                }
            }
            prop_assert_eq!(tree.total() as f64, flat.iter().sum::<f64>());
        }
        // Both consumed the same number of draws.
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn weight_tree_matches_weighted_index_on_exact_integer_targets(
        weights in proptest::collection::vec(0u64..9, 1..40),
        frac in 0.0f64..1.0,
    ) {
        // Pad the total to a power of two so `u · total` lands exactly on
        // the integer k: weighted_index's `target <= 0` boundary case.
        let mut weights = weights;
        let sum: u64 = weights.iter().sum();
        let total = sum.next_power_of_two();
        weights.push(total - sum);
        let k = ((frac * total as f64) as u64).min(total - 1);
        let word = (k * ((1u64 << 53) / total)) << 11;
        let flat: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let expected = dist::weighted_index(&mut Replay(vec![word]), &flat);
        prop_assert_eq!(WeightTree::new(&weights).draw(&mut Replay(vec![word])), expected);
    }
}

/// An RNG replaying fixed raw words, to aim a draw's target exactly.
struct Replay(Vec<u64>);

impl RngCore for Replay {
    fn next_u64(&mut self) -> u64 {
        self.0.remove(0)
    }
}

#[test]
fn weight_tree_degenerate_inputs_match_weighted_index() {
    for weights in [vec![], vec![0u64], vec![0, 0, 0], vec![0, 7, 0], vec![5]] {
        let flat: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let tree = WeightTree::new(&weights);
        // u = 0 (target 0), the largest u (target rounds up to the total)
        // and a middle one.
        for word in [0, u64::MAX, 1 << 63] {
            let mut a = Replay(vec![word, 42]);
            let mut b = Replay(vec![word, 42]);
            assert_eq!(
                tree.draw(&mut b),
                dist::weighted_index(&mut a, &flat),
                "{weights:?} at {word:#x}"
            );
            // An all-zero tree consumes no draw, like weighted_index.
            assert_eq!(a.0, b.0, "{weights:?}");
        }
    }
}

#[test]
#[should_panic(expected = "weight 1 is NaN")]
fn rank_desc_rejects_nan() {
    dist::rank_desc(&[1.0, f64::NAN]);
}
