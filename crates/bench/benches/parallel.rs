//! Serial-vs-parallel benchmarks for the campaign and the offload sweeps.
//!
//! Two comparisons, matching the acceptance criteria of the parallel
//! execution work:
//!
//! - `campaign/*`: [`Campaign::probe_all`] (one IXP per worker) against
//!   [`probe_all_serial`], `rp-testkit`'s serial reference arm — the
//!   speedup target is ≥2× on 4 cores.
//! - `greedy/*`: [`OffloadStudy::greedy_by`] over the memoized per-IXP cone
//!   cache against [`OffloadStudy::greedy_by_uncached`], which recomputes
//!   every cone from the member lists — the cache target is ≥5×.
//!
//! Each pairing runs on identical inputs, and the parallel/cached results
//! are asserted equal to the serial/uncached ones before timing starts, so
//! the numbers compare like with like.

use criterion::{criterion_group, criterion_main, Criterion};
use remote_peering::campaign::Campaign;
use remote_peering::offload::{GreedyMetric, OffloadStudy, PeerGroup};
use remote_peering::world::{World, WorldConfig};
use rp_testkit::differential::probe_all_serial;
use std::hint::black_box;

fn bench_campaign(c: &mut Criterion) {
    let world = World::build(&WorldConfig::test_scale(42));
    let campaign = Campaign::default_paper();

    // Determinism guard: the timed paths must agree before they race.
    assert_eq!(
        campaign.probe_all(&world),
        probe_all_serial(&campaign, &world),
        "parallel probe_all diverged from serial"
    );

    c.bench_function("campaign/probe_all_serial", |b| {
        b.iter(|| probe_all_serial(&campaign, black_box(&world)))
    });
    c.bench_function(
        &format!(
            "campaign/probe_all_parallel_{}t",
            rayon::current_num_threads()
        ),
        |b| b.iter(|| campaign.probe_all(black_box(&world))),
    );
}

fn bench_greedy(c: &mut Criterion) {
    // Paper scale: recomputing the 65 per-IXP cones walks a ~31k-AS
    // topology from thousands of member roots, which is what the cache
    // amortizes away across the fig 7/8/9/10 sweeps.
    let world = World::build(&WorldConfig::paper_scale(42));
    let study = OffloadStudy::new(&world);

    assert_eq!(
        study.greedy_by(PeerGroup::All, 30, GreedyMetric::Traffic),
        study.greedy_by_uncached(PeerGroup::All, 30, GreedyMetric::Traffic),
        "cached greedy diverged from uncached"
    );

    c.bench_function("greedy/uncached_30_steps", |b| {
        b.iter(|| study.greedy_by_uncached(PeerGroup::All, 30, GreedyMetric::Traffic))
    });
    // Warm the cone cache outside the timing loop so the bench measures
    // steady-state sweeps, as the repro binary experiences them.
    study.greedy_by(PeerGroup::All, 1, GreedyMetric::Traffic);
    c.bench_function("greedy/cached_30_steps", |b| {
        b.iter(|| study.greedy_by(PeerGroup::All, 30, GreedyMetric::Traffic))
    });

    c.bench_function("ranking/fig7_cached", |b| {
        b.iter(|| study.single_ixp_ranking())
    });

    // The cache's core win, isolated: a 65-IXP cone as a union of cached
    // bitsets vs a fresh graph traversal from every member root.
    let all: Vec<rp_types::IxpId> = world.scene.ixps.iter().map(|x| x.id).collect();
    c.bench_function("cones/full_set_cached", |b| {
        b.iter(|| study.reachable_cone(black_box(&all), PeerGroup::All))
    });
    c.bench_function("cones/full_set_uncached", |b| {
        b.iter(|| study.reachable_cone_uncached(black_box(&all), PeerGroup::All))
    });
}

fn bench_obs_overhead(c: &mut Criterion) {
    // Overhead budget for the rp-obs instrumentation threaded through the
    // campaign: <2% with collection enabled, unmeasurable when disabled
    // (the disabled path is one relaxed atomic load per site).
    let world = World::build(&WorldConfig::test_scale(42));
    let campaign = Campaign::default_paper();

    rp_obs::disable();
    c.bench_function("obs/probe_all_disabled", |b| {
        b.iter(|| campaign.probe_all(black_box(&world)))
    });
    rp_obs::enable();
    c.bench_function("obs/probe_all_enabled", |b| {
        b.iter(|| campaign.probe_all(black_box(&world)))
    });
    rp_obs::disable();
}

criterion_group!(benches, bench_campaign, bench_greedy, bench_obs_overhead);
criterion_main!(benches);
