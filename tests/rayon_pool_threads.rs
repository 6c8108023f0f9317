//! Once the vendored rayon stand-in's pool is warm, parallel calls start
//! no OS threads: the `Threads:` count in `/proc/self/status`, read both
//! between calls and from inside the innermost items, stays put across 500
//! nested calls. This binary holds one test only, so libtest starts no
//! other thread while it counts.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The process's thread count, or `None` where `/proc` is unavailable.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// One nested call: a `par_iter` whose items run a `par_iter` and a `join`.
/// The first inner item of each outer item raises `peak` to the thread
/// count it sees.
fn nested_call(round: u64, peak: &AtomicUsize) -> u64 {
    let outer: Vec<u64> = (0..8).collect();
    let sums: Vec<u64> = outer
        .par_iter()
        .map(|&o| {
            let inner: Vec<u64> = (0..16).collect();
            let v: Vec<u64> = inner
                .par_iter()
                .map(|&i| {
                    if i == 0 {
                        peak.fetch_max(os_threads().unwrap_or(0), Ordering::Relaxed);
                    }
                    round + o * i
                })
                .collect();
            let (a, b) = rayon::join(|| v.iter().sum::<u64>(), || v.len() as u64);
            a + b
        })
        .collect();
    sums.iter().sum()
}

fn nested_expected(round: u64) -> u64 {
    (0..8u64)
        .map(|o| (0..16u64).map(|i| round + o * i).sum::<u64>() + 16)
        .sum()
}

#[test]
fn warm_pool_spawns_no_threads_across_500_nested_calls() {
    const WIDTH: usize = 4;
    rayon::ThreadPoolBuilder::new()
        .num_threads(WIDTH)
        .build_global()
        .expect("width set");
    let Some(cold) = os_threads() else {
        eprintln!("no /proc/self/status here; thread count not checked");
        return;
    };
    let peak = AtomicUsize::new(0);
    for round in 0..20 {
        assert_eq!(nested_call(round, &peak), nested_expected(round));
    }
    let warm = os_threads().expect("status readable");
    assert!(
        warm <= cold + (WIDTH - 1),
        "warm-up started {} threads, more than the pool's {} workers",
        warm - cold,
        WIDTH - 1
    );
    peak.store(0, Ordering::Relaxed);
    for round in 0..500 {
        assert_eq!(nested_call(round, &peak), nested_expected(round));
        assert_eq!(
            os_threads(),
            Some(warm),
            "call {round} changed the thread count"
        );
    }
    assert_eq!(
        peak.load(Ordering::Relaxed),
        warm,
        "threads came and went inside the calls"
    );
}
