//! The vendored rayon stand-in's persistent worker pool, driven through
//! the public surface the workspace uses (`par_iter`, `into_par_iter`,
//! `join`, `build_global`):
//!
//! - nested calls (a `par_iter` or a `join` inside a `par_iter` item, the
//!   shape of a sweep task's per-IXP campaign inside the sweep) finish
//!   and return results in input order at widths 2 and 4;
//! - a panic in a nested item reaches the outermost caller with its
//!   original message, and the pool keeps serving afterwards;
//! - a width set through `build_global` between calls takes effect on the
//!   next call, growing the pool or leaving extra workers idle.
//!
//! The width is process-global, so every test holds [`POOL`] for its whole
//! run. The thread-count check lives in its own binary
//! (`rayon_pool_threads.rs`), away from libtest's per-test threads.

use rayon::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

static POOL: Mutex<()> = Mutex::new(());

/// Hold the pool exclusively at width `n`.
fn width(n: usize) -> MutexGuard<'static, ()> {
    let guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("width set");
    guard
}

fn inner_value(outer: u64, inner: u64) -> u64 {
    outer * 1_000 + inner * inner
}

/// Outer `par_iter` over 12 items, each running an inner `par_iter` over
/// 40 items; every item spins a little so helpers really interleave.
fn nested(outer: u64) -> Vec<Vec<u64>> {
    let outer_items: Vec<u64> = (0..outer).collect();
    outer_items
        .par_iter()
        .map(|&o| {
            let inner_items: Vec<u64> = (0..40).collect();
            inner_items
                .par_iter()
                .map(|&i| {
                    std::hint::black_box((0..200).fold(0u64, |a, x| a.wrapping_add(x)));
                    inner_value(o, i)
                })
                .collect()
        })
        .collect()
}

fn nested_expected(outer: u64) -> Vec<Vec<u64>> {
    (0..outer)
        .map(|o| (0..40).map(|i| inner_value(o, i)).collect())
        .collect()
}

#[test]
fn nested_par_iter_keeps_input_order_at_widths_2_and_4() {
    for w in [2, 4] {
        let _pool = width(w);
        for _ in 0..20 {
            assert_eq!(nested(12), nested_expected(12), "width {w}");
        }
    }
}

#[test]
fn join_inside_par_iter_keeps_input_order_at_widths_2_and_4() {
    for w in [2, 4] {
        let _pool = width(w);
        for _ in 0..20 {
            let items: Vec<u64> = (0..32).collect();
            let got: Vec<(u64, String)> = items
                .par_iter()
                .map(|&x| rayon::join(|| x * x, || format!("item {x}")))
                .collect();
            let want: Vec<(u64, String)> = (0..32).map(|x| (x * x, format!("item {x}"))).collect();
            assert_eq!(got, want, "width {w}");
        }
        // Owned items through `into_par_iter`, with a nested join.
        let owned: Vec<String> = (0..24).map(|x| x.to_string()).collect();
        let lens: Vec<(usize, usize)> = owned
            .into_par_iter()
            .map(|s| rayon::join(|| s.len(), || s.len() * 2))
            .collect();
        let want: Vec<(usize, usize)> = (0..24)
            .map(|x: usize| (x.to_string().len(), x.to_string().len() * 2))
            .collect();
        assert_eq!(lens, want, "width {w}");
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_nested_panic_reaches_the_outer_caller_and_the_pool_survives() {
    for w in [2, 4] {
        let _pool = width(w);
        for round in 0..5 {
            let outer: Vec<u64> = (0..8).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| -> Vec<Vec<u64>> {
                outer
                    .par_iter()
                    .map(|&o| {
                        let inner: Vec<u64> = (0..16).collect();
                        let sums: Vec<u64> = inner
                            .par_iter()
                            .map(|&i| {
                                if o == 5 && i == 11 {
                                    panic!("nested item {o}/{i} failed");
                                }
                                o + i
                            })
                            .collect();
                        sums
                    })
                    .collect()
            }));
            let payload = caught.expect_err("the nested panic propagates");
            assert_eq!(
                panic_message(payload.as_ref()),
                "nested item 5/11 failed",
                "width {w}, round {round}"
            );
            // A panicking `join` arm keeps its payload too.
            let caught = catch_unwind(|| rayon::join(|| 1, || -> u32 { panic!("right arm") }));
            assert_eq!(
                panic_message(caught.expect_err("b panics").as_ref()),
                "right arm"
            );
            // The pool still serves nested work after the panics.
            assert_eq!(nested(6), nested_expected(6), "width {w}, round {round}");
        }
    }
}

/// Run a `par_iter` over 64 items at the current width where the first
/// items block until `expect` distinct threads hold one (or a 20 s
/// timeout passes). Returns the distinct threads that ran an item, after
/// checking the results came back in input order.
fn participants(expect: usize) -> HashSet<ThreadId> {
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let all_in = Condvar::new();
    let items: Vec<u64> = (0..64).collect();
    let out: Vec<u64> = items
        .par_iter()
        .map(|&x| {
            let mut s = seen.lock().expect("seen");
            s.insert(std::thread::current().id());
            all_in.notify_all();
            let _s = all_in
                .wait_timeout_while(s, Duration::from_secs(20), |s| s.len() < expect)
                .expect("seen");
            x + 1
        })
        .collect();
    assert_eq!(out, (1..65).collect::<Vec<u64>>());
    seen.into_inner().expect("seen")
}

#[test]
fn build_global_changes_the_width_between_calls() {
    for w in [3, 2, 4, 1, 2] {
        let _pool = width(w);
        assert_eq!(rayon::current_num_threads(), w);
        let threads = participants(w);
        assert_eq!(threads.len(), w, "width {w}: every lane joins, none extra");
        if w == 1 {
            assert!(threads.contains(&std::thread::current().id()));
        }
    }
}
