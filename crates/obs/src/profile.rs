//! Self-profiling: a sampling span-stack profiler producing
//! collapsed-stack (flamegraph-ready) output.
//!
//! Where the span tree reports *aggregate* busy time per path, the
//! profiler answers "where was the pipeline *at*": a sampler thread
//! wakes every [`SAMPLE_INTERVAL`] and snapshots every worker thread's
//! current span stack. Sample counts per distinct stack accumulate into
//! the standard collapsed format (`root;child;leaf COUNT`, one line per
//! stack), which `flamegraph.pl`, speedscope, and inferno all ingest
//! directly.
//!
//! This is wall-clock sampling and therefore **explicitly excluded from
//! determinism-gated artifacts**: `repro profile` writes only
//! `profile.folded` (plus the experiment's normal result files, which
//! remain byte-identical — the profiler only *reads* span stacks). Two
//! profile runs will differ; that is inherent and fine.
//!
//! Mechanics: when profiling is armed, every span open/close mirrors the
//! thread's full span path into a per-thread slot (a tiny mutex-guarded
//! vec — contention is negligible because the sampler holds each slot
//! only long enough to clone it). Threads register their slot on first
//! span. The registry holds only `Weak` references: a slot dies with its
//! thread, and the sampler drops dead entries on its next tick, so the
//! registry tracks the live threads rather than every thread that ever
//! opened a span. The sampler upgrades each entry before reading it, so it
//! never races a thread exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Sampler wake interval: 1 ms → up to 1000 samples/s across the run.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(1);

static ARMED: AtomicBool = AtomicBool::new(false);

/// Is a profiler running? Gates the span-stack mirroring (one relaxed
/// load on each span open/close when obs is enabled).
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// One thread's mirrored span stack.
#[derive(Default)]
struct Slot {
    stack: Mutex<Vec<&'static str>>,
}

fn slots() -> &'static Mutex<Vec<Weak<Slot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Weak<Slot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_SLOT: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        slots().lock().expect("profiler slot registry").push(Arc::downgrade(&slot));
        slot
    };
}

/// Mirror the calling thread's current span path (called by the span
/// layer on every open/close while armed).
pub(crate) fn record_stack(path: &[&'static str]) {
    MY_SLOT.with(|slot| {
        let mut s = slot.stack.lock().expect("profiler slot");
        s.clear();
        s.extend_from_slice(path);
    });
}

/// One sampler tick: prune the slots of exited threads, then count each
/// live thread's non-empty stack once. `live` is scratch space.
fn sample(samples: &mut BTreeMap<String, u64>, live: &mut Vec<Arc<Slot>>) {
    live.clear();
    slots()
        .lock()
        .expect("profiler slot registry")
        .retain(|weak| match weak.upgrade() {
            Some(slot) => {
                live.push(slot);
                true
            }
            None => false,
        });
    for slot in live.iter() {
        let stack = slot.stack.lock().expect("profiler slot").clone();
        if stack.is_empty() {
            continue;
        }
        *samples.entry(stack.join(";")).or_insert(0) += 1;
    }
}

/// A finished profile: sample counts per collapsed stack.
#[derive(Debug, Clone)]
pub struct Profile {
    /// `stack-path → samples`, stack elements joined with `;`.
    pub samples: BTreeMap<String, u64>,
    /// Total samples taken (including idle ones that hit no open span).
    pub total_samples: u64,
}

impl Profile {
    /// Render in collapsed-stack format: one `path count` line per
    /// distinct stack, sorted by path (deterministic given the sample
    /// multiset), trailing newline.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, n) in &self.samples {
            out.push_str(path);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }

    /// The `n` hottest stacks, by sample count descending (ties by path).
    pub fn top(&self, n: usize) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.samples.iter().map(|(p, &c)| (p.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }
}

/// A running profiler; [`Profiler::stop`] yields the [`Profile`].
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Profile>,
}

/// Enable collection (the samples are span stacks), arm the profiler and
/// start the sampler thread. Run the workload, then [`Profiler::stop`].
pub fn start() -> Profiler {
    crate::enable();
    ARMED.store(true, Ordering::SeqCst);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("rp-obs-profiler".into())
        .spawn(move || {
            let mut samples: BTreeMap<String, u64> = BTreeMap::new();
            let mut total = 0u64;
            let mut live: Vec<Arc<Slot>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_INTERVAL);
                total += 1;
                sample(&mut samples, &mut live);
            }
            Profile {
                samples,
                total_samples: total,
            }
        })
        .expect("spawn profiler thread");
    Profiler { stop, handle }
}

impl Profiler {
    /// Disarm, join the sampler, and return the accumulated profile.
    pub fn stop(self) -> Profile {
        ARMED.store(false, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("profiler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registered() -> usize {
        slots().lock().expect("profiler slot registry").len()
    }

    #[test]
    fn exited_threads_leave_the_slot_registry() {
        record_stack(&["live", "leaf"]);
        let before = registered();
        let threads: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| record_stack(&["gone"])))
            .collect();
        for t in threads {
            t.join().expect("recording thread");
        }
        assert_eq!(registered(), before + 8, "each thread registered a slot");

        let mut samples = BTreeMap::new();
        sample(&mut samples, &mut Vec::new());
        assert_eq!(registered(), before, "one tick prunes the exited threads");
        assert_eq!(samples.get("live;leaf"), Some(&1));
        assert!(!samples.contains_key("gone"));
    }
}
