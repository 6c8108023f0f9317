//! Content-addressed memoization of world builds and campaign probes.
//!
//! Building a [`World`] and probing it are by far the
//! most expensive steps in the pipeline, and several callers repeat them
//! with identical inputs: `repro check` builds the same world for its clean
//! and faulted arms, the sweep engine re-derives the same replicate seeds
//! across presets, and `repro all` re-enters the detection report per
//! experiment group. Both artifacts are pure functions of their
//! configuration, so they are cached here under a content [`Key`]: the
//! configuration's derived `Debug` text plus its FNV-64 [`fingerprint`].
//!
//! Keying rules (every keying site in the workspace goes through [`Key`]):
//!
//! - A world's key is [`Key::of`] its [`WorldConfig`] (which embeds the
//!   seed, so "same knobs, different seed" never collides by
//!   construction).
//! - A probe set's key is the pair `(world key, campaign key)`.
//! - A fork's key is `Key::of(&("fork", parent key, delta log))` (see
//!   [`crate::fork`]); the `rp-server` job queue dedupes on
//!   `Key::of(&spec)`.
//! - Mutating a cached world in place (fault injection, invariant probes)
//!   must go through [`World::mark_mutated`], which swaps the key for a
//!   [`Key::unique`]: the mutated world can still be probed, but its
//!   results are filed under that key and can never be confused with the
//!   pristine build.
//!
//! Both caches are instances of one store type, a mutex-guarded LRU with an
//! entry cap, an optional byte budget, and a per-entry weight. The probe
//! cache keeps eight entries (enough to keep a sweep preset's replicate
//! set resident) and has no byte budget. The world cache is the **world
//! pool**: its entries weigh [`World::approx_bytes`], and its entry cap
//! and byte budget are configurable ([`configure_world_pool`]) so a
//! long-running `repro serve` process can keep many warm worlds resident
//! without unbounded growth. Eviction is a pure performance policy —
//! results are identical with a cold pool. The lock is **not** held while
//! building or probing: two threads racing on the same key may both
//! compute, but the results are deterministic and identical, so the
//! loser's copy is simply dropped.

use crate::campaign::Campaign;
use crate::probe::ProbePlane;
use crate::world::{World, WorldConfig};
use rp_types::IxpId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Raw per-IXP campaign output, as produced by
/// [`Campaign::probe_all`](crate::campaign::Campaign::probe_all): one
/// dense struct-of-arrays [`ProbePlane`] per studied IXP.
pub type ProbeSet = Vec<(IxpId, ProbePlane)>;

/// Entries kept per cache by default. A sweep preset probes at most a
/// handful of distinct worlds per replicate seed; eight slots keep a full
/// replicate set resident without letting a long campaign pin unbounded
/// memory.
const CACHE_CAP: usize = 8;

/// FNV-1a 64 fingerprint of a configuration's `Debug` encoding.
///
/// The derived `Debug` output is canonical enough here: the config structs
/// are plain field structs of scalars, strings, and nested config structs,
/// so equal values render identical text (floats included — Rust's float
/// formatting is the exact shortest round-trip form). Only ever hash plain
/// data this way; anything whose `Debug` prints addresses or other
/// run-varying state would break the content addressing.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv(format_args!("{value:?}"))
}

/// FNV-1a 64 of formatted text, streamed without building a string.
fn fnv(text: std::fmt::Arguments<'_>) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::Write::write_fmt(&mut h, text).expect("the FNV sink never errors");
    h.0
}

/// A content key: a value's canonical `Debug` text plus its cached
/// [`fingerprint`] digest. The derived equality compares the fields in
/// order, digest first and then text, so a digest collision is a miss,
/// never a wrong artifact. `Debug` prints the text as a quoted string, so
/// a key nested in another keyed value (a fork's parent) stays injective.
#[derive(Clone, PartialEq, Eq)]
pub struct Key {
    digest: u64,
    text: Arc<str>,
}

impl Key {
    /// The key of `value`'s `Debug` text.
    pub fn of<T: std::fmt::Debug>(value: &T) -> Key {
        let text = format!("{value:?}");
        Key {
            digest: fnv(format_args!("{text}")),
            text: text.into(),
        }
    }

    /// A process-unique key: the key of `("unique", n)`, a shape no cached
    /// value or fork log has, so it equals no other key.
    pub fn unique() -> Key {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Key::of(&("unique", NEXT.fetch_add(1, Ordering::Relaxed)))
    }

    /// The key's digest: [`fingerprint`] of the keyed value.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&*self.text, f)
    }
}

/// The metric names one store reports under.
struct Names {
    hit: &'static str,
    miss: &'static str,
    evict: Option<&'static str>,
    bytes: Option<&'static str>,
}

/// A bounded LRU of `(key, shared value, weight)` entries behind a mutex.
/// The back of the deque is most-recently-used; eviction pops the front.
struct Lru<K, V> {
    entries: Mutex<VecDeque<(K, Arc<V>, u64)>>,
    /// Entry cap (always >= 1).
    max_entries: AtomicUsize,
    /// Byte budget over entry weights; 0 means "entry cap only".
    max_bytes: AtomicU64,
    weight: fn(&V) -> u64,
    names: Names,
}

impl<K: PartialEq, V> Lru<K, V> {
    const fn new(max_entries: usize, weight: fn(&V) -> u64, names: Names) -> Self {
        Lru {
            entries: Mutex::new(VecDeque::new()),
            max_entries: AtomicUsize::new(max_entries),
            max_bytes: AtomicU64::new(0),
            weight,
            names,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(K, Arc<V>, u64)>> {
        self.entries.lock().expect("memo cache lock")
    }

    /// Set the bounds, evicting immediately (oldest first) if they shrank.
    fn configure(&self, max_entries: usize, max_bytes: Option<u64>) {
        self.max_entries
            .store(max_entries.max(1), Ordering::Relaxed);
        self.max_bytes
            .store(max_bytes.unwrap_or(0), Ordering::Relaxed);
        self.evict_to_bounds(&mut self.lock());
    }

    /// Resident load: `(entries, summed weights)`.
    fn stats(&self) -> (usize, u64) {
        let entries = self.lock();
        (entries.len(), entries.iter().map(|(_, _, w)| w).sum())
    }

    /// Look `key` up, computing (outside the lock) and inserting on a
    /// miss; hits move to the back (most-recently-used). On a concurrent
    /// double-compute the first inserter wins and the second copy is
    /// dropped — both are deterministic, so either is correct. A lookup
    /// counts as a miss only when its own value is the one inserted, so
    /// the loser of a race counts as a hit.
    fn get_or_insert(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = Self::find(&mut self.lock(), &key) {
            rp_obs::metrics::counter(self.names.hit).add(1);
            return hit;
        }
        let value = Arc::new(compute());
        let weight = (self.weight)(&value);
        let mut entries = self.lock();
        if let Some(raced) = Self::find(&mut entries, &key) {
            rp_obs::metrics::counter(self.names.hit).add(1);
            return raced;
        }
        entries.push_back((key, value.clone(), weight));
        self.evict_to_bounds(&mut entries);
        rp_obs::metrics::counter(self.names.miss).add(1);
        value
    }

    /// Find `key`, moving its entry to the most-recently-used position.
    fn find(entries: &mut VecDeque<(K, Arc<V>, u64)>, key: &K) -> Option<Arc<V>> {
        let pos = entries.iter().position(|(k, _, _)| k == key)?;
        let entry = entries.remove(pos).expect("position came from this deque");
        let value = entry.1.clone();
        entries.push_back(entry);
        Some(value)
    }

    /// Drop least-recently-used entries until both bounds hold. The byte
    /// budget never evicts the last entry: a single value larger than the
    /// budget still caches (evicting it would just thrash recomputes).
    fn evict_to_bounds(&self, entries: &mut VecDeque<(K, Arc<V>, u64)>) {
        let max_entries = self.max_entries.load(Ordering::Relaxed).max(1);
        let max_bytes = self.max_bytes.load(Ordering::Relaxed);
        let mut total: u64 = entries.iter().map(|(_, _, w)| w).sum();
        while entries.len() > max_entries
            || (max_bytes > 0 && total > max_bytes && entries.len() > 1)
        {
            if let Some((_, _, w)) = entries.pop_front() {
                total -= w;
                if let Some(name) = self.names.evict {
                    rp_obs::metrics::counter(name).add(1);
                }
            }
        }
        if let Some(name) = self.names.bytes {
            rp_obs::metrics::gauge(name).record_max(total);
        }
    }
}

/// The world pool: worlds weighed by [`World::approx_bytes`].
static WORLDS: Lru<Key, World> = Lru::new(
    CACHE_CAP,
    World::approx_bytes,
    Names {
        hit: "core.memo.world_hit",
        miss: "core.memo.world_miss",
        evict: Some("core.memo.world_evict"),
        bytes: Some("core.memo.world_bytes"),
    },
);

/// The probe cache, keyed `(world key, campaign key)`: bounded by entry
/// count only, so entries carry no weight.
static PROBES: Lru<(Key, Key), ProbeSet> = Lru::new(
    CACHE_CAP,
    |_| 0,
    Names {
        hit: "core.memo.probe_hit",
        miss: "core.memo.probe_miss",
        evict: None,
        bytes: None,
    },
);

/// Configure the world pool's bounds: an entry cap and an optional byte
/// budget over [`World::approx_bytes`] estimates. The default is the
/// eight-entry cap with no byte budget — right for one-shot CLI runs;
/// `repro serve` raises the entry cap and sets a budget so a long-lived
/// process bounds its resident set by memory, not by a guess at how many
/// distinct configs its clients rotate through. Shrinking the bounds
/// evicts immediately (oldest first). Purely a performance knob: cached
/// and freshly built worlds are bit-identical.
pub fn configure_world_pool(max_entries: usize, max_bytes: Option<u64>) {
    WORLDS.configure(max_entries, max_bytes);
}

/// Resident world-pool load: `(entries, estimated bytes)`.
pub fn world_pool_stats() -> (usize, u64) {
    WORLDS.stats()
}

/// Fetch or build the world for `cfg` (keyed by its [`Key`]).
pub(crate) fn world(cfg: &WorldConfig) -> Arc<World> {
    WORLDS.get_or_insert(Key::of(cfg), || World::build(cfg))
}

/// Fetch or compute `campaign`'s probe set for `world`, keyed `(world
/// key, campaign key)`. Safe because probing is a pure function of
/// `(world, campaign)` and mutated worlds carry a unique key (see
/// [`World::mark_mutated`]). [`Campaign::probe_all`] itself never
/// consults the cache, so benchmarks and determinism tests that call it
/// keep measuring real work.
pub fn probes(campaign: &Campaign, world: &World) -> Arc<ProbeSet> {
    PROBES.get_or_insert((world.memo_key.clone(), Key::of(campaign)), || {
        campaign.probe_all(world)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_NAMES: Names = Names {
        hit: "core.memo.probe_hit",
        miss: "core.memo.probe_miss",
        evict: None,
        bytes: None,
    };

    fn keys(lru: &Lru<u64, u64>) -> Vec<u64> {
        lru.lock().iter().map(|(k, _, _)| *k).collect()
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let a = WorldConfig::test_scale(7);
        let b = WorldConfig::test_scale(7);
        let c = WorldConfig::test_scale(8);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn key_digest_is_the_fingerprint_and_debug_quotes_the_text() {
        let cfg = WorldConfig::test_scale(7);
        let key = Key::of(&cfg);
        assert_eq!(key.digest(), fingerprint(&cfg));
        assert_eq!(key, Key::of(&WorldConfig::test_scale(7)));
        assert_ne!(key, Key::of(&WorldConfig::test_scale(8)));
        // Nested keys print quoted: a key whose text is `1, 2` cannot pose
        // as two fields of the outer tuple.
        let inner = Key::of(&format_args!("1, 2"));
        assert_eq!(format!("{inner:?}"), "\"1, 2\"");
        assert_ne!(Key::of(&(&inner, 3)), Key::of(&(1, 2, 3)));
    }

    #[test]
    fn unique_keys_never_repeat() {
        let (a, b) = (Key::unique(), Key::unique());
        assert_ne!(a, b);
        assert_ne!(a, Key::of(&WorldConfig::test_scale(7)));
    }

    #[test]
    fn equal_digests_with_different_text_are_separate_entries() {
        let forged = |text: &str| Key {
            digest: 7,
            text: text.into(),
        };
        let lru: Lru<Key, &str> = Lru::new(CACHE_CAP, |_| 0, TEST_NAMES);
        assert_eq!(
            *lru.get_or_insert(forged("popular"), || "popular"),
            "popular"
        );
        // Same digest, different material: a miss that computes its own
        // value, never a hit on the popular entry.
        assert_eq!(
            *lru.get_or_insert(forged("crafted"), || "crafted"),
            "crafted"
        );
        assert_eq!(lru.stats().0, 2);
        assert_eq!(*lru.get_or_insert(forged("popular"), || "wrong"), "popular");
    }

    #[test]
    fn same_config_shares_one_world_build() {
        let cfg = WorldConfig::test_scale(4201);
        let a = world(&cfg);
        let b = world(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "second build should be a cache hit");
    }

    #[test]
    fn cached_world_equals_direct_build() {
        let cfg = WorldConfig::test_scale(4202);
        let cached = world(&cfg);
        let direct = World::build(&cfg);
        assert_eq!(cached.vantage, direct.vantage);
        assert_eq!(cached.contributions.inbound, direct.contributions.inbound);
        assert_eq!(cached.fingerprint(), direct.fingerprint());
    }

    #[test]
    fn probe_sets_are_shared_per_world_and_campaign() {
        let cfg = WorldConfig::test_scale(4203);
        let world = world(&cfg);
        let campaign = Campaign::default_paper();
        let a = probes(&campaign, &world);
        let b = probes(&campaign, &world);
        assert!(Arc::ptr_eq(&a, &b), "second probe should be a cache hit");
        assert_eq!(*a, campaign.probe_all(&world));
    }

    #[test]
    fn mutation_invalidates_the_key() {
        let cfg = WorldConfig::test_scale(4204);
        let pristine = world(&cfg);
        let mut mutated = (*pristine).clone();
        let before = mutated.fingerprint();
        mutated.mark_mutated();
        assert_ne!(mutated.fingerprint(), before);
        assert_ne!(mutated.fingerprint(), pristine.fingerprint());
        // And a re-mark moves the key again: each mutation event is unique.
        let first = mutated.fingerprint();
        mutated.mark_mutated();
        assert_ne!(mutated.fingerprint(), first);
    }

    #[test]
    fn lru_hit_protects_an_entry_from_eviction() {
        let lru: Lru<u64, u64> = Lru::new(CACHE_CAP, |_| 0, TEST_NAMES);
        for k in 0..CACHE_CAP as u64 {
            lru.get_or_insert(k, || k);
        }
        // Touching key 0 makes it most-recently-used, so the next insert
        // evicts key 1 instead.
        let hit = lru.get_or_insert(0, || 999);
        assert_eq!(*hit, 0, "must be a hit, not a recompute");
        lru.get_or_insert(100, || 100);
        let k = keys(&lru);
        assert!(k.contains(&0), "recently used key survives");
        assert!(!k.contains(&1), "oldest untouched key evicts");
    }

    #[test]
    fn byte_budget_evicts_oldest_first_but_keeps_the_last_entry() {
        let lru: Lru<u64, u64> = Lru::new(8, |_| 100, TEST_NAMES);
        for k in 0..4u64 {
            lru.get_or_insert(k, || k);
        }
        // No budget: everything under the entry cap stays.
        assert_eq!(lru.stats(), (4, 400));
        // 250-byte budget: the two oldest 100-byte entries go.
        lru.configure(8, Some(250));
        assert_eq!(keys(&lru), [2, 3]);
        // A budget smaller than any single entry keeps the last survivor:
        // evicting it would only thrash recomputes.
        lru.configure(8, Some(10));
        assert_eq!(keys(&lru), [3]);
    }

    #[test]
    fn caches_stay_bounded_and_evict_oldest_first() {
        let lru: Lru<u64, u64> = Lru::new(CACHE_CAP, |_| 0, TEST_NAMES);
        for k in 0..(3 * CACHE_CAP as u64) {
            let v = lru.get_or_insert(k, || k * 10);
            assert_eq!(*v, k * 10);
        }
        let k = keys(&lru);
        assert_eq!(k.len(), CACHE_CAP);
        // FIFO: only the newest CACHE_CAP keys survive.
        let oldest_kept = 3 * CACHE_CAP as u64 - CACHE_CAP as u64;
        assert!(k.iter().all(|k| *k >= oldest_kept));
    }
}
