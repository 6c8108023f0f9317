//! Deterministic sim-time timelines: epoch-bucketed series sampled on
//! *simulation* time, never wall clock.
//!
//! The run report's end-of-run aggregates say *how much* happened; the
//! `timelines` section says *when*. Every series here is a pure function
//! of the simulated event trace, which the sharded data plane already
//! guarantees is byte-identical at any `--threads`/`--shards` setting
//! (DESIGN.md §11) — so the section inherits that guarantee for free,
//! provided three rules hold:
//!
//! 1. **Sample on sim time only.** A point is keyed by the bucket of a
//!    simulation timestamp (or a canonical index, see [`Axis::Index`]),
//!    never by wall clock, thread id, or shard id.
//! 2. **Record shard-invariant quantities.** Anything derived from the
//!    physical shard layout (barrier waits, arena residency, actual
//!    handoff counts) is *not* timeline material — it goes to the trace
//!    export ([`crate::trace`]) and the `netsim.shard.*` metrics instead.
//!    Cross-shard traffic is therefore recorded against the *canonical
//!    partition* (link classes: what crosses fabric sites), which is the
//!    same at `--shards 1` and `--shards 8`.
//! 3. **Merge commutatively.** Recorders accumulate per-bucket integer
//!    sums (or difference-array deltas); merging is addition, so the
//!    order in which rayon workers or shards publish cannot show in the
//!    output. The final snapshot sorts by series name and bucket.
//!
//! ## Series shapes
//!
//! - **Rate** series count events per bucket (`netsim.events`,
//!   `netsim.access_bytes`): `add` at the event's sim time.
//! - **Level** series track a population over time via a difference
//!   array: `+n` at the bucket where a member enters, `-n` where it
//!   leaves, prefix-summed at snapshot. Queue depth and frames-in-flight
//!   use this: both endpoints (creation time, scheduled/arrival time)
//!   are known at creation, so no sampling loop is needed and the value
//!   at every bucket boundary is exact.
//! - **Index**-axis series replace sim time with a canonical small
//!   integer (e.g. IXP id) for quantities with no timeline of their own,
//!   like filter-funnel progress across the 22 studied IXPs.
//!
//! Workers record into a private [`TimelineRecorder`] (no locks) and
//! [`publish`] it into the process-wide registry when done; the report
//! layer serializes the registry with [`timelines_json`].

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Bucket width for sim-time series: 6 simulated hours. A 120-day paper
/// campaign yields 480 buckets per series; test scale (40 days) 160.
pub const BUCKET_NS: u64 = 6 * 3_600 * 1_000_000_000;

/// Bucket index of a simulation timestamp.
#[inline]
pub fn bucket_of(sim_ns: u64) -> u64 {
    sim_ns / BUCKET_NS
}

/// What a series' values mean per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Events (or bytes) per bucket; deltas are the values.
    Rate,
    /// Population level; deltas form a difference array, prefix-summed at
    /// snapshot into the level at each change point.
    Level,
}

/// What the bucket key of a series means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Simulation time, bucketed by [`BUCKET_NS`].
    SimTime,
    /// A canonical small-integer index (IXP id, sweep cell, …).
    Index,
}

/// One series' accumulated state: sparse per-bucket integer deltas.
#[derive(Debug, Clone)]
pub struct SeriesData {
    /// Value semantics (rate vs. level).
    pub kind: Kind,
    /// Key semantics (sim-time bucket vs. canonical index).
    pub axis: Axis,
    deltas: BTreeMap<u64, i64>,
}

impl SeriesData {
    fn new(kind: Kind, axis: Axis) -> SeriesData {
        SeriesData {
            kind,
            axis,
            deltas: BTreeMap::new(),
        }
    }

    fn add(&mut self, bucket: u64, n: i64) {
        if n != 0 {
            *self.deltas.entry(bucket).or_insert(0) += n;
        }
    }

    fn merge(&mut self, other: &SeriesData) {
        debug_assert_eq!(self.kind, other.kind, "series kind mismatch on merge");
        debug_assert_eq!(self.axis, other.axis, "series axis mismatch on merge");
        for (&b, &n) in &other.deltas {
            self.add(b, n);
        }
    }

    /// Points for serialization: `(bucket, value)` sorted by bucket.
    /// Rate series emit per-bucket sums; level series emit the
    /// prefix-summed level after each change point. Buckets whose delta
    /// nets to zero are elided for rates but kept for levels (a return
    /// to a previous level is information).
    pub fn points(&self) -> Vec<(u64, i64)> {
        match self.kind {
            Kind::Rate => self
                .deltas
                .iter()
                .filter(|(_, &n)| n != 0)
                .map(|(&b, &n)| (b, n))
                .collect(),
            Kind::Level => {
                let mut level = 0i64;
                self.deltas
                    .iter()
                    .map(|(&b, &n)| {
                        level += n;
                        (b, level)
                    })
                    .collect()
            }
        }
    }
}

/// A private, lock-free accumulator for one worker (a netsim shard, a
/// detection pass). Merge-or-publish when done.
#[derive(Debug, Default, Clone)]
pub struct TimelineRecorder {
    series: BTreeMap<&'static str, SeriesData>,
}

impl TimelineRecorder {
    /// An empty recorder.
    pub fn new() -> TimelineRecorder {
        TimelineRecorder::default()
    }

    /// No series recorded yet?
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn series_mut(&mut self, name: &'static str, kind: Kind, axis: Axis) -> &mut SeriesData {
        self.series
            .entry(name)
            .or_insert_with(|| SeriesData::new(kind, axis))
    }

    /// Count `n` events on the rate series `name` at sim time `sim_ns`.
    #[inline]
    pub fn rate(&mut self, name: &'static str, sim_ns: u64, n: u64) {
        self.series_mut(name, Kind::Rate, Axis::SimTime)
            .add(bucket_of(sim_ns), n as i64);
    }

    /// Like [`TimelineRecorder::rate`] but with a precomputed bucket; the
    /// flush path of [`RateRegister`].
    fn rate_bucket(&mut self, name: &'static str, bucket: u64, n: u64) {
        self.series_mut(name, Kind::Rate, Axis::SimTime)
            .add(bucket, n as i64);
    }

    /// Record that `n` members of the level series `name` exist from sim
    /// time `from_ns` until `to_ns` (difference-array entries at both
    /// bucket endpoints). An interval inside one bucket changes no level,
    /// so it returns before the series lookup: on the event loop's hot
    /// path that is nearly every call.
    #[inline]
    pub fn level(&mut self, name: &'static str, from_ns: u64, to_ns: u64, n: i64) {
        debug_assert!(from_ns <= to_ns, "level interval runs backwards");
        let (b0, b1) = (bucket_of(from_ns), bucket_of(to_ns));
        if b0 == b1 {
            return;
        }
        let s = self.series_mut(name, Kind::Level, Axis::SimTime);
        s.add(b0, n);
        s.add(b1, -n);
    }

    /// Add `n` to the index-axis rate series `name` at canonical `index`.
    #[inline]
    pub fn index_add(&mut self, name: &'static str, index: u64, n: u64) {
        self.series_mut(name, Kind::Rate, Axis::Index)
            .add(index, n as i64);
    }

    /// Fold `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &TimelineRecorder) {
        for (name, data) in &other.series {
            self.series
                .entry(name)
                .or_insert_with(|| SeriesData::new(data.kind, data.axis))
                .merge(data);
        }
    }

    /// A copy of one series' accumulated data, for re-publishing under a
    /// scoped name (per-IXP port utilization).
    pub fn series_data(&self, name: &'static str) -> Option<SeriesData> {
        self.series.get(name).cloned()
    }
}

/// A hot-path register in front of a [`TimelineRecorder`] for `N` fixed
/// sim-time rate series: one `(bucket, accumulator)` slot per series.
///
/// [`RateRegister::add`] only touches the recorder when a series moves
/// to a new bucket. Event loops run nearly in time order, so the common
/// case is one compare and one add instead of two map lookups. Sums
/// commute, so the flushed points equal direct [`TimelineRecorder::rate`]
/// calls in any order; [`RateRegister::flush`] must run before the
/// recorder is read.
#[derive(Debug, Clone)]
pub struct RateRegister<const N: usize> {
    names: [&'static str; N],
    /// `(bucket, accumulated n)` per series; an accumulator of 0 holds
    /// nothing to flush.
    slots: [(u64, u64); N],
}

impl<const N: usize> RateRegister<N> {
    /// A register for the rate series `names`, addressed by index.
    pub const fn new(names: [&'static str; N]) -> RateRegister<N> {
        RateRegister {
            names,
            slots: [(0, 0); N],
        }
    }

    /// Count `n` on series `names[series]` at sim time `sim_ns`.
    #[inline]
    pub fn add(&mut self, rec: &mut TimelineRecorder, series: usize, sim_ns: u64, n: u64) {
        let b = bucket_of(sim_ns);
        let slot = &mut self.slots[series];
        if slot.0 != b {
            if slot.1 > 0 {
                rec.rate_bucket(self.names[series], slot.0, slot.1);
            }
            *slot = (b, 0);
        }
        slot.1 += n;
    }

    /// Move every pending accumulator into `rec`.
    pub fn flush(&mut self, rec: &mut TimelineRecorder) {
        for (name, slot) in self.names.iter().zip(&mut self.slots) {
            if slot.1 > 0 {
                rec.rate_bucket(name, slot.0, slot.1);
                slot.1 = 0;
            }
        }
    }
}

fn global() -> &'static Mutex<BTreeMap<String, SeriesData>> {
    static GLOBAL: OnceLock<Mutex<BTreeMap<String, SeriesData>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Fold a worker's recorder into the process-wide registry. Order of
/// publication across threads cannot affect the final snapshot.
pub fn publish(rec: &TimelineRecorder) {
    if rec.is_empty() {
        return;
    }
    let mut g = global().lock().expect("timeline registry lock");
    for (name, data) in &rec.series {
        g.entry((*name).to_string())
            .or_insert_with(|| SeriesData::new(data.kind, data.axis))
            .merge(data);
    }
}

/// Publish one series under a dynamic (scoped) name, e.g.
/// `ixp.AMS-IX.port_util_bytes`.
pub fn publish_as(name: String, data: SeriesData) {
    let mut g = global().lock().expect("timeline registry lock");
    g.entry(name)
        .or_insert_with(|| SeriesData::new(data.kind, data.axis))
        .merge(&data);
}

/// Add one point to an index-axis series directly in the registry — for
/// low-frequency call sites (per-IXP funnel progress) that don't carry a
/// recorder. A no-op while collection is disabled.
pub fn index_point(name: &'static str, index: u64, n: u64) {
    if !crate::enabled() {
        return;
    }
    let mut g = global().lock().expect("timeline registry lock");
    g.entry(name.to_string())
        .or_insert_with(|| SeriesData::new(Kind::Rate, Axis::Index))
        .add(index, n as i64);
}

/// Any series published this run?
pub fn any() -> bool {
    !global().lock().expect("timeline registry lock").is_empty()
}

/// Clear the registry (tests and repeated in-process runs).
pub(crate) fn reset() {
    global().lock().expect("timeline registry lock").clear();
}

/// The `timelines` report section: deterministic JSON for every published
/// series, sorted by name, points sorted by bucket, all-integer values.
pub fn timelines_json() -> Value {
    let g = global().lock().expect("timeline registry lock");
    let series: Vec<(String, Value)> = g
        .iter()
        .filter_map(|(name, data)| {
            let points: Vec<Value> = data
                .points()
                .into_iter()
                .map(|(b, v)| Value::Array(vec![json!(b), json!(v)]))
                .collect();
            // A series whose deltas all cancelled (e.g. a level series
            // where every interval stayed inside one bucket) carries no
            // information; emitting it would only trip schema checks.
            if points.is_empty() {
                return None;
            }
            let kind = match data.kind {
                Kind::Rate => "rate",
                Kind::Level => "level",
            };
            let axis = match data.axis {
                Axis::SimTime => "sim_time",
                Axis::Index => "index",
            };
            Some((
                name.clone(),
                json!({
                    "kind": kind,
                    "axis": axis,
                    "points": Value::Array(points),
                }),
            ))
        })
        .collect();
    json!({
        "bucket_ns": BUCKET_NS,
        "series": Value::Object(series),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_sum_per_bucket() {
        let mut r = TimelineRecorder::new();
        r.rate("test.obs.rate", 0, 3);
        r.rate("test.obs.rate", BUCKET_NS - 1, 2);
        r.rate("test.obs.rate", BUCKET_NS, 7);
        let pts = r.series_data("test.obs.rate").unwrap().points();
        assert_eq!(pts, vec![(0, 5), (1, 7)]);
    }

    #[test]
    fn level_series_prefix_sum() {
        let mut r = TimelineRecorder::new();
        // Two members enter in bucket 0; one leaves in bucket 2, the
        // other in bucket 5.
        r.level("test.obs.level", 0, 2 * BUCKET_NS, 1);
        r.level("test.obs.level", 0, 5 * BUCKET_NS, 1);
        // A sub-bucket interval is invisible.
        r.level("test.obs.level", 0, BUCKET_NS / 2, 1);
        let pts = r.series_data("test.obs.level").unwrap().points();
        assert_eq!(pts, vec![(0, 2), (2, 1), (5, 0)]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = TimelineRecorder::new();
        a.rate("test.obs.m", 0, 1);
        a.level("test.obs.l", 0, 3 * BUCKET_NS, 2);
        let mut b = TimelineRecorder::new();
        b.rate("test.obs.m", BUCKET_NS, 4);
        b.level("test.obs.l", BUCKET_NS, 2 * BUCKET_NS, 1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.series_data("test.obs.m").unwrap().points(),
            ba.series_data("test.obs.m").unwrap().points()
        );
        assert_eq!(
            ab.series_data("test.obs.l").unwrap().points(),
            ba.series_data("test.obs.l").unwrap().points()
        );
        assert_eq!(
            ab.series_data("test.obs.l").unwrap().points(),
            vec![(0, 2), (1, 3), (2, 2), (3, 0)]
        );
    }

    #[test]
    fn rate_register_matches_direct_rate_calls() {
        // Interleaved series, out-of-order times, and bucket revisits.
        let seq: [(usize, u64, u64); 10] = [
            (0, 0, 3),
            (1, 10, 100),
            (0, BUCKET_NS + 5, 1),
            (0, 3, 2),
            (1, 4 * BUCKET_NS, 7),
            (0, BUCKET_NS, 4),
            (1, 11, 50),
            (0, 7 * BUCKET_NS, 9),
            (1, 4 * BUCKET_NS + 1, 1),
            (0, 0, 6),
        ];
        let names = ["test.obs.reg_a", "test.obs.reg_b"];
        let mut direct = TimelineRecorder::new();
        let mut batched = TimelineRecorder::new();
        let mut reg = RateRegister::new(names);
        for &(series, t, n) in &seq {
            direct.rate(names[series], t, n);
            reg.add(&mut batched, series, t, n);
        }
        reg.flush(&mut batched);
        for name in names {
            assert_eq!(
                batched.series_data(name).unwrap().points(),
                direct.series_data(name).unwrap().points(),
                "{name}"
            );
        }
        assert_eq!(
            batched.series_data("test.obs.reg_a").unwrap().points(),
            vec![(0, 11), (1, 5), (7, 9)]
        );
        // A flushed register holds nothing: flushing again adds nothing.
        reg.flush(&mut batched);
        assert_eq!(
            batched.series_data("test.obs.reg_b").unwrap().points(),
            vec![(0, 150), (4, 8)]
        );
    }

    #[test]
    fn level_inside_one_bucket_leaves_recorder_empty() {
        let mut r = TimelineRecorder::new();
        r.level("test.obs.level", 5, BUCKET_NS - 1, 1);
        r.level("test.obs.level", BUCKET_NS, BUCKET_NS, 3);
        assert!(r.is_empty());
        assert!(r.series_data("test.obs.level").is_none());
    }

    #[test]
    fn index_axis_points() {
        let mut r = TimelineRecorder::new();
        r.index_add("test.obs.idx", 7, 10);
        r.index_add("test.obs.idx", 3, 5);
        let pts = r.series_data("test.obs.idx").unwrap().points();
        assert_eq!(pts, vec![(3, 5), (7, 10)]);
    }
}
