//! Probe sample containers — the raw material the filters consume.

use rp_ixp::LgOperator;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One accepted ping reply as seen by an LG server. The filters read
/// only the RTT and the TTL; a plane holds one per reply, so the type
/// carries nothing else (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// TTL field of the reply as observed at the LG server.
    pub ttl: u8,
}

/// All probe results for one listed interface at one IXP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceSamples {
    /// The probed address.
    pub ip: Ipv4Addr,
    /// Replies grouped by the LG server that collected them, in the order
    /// the scene lists the IXP's LG operators.
    pub per_lg: Vec<(LgOperator, Vec<Sample>)>,
    /// Probes sent but never answered (per LG, same order).
    pub unanswered: Vec<(LgOperator, u32)>,
}

impl InterfaceSamples {
    /// Total replies across LG servers.
    pub fn reply_count(&self) -> usize {
        self.per_lg.iter().map(|(_, s)| s.len()).sum()
    }

    /// Iterate over all replies regardless of LG server.
    pub fn all(&self) -> impl Iterator<Item = &Sample> {
        self.per_lg.iter().flat_map(|(_, s)| s.iter())
    }

    /// Minimum RTT across all replies, `None` when there are none.
    pub fn min_rtt_ms(&self) -> Option<f64> {
        self.all().map(|s| s.rtt_ms).fold(None, |acc, r| match acc {
            None => Some(r),
            Some(a) => Some(a.min(r)),
        })
    }
}

/// A read-only per-interface probe record, abstracting over the owned
/// row form ([`InterfaceSamples`]) and rows of the dense
/// [`ProbePlane`]. The six-filter funnel is generic over this trait, so
/// the campaign hot path streams plane rows without materializing owned
/// rows, while the testkit's perturbation harness keeps mutating owned
/// ones.
pub trait ProbeRow {
    /// The probed address.
    fn ip(&self) -> Ipv4Addr;
    /// Number of LG servers that probed this interface.
    fn lg_count(&self) -> usize;
    /// Replies collected by the `k`-th LG server (scene LG order).
    fn lg(&self, k: usize) -> (LgOperator, &[Sample]);

    /// Total replies across LG servers.
    fn reply_total(&self) -> usize {
        (0..self.lg_count()).map(|k| self.lg(k).1.len()).sum()
    }

    /// Minimum RTT across all replies, `None` when there are none.
    fn min_rtt(&self) -> Option<f64> {
        let mut min: Option<f64> = None;
        for k in 0..self.lg_count() {
            for s in self.lg(k).1 {
                min = Some(match min {
                    None => s.rtt_ms,
                    Some(m) => m.min(s.rtt_ms),
                });
            }
        }
        min
    }
}

impl ProbeRow for InterfaceSamples {
    fn ip(&self) -> Ipv4Addr {
        self.ip
    }
    fn lg_count(&self) -> usize {
        self.per_lg.len()
    }
    fn lg(&self, k: usize) -> (LgOperator, &[Sample]) {
        let (op, replies) = &self.per_lg[k];
        (*op, replies)
    }
}

/// One IXP's probe results as a struct-of-arrays plane: every reply in
/// one contiguous `Vec<Sample>`, grouped row-major by `(interface, LG)`,
/// with a prefix-sum offset table bounding each group. The six-filter
/// funnel streams over contiguous slices instead of chasing one heap
/// allocation per `(interface, LG)` pair, and the whole plane is five
/// allocations regardless of member count — which is what makes
/// [`ProbePlane::plane_bytes`] exact rather than estimated.
///
/// Row order is registry listing order (ascending slot), group order
/// within a row is the scene's LG order: identical to the old
/// `Vec<InterfaceSamples>` layout, so probe artifacts stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbePlane {
    /// LG operators that probed this IXP, in scene order (shared by all
    /// rows).
    lgs: Vec<LgOperator>,
    /// Probed addresses, one per row.
    ips: Vec<Ipv4Addr>,
    /// All replies, contiguous: group `row * lgs.len() + k` spans
    /// `offsets[g]..offsets[g+1]`.
    samples: Vec<Sample>,
    /// Group bounds into `samples`; length `rows * lgs.len() + 1`.
    offsets: Vec<u32>,
    /// Probes sent but never answered, per group.
    unanswered: Vec<u32>,
}

impl ProbePlane {
    /// An empty plane (no rows, no LGs).
    pub fn empty() -> Self {
        ProbePlane {
            lgs: Vec::new(),
            ips: Vec::new(),
            samples: Vec::new(),
            offsets: vec![0],
            unanswered: Vec::new(),
        }
    }

    /// Rows in the plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// True when no interface was probed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// LG servers per row.
    #[inline]
    pub fn lg_count(&self) -> usize {
        self.lgs.len()
    }

    /// The `i`-th row as a cheap view.
    #[inline]
    pub fn row(&self, i: usize) -> PlaneRow<'_> {
        assert!(
            i < self.len(),
            "row {i} out of range: plane has {} rows",
            self.len()
        );
        PlaneRow {
            plane: self,
            row: i,
        }
    }

    /// Iterate all rows in listing order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = PlaneRow<'_>> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Materialize row `i` as an owned [`InterfaceSamples`] (the testkit's
    /// perturbation harness mutates owned rows).
    pub fn to_samples(&self, i: usize) -> InterfaceSamples {
        let row = self.row(i);
        InterfaceSamples {
            ip: row.ip(),
            per_lg: (0..self.lg_count())
                .map(|k| {
                    let (op, replies) = row.lg(k);
                    (op, replies.to_vec())
                })
                .collect(),
            unanswered: self
                .lgs
                .iter()
                .enumerate()
                .map(|(k, &op)| (op, row.unanswered(k)))
                .collect(),
        }
    }

    /// Exact heap footprint of the plane in bytes.
    pub fn plane_bytes(&self) -> u64 {
        (self.lgs.capacity() * std::mem::size_of::<LgOperator>()
            + self.ips.capacity() * std::mem::size_of::<Ipv4Addr>()
            + self.samples.capacity() * std::mem::size_of::<Sample>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.unanswered.capacity() * std::mem::size_of::<u32>()) as u64
    }

    #[inline]
    fn group(&self, row: usize, k: usize) -> std::ops::Range<usize> {
        let g = row * self.lgs.len() + k;
        self.offsets[g] as usize..self.offsets[g + 1] as usize
    }
}

/// A view of one [`ProbePlane`] row.
#[derive(Clone, Copy)]
pub struct PlaneRow<'a> {
    plane: &'a ProbePlane,
    row: usize,
}

impl<'a> PlaneRow<'a> {
    /// Probes sent to this interface by the `k`-th LG that were never
    /// answered.
    #[inline]
    pub fn unanswered(&self, k: usize) -> u32 {
        let lgs = self.plane.lgs.len();
        assert!(k < lgs, "LG {k} out of range: plane has {lgs} LGs");
        self.plane.unanswered[self.row * lgs + k]
    }

    /// Materialize this row as an owned [`InterfaceSamples`].
    pub fn to_samples(&self) -> InterfaceSamples {
        self.plane.to_samples(self.row)
    }
}

impl ProbeRow for PlaneRow<'_> {
    #[inline]
    fn ip(&self) -> Ipv4Addr {
        self.plane.ips[self.row]
    }
    #[inline]
    fn lg_count(&self) -> usize {
        self.plane.lgs.len()
    }
    #[inline]
    fn lg(&self, k: usize) -> (LgOperator, &[Sample]) {
        (
            self.plane.lgs[k],
            &self.plane.samples[self.plane.group(self.row, k)],
        )
    }
}

/// Two-pass construction of a [`ProbePlane`]: the caller counts replies
/// per `(row, LG)` group first, then places each sample at its group
/// cursor — preserving per-group arrival order exactly, with zero
/// reallocation during placement.
pub struct PlaneBuilder {
    plane: ProbePlane,
    cursors: Vec<u32>,
}

impl PlaneBuilder {
    /// Start a plane for `ips.len()` rows probed by `lgs`, with
    /// `reply_counts[row * lgs.len() + k]` replies expected per group and
    /// the per-group unanswered tallies already final.
    pub fn new(
        lgs: Vec<LgOperator>,
        ips: Vec<Ipv4Addr>,
        reply_counts: &[u32],
        unanswered: Vec<u32>,
    ) -> Self {
        assert_eq!(reply_counts.len(), ips.len() * lgs.len());
        assert_eq!(unanswered.len(), reply_counts.len());
        let mut offsets = Vec::with_capacity(reply_counts.len() + 1);
        let mut total: u32 = 0;
        offsets.push(0);
        for &n in reply_counts {
            total = total.checked_add(n).expect("reply count fits u32");
            offsets.push(total);
        }
        let cursors = offsets[..reply_counts.len()].to_vec();
        let filler = Sample {
            rtt_ms: 0.0,
            ttl: 0,
        };
        PlaneBuilder {
            plane: ProbePlane {
                lgs,
                ips,
                samples: vec![filler; total as usize],
                offsets,
                unanswered,
            },
            cursors,
        }
    }

    /// Place the next sample of group `(row, k)`, in arrival order.
    #[inline]
    pub fn place(&mut self, row: usize, k: usize, sample: Sample) {
        let g = row * self.plane.lgs.len() + k;
        let at = self.cursors[g];
        assert!(at < self.plane.offsets[g + 1], "group {g} overflow");
        self.plane.samples[at as usize] = sample;
        self.cursors[g] = at + 1;
    }

    /// Finish the plane; every group must be exactly full.
    pub fn finish(self) -> ProbePlane {
        assert!(
            self.cursors
                .iter()
                .enumerate()
                .all(|(g, &c)| c == self.plane.offsets[g + 1]),
            "a plane group was left short"
        );
        self.plane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rtt: f64, ttl: u8) -> Sample {
        Sample { rtt_ms: rtt, ttl }
    }

    #[test]
    fn sample_size_is_pinned() {
        // A plane holds one sample per reply: growing it is a deliberate
        // change.
        assert_eq!(std::mem::size_of::<Sample>(), 16);
    }

    #[test]
    fn aggregation_over_lgs() {
        let s = InterfaceSamples {
            ip: "10.0.2.2".parse().unwrap(),
            per_lg: vec![
                (LgOperator::Pch, vec![sample(1.5, 255), sample(0.9, 255)]),
                (LgOperator::RipeNcc, vec![sample(1.2, 255)]),
            ],
            unanswered: vec![(LgOperator::Pch, 3), (LgOperator::RipeNcc, 0)],
        };
        assert_eq!(s.reply_count(), 3);
        assert_eq!(s.min_rtt_ms(), Some(0.9));
        assert_eq!(s.all().count(), 3);
    }

    #[test]
    fn empty_samples_have_no_min() {
        let s = InterfaceSamples {
            ip: "10.0.2.3".parse().unwrap(),
            per_lg: vec![(LgOperator::Pch, vec![])],
            unanswered: vec![(LgOperator::Pch, 40)],
        };
        assert_eq!(s.min_rtt_ms(), None);
        assert_eq!(s.reply_count(), 0);
    }

    #[test]
    fn plane_rows_round_trip_to_owned_samples() {
        let lgs = vec![LgOperator::Pch, LgOperator::RipeNcc];
        let ips: Vec<std::net::Ipv4Addr> =
            vec!["10.0.2.2".parse().unwrap(), "10.0.2.3".parse().unwrap()];
        // row 0: 2 PCH replies, 1 RIPE reply; row 1: none at all.
        let counts = [2u32, 1, 0, 0];
        let unanswered = vec![0u32, 2, 40, 3];
        let mut b = PlaneBuilder::new(lgs, ips, &counts, unanswered);
        b.place(0, 0, sample(1.5, 255));
        b.place(0, 0, sample(0.9, 255));
        b.place(0, 1, sample(1.2, 64));
        let plane = b.finish();

        assert_eq!(plane.len(), 2);
        assert_eq!(plane.lg_count(), 2);
        let r0 = plane.row(0);
        assert_eq!(r0.ip(), "10.0.2.2".parse::<std::net::Ipv4Addr>().unwrap());
        assert_eq!(r0.reply_total(), 3);
        assert_eq!(r0.min_rtt(), Some(0.9));
        assert_eq!(r0.lg(0).1, &[sample(1.5, 255), sample(0.9, 255)]);
        assert_eq!(r0.lg(1), (LgOperator::RipeNcc, &[sample(1.2, 64)][..]));
        assert_eq!(r0.unanswered(1), 2);
        let r1 = plane.row(1);
        assert_eq!(r1.reply_total(), 0);
        assert_eq!(r1.min_rtt(), None);
        assert_eq!(r1.unanswered(0), 40);

        // The owned form agrees field for field, and the trait views of
        // both forms agree with each other.
        let owned = plane.to_samples(0);
        assert_eq!(owned.ip, r0.ip());
        assert_eq!(owned.reply_count(), r0.reply_total());
        assert_eq!(owned.min_rtt_ms(), r0.min_rtt());
        assert_eq!(owned.per_lg[0].1, r0.lg(0).1);
        assert_eq!(
            owned.unanswered,
            vec![(LgOperator::Pch, 0), (LgOperator::RipeNcc, 2)]
        );

        assert!(plane.plane_bytes() >= (3 * std::mem::size_of::<Sample>()) as u64);
        assert_eq!(plane.rows().count(), 2);
    }

    /// Two rows, one LG, one reply expected per row.
    fn one_per_row() -> PlaneBuilder {
        let ips = vec!["10.0.2.2".parse().unwrap(), "10.0.2.3".parse().unwrap()];
        PlaneBuilder::new(vec![LgOperator::Pch], ips, &[1, 1], vec![0, 0])
    }

    #[test]
    #[should_panic(expected = "group 0 overflow")]
    fn overfull_group_panics_instead_of_spilling_into_the_next() {
        let mut b = one_per_row();
        b.place(0, 0, sample(1.0, 255));
        b.place(0, 0, sample(2.0, 255));
    }

    #[test]
    #[should_panic(expected = "a plane group was left short")]
    fn short_group_panics_at_finish() {
        let mut b = one_per_row();
        b.place(1, 0, sample(1.0, 255));
        b.finish();
    }

    fn full_one_per_row() -> ProbePlane {
        let mut b = one_per_row();
        b.place(0, 0, sample(1.0, 255));
        b.place(1, 0, sample(2.0, 255));
        b.finish()
    }

    #[test]
    #[should_panic(expected = "row 2 out of range: plane has 2 rows")]
    fn row_past_the_end_panics() {
        let _ = full_one_per_row().row(2);
    }

    /// Without the check, row 0's LG 1 would silently read row 1's LG 0.
    #[test]
    #[should_panic(expected = "LG 1 out of range: plane has 1 LGs")]
    fn unanswered_past_the_last_lg_panics() {
        let _ = full_one_per_row().row(0).unanswered(1);
    }
}
