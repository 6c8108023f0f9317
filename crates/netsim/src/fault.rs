//! Deterministic link-level fault injection.
//!
//! A [`FaultInjector`] installed on a [`crate::Network`] intercepts every
//! frame at the moment it enters a link and may drop it (probe loss, link
//! flaps), duplicate it (reply duplication), delay it (jitter spikes), or
//! rewrite its IP TTL — the degradations the paper's conservative filters
//! exist to survive.
//!
//! Every decision draws from an RNG derived with [`seed::rng2`] from the
//! injector's seed, the link *direction* (`link × 2 + dir`), and a
//! per-direction decision counter. A direction is only ever driven by the
//! device transmitting on it, so each decision stream is a pure function
//! of that device's own execution history, independent of global event
//! interleaving. The same seed therefore replays the identical faults,
//! frame for frame (the replay invariant pinned by `rp-testkit`).

use crate::frame::{Frame, IcmpMessage, Payload};
use rand::RngExt;
use rp_types::{seed, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The categories of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// An ICMP echo request silently dropped on its link.
    ProbeLoss,
    /// An ICMP echo reply delivered twice.
    ReplyDuplication,
    /// A one-off delay spike added to a frame's link traversal.
    JitterSpike,
    /// The IP TTL of an in-flight packet rewritten to a fixed value.
    TtlRewrite,
    /// A link dropping all traffic inside its flap window.
    LinkFlap,
}

impl FaultKind {
    /// All kinds, in report order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::ProbeLoss,
        FaultKind::ReplyDuplication,
        FaultKind::JitterSpike,
        FaultKind::TtlRewrite,
        FaultKind::LinkFlap,
    ];

    /// Stable snake_case key for reports.
    pub fn key(self) -> &'static str {
        match self {
            FaultKind::ProbeLoss => "probe_loss",
            FaultKind::ReplyDuplication => "reply_duplication",
            FaultKind::JitterSpike => "jitter_spike",
            FaultKind::TtlRewrite => "ttl_rewrite",
            FaultKind::LinkFlap => "link_flap",
        }
    }
}

/// Per-fault probabilities and magnitudes; all probabilities are per
/// frame-transmission. A config with every probability at zero injects
/// nothing (and [`crate::Network`] behaves exactly as without an injector).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master seed of the fault streams (not the simulation seed — fault
    /// randomness is deliberately independent of the world's).
    pub seed: u64,
    /// Probability of dropping a frame carrying an ICMP echo request.
    pub probe_loss: f64,
    /// Probability of duplicating a frame carrying an ICMP echo reply.
    pub reply_duplication: f64,
    /// Probability of adding a delay spike to any frame.
    pub jitter_spike: f64,
    /// Magnitude of a jitter spike, in milliseconds.
    pub jitter_spike_ms: f64,
    /// Probability of rewriting the TTL of an IPv4 frame.
    pub ttl_rewrite: f64,
    /// The TTL value rewritten frames carry.
    pub ttl_rewrite_to: u8,
    /// Probability that a given link flaps (drops everything) inside the
    /// flap window.
    pub link_flap: f64,
    /// The flap window, absolute simulation times (`None` = no flaps).
    pub flap_window: Option<(SimTime, SimTime)>,
}

impl FaultConfig {
    /// A config that injects nothing.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            probe_loss: 0.0,
            reply_duplication: 0.0,
            jitter_spike: 0.0,
            jitter_spike_ms: 0.0,
            ttl_rewrite: 0.0,
            ttl_rewrite_to: 0,
            link_flap: 0.0,
            flap_window: None,
        }
    }

    /// The same config with its seed rebased onto a derived stream, so one
    /// template fans out into independent replayable per-network streams
    /// (`seed::derive2(seed, domain, index, subindex)`).
    pub fn derived(&self, domain: &str, index: u64, subindex: u64) -> Self {
        let mut cfg = self.clone();
        cfg.seed = seed::derive2(self.seed, domain, index, subindex);
        cfg
    }
}

/// Exact tallies of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Frame transmissions the injector examined.
    pub decisions: u64,
    /// Echo requests dropped.
    pub probe_drops: u64,
    /// Echo replies duplicated.
    pub reply_duplicates: u64,
    /// Delay spikes added.
    pub jitter_spikes: u64,
    /// TTLs rewritten.
    pub ttl_rewrites: u64,
    /// Frames dropped inside flap windows.
    pub flap_drops: u64,
}

impl FaultCounts {
    /// Total faults injected (decisions excluded).
    pub fn total(&self) -> u64 {
        self.probe_drops
            + self.reply_duplicates
            + self.jitter_spikes
            + self.ttl_rewrites
            + self.flap_drops
    }

    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.decisions += other.decisions;
        self.probe_drops += other.probe_drops;
        self.reply_duplicates += other.reply_duplicates;
        self.jitter_spikes += other.jitter_spikes;
        self.ttl_rewrites += other.ttl_rewrites;
        self.flap_drops += other.flap_drops;
    }

    /// The tallies keyed like [`FaultKind::ALL`] (decisions excluded).
    pub fn by_kind(&self) -> [(FaultKind, u64); 5] {
        [
            (FaultKind::ProbeLoss, self.probe_drops),
            (FaultKind::ReplyDuplication, self.reply_duplicates),
            (FaultKind::JitterSpike, self.jitter_spikes),
            (FaultKind::TtlRewrite, self.ttl_rewrites),
            (FaultKind::LinkFlap, self.flap_drops),
        ]
    }
}

/// What the injector decided for one frame transmission.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxFaults {
    /// Drop the frame entirely.
    pub drop: bool,
    /// Deliver a second copy shortly after the first.
    pub duplicate: bool,
    /// Extra link delay for this traversal.
    pub extra_delay: SimDuration,
}

/// Gap between a frame and its injected duplicate.
pub const DUPLICATE_GAP: SimDuration = SimDuration::from_micros(90);

/// Seeded fault state; install with [`crate::Network::install_faults`].
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// Per-direction decision counters, indexed `link × 2 + dir`; each is
    /// the `subindex` of that direction's next derived decision RNG.
    seqs: Vec<u64>,
    /// Memoized per-link flap verdicts (each a pure function of the seed).
    flapping: HashMap<u32, bool>,
    counts: FaultCounts,
}

impl FaultInjector {
    /// An injector drawing from `cfg`'s streams.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            seqs: Vec::new(),
            flapping: HashMap::new(),
            counts: FaultCounts::default(),
        }
    }

    /// The configuration this injector draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Exact fault tallies so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn link_flaps(&mut self, link: u32) -> bool {
        let (s, p) = (self.cfg.seed, self.cfg.link_flap);
        *self
            .flapping
            .entry(link)
            .or_insert_with(|| seed::rng2(s, "fault-flap", link as u64, 0).random::<f64>() < p)
    }

    /// Decide the faults for one frame entering direction `dir` of `link`
    /// at `now`. May rewrite the frame's TTL in place.
    pub(crate) fn on_transmit(
        &mut self,
        now: SimTime,
        link: u32,
        dir: u8,
        frame: &mut Frame,
    ) -> TxFaults {
        let mut out = TxFaults::default();
        self.counts.decisions += 1;
        let dirkey = (link as u64) << 1 | dir as u64;
        if self.seqs.len() <= dirkey as usize {
            self.seqs.resize(dirkey as usize + 1, 0);
        }
        let mut rng = seed::rng2(
            self.cfg.seed,
            "fault-tx",
            dirkey,
            self.seqs[dirkey as usize],
        );

        if let Some((lo, hi)) = self.cfg.flap_window {
            if now >= lo && now < hi && self.link_flaps(link) {
                self.counts.flap_drops += 1;
                out.drop = true;
                self.seqs[dirkey as usize] += 1;
                return out;
            }
        }

        if let Payload::Ipv4(pkt) = &mut frame.payload {
            if matches!(pkt.payload, IcmpMessage::EchoRequest { .. })
                && rng.random::<f64>() < self.cfg.probe_loss
            {
                self.counts.probe_drops += 1;
                out.drop = true;
                self.seqs[dirkey as usize] += 1;
                return out;
            }
            if matches!(pkt.payload, IcmpMessage::EchoReply { .. })
                && rng.random::<f64>() < self.cfg.reply_duplication
            {
                self.counts.reply_duplicates += 1;
                out.duplicate = true;
            }
            if rng.random::<f64>() < self.cfg.ttl_rewrite {
                pkt.ttl = self.cfg.ttl_rewrite_to;
                self.counts.ttl_rewrites += 1;
            }
        }

        if rng.random::<f64>() < self.cfg.jitter_spike {
            out.extra_delay = SimDuration::from_nanos((self.cfg.jitter_spike_ms * 1e6) as u64);
            self.counts.jitter_spikes += 1;
        }
        self.seqs[dirkey as usize] += 1;
        out
    }
}
