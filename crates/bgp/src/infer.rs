//! AS-relationship inference from observed paths — the layer-3 lens the
//! paper argues against.
//!
//! Section 1: "economic relationships can be inferred from BGP ... While
//! being useful, layer-3 models struggle to detect and correctly classify a
//! significant portion of all economic relationships." This module
//! implements the classic degree-based inference of Gao (ToN 2001, the
//! paper's reference 30) over paths collected from route-collector
//! vantages, so the reproduction can measure exactly how much the layer-3
//! lens sees — and what it structurally cannot: a remote peering infers
//! identically to a direct peering, with the layer-2 intermediary absent
//! from the result by construction.

use crate::propagate::propagate;
use rp_topology::{Relationship, Topology};
use rp_types::NetworkId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Inferred relationship for an AS pair `(a, b)` with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InferredRel {
    /// `a` is inferred to be the provider of `b`.
    FirstProvidesSecond,
    /// `b` is inferred to be the provider of `a`.
    SecondProvidesFirst,
    /// Settlement-free peering.
    Peer,
}

/// Collect full AS paths (`[source, ..., collector]`) from every AS toward
/// each collector — what a route-collector project sees.
pub fn collect_paths(topo: &Topology, collectors: &[NetworkId]) -> Vec<Vec<NetworkId>> {
    let mut paths = Vec::new();
    for &collector in collectors {
        let routes = propagate(topo, collector);
        for src in topo.ids() {
            if src == collector {
                continue;
            }
            if let Some(path) = routes.path(src) {
                let full: Vec<NetworkId> = std::iter::once(src).chain(path).collect();
                if full.len() >= 2 {
                    paths.push(full);
                }
            }
        }
    }
    paths
}

fn key(a: NetworkId, b: NetworkId) -> (NetworkId, NetworkId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Gao-style inference over observed paths.
///
/// 1. Compute each AS's degree from path adjacencies.
/// 2. For each path, locate the highest-degree AS (the "top provider");
///    every edge before it points uphill (right side provides left), every
///    edge after it downhill.
/// 3. An edge voted in both directions, or an edge adjacent to a path's top
///    with near-balanced votes, is classified as peering; otherwise the
///    majority vote direction wins.
pub fn infer_gao(paths: &[Vec<NetworkId>]) -> BTreeMap<(NetworkId, NetworkId), InferredRel> {
    // All tallies live in ordered maps: the classification itself is
    // vote-order-independent, but consumers iterate the result (accuracy
    // scoring, report rendering), so the whole pipeline keys on sorted
    // `(NetworkId, NetworkId)` pairs and never exposes hash order.
    // Phase 1: degrees.
    let mut degree: BTreeMap<NetworkId, usize> = BTreeMap::new();
    {
        let mut seen: BTreeSet<(NetworkId, NetworkId)> = BTreeSet::new();
        for p in paths {
            for w in p.windows(2) {
                if seen.insert(key(w[0], w[1])) {
                    *degree.entry(w[0]).or_insert(0) += 1;
                    *degree.entry(w[1]).or_insert(0) += 1;
                }
            }
        }
    }

    // Phase 2: uphill/downhill votes, and candidate peer edges at the top
    // of each path.
    let mut up_votes: BTreeMap<(NetworkId, NetworkId), (u32, u32)> = BTreeMap::new();
    let mut top_adjacent: BTreeMap<(NetworkId, NetworkId), u32> = BTreeMap::new();
    for p in paths {
        let top = p
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| degree.get(n).copied().unwrap_or(0))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, w) in p.windows(2).enumerate() {
            let k = key(w[0], w[1]);
            let entry = up_votes.entry(k).or_insert((0, 0));
            // Does the path travel from k.0 toward k.1 here?
            let forward = w[0] == k.0;
            // Before the top the right-hand AS provides; after it the
            // left-hand one does.
            let first_provides = if i < top { !forward } else { forward };
            if first_provides {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
            if i + 1 == top || i == top {
                *top_adjacent.entry(k).or_insert(0) += 1;
            }
        }
    }

    // Phase 3: classify.
    let mut inferred = BTreeMap::new();
    for (k, (first, second)) in up_votes {
        let rel = if first > 0 && second > 0 {
            // Conflicting transit votes: the valley-free explanation is a
            // peering edge crossed at the top of different paths.
            InferredRel::Peer
        } else if first > 0 {
            InferredRel::FirstProvidesSecond
        } else if second > 0 {
            InferredRel::SecondProvidesFirst
        } else {
            continue;
        };
        // Degree heuristic: an edge adjacent to path tops whose endpoints
        // have comparable degrees is peering even with one-sided votes
        // (tier-1 meshes travel only one way from most collectors).
        let (da, db) = (
            degree.get(&k.0).copied().unwrap_or(1).max(1) as f64,
            degree.get(&k.1).copied().unwrap_or(1).max(1) as f64,
        );
        let ratio = da.max(db) / da.min(db);
        let rel = if top_adjacent.contains_key(&k) && ratio < 1.5 && rel != InferredRel::Peer {
            InferredRel::Peer
        } else {
            rel
        };
        inferred.insert(k, rel);
    }
    inferred
}

/// Accuracy of an inference against the generator's ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InferenceAccuracy {
    /// Ground-truth transit edges observed in some path.
    pub transit_observed: usize,
    /// ... of which correctly classified with the right orientation.
    pub transit_correct: usize,
    /// Ground-truth peering edges observed in some path.
    pub peer_observed: usize,
    /// ... of which correctly classified as peering.
    pub peer_correct: usize,
    /// Edges in the inference that do not exist in the topology (never for
    /// paths collected from real routing — kept as a sanity field).
    pub phantom: usize,
}

impl InferenceAccuracy {
    /// Correctly classified fraction of observed transit edges.
    pub fn transit_accuracy(&self) -> f64 {
        if self.transit_observed == 0 {
            1.0
        } else {
            self.transit_correct as f64 / self.transit_observed as f64
        }
    }

    /// Correctly classified fraction of observed peering edges.
    pub fn peer_accuracy(&self) -> f64 {
        if self.peer_observed == 0 {
            1.0
        } else {
            self.peer_correct as f64 / self.peer_observed as f64
        }
    }
}

/// Score an inference against ground truth.
pub fn evaluate(
    topo: &Topology,
    inferred: &BTreeMap<(NetworkId, NetworkId), InferredRel>,
) -> InferenceAccuracy {
    let mut acc = InferenceAccuracy::default();
    for (&(a, b), &rel) in inferred {
        let a_provides_b = topo.providers(b).contains(&a);
        let b_provides_a = topo.providers(a).contains(&b);
        if a_provides_b || b_provides_a {
            acc.transit_observed += 1;
            let correct = match rel {
                InferredRel::FirstProvidesSecond => a_provides_b,
                InferredRel::SecondProvidesFirst => b_provides_a,
                InferredRel::Peer => false,
            };
            if correct {
                acc.transit_correct += 1;
            }
        } else if topo.peers(a).contains(&b) {
            acc.peer_observed += 1;
            if rel == InferredRel::Peer {
                acc.peer_correct += 1;
            }
        } else {
            acc.phantom += 1;
        }
    }
    let _ = Relationship::PeerOf; // ground-truth type referenced for clarity
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_topology::{generate, AsType, TopologyConfig};

    fn setup() -> (Topology, BTreeMap<(NetworkId, NetworkId), InferredRel>) {
        let topo = generate(&TopologyConfig::test_scale(121));
        // A handful of collectors of different kinds, like real route
        // collector projects.
        let collectors: Vec<NetworkId> = topo
            .of_type(AsType::Transit)
            .take(3)
            .map(|a| a.id)
            .chain(topo.of_type(AsType::Tier1).take(2).map(|a| a.id))
            .collect();
        let paths = collect_paths(&topo, &collectors);
        assert!(paths.len() > 500);
        let inferred = infer_gao(&paths);
        (topo, inferred)
    }

    #[test]
    fn inference_never_invents_edges() {
        let (topo, inferred) = setup();
        let acc = evaluate(&topo, &inferred);
        assert_eq!(acc.phantom, 0, "paths only cross real adjacencies");
    }

    #[test]
    fn transit_is_mostly_classified_correctly() {
        let (topo, inferred) = setup();
        let acc = evaluate(&topo, &inferred);
        assert!(acc.transit_observed > 100);
        assert!(
            acc.transit_accuracy() > 0.85,
            "transit accuracy {}",
            acc.transit_accuracy()
        );
    }

    #[test]
    fn peering_is_markedly_harder_to_classify() {
        // The paper's point: the layer-3 lens misclassifies a meaningful
        // share of (especially peering) relationships.
        let (topo, inferred) = setup();
        let acc = evaluate(&topo, &inferred);
        assert!(acc.peer_observed > 5, "{}", acc.peer_observed);
        assert!(
            acc.peer_accuracy() < acc.transit_accuracy(),
            "peer {} vs transit {}",
            acc.peer_accuracy(),
            acc.transit_accuracy()
        );
    }

    #[test]
    fn inference_is_deterministic_in_path_order() {
        let topo = generate(&TopologyConfig::test_scale(122));
        let collectors: Vec<NetworkId> = topo.ids().take(3).collect();
        let mut paths = collect_paths(&topo, &collectors);
        let a = infer_gao(&paths);
        paths.reverse();
        let b = infer_gao(&paths);
        assert_eq!(a, b, "vote counting is order-independent");
    }

    #[test]
    fn inference_output_is_byte_stable_across_runs() {
        // Two independent runs must render identically — iteration order
        // included, which is what downstream report bytes depend on. A
        // hash-keyed tally would pass `a == b` but fail this.
        let topo = generate(&TopologyConfig::test_scale(123));
        let collectors: Vec<NetworkId> = topo.ids().take(3).collect();
        let a = infer_gao(&collect_paths(&topo, &collectors));
        let b = infer_gao(&collect_paths(&topo, &collectors));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let sorted: Vec<_> = a.keys().collect();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "keys sorted");
    }
}
