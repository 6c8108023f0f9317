//! Property-based tests on topology generation and cone algebra.

use proptest::prelude::*;
use rp_topology::cone::{cone_size_upper_bounds, cone_union, customer_cone, NetworkSet};
use rp_topology::{generate, AsType, Relationship, Topology, TopologyConfig};
use rp_types::NetworkId;

/// Per-AS providers, customers and peers built the plain way: one `Vec`
/// per AS and relationship, each edge pushed in edge-list order.
fn reference_adjacency(topo: &Topology) -> [Vec<Vec<NetworkId>>; 3] {
    let mut rows: [Vec<Vec<NetworkId>>; 3] = std::array::from_fn(|_| vec![Vec::new(); topo.len()]);
    let [providers, customers, peers] = &mut rows;
    for e in &topo.edges {
        match e.rel {
            Relationship::ProviderOf => {
                customers[e.a.index()].push(e.b);
                providers[e.b.index()].push(e.a);
            }
            Relationship::PeerOf => {
                peers[e.a.index()].push(e.b);
                peers[e.b.index()].push(e.a);
            }
        }
    }
    rows
}

/// Every CSR slice of `topo` equals the reference built from its edges.
fn assert_matches_reference(topo: &Topology) {
    let [providers, customers, peers] = reference_adjacency(topo);
    for id in topo.ids() {
        assert_eq!(
            topo.providers(id),
            &providers[id.index()][..],
            "providers of {id}"
        );
        assert_eq!(
            topo.customers(id),
            &customers[id.index()][..],
            "customers of {id}"
        );
        assert_eq!(topo.peers(id), &peers[id.index()][..], "peers of {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_topologies_are_always_valid(seed in any::<u64>()) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let problems = topo.validate();
        prop_assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn cones_are_downward_closed(seed in any::<u64>(), root_pick in 0usize..100) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let root = NetworkId((root_pick % topo.len()) as u32);
        let cone = customer_cone(&topo, root);
        prop_assert!(cone.contains(root));
        for member in cone.iter() {
            for &c in topo.customers(member) {
                prop_assert!(cone.contains(c), "cone must contain customers of members");
            }
        }
    }

    #[test]
    fn upper_bounds_dominate_exact_sizes(seed in any::<u64>()) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let bounds = cone_size_upper_bounds(&topo);
        for id in topo.ids().step_by(17) {
            let exact = customer_cone(&topo, id).count() as u64;
            prop_assert!(bounds[id.index()] >= exact);
        }
    }

    #[test]
    fn union_equals_fold_of_singles(seed in any::<u64>(), picks in proptest::collection::vec(0usize..100, 1..6)) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let roots: Vec<NetworkId> =
            picks.iter().map(|p| NetworkId((p % topo.len()) as u32)).collect();
        let union = cone_union(&topo, &roots);
        let mut folded = NetworkSet::new(topo.len());
        for &r in &roots {
            folded.union_with(&customer_cone(&topo, r));
        }
        prop_assert_eq!(union, folded);
    }

    #[test]
    fn stubs_never_have_customers(seed in any::<u64>()) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        for a in topo.of_type(AsType::Enterprise).chain(topo.of_type(AsType::Access)) {
            prop_assert!(topo.customers(a.id).is_empty(), "{} has customers", a.asn);
        }
    }

    #[test]
    fn csr_rows_equal_per_as_vectors(seed in any::<u64>()) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        assert_matches_reference(&topo);
    }

    #[test]
    fn add_peerings_equals_sequential_add_peering(
        seed in any::<u64>(),
        picks in proptest::collection::vec((0usize..1_000, 0usize..1_000), 1..40),
    ) {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let n = topo.len();
        let mut pairs: Vec<(NetworkId, NetworkId)> = picks
            .iter()
            .map(|&(a, b)| (NetworkId((a % n) as u32), NetworkId((b % n) as u32)))
            .collect();
        // Duplicates within the batch in both orientations, a self pair,
        // and a pair that already holds a relationship.
        let (a, b) = pairs[0];
        let held = topo.edges[picks[0].1 % topo.edges.len()];
        pairs.extend([(a, b), (b, a), (a, a), (held.b, held.a)]);

        let mut sequential = topo.clone();
        let accepted: Vec<(NetworkId, NetworkId)> = pairs
            .iter()
            .copied()
            .filter(|&(a, b)| sequential.add_peering(a, b))
            .collect();
        let mut batched = topo.clone();
        let count = batched.add_peerings(&pairs);

        prop_assert_eq!(count, accepted.len());
        prop_assert_eq!(&batched.edges, &sequential.edges);
        let tail: Vec<(NetworkId, NetworkId)> = batched.edges[batched.edges.len() - count..]
            .iter()
            .map(|e| (e.a, e.b))
            .collect();
        prop_assert_eq!(tail, accepted);
        assert_matches_reference(&batched);
        assert_matches_reference(&sequential);
    }

    #[test]
    fn bitset_difference_then_union_roundtrips(
        universe in 1usize..300,
        xs in proptest::collection::vec(0usize..300, 0..50),
        ys in proptest::collection::vec(0usize..300, 0..50),
    ) {
        let mut a = NetworkSet::new(universe);
        let mut b = NetworkSet::new(universe);
        for x in &xs { a.insert(NetworkId((x % universe) as u32)); }
        for y in &ys { b.insert(NetworkId((y % universe) as u32)); }
        let mut diff = a.clone();
        diff.subtract(&b);
        // diff ∪ (a ∩ b) == a  — check via counts and membership.
        for m in diff.iter() {
            prop_assert!(a.contains(m) && !b.contains(m));
        }
        let mut back = diff.clone();
        back.union_with(&b);
        for m in a.iter() {
            prop_assert!(back.contains(m));
        }
    }
}
