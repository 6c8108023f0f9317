//! The topology data model: ASes, organizations, relationships.

use rp_types::geo::City;
use rp_types::{Asn, NetworkId, OrgId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Business type of a network. Types drive policy priors, traffic shape,
/// address-space size, and IXP membership propensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsType {
    /// Settlement-free top of the transit hierarchy.
    Tier1,
    /// Regional / national transit provider.
    Transit,
    /// Eyeball / access network serving residential users.
    Access,
    /// Content provider (originates traffic).
    Content,
    /// Content delivery network (originates traffic from many PoPs).
    Cdn,
    /// Hosting / cloud provider.
    Hosting,
    /// National research and education network (RedIRIS is one).
    Nren,
    /// Enterprise stub network.
    Enterprise,
}

impl AsType {
    /// All variants, for iteration in generators and reports.
    pub const ALL: [AsType; 8] = [
        AsType::Tier1,
        AsType::Transit,
        AsType::Access,
        AsType::Content,
        AsType::Cdn,
        AsType::Hosting,
        AsType::Nren,
        AsType::Enterprise,
    ];
}

impl fmt::Display for AsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AsType::Tier1 => "tier1",
            AsType::Transit => "transit",
            AsType::Access => "access",
            AsType::Content => "content",
            AsType::Cdn => "cdn",
            AsType::Hosting => "hosting",
            AsType::Nren => "nren",
            AsType::Enterprise => "enterprise",
        };
        f.write_str(s)
    }
}

/// Peering policy as self-reported in PeeringDB-like registries
/// (section 2.2: open / selective / restrictive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PeeringPolicy {
    /// Peers with everyone (often automatically via IXP route servers).
    Open,
    /// Peers when conditions are met.
    Selective,
    /// Stringent terms, rarely peers.
    Restrictive,
}

impl fmt::Display for PeeringPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PeeringPolicy::Open => "open",
            PeeringPolicy::Selective => "selective",
            PeeringPolicy::Restrictive => "restrictive",
        };
        f.write_str(s)
    }
}

/// Economic relationship on an inter-AS edge, from the perspective of the
/// edge's stored orientation `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// `a` sells transit to `b` (`a` is the provider).
    ProviderOf,
    /// Settlement-free peering between `a` and `b`.
    PeerOf,
}

/// One inter-AS edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// First endpoint (the provider for [`Relationship::ProviderOf`]).
    pub a: NetworkId,
    /// Second endpoint (the customer for [`Relationship::ProviderOf`]).
    pub b: NetworkId,
    /// Economic relationship of the pair.
    pub rel: Relationship,
}

/// An organization owning one or more ASNs.
///
/// The generator gives each organization consecutive networks, so an org
/// is its id plus the range `first .. first + count` of the networks it
/// owns. Its display name `org-N` is derived from the id when printed.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Org {
    /// Organization id (dense index).
    pub id: OrgId,
    /// First network owned by this organization.
    pub first: NetworkId,
    /// Number of networks owned, at least one.
    pub count: u32,
}

impl Org {
    /// Display name.
    pub fn name(&self) -> String {
        format!("org-{}", self.id.0)
    }

    /// Networks owned by this organization, in id order.
    pub fn networks(&self) -> impl Iterator<Item = NetworkId> + Clone {
        (self.first.0..self.first.0 + self.count).map(NetworkId)
    }
}

/// Prints the text the former stored-name, `Vec`-of-networks `Org`
/// derived: `Org { id: .., name: "org-N", networks: [..] }`.
impl fmt::Debug for Org {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Org")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("networks", &List(self.networks()))
            .finish()
    }
}

/// `Debug` for a cloneable iterator: its items as a list.
struct List<I>(I);

impl<I> fmt::Debug for List<I>
where
    I: Iterator + Clone,
    I::Item: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.clone()).finish()
    }
}

/// One autonomous system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsNode {
    /// Dense topology index.
    pub id: NetworkId,
    /// The network's autonomous system number.
    pub asn: Asn,
    /// Owning organization.
    pub org: OrgId,
    /// Business type.
    pub kind: AsType,
    /// Self-reported peering policy.
    pub policy: PeeringPolicy,
    /// Index of the home city in [`rp_types::geo::WORLD_CITIES`].
    pub home_city: u16,
    /// Number of IP interfaces the network (and only it, not its cone)
    /// is responsible for — the figure 10 unit.
    pub address_space: u64,
    /// Market prominence: a heavy-tailed size proxy that couples a
    /// network's traffic volume with its interconnection appetite. The big
    /// content players send the most bytes *and* sit at the most IXPs —
    /// the correlation that concentrates offload potential at the largest
    /// exchanges (figures 7–9).
    pub prominence: f64,
    /// Generation depth in the transit hierarchy: 0 for tier-1, strictly
    /// increasing toward the leaves. Providers always have a smaller level
    /// than their customers, which is what makes the customer graph a DAG.
    pub level: u8,
}

/// A generated AS-level topology.
///
/// Adjacency is stored twice (edge list + per-AS lists) because BGP wants
/// per-AS neighbor iteration while serialization and invariant checks want
/// the flat list. The per-AS lists live in one compressed sparse row
/// layout: AS `i`'s providers, customers and peers are consecutive runs of
/// one flat neighbor array, bounded by `offsets[3i..=3i + 3]`. Each list
/// keeps edge-list order.
#[derive(Clone, Serialize, Deserialize)]
pub struct Topology {
    /// All autonomous systems, indexed by [`NetworkId`].
    pub ases: Vec<AsNode>,
    /// All organizations, indexed by [`rp_types::OrgId`].
    pub orgs: Vec<Org>,
    /// Flat edge list (each AS pair appears at most once).
    pub edges: Vec<Edge>,
    /// Row bounds into `neighbors`: `3 * len() + 1` entries.
    offsets: Vec<u32>,
    /// Every AS's providers, customers and peers, row after row.
    neighbors: Vec<NetworkId>,
}

/// Row of a network's providers within its three CSR rows.
const PROVIDERS: usize = 0;
/// Row of a network's customers.
const CUSTOMERS: usize = 1;
/// Row of a network's settlement-free peers.
const PEERS: usize = 2;

/// Build the CSR adjacency of `n` networks from `edges`: count each row,
/// prefix-sum the counts into offsets, then place every neighbor in edge
/// order. Panics if an edge references an unknown AS.
fn adjacency(n: usize, edges: &[Edge]) -> (Vec<u32>, Vec<NetworkId>) {
    // The two (row, neighbor) entries an edge contributes.
    let entries = |e: &Edge| match e.rel {
        Relationship::ProviderOf => [
            (3 * e.a.index() + CUSTOMERS, e.b),
            (3 * e.b.index() + PROVIDERS, e.a),
        ],
        Relationship::PeerOf => [
            (3 * e.a.index() + PEERS, e.b),
            (3 * e.b.index() + PEERS, e.a),
        ],
    };
    let mut offsets = vec![0u32; 3 * n + 1];
    for e in edges {
        assert!(
            e.a.index() < n && e.b.index() < n,
            "edge references unknown AS"
        );
        for (row, _) in entries(e) {
            offsets[row + 1] += 1;
        }
    }
    for row in 1..offsets.len() {
        offsets[row] += offsets[row - 1];
    }
    let total = u32::try_from(2 * edges.len()).expect("adjacency fits u32 offsets");
    debug_assert_eq!(offsets[3 * n], total);
    let mut cursor = offsets[..3 * n].to_vec();
    let mut neighbors = vec![NetworkId(0); total as usize];
    for e in edges {
        for (row, nb) in entries(e) {
            neighbors[cursor[row] as usize] = nb;
            cursor[row] += 1;
        }
    }
    (offsets, neighbors)
}

impl Topology {
    /// Assemble a topology from nodes, orgs, and edges, building the per-AS
    /// adjacency lists. Panics if an edge references an unknown AS; the
    /// generator is the only intended caller.
    pub fn assemble(ases: Vec<AsNode>, mut orgs: Vec<Org>, mut edges: Vec<Edge>) -> Self {
        orgs.shrink_to_fit();
        edges.shrink_to_fit();
        let (offsets, neighbors) = adjacency(ases.len(), &edges);
        Topology {
            ases,
            orgs,
            edges,
            offsets,
            neighbors,
        }
    }

    /// One of `id`'s three adjacency rows.
    #[inline]
    fn row(&self, id: NetworkId, which: usize) -> &[NetworkId] {
        let r = 3 * id.index() + which;
        &self.neighbors[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Every neighbor of `id` of any relationship: its providers,
    /// customers and peers, in that order.
    #[inline]
    fn adjacent(&self, id: NetworkId) -> &[NetworkId] {
        let r = 3 * id.index();
        &self.neighbors[self.offsets[r] as usize..self.offsets[r + 3] as usize]
    }

    /// Number of ASes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the topology holds no ASes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// The AS with the given id.
    #[inline]
    pub fn node(&self, id: NetworkId) -> &AsNode {
        &self.ases[id.index()]
    }

    /// Transit providers of `id`.
    #[inline]
    pub fn providers(&self, id: NetworkId) -> &[NetworkId] {
        self.row(id, PROVIDERS)
    }

    /// Transit customers of `id`.
    #[inline]
    pub fn customers(&self, id: NetworkId) -> &[NetworkId] {
        self.row(id, CUSTOMERS)
    }

    /// Settlement-free peers of `id`.
    #[inline]
    pub fn peers(&self, id: NetworkId) -> &[NetworkId] {
        self.row(id, PEERS)
    }

    /// Iterate over all network ids.
    pub fn ids(&self) -> impl Iterator<Item = NetworkId> + Clone + '_ {
        (0..self.ases.len() as u32).map(NetworkId)
    }

    /// All networks of a given type.
    pub fn of_type(&self, kind: AsType) -> impl Iterator<Item = &AsNode> + '_ {
        self.ases.iter().filter(move |a| a.kind == kind)
    }

    /// Map an ASN to its network id. ASNs are unique per topology snapshot.
    pub fn by_asn(&self, asn: Asn) -> Option<NetworkId> {
        self.ases.iter().find(|a| a.asn == asn).map(|a| a.id)
    }

    /// Total address space over all ASes (the figure 10 "2.6 billion IP
    /// interfaces reachable through the transit hierarchy").
    pub fn total_address_space(&self) -> u64 {
        self.ases.iter().map(|a| a.address_space).sum()
    }

    /// Check structural invariants; returns a human-readable violation list
    /// (empty when sound). Used by tests and by the generator's own
    /// post-conditions.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // Provider levels strictly below customer levels — guarantees a DAG.
        for e in &self.edges {
            if e.rel == Relationship::ProviderOf {
                let (p, c) = (self.node(e.a), self.node(e.b));
                if p.level >= c.level {
                    problems.push(format!(
                        "provider {} (level {}) not above customer {} (level {})",
                        p.asn, p.level, c.asn, c.level
                    ));
                }
            }
            if e.a == e.b {
                problems.push(format!("self-loop at {}", self.node(e.a).asn));
            }
        }
        // Tier-1s have no providers; everyone else has at least one.
        for a in &self.ases {
            let np = self.providers(a.id).len();
            match a.kind {
                AsType::Tier1 => {
                    if np != 0 {
                        problems.push(format!("{} is tier-1 but has providers", a.asn));
                    }
                }
                _ => {
                    if np == 0 {
                        problems.push(format!("{} ({}) has no providers", a.asn, a.kind));
                    }
                }
            }
        }
        // Org back-references are consistent.
        for org in &self.orgs {
            for n in org.networks() {
                if self.node(n).org != org.id {
                    problems.push(format!("org {} lists {} which points elsewhere", org.id, n));
                }
            }
        }
        // At most one relationship per AS pair.
        let mut pairs: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|e| (e.a.0.min(e.b.0), e.a.0.max(e.b.0)))
            .collect();
        pairs.sort_unstable();
        for w in pairs.windows(2) {
            if w[0] == w[1] {
                problems.push(format!(
                    "duplicate relationship between N{} and N{}",
                    w[0].0, w[0].1
                ));
            }
        }
        // ASNs unique.
        let mut asns: Vec<u32> = self.ases.iter().map(|a| a.asn.0).collect();
        asns.sort_unstable();
        let unique = {
            let mut v = asns.clone();
            v.dedup();
            v.len()
        };
        if unique != asns.len() {
            problems.push("duplicate ASNs".into());
        }
        problems
    }

    /// Home city of a network, resolved against the world city database.
    pub fn home_city(&self, id: NetworkId) -> City {
        rp_types::geo::WORLD_CITIES[self.node(id).home_city as usize]
    }

    /// Add a settlement-free peering edge between `a` and `b`.
    ///
    /// Returns `false` (and changes nothing) when the pair already holds a
    /// relationship of any kind or when `a == b` — an AS pair carries at
    /// most one relationship. A one-pair [`Topology::add_peerings`].
    pub fn add_peering(&mut self, a: NetworkId, b: NetworkId) -> bool {
        self.add_peerings(&[(a, b)]) == 1
    }

    /// Add settlement-free peering edges for `pairs`, in order, under
    /// [`Topology::add_peering`]'s rules: a pair is skipped when `a == b`
    /// or when the two already hold a relationship, one added earlier in
    /// the same batch included. The adjacency is rebuilt once. Returns how
    /// many pairs were added; they are the last edges of the edge list.
    /// Used by scenario builders to wire a study network's pre-existing
    /// peerings (home-IXP members, CDNs, backbone partners) into a
    /// generated topology.
    pub fn add_peerings(&mut self, pairs: &[(NetworkId, NetworkId)]) -> usize {
        let before = self.edges.len();
        let mut added = std::collections::HashSet::new();
        for &(a, b) in pairs {
            if a == b || self.adjacent(a).contains(&b) || !added.insert((a.min(b), a.max(b))) {
                continue;
            }
            self.edges.push(Edge {
                a,
                b,
                rel: Relationship::PeerOf,
            });
        }
        let count = self.edges.len() - before;
        if count > 0 {
            self.edges.shrink_to_fit();
            (self.offsets, self.neighbors) = adjacency(self.ases.len(), &self.edges);
        }
        count
    }

    /// Heap bytes held by the topology, by capacity: the AS rows, the
    /// organizations, the edge list and the CSR adjacency.
    pub fn plane_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.ases.capacity() * size_of::<AsNode>()
            + self.orgs.capacity() * size_of::<Org>()
            + self.edges.capacity() * size_of::<Edge>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.neighbors.capacity() * size_of::<NetworkId>()) as u64
    }

    /// Relocate a network's home city (scenario builders pin the study
    /// network to its real location).
    pub fn set_home_city(&mut self, id: NetworkId, city_index: u16) {
        self.ases[id.index()].home_city = city_index;
    }
}

/// Prints the text the former `Vec<Vec<NetworkId>>`-per-relationship
/// layout derived, field for field, so `Debug`-text fingerprints of a
/// topology are unchanged by the flat layout.
impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = |which| List(self.ids().map(move |id| self.row(id, which)));
        f.debug_struct("Topology")
            .field("ases", &self.ases)
            .field("orgs", &self.orgs)
            .field("edges", &self.edges)
            .field("providers", &rows(PROVIDERS))
            .field("customers", &rows(CUSTOMERS))
            .field("peers", &rows(PEERS))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // AS0 (tier1) -> AS1 (transit) -> AS2 (stub); AS1 peers AS3.
        let mk = |i: u32, kind, level| AsNode {
            id: NetworkId(i),
            asn: Asn(64_000 + i),
            org: OrgId(i),
            kind,
            policy: PeeringPolicy::Open,
            home_city: 0,
            address_space: 10,
            prominence: 1.0,
            level,
        };
        let ases = vec![
            mk(0, AsType::Tier1, 0),
            mk(1, AsType::Transit, 1),
            mk(2, AsType::Enterprise, 2),
            mk(3, AsType::Content, 2),
        ];
        let orgs = (0..4)
            .map(|i| Org {
                id: OrgId(i),
                first: NetworkId(i),
                count: 1,
            })
            .collect();
        let edges = vec![
            Edge {
                a: NetworkId(0),
                b: NetworkId(1),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(1),
                b: NetworkId(2),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(0),
                b: NetworkId(3),
                rel: Relationship::ProviderOf,
            },
            Edge {
                a: NetworkId(1),
                b: NetworkId(3),
                rel: Relationship::PeerOf,
            },
        ];
        Topology::assemble(ases, orgs, edges)
    }

    #[test]
    fn adjacency_lists_are_built() {
        let t = tiny();
        assert_eq!(t.customers(NetworkId(0)), &[NetworkId(1), NetworkId(3)]);
        assert_eq!(t.providers(NetworkId(2)), &[NetworkId(1)]);
        assert_eq!(t.peers(NetworkId(1)), &[NetworkId(3)]);
        assert_eq!(t.peers(NetworkId(3)), &[NetworkId(1)]);
        assert!(t.peers(NetworkId(0)).is_empty());
    }

    /// `Topology` and `Org` as they were laid out before the CSR
    /// adjacency and the org ranges, with their derived `Debug`.
    #[allow(dead_code)] // read only through `Debug`
    mod former {
        use super::*;

        #[derive(Debug)]
        pub struct Org {
            pub id: OrgId,
            pub name: String,
            pub networks: Vec<NetworkId>,
        }

        #[derive(Debug)]
        pub struct Topology {
            pub ases: Vec<AsNode>,
            pub orgs: Vec<Org>,
            pub edges: Vec<Edge>,
            pub providers: Vec<Vec<NetworkId>>,
            pub customers: Vec<Vec<NetworkId>>,
            pub peers: Vec<Vec<NetworkId>>,
        }
    }

    #[test]
    fn debug_text_equals_the_former_derived_text() {
        let t = tiny();
        let n = NetworkId;
        let former = former::Topology {
            ases: t.ases.clone(),
            orgs: (0..4)
                .map(|i| former::Org {
                    id: OrgId(i),
                    name: format!("org-{i}"),
                    networks: vec![n(i)],
                })
                .collect(),
            edges: t.edges.clone(),
            providers: vec![vec![], vec![n(0)], vec![n(1)], vec![n(0)]],
            customers: vec![vec![n(1), n(3)], vec![n(2)], vec![], vec![]],
            peers: vec![vec![], vec![n(3)], vec![], vec![n(1)]],
        };
        assert_eq!(format!("{t:?}"), format!("{former:?}"));
        assert_eq!(format!("{t:#?}"), format!("{former:#?}"));
        let multi = Org {
            id: OrgId(7),
            first: n(10),
            count: 3,
        };
        assert_eq!(
            format!("{multi:?}"),
            "Org { id: OrgId(7), name: \"org-7\", \
             networks: [NetworkId(10), NetworkId(11), NetworkId(12)] }"
        );
    }

    #[test]
    fn tiny_topology_is_valid() {
        assert!(tiny().validate().is_empty());
    }

    #[test]
    fn validation_catches_level_inversion() {
        let mut t = tiny();
        t.ases[1].level = 0; // transit at tier-1 level: provider edge 0->1 inverts
        assert!(!t.validate().is_empty());
    }

    #[test]
    fn lookup_by_asn() {
        let t = tiny();
        assert_eq!(t.by_asn(Asn(64_002)), Some(NetworkId(2)));
        assert_eq!(t.by_asn(Asn(1)), None);
    }

    #[test]
    fn totals_and_type_iteration() {
        let t = tiny();
        assert_eq!(t.total_address_space(), 40);
        assert_eq!(t.of_type(AsType::Tier1).count(), 1);
        assert_eq!(t.of_type(AsType::Nren).count(), 0);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }
}
