//! The IXP scene model — ground truth for the measurement studies.

use crate::dataset::IxpMeta;
use rp_types::geo::{city, City};
use rp_types::{IxpId, NetworkId};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Operator of a looking-glass server at an IXP. The two operators differ in
/// how many ping requests one HTML query triggers (section 3.1: RIPE NCC
/// issues 3, PCH issues 5) and in the per-interface reply caps the paper
/// reports (21 and 54 respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LgOperator {
    /// Packet Clearing House (5 pings per query).
    Pch,
    /// RIPE NCC (3 pings per query).
    RipeNcc,
}

impl LgOperator {
    /// Ping requests issued per HTML query.
    pub fn pings_per_query(self) -> u32 {
        match self {
            LgOperator::Pch => 5,
            LgOperator::RipeNcc => 3,
        }
    }

    /// Maximum ping replies the paper collected from any interface via this
    /// operator's servers.
    pub fn max_replies(self) -> u32 {
        match self {
            LgOperator::Pch => 54,
            LgOperator::RipeNcc => 21,
        }
    }
}

/// How a member interface reaches the IXP fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Access {
    /// The member has IP presence at the IXP location: a colo cross-connect
    /// or metro span, sub-millisecond to ~1 ms one way.
    Direct {
        /// One-way access delay in milliseconds.
        colo_delay_ms: f64,
        /// Which IXP site the port is on.
        site: u8,
    },
    /// The member reaches the fabric through a remote-peering provider's
    /// layer-2 pseudowire from its home metro.
    Remote {
        /// Index into the scene's provider table.
        provider: u8,
        /// City index (into [`rp_types::geo::WORLD_CITIES`]) where the
        /// member's router actually sits.
        origin_city: u16,
        /// One-way delay of the member's local access tail, in ms.
        access_delay_ms: f64,
        /// Which IXP site the provider's port is on.
        site: u8,
    },
}

impl Access {
    /// True for remotely peering attachments — the scene-side ground truth
    /// the detector is validated against.
    pub fn is_remote(&self) -> bool {
        matches!(self, Access::Remote { .. })
    }

    /// Site of the fabric port.
    pub fn site(&self) -> u8 {
        match *self {
            Access::Direct { site, .. } => site,
            Access::Remote { site, .. } => site,
        }
    }
}

/// Responder pathologies of one probed interface (section 3.1's measurement
/// hazards, each the target of one filter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponderProfile {
    /// Initial TTL of generated replies (64/255 typical; 128/32 infrequent).
    pub initial_ttl: u8,
    /// Operating-system change mid-campaign: (fraction of the campaign at
    /// which it happens, new initial TTL).
    pub ttl_change: Option<(f64, u8)>,
    /// Drops echo requests silently.
    pub blackhole: bool,
    /// The listed address actually sits one IP hop behind the fabric-facing
    /// device (stale registry data).
    pub extra_hop: bool,
    /// The listed address has no device at all.
    pub absent: bool,
    /// The member's access port is saturated: bound of the extra uniform
    /// queueing delay per traversal, in ms; `0.0` = healthy.
    pub congested_extra_ms: f64,
    /// Echo-request loss probability at the saturated port (sparse replies
    /// are what make a congested interface's minimum RTT untrustworthy).
    pub congested_drop: f64,
}

impl Default for ResponderProfile {
    fn default() -> Self {
        ResponderProfile {
            initial_ttl: 64,
            ttl_change: None,
            blackhole: false,
            extra_hop: false,
            absent: false,
            congested_extra_ms: 0.0,
            congested_drop: 0.0,
        }
    }
}

/// Registry-side facts about one interface listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListingInfo {
    /// Whether the address appears in any registry source at all. Unlisted
    /// interfaces exist (and peer, and carry traffic) but are invisible to
    /// the probing campaign — the paper's registries covered only part of
    /// some IXPs' memberships (e.g. MSK-IX: 367 members, 218 analyzed
    /// interfaces).
    pub listed: bool,
    /// Whether PeeringDB / the IXP website / reverse DNS can map this
    /// address to an ASN at all.
    pub identifiable: bool,
    /// The ASN the registry maps the address to changes mid-campaign
    /// (the ASN-change filter's target).
    pub asn_change: bool,
}

/// One member IP interface in one IXP subnet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemberInterface {
    /// The owning network.
    pub network: NetworkId,
    /// The interface's address in the IXP subnet.
    pub ip: Ipv4Addr,
    /// Attachment ground truth.
    pub access: Access,
    /// Responder pathologies.
    pub profile: ResponderProfile,
    /// Registry view.
    pub listing: ListingInfo,
}

/// IXP subnets in the member address plan (`10.<id>.0.0/16`, `id < 250`).
pub const MAX_IXPS: u32 = 250;

/// Member interface slots per IXP subnet: 240 third-octet values × 250
/// fourth-octet values.
pub const MAX_SLOTS: u32 = 60_000;

/// One IXP with its membership.
#[derive(Debug, Clone, Serialize)]
pub struct IxpInstance {
    /// Scene-wide IXP id.
    pub id: IxpId,
    /// Static dataset metadata.
    pub meta: IxpMeta,
    /// City indices of the IXP's sites; `sites[0]` is the main site where
    /// `meta.city` says it is. Federated IXPs have a distant second site.
    pub sites: Vec<u16>,
    /// Member interfaces, in subnet slot order (`ip_for_slot`).
    pub members: Vec<MemberInterface>,
}

impl IxpInstance {
    /// The main-site city.
    pub fn city(&self) -> City {
        city(self.meta.city)
    }

    /// Number of distinct member networks.
    pub fn member_networks(&self) -> usize {
        let mut nets: Vec<NetworkId> = self.members.iter().map(|m| m.network).collect();
        nets.sort_unstable();
        nets.dedup();
        nets.len()
    }

    /// Distinct member networks.
    pub fn member_network_ids(&self) -> Vec<NetworkId> {
        let mut nets: Vec<NetworkId> = self.members.iter().map(|m| m.network).collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    /// Ground-truth count of remotely peering interfaces.
    pub fn remote_interfaces(&self) -> usize {
        self.members.iter().filter(|m| m.access.is_remote()).count()
    }

    /// The IXP-subnet address of interface slot `slot`, or `None` past the
    /// address plan: [`MAX_IXPS`] subnets of [`MAX_SLOTS`] member slots.
    /// Each IXP owns `10.<id>.0.0/16`-style space; slots map into it
    /// leaving the first octet pairs for infrastructure (LG servers, route
    /// servers).
    pub fn try_ip_for_slot(id: IxpId, slot: u32) -> Option<Ipv4Addr> {
        (id.0 < MAX_IXPS && slot < MAX_SLOTS).then(|| {
            Ipv4Addr::new(
                10,
                id.0 as u8,
                (2 + slot / 250) as u8,
                (2 + slot % 250) as u8,
            )
        })
    }

    /// [`try_ip_for_slot`](Self::try_ip_for_slot) for an address inside
    /// the plan. Panics, in release builds too, rather than wrap an octet
    /// and alias another interface's address.
    pub fn ip_for_slot(id: IxpId, slot: u32) -> Ipv4Addr {
        Self::try_ip_for_slot(id, slot).unwrap_or_else(|| {
            if id.0 >= MAX_IXPS {
                panic!("IXP {id} is past the {MAX_IXPS}-IXP subnet plan");
            }
            panic!("slot {slot} of IXP {id} is past the {MAX_SLOTS}-slot per-IXP address plan")
        })
    }

    /// Address of the `k`-th LG server of this IXP.
    pub fn lg_ip(id: IxpId, k: u32) -> Ipv4Addr {
        Ipv4Addr::new(10, id.0 as u8, 0, (10 + k) as u8)
    }

    /// Address of the IXP's route server (used by the TorIX-style
    /// validation cross-check).
    pub fn route_server_ip(id: IxpId) -> Ipv4Addr {
        Ipv4Addr::new(10, id.0 as u8, 0, 1)
    }

    /// Exact heap bytes of this instance's dense planes: the member rows
    /// (the dominant per-interface cost of a built world) plus the site
    /// list. Computed from `capacity`, so the number is the allocation the
    /// memory budget actually has to account for.
    pub fn plane_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.members.capacity() * std::mem::size_of::<MemberInterface>()
            + self.sites.capacity() * std::mem::size_of::<u16>()) as u64
    }
}

/// A full scene: IXPs plus the provider table the `Access::Remote` entries
/// index into.
#[derive(Debug, Clone, Serialize)]
pub struct IxpScene {
    /// All IXPs, indexed by [`IxpId`]. Instances are reference-counted so
    /// forked scenes share every IXP they have not touched: cloning the
    /// scene bumps 65 refcounts instead of copying tens of thousands of
    /// member rows, and [`IxpScene::ixp_mut`] is the copy-on-write seam.
    pub ixps: Vec<Arc<IxpInstance>>,
    /// The remote-peering provider table `Access::Remote` indexes into.
    pub providers: Vec<crate::provider::RemotePeeringProvider>,
}

impl IxpScene {
    /// The IXP with the given id.
    pub fn ixp(&self, id: IxpId) -> &IxpInstance {
        &self.ixps[id.index()]
    }

    /// Mutable access to one IXP instance — the copy-on-write seam. If the
    /// instance is shared with another scene (a fork parent or sibling),
    /// the first mutation clones that one instance; subsequent mutations
    /// are in place. Unmutated instances stay shared.
    pub fn ixp_mut(&mut self, id: IxpId) -> &mut IxpInstance {
        Arc::make_mut(&mut self.ixps[id.index()])
    }

    /// True when this scene and `other` share the same allocation for
    /// `id`'s instance (i.e. neither side has written to it since the
    /// fork). Lets tests prove copy-on-write actually shares.
    pub fn shares_ixp_with(&self, other: &IxpScene, id: IxpId) -> bool {
        Arc::ptr_eq(&self.ixps[id.index()], &other.ixps[id.index()])
    }

    /// Iterate over the IXPs the section 3 study probes (those with at least
    /// one looking-glass server).
    pub fn studied(&self) -> impl Iterator<Item = &IxpInstance> {
        self.ixps
            .iter()
            .filter(|x| !x.meta.lg.is_empty())
            .map(|x| &**x)
    }

    /// Total interface count across all IXPs.
    pub fn total_interfaces(&self) -> usize {
        self.ixps.iter().map(|x| x.members.len()).sum()
    }

    /// Exact heap bytes of every instance's dense planes (see
    /// [`IxpInstance::plane_bytes`]).
    pub fn plane_bytes(&self) -> u64 {
        self.ixps.iter().map(|x| x.plane_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg_operator_parameters_match_paper() {
        assert_eq!(LgOperator::Pch.pings_per_query(), 5);
        assert_eq!(LgOperator::RipeNcc.pings_per_query(), 3);
        assert_eq!(LgOperator::Pch.max_replies(), 54);
        assert_eq!(LgOperator::RipeNcc.max_replies(), 21);
    }

    #[test]
    fn slot_addresses_are_unique_and_disjoint_from_infrastructure() {
        let mut seen = std::collections::HashSet::new();
        for ixp in 0..22u32 {
            seen.insert(IxpInstance::lg_ip(IxpId(ixp), 0));
            seen.insert(IxpInstance::lg_ip(IxpId(ixp), 1));
            seen.insert(IxpInstance::route_server_ip(IxpId(ixp)));
            for slot in 0..800 {
                seen.insert(IxpInstance::ip_for_slot(IxpId(ixp), slot));
            }
        }
        assert_eq!(seen.len(), 22 * 803);
    }

    #[test]
    fn slot_plan_boundaries() {
        let last = IxpInstance::try_ip_for_slot(IxpId(249), 59_999).expect("inside the plan");
        assert_eq!(IxpInstance::slot_of_ip(IxpId(249), last), Some(59_999));
        assert_eq!(IxpInstance::try_ip_for_slot(IxpId(0), 60_000), None);
        assert_eq!(IxpInstance::try_ip_for_slot(IxpId(250), 0), None);
    }

    #[test]
    #[should_panic(expected = "60000-slot per-IXP address plan")]
    fn ip_for_slot_rejects_slots_past_the_plan() {
        IxpInstance::ip_for_slot(IxpId(0), MAX_SLOTS);
    }

    #[test]
    #[should_panic(expected = "250-IXP subnet plan")]
    fn ip_for_slot_rejects_ixps_past_the_plan() {
        IxpInstance::ip_for_slot(IxpId(MAX_IXPS), 0);
    }

    #[test]
    fn access_ground_truth() {
        let direct = Access::Direct {
            colo_delay_ms: 0.4,
            site: 0,
        };
        let remote = Access::Remote {
            provider: 0,
            origin_city: 3,
            access_delay_ms: 0.3,
            site: 1,
        };
        assert!(!direct.is_remote());
        assert!(remote.is_remote());
        assert_eq!(direct.site(), 0);
        assert_eq!(remote.site(), 1);
    }
}
