//! Dense interface interning — the analysis plane's `MacAddr::as_index`.
//!
//! Every member interface address is assigned by
//! [`IxpInstance::ip_for_slot`], which is a pure bijection between
//! `(IxpId, slot)` and the IXP-subnet address: octet arithmetic, no table.
//! [`slot_of`](IxpInstance::slot_of) inverts it, so any per-IXP lookup
//! keyed by member address can be a dense slot-indexed slice instead of a
//! `HashMap<Ipv4Addr, …>` — no hashing on the probe hot path and no
//! iteration-order hazards.
//!
//! Two layers build on the inverse:
//!
//! - [`SlotTable`] — a per-IXP dense table keyed by member address. This
//!   is the one shared lookup helper behind every registry/truth/min-RTT
//!   join in the analysis plane (`detect`, `validate`, `metrics`, the
//!   testkit's entry attachment), which previously each grew their own
//!   near-identical `HashMap<Ipv4Addr, …>` builder.
//! - [`InterfaceIndex`] — the scene-wide interner, built once per world:
//!   IXPs laid out consecutively in [`IxpId`] order, slots consecutive
//!   within each IXP, yielding the dense [`InterfaceId(u32)`](InterfaceId)
//!   that scene-spanning planes (ground-truth tables, byte accounting)
//!   index by.

use crate::model::{IxpInstance, IxpScene};
use rp_types::{InterfaceId, IxpId};
use std::net::Ipv4Addr;

impl IxpInstance {
    /// Inverse of [`ip_for_slot`](Self::ip_for_slot) for a known IXP id:
    /// the subnet slot encoded in `ip`, or `None` for any address outside
    /// the member namespace (infrastructure addresses, other subnets).
    /// Purely arithmetic — no bounds knowledge of the actual member table.
    #[inline]
    pub fn slot_of_ip(id: IxpId, ip: Ipv4Addr) -> Option<u32> {
        let [a, b, c, d] = ip.octets();
        // Member space is 10.<id>.(2+slot/250).(2+slot%250): third octet
        // >= 2 excludes the infrastructure /24 (LGs, route server), and
        // the fourth octet range 2..=251 is what `slot % 250` can reach.
        if a != 10 || u32::from(b) != id.0 || c < 2 || !(2..=251).contains(&d) {
            return None;
        }
        Some(u32::from(c - 2) * 250 + u32::from(d - 2))
    }

    /// The member-table index holding `ip`, or `None` if the address is
    /// not one of this instance's member interfaces. Members are stored
    /// in slot order with slots assigned densely, so the slot *is* the
    /// `members` index — the invariant every member-creation path
    /// maintains by addressing `members.len()`'s slot.
    #[inline]
    pub fn slot_of(&self, ip: Ipv4Addr) -> Option<u32> {
        let slot = Self::slot_of_ip(self.id, ip)?;
        if (slot as usize) < self.members.len() {
            debug_assert_eq!(
                self.members[slot as usize].ip, ip,
                "member table out of slot order at {slot}"
            );
            Some(slot)
        } else {
            None
        }
    }
}

/// A dense per-IXP table keyed by member address: `slots[slot_of(ip)]`.
///
/// The shared replacement for the analysis plane's ad-hoc
/// `HashMap<Ipv4Addr, …>` builders — one contiguous allocation sized by
/// the member table, O(1) arithmetic lookups, and iteration in slot order
/// (deterministic by construction).
#[derive(Debug, Clone)]
pub struct SlotTable<T> {
    ixp: IxpId,
    slots: Vec<Option<T>>,
}

impl<T> SlotTable<T> {
    /// An empty table sized for `inst`'s member count.
    pub fn new(inst: &IxpInstance) -> Self {
        let mut slots = Vec::with_capacity(inst.members.len());
        slots.resize_with(inst.members.len(), || None);
        SlotTable {
            ixp: inst.id,
            slots,
        }
    }

    /// Build from `(address, value)` pairs; later pairs overwrite earlier
    /// ones (matching `HashMap::collect` semantics). Pairs whose address
    /// does not intern to a live slot are ignored.
    pub fn from_pairs(inst: &IxpInstance, pairs: impl IntoIterator<Item = (Ipv4Addr, T)>) -> Self {
        let mut table = SlotTable::new(inst);
        for (ip, value) in pairs {
            table.insert(ip, value);
        }
        table
    }

    /// Interned slot of `ip`, if it addresses a live member slot.
    #[inline]
    fn slot(&self, ip: Ipv4Addr) -> Option<usize> {
        let slot = IxpInstance::slot_of_ip(self.ixp, ip)? as usize;
        (slot < self.slots.len()).then_some(slot)
    }

    /// Insert `value` under `ip`; returns false (dropping the value) when
    /// the address does not intern to a live slot.
    #[inline]
    pub fn insert(&mut self, ip: Ipv4Addr, value: T) -> bool {
        match self.slot(ip) {
            Some(slot) => {
                self.slots[slot] = Some(value);
                true
            }
            None => false,
        }
    }

    /// Value stored under `ip`.
    #[inline]
    pub fn get(&self, ip: Ipv4Addr) -> Option<&T> {
        self.slots[self.slot(ip)?].as_ref()
    }

    /// Mutable value stored under `ip`, inserting `default()` first when
    /// the slot is vacant (the `entry().or_insert_with()` idiom). `None`
    /// when the address does not intern.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        ip: Ipv4Addr,
        default: impl FnOnce() -> T,
    ) -> Option<&mut T> {
        let slot = self.slot(ip)?;
        Some(self.slots[slot].get_or_insert_with(default))
    }

    /// Value stored at a known slot (skips the address arithmetic when
    /// the caller already iterates in slot order).
    #[inline]
    pub fn get_slot(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Occupied entries, in slot order.
    pub fn occupied(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, v)| v.as_ref().map(|v| (slot as u32, v)))
    }
}

/// The scene-wide interface interner: dense [`InterfaceId`]s laid out
/// IXP-major (all of IXP 0's slots, then IXP 1's, …), built once per
/// world. `base[i]` is the first id of IXP `i`; `base[len]` is the total,
/// so per-IXP extents need no second array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceIndex {
    base: Vec<u32>,
}

impl InterfaceIndex {
    /// Intern every member interface of `scene`.
    pub fn build(scene: &IxpScene) -> Self {
        let mut base = Vec::with_capacity(scene.ixps.len() + 1);
        let mut next: u32 = 0;
        for ixp in &scene.ixps {
            base.push(next);
            next = next
                .checked_add(u32::try_from(ixp.members.len()).expect("member count fits u32"))
                .expect("interface index overflow");
        }
        base.push(next);
        InterfaceIndex { base }
    }

    /// Total interned interfaces.
    #[inline]
    pub fn len(&self) -> usize {
        *self.base.last().expect("base is never empty") as usize
    }

    /// True when the scene had no member interfaces at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots interned for `ixp`.
    #[inline]
    pub fn slots(&self, ixp: IxpId) -> u32 {
        self.base[ixp.index() + 1] - self.base[ixp.index()]
    }

    /// The dense id of `(ixp, slot)`. Panics on an uninterned slot — ids
    /// are handed out at build time, so an out-of-range slot means the
    /// scene mutated after interning.
    #[inline]
    pub fn id(&self, ixp: IxpId, slot: u32) -> InterfaceId {
        assert!(slot < self.slots(ixp), "slot {slot} not interned");
        InterfaceId(self.base[ixp.index()] + slot)
    }

    /// The dense id of a member address, or `None` when the address does
    /// not intern (infrastructure address or a slot added after build).
    #[inline]
    pub fn of_ip(&self, ixp: IxpId, ip: Ipv4Addr) -> Option<InterfaceId> {
        let slot = IxpInstance::slot_of_ip(ixp, ip)?;
        (slot < self.slots(ixp)).then(|| InterfaceId(self.base[ixp.index()] + slot))
    }

    /// Invert a dense id back to its `(ixp, slot)` coordinate. Panics on
    /// an id past the end instead of naming an IXP that does not exist.
    #[inline]
    pub fn coords(&self, id: InterfaceId) -> (IxpId, u32) {
        assert!(id.index() < self.len(), "{id} not interned");
        // partition_point finds the first base greater than the id; the
        // owning IXP is the one before it.
        let ixp = self.base.partition_point(|&b| b <= id.0) - 1;
        (IxpId(ixp as u32), id.0 - self.base[ixp])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::STUDIED_22;
    use crate::membership::{build_scene, SceneConfig};
    use rp_topology::{generate, TopologyConfig};

    fn scene() -> IxpScene {
        let topo = generate(&TopologyConfig::test_scale(7));
        build_scene(&topo, STUDIED_22, &SceneConfig::test_scale(7))
    }

    #[test]
    fn slot_of_inverts_ip_for_slot() {
        for ixp in [0u32, 3, 249] {
            for slot in [0u32, 1, 249, 250, 251, 499, 59_999] {
                let ip = IxpInstance::ip_for_slot(IxpId(ixp), slot);
                assert_eq!(IxpInstance::slot_of_ip(IxpId(ixp), ip), Some(slot));
            }
        }
    }

    #[test]
    fn infrastructure_addresses_do_not_intern() {
        let id = IxpId(4);
        assert_eq!(IxpInstance::slot_of_ip(id, IxpInstance::lg_ip(id, 0)), None);
        assert_eq!(IxpInstance::slot_of_ip(id, IxpInstance::lg_ip(id, 1)), None);
        assert_eq!(
            IxpInstance::slot_of_ip(id, IxpInstance::route_server_ip(id)),
            None
        );
        // Wrong IXP subnet.
        let member = IxpInstance::ip_for_slot(IxpId(5), 0);
        assert_eq!(IxpInstance::slot_of_ip(id, member), None);
        // Off-scheme addresses (extra-hop gadget routers and the like).
        assert_eq!(
            IxpInstance::slot_of_ip(id, Ipv4Addr::new(172, 16, 4, 1)),
            None
        );
    }

    #[test]
    fn every_generated_member_interns_to_its_table_index() {
        let scene = scene();
        for ixp in &scene.ixps {
            for (i, m) in ixp.members.iter().enumerate() {
                assert_eq!(ixp.slot_of(m.ip), Some(i as u32), "at {} slot {i}", ixp.id);
            }
        }
    }

    #[test]
    fn slot_table_matches_hashmap_semantics() {
        let scene = scene();
        let inst = scene.studied().next().expect("a studied IXP");
        let mut table = SlotTable::new(inst);
        let ips: Vec<Ipv4Addr> = inst.members.iter().map(|m| m.ip).collect();
        assert!(table.insert(ips[2], 20));
        assert!(table.insert(ips[0], 10));
        assert!(table.insert(ips[2], 21), "overwrite like HashMap::insert");
        assert!(!table.insert(IxpInstance::lg_ip(inst.id, 0), 99));
        assert_eq!(table.get(ips[0]), Some(&10));
        assert_eq!(table.get(ips[2]), Some(&21));
        assert_eq!(table.get(ips[1]), None);
        assert_eq!(table.get_slot(2), Some(&21));
        *table.get_or_insert_with(ips[1], || 0).expect("member ip") += 5;
        assert_eq!(table.get(ips[1]), Some(&5));
        let pairs: Vec<(u32, i32)> = table.occupied().map(|(s, v)| (s, *v)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 5), (2, 21)]);
    }

    #[test]
    fn interface_index_is_a_bijection_on_the_scene() {
        let scene = scene();
        let index = InterfaceIndex::build(&scene);
        assert_eq!(index.len(), scene.total_interfaces());
        let mut seen = vec![false; index.len()];
        for ixp in &scene.ixps {
            assert_eq!(index.slots(ixp.id) as usize, ixp.members.len());
            for (slot, m) in ixp.members.iter().enumerate() {
                let id = index.id(ixp.id, slot as u32);
                assert_eq!(index.of_ip(ixp.id, m.ip), Some(id));
                assert_eq!(index.coords(id), (ixp.id, slot as u32));
                assert!(!seen[id.index()], "id {id} assigned twice");
                seen[id.index()] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "ids must be contiguous");
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn uninterned_slot_panics_instead_of_naming_the_next_ixp() {
        let index = InterfaceIndex::build(&scene());
        let first = IxpId(0);
        assert!(
            index.slots(IxpId(1)) > 0,
            "the next IXP owns the id past the end"
        );
        index.id(first, index.slots(first));
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn id_past_the_end_panics_instead_of_naming_an_ixp() {
        let index = InterfaceIndex::build(&scene());
        index.coords(InterfaceId(index.len() as u32 + 5));
    }
}
