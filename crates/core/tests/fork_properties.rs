//! Property tests for [`remote_peering::fork`]: randomized
//! fork/mutate/drop interleavings never alias mutable state.
//!
//! The harness interprets a generated op list over a small population of
//! live forks of one shared parent. After every interleaving:
//!
//! * the parent's scene bytes are exactly what they were before any fork
//!   existed (child mutations never write through);
//! * every surviving fork equals a from-scratch replay of its own delta
//!   log onto a parent clone, byte for byte;
//! * per-IXP instances are shared with the parent exactly when the fork's
//!   log never touched them (copy-on-write copies all of what it writes
//!   and nothing else);
//! * fork keys are content-addressed: re-applying the same log to a fresh
//!   fork reproduces the same fingerprint.
//!
//! A second property pins the in-place path: mutating a clone directly
//! still requires — and gets — a fresh [`World::mark_mutated`] unique key, so
//! in-place mutants can never alias the pristine world (or each other) in
//! the probe memo.

use proptest::prelude::*;
use remote_peering::fork::{apply_delta_in_place, Delta, WorldFork};
use remote_peering::memo;
use remote_peering::world::{World, WorldConfig};
use rp_ixp::model::{
    Access, IxpInstance, LgOperator, ListingInfo, MemberInterface, ResponderProfile,
};
use rp_types::{IxpId, NetworkId};
use std::collections::BTreeSet;
use std::sync::OnceLock;

static WORLD: OnceLock<(World, u64)> = OnceLock::new();

/// The shared parent world plus its pristine scene fingerprint, captured
/// before any test forks it.
fn parent() -> &'static (World, u64) {
    WORLD.get_or_init(|| {
        let w = World::build(&WorldConfig::test_scale(77));
        let fp = memo::fingerprint(&w.scene);
        (w, fp)
    })
}

/// An unlisted direct member for the next slot of `ixp`.
fn new_member(ixp: IxpId, slot: u32) -> MemberInterface {
    MemberInterface {
        network: NetworkId(0),
        ip: IxpInstance::ip_for_slot(ixp, slot),
        access: Access::Direct {
            colo_delay_ms: 0.3,
            site: 0,
        },
        profile: ResponderProfile::default(),
        listing: ListingInfo {
            listed: false,
            identifiable: false,
            asn_change: false,
        },
    }
}

/// Build a valid delta against `w`'s *current* state (slots in range,
/// removes only from non-empty IXPs). `None` when the generated kind has
/// no valid target — the interpreter just skips the op.
fn make_delta(w: &World, ixp_sel: u8, slot_sel: u8, kind: u8) -> Option<Delta> {
    let studied = w.studied_ixps();
    let ixp = studied[ixp_sel as usize % studied.len()];
    let members = w.scene.ixp(ixp).members.len();
    let slot = |n: usize| (slot_sel as usize % n) as u32;
    Some(match kind % 6 {
        0 => Delta::MemberAdd {
            ixp,
            member: new_member(ixp, members as u32),
        },
        1 if members > 0 => Delta::MemberRemove { ixp },
        2 if members > 0 => Delta::RowStale {
            ixp,
            slot: slot(members),
        },
        3 => Delta::LgDrop {
            ixp,
            keep: &[LgOperator::Pch],
        },
        4 if members > 0 => Delta::Pathology {
            ixp,
            slot: slot(members),
            congested_extra_ms: 2.0,
            congested_drop: 0.25,
        },
        5 if members > 0 => Delta::PortUpgrade {
            ixp,
            slot: slot(members),
            delay_ms: 0.09,
        },
        _ => None?,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_forks_never_alias_mutable_state(
        // (op, target, ixp, slot, kind): op 0 forks, 1 mutates, 2 drops.
        ops in proptest::collection::vec(
            (0u8..3, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..24,
        ),
    ) {
        let (w, pristine_scene) = parent();
        let mut forks: Vec<WorldFork> = Vec::new();
        for &(op, target, ixp_sel, slot_sel, kind) in &ops {
            match op {
                0 if forks.len() < 4 => forks.push(w.fork()),
                1 if !forks.is_empty() => {
                    let idx = target as usize % forks.len();
                    let f = &mut forks[idx];
                    if let Some(d) = make_delta(f.world(), ixp_sel, slot_sel, kind) {
                        f.apply(d);
                    }
                }
                2 if !forks.is_empty() => {
                    let idx = target as usize % forks.len();
                    drop(forks.swap_remove(idx));
                }
                _ => {}
            }
            // The parent never changes, no matter how the children churn.
            prop_assert_eq!(memo::fingerprint(&w.scene), *pristine_scene);
        }

        for f in &forks {
            // Every surviving fork is exactly its own log replayed onto a
            // parent clone.
            let mut replay = w.clone();
            for d in f.deltas() {
                apply_delta_in_place(&mut replay, d);
            }
            prop_assert_eq!(
                memo::fingerprint(&f.world().scene),
                memo::fingerprint(&replay.scene),
                "fork drifted from its own delta log"
            );
            // Copy-on-write copies what the log touched and nothing else.
            let touched: BTreeSet<IxpId> = f.deltas().iter().map(|d| d.touches()).collect();
            prop_assert_eq!(&touched, f.dirty_ixps());
            for id in w.studied_ixps() {
                prop_assert_eq!(
                    w.scene.shares_ixp_with(&f.world().scene, id),
                    !touched.contains(&id),
                    "instance sharing must mirror the dirty set at {id:?}"
                );
            }
            // Content-addressed keys: the same log on a fresh fork lands
            // on the same fingerprint.
            let mut again = w.fork();
            for d in f.deltas() {
                again.apply(d.clone());
            }
            prop_assert_eq!(again.fingerprint(), f.fingerprint());
            if f.deltas().is_empty() {
                prop_assert_eq!(f.fingerprint(), w.fingerprint());
            } else {
                prop_assert_ne!(f.fingerprint(), w.fingerprint());
            }
        }
    }

    #[test]
    fn mark_mutated_nonce_still_fires_on_in_place_paths(
        ixp_sel in any::<u8>(),
        slot_sel in any::<u8>(),
        kind in any::<u8>(),
    ) {
        let (w, pristine_scene) = parent();
        let Some(d) = make_delta(w, ixp_sel, slot_sel, kind) else {
            return;
        };
        let mut a = w.clone();
        let mut b = w.clone();
        apply_delta_in_place(&mut a, &d);
        a.mark_mutated();
        apply_delta_in_place(&mut b, &d);
        b.mark_mutated();
        // Same bytes, but in-place mutants may never alias the pristine
        // world — or each other — in the probe memo: unique keys are one-shot.
        prop_assert_eq!(
            memo::fingerprint(&a.scene),
            memo::fingerprint(&b.scene)
        );
        prop_assert_ne!(a.fingerprint(), w.fingerprint());
        prop_assert_ne!(b.fingerprint(), w.fingerprint());
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
        // And the clones wrote nothing through to the parent.
        prop_assert_eq!(memo::fingerprint(&w.scene), *pristine_scene);
    }
}
