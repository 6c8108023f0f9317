//! Memory-budget regressions: the dense planes keep a built world's
//! resident bytes proportional to its interface count, the exact
//! accounting (`World::approx_bytes`) stays exact, and the per-IXP probe
//! estimate that sizes budgeted chunks stays conservative.

use remote_peering::world::{World, WorldConfig};
use remote_peering::Campaign;

/// Pinned ceiling on resident bytes per member interface at `world_scale`
/// 10 — the scale the `sharded_world` bench and the production preset
/// build on. The dense planes land far below this; per-interface hash
/// tables or boxed rows blow straight through it.
const BYTES_PER_INTERFACE_CEILING: u64 = 1_024;

#[test]
fn bytes_per_interface_stays_under_ceiling_at_world_scale_10() {
    let mut cfg = WorldConfig::test_scale(42);
    cfg.topology.world_scale = 10.0;
    cfg.scene.scale *= 10.0;
    let world = World::build(&cfg);
    let interfaces = world.scene.total_interfaces() as u64;
    assert!(
        interfaces > 25_000,
        "the 10x world must be big enough to mean something, got {interfaces}"
    );
    let per = world.approx_bytes() / interfaces;
    assert!(
        per <= BYTES_PER_INTERFACE_CEILING,
        "{per} bytes/interface exceeds the {BYTES_PER_INTERFACE_CEILING} ceiling \
         ({} total bytes over {interfaces} interfaces)",
        world.approx_bytes()
    );
}

#[test]
fn approx_bytes_scales_with_the_scene_not_a_constant() {
    // The exact plane accounting must actually track the member rows: a
    // bigger scene reports proportionally more bytes.
    let small = World::build(&WorldConfig::test_scale(42));
    let mut big_cfg = WorldConfig::test_scale(42);
    big_cfg.scene.scale *= 3.0;
    let big = World::build(&big_cfg);
    let ratio = big.scene.total_interfaces() as f64 / small.scene.total_interfaces() as f64;
    assert!(
        ratio > 2.0,
        "scene scale knob must grow the scene ({ratio})"
    );
    assert!(
        big.approx_bytes() > small.approx_bytes(),
        "more interfaces must mean more accounted bytes"
    );
}

#[test]
fn approx_probe_bytes_covers_the_largest_paper_scale_ixps() {
    // The chunk width of a budgeted `probe_all` divides the budget by this
    // estimate, so it must not undershoot what one IXP really holds: the
    // simulator's high-water queue and arena capacity plus the finished
    // probe plane. Checked on the three largest studied IXPs.
    let world = World::build(&WorldConfig::paper_scale(42));
    let mut studied: Vec<_> = world.scene.studied().collect();
    studied.sort_by_key(|x| std::cmp::Reverse(x.members.len()));
    let campaign = Campaign::default_paper();
    for inst in studied.into_iter().take(3) {
        let run = campaign.run_ixp(&world, inst.id, false);
        let held = run.retained_bytes + run.plane.plane_bytes();
        let estimate = Campaign::approx_probe_bytes(inst);
        assert!(
            estimate >= held,
            "{}: estimate {estimate} bytes < {held} held ({} retained by the \
             network + {} of probe plane, {} members)",
            inst.meta.acronym,
            run.retained_bytes,
            run.plane.plane_bytes(),
            inst.members.len()
        );
    }
}
