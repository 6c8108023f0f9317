//! World golden pins: FNV-1a-64 of the `Debug` text of a built world's
//! topology and IXP scene, for a spread of seeds and sizes.
//!
//! The generators promise bit-identical worlds for a given config — same RNG
//! draws in the same order, same float results — whatever algorithm they use
//! internally and at any rayon width. `Debug` prints floats in their exact
//! shortest round-trip form, so any drift in a single draw, weight or member
//! row changes the hash. A legitimate model change regenerates the pins with
//! `cargo test --release -p remote-peering --test world_golden --
//! --include-ignored --nocapture` (each failing pin prints its new value).

use remote_peering::memo::fingerprint;
use remote_peering::world::{World, WorldConfig};

/// `(topology, scene)` fingerprints of `cfg`'s world.
fn digests(cfg: &WorldConfig) -> (u64, u64) {
    let world = World::build(cfg);
    (fingerprint(&world.topology), fingerprint(&world.scene))
}

fn assert_pinned(name: &str, cfg: &WorldConfig, topology: u64, scene: u64) {
    let (t, s) = digests(cfg);
    println!("{name}: topology {t:#018x}, scene {s:#018x}");
    assert_eq!(
        (t, s),
        (topology, scene),
        "{name}: world digests moved (topology {t:#018x}, scene {s:#018x})"
    );
}

#[test]
fn test_scale_worlds_are_pinned() {
    let pinned: [(u64, u64, u64); 3] = [
        (1, 0x5322ba570adee9a7, 0xd83eaca186ee1cc2),
        (3, 0xac09c47cbaf735a0, 0xdff8de6e9c13bc08),
        (5, 0x2e5bd84bdc0a00aa, 0xeb39b234e11ec35d),
    ];
    let got: Vec<(u64, u64, u64)> = pinned
        .iter()
        .map(|&(seed, _, _)| {
            let (t, s) = digests(&WorldConfig::test_scale(seed));
            println!("test seed {seed}: topology {t:#018x}, scene {s:#018x}");
            (seed, t, s)
        })
        .collect();
    assert_eq!(got, pinned, "test-scale world digests moved");
}

#[test]
fn paper_scale_world_is_pinned() {
    assert_pinned(
        "paper seed 1",
        &WorldConfig::paper_scale(1),
        0xe579ebc4d63d4a85,
        0xecda35a559826a19,
    );
}

#[test]
fn double_density_paper_world_is_pinned() {
    let mut cfg = WorldConfig::paper_scale(3);
    cfg.scene.scale = 2.0;
    assert_pinned(
        "paper seed 3, scene scale 2",
        &cfg,
        0x0b89f5014ecd682d,
        0xf0c920f401da3d3c,
    );
}

#[test]
#[ignore = "production-scale build; run in release with --ignored"]
fn production_world_is_pinned() {
    assert_pinned(
        "production seed 42",
        &WorldConfig::production_scale(42),
        0xb3593037d77ed60d,
        0x9a3eb473baa3547a,
    );
}
