//! World golden pins: FNV-1a-64 of the `Debug` text of every plane of a
//! built world — topology, IXP scene, routing view, traffic contributions
//! and registry — for a spread of seeds and sizes.
//!
//! The generators promise bit-identical worlds for a given config — same RNG
//! draws in the same order, same float results — whatever algorithm they use
//! internally and at any rayon width. `Debug` prints floats in their exact
//! shortest round-trip form, so any drift in a single draw, weight, route or
//! member row changes the hash. A legitimate model change regenerates the
//! pins with `cargo test --release -p remote-peering --test world_golden --
//! --include-ignored --nocapture` (each failing pin prints its new value).

use remote_peering::memo::fingerprint;
use remote_peering::world::{World, WorldConfig};

/// Fingerprints of one world's planes, in the order topology, scene,
/// routing view, contributions, registry.
type Digests = [u64; 5];

fn digests(cfg: &WorldConfig) -> Digests {
    let world = World::build(cfg);
    [
        fingerprint(&world.topology),
        fingerprint(&world.scene),
        fingerprint(&world.view),
        fingerprint(&world.contributions),
        fingerprint(&world.registry),
    ]
}

fn show(d: &Digests) -> String {
    format!(
        "topology {:#018x}, scene {:#018x}, view {:#018x}, contributions {:#018x}, \
         registry {:#018x}",
        d[0], d[1], d[2], d[3], d[4]
    )
}

fn assert_pinned(name: &str, cfg: &WorldConfig, pinned: Digests) {
    let got = digests(cfg);
    println!("{name}: {}", show(&got));
    assert_eq!(got, pinned, "{name}: world digests moved ({})", show(&got));
}

#[test]
fn test_scale_worlds_are_pinned() {
    let pinned: [(u64, Digests); 3] = [
        (
            1,
            [
                0x5322ba570adee9a7,
                0xd83eaca186ee1cc2,
                0x2b8fc91c657e01ab,
                0x2adb920e92d384d4,
                0x5dd248a129ce164d,
            ],
        ),
        (
            3,
            [
                0xac09c47cbaf735a0,
                0xdff8de6e9c13bc08,
                0x8d4e0b132937fbee,
                0xd3381db26e90ffef,
                0x8f0473342254e64b,
            ],
        ),
        (
            5,
            [
                0x2e5bd84bdc0a00aa,
                0xeb39b234e11ec35d,
                0xb9047013bbdfe215,
                0xcf3730971943f156,
                0xdaca5e6ad37c5077,
            ],
        ),
    ];
    let got: Vec<(u64, Digests)> = pinned
        .iter()
        .map(|&(seed, _)| {
            let d = digests(&WorldConfig::test_scale(seed));
            println!("test seed {seed}: {}", show(&d));
            (seed, d)
        })
        .collect();
    assert_eq!(got, pinned, "test-scale world digests moved");
}

#[test]
fn paper_scale_world_is_pinned() {
    assert_pinned(
        "paper seed 1",
        &WorldConfig::paper_scale(1),
        [
            0xe579ebc4d63d4a85,
            0xecda35a559826a19,
            0xe4e5cd13667e9290,
            0x30c65f16d49114b1,
            0xbce210c9ce9e889a,
        ],
    );
}

#[test]
fn double_density_paper_world_is_pinned() {
    let mut cfg = WorldConfig::paper_scale(3);
    cfg.scene.scale = 2.0;
    assert_pinned(
        "paper seed 3, scene scale 2",
        &cfg,
        [
            0x0b89f5014ecd682d,
            0xf0c920f401da3d3c,
            0x232edbd4ee8ab07e,
            0xa26ae3abee609269,
            0xd7f98bc9d10ad004,
        ],
    );
}

#[test]
#[ignore = "production-scale build; run in release with --ignored"]
fn production_world_is_pinned() {
    assert_pinned(
        "production seed 42",
        &WorldConfig::production_scale(42),
        [
            0xb3593037d77ed60d,
            0x9a3eb473baa3547a,
            0x8311d0524144095e,
            0xc322590593c00ef8,
            0x90bb80a67c823321,
        ],
    );
}
