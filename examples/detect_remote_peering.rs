//! The Figure 1 scene, built by hand on the raw packet simulator.
//!
//! ```text
//! cargo run --release --example detect_remote_peering
//! ```
//!
//! The paper's Figure 1 shows a looking-glass server probing two member
//! interfaces of an IXP: one network peering directly (its router sits in
//! the IXP's colo) and one peering remotely (its router sits in another
//! city, reaching the fabric over a remote-peering provider's layer-2
//! pseudowire). This example constructs exactly that scene with
//! `rp-netsim` primitives and shows the two signals the methodology rests
//! on:
//!
//! 1. the remote member's minimum RTT carries its geography, and
//! 2. both replies arrive with an intact initial TTL (the pseudowire is
//!    invisible on layer 3) — while a registry-stale target behind a real
//!    IP hop betrays itself by a decremented TTL.

use remote_peering::netsim::{DelayModel, Network, RouterBehavior};
use remote_peering::types::geo;
use remote_peering::types::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn main() {
    let mut net = Network::new(2014);

    // The IXP's layer-2 fabric in Amsterdam, with an LG server inside the
    // peering subnet.
    let fabric = net.add_switch();
    let lg = net.add_host();
    let (_, lg_port) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
    net.bind_host(lg, lg_port, ip("10.0.0.1"));

    // Directly peering network: colo cross-connect, TTL 255 stack.
    let direct = net.add_router(RouterBehavior {
        initial_ttl: 255,
        ..Default::default()
    });
    let (_, dp) = net.connect(fabric, direct, DelayModel::with_one_way_ms(0.4));
    net.bind_router(direct, dp, ip("10.0.0.10"));

    // Remotely peering network: its router sits in Madrid; a remote-peering
    // provider carries its frames to the Amsterdam fabric over a pseudowire
    // of two switches and a long-haul span.
    let ams = geo::city("Amsterdam").location;
    let madrid = geo::city("Madrid").location;
    let span_ms = ams.fiber_delay_ms(madrid);
    println!(
        "Madrid-Amsterdam fiber span: {:.0} km great-circle, {:.2} ms one way",
        ams.distance_km(madrid),
        span_ms
    );
    let pw_ixp = net.add_switch();
    let pw_far = net.add_switch();
    net.connect(fabric, pw_ixp, DelayModel::with_one_way_ms(0.05));
    net.connect(pw_ixp, pw_far, DelayModel::with_one_way_ms(span_ms));
    let remote = net.add_router(RouterBehavior {
        initial_ttl: 64,
        ..Default::default()
    });
    let (_, rp) = net.connect(pw_far, remote, DelayModel::with_one_way_ms(0.3));
    net.bind_router(remote, rp, ip("10.0.0.20"));

    // Registry-stale target: the listed address 10.0.0.30 actually lives on
    // a router one IP hop behind the fabric-facing device.
    let front = net.add_router(RouterBehavior::default());
    let (_, f_fab) = net.connect(fabric, front, DelayModel::with_one_way_ms(0.3));
    net.bind_router(front, f_fab, ip("10.0.0.31"));
    let inner = net.add_router(RouterBehavior {
        initial_ttl: 255,
        ..Default::default()
    });
    let (f_in, i_port) = net.connect(front, inner, DelayModel::with_one_way_ms(1.0));
    net.bind_router(front, f_in, ip("192.168.0.1"));
    net.bind_router(inner, i_port, ip("10.0.0.30"));
    let front_r = net.router_mut(front);
    front_r.add_proxy_arp(f_fab, ip("10.0.0.30"));
    front_r.add_route(ip("10.0.0.30"), f_in);
    front_r.set_default_route(f_fab);
    front_r.set_proxy_arp_all(f_in);
    net.router_mut(inner).set_default_route(i_port);

    // Ping each target eight times, spread over a simulated hour.
    for (k, target) in ["10.0.0.10", "10.0.0.20", "10.0.0.30"].iter().enumerate() {
        for q in 0..8u64 {
            let at = SimTime::ZERO
                + SimDuration::from_mins(q * 7 + k as u64)
                + SimDuration::from_secs(1);
            net.plan_ping(lg, at, ip(target));
        }
    }
    net.run_to_completion();

    println!("\n{:<12} {:>10} {:>8}  verdict", "target", "min RTT", "TTL");
    for target in ["10.0.0.10", "10.0.0.20", "10.0.0.30"] {
        let outcomes: Vec<_> = net
            .host(lg)
            .outcomes()
            .iter()
            .filter(|o| o.target() == ip(target))
            .filter_map(|o| o.reply())
            .collect();
        let min = outcomes
            .iter()
            .map(|r| r.rtt.as_millis_f64())
            .fold(f64::INFINITY, f64::min);
        let ttl = outcomes.first().map(|r| r.ttl).unwrap_or(0);
        let verdict = if !matches!(ttl, 64 | 255) {
            "discard: TTL betrays an extra IP hop (stale registry entry)"
        } else if min >= 10.0 {
            "REMOTE peer (geography shows through the layer-2 pseudowire)"
        } else {
            "direct peer"
        };
        println!("{target:<12} {min:>8.2}ms {ttl:>8}  {verdict}");
    }
    println!(
        "\nevents simulated: {} (deterministic: rerun and compare)",
        net.events_processed()
    );
}
