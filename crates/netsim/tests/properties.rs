//! Property-based tests on the packet simulator's invariants.

use proptest::prelude::*;
use rp_netsim::event::{Event, EventKey, EventQueue};
use rp_netsim::frame::FrameArena;
use rp_netsim::{
    CongestionEpisode, DelayModel, Frame, IcmpMessage, Ipv4Packet, MacAddr, Network, NodeId,
    Payload, PortId, RouterBehavior, Switch,
};
use rp_types::{seed, SimDuration, SimTime};
use std::net::Ipv4Addr;

proptest! {
    #[test]
    fn event_queue_pops_in_time_then_key_order(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(
                SimTime(*t),
                EventKey { creator: 0, seq: i as u64 },
                Event::Timer { node: NodeId(0), token: i as u64 },
            );
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((at, Event::Timer { token, .. })) = q.pop() {
            if let Some((lt, ltok)) = last {
                prop_assert!(at >= lt, "time order");
                if at == lt {
                    prop_assert!(token > ltok, "key order within a tick");
                }
            }
            last = Some((at, token));
        }
    }

    /// The plan run and the heap together pop exactly what a
    /// sort-everything reference pops: random device pushes, plan timers
    /// pushed in order (never before the last plan) and out of order (at
    /// any time, also after a partial drain), non-timer events under plan
    /// keys (heap-bound), and same-time ties between `PLAN_CREATOR` and
    /// device keys, interleaved with `pop`.
    #[test]
    fn event_queue_matches_a_sort_everything_reference(
        ops in proptest::collection::vec((0u8..7, 0u64..8, 0u32..4), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, EventKey, Option<u64>)> = Vec::new();
        let mut seqs = [0u64; 4];
        let mut plan_seq = 0u64;
        let mut last_plan = 0u64;
        let mut now = 0u64;
        let pop_reference = |reference: &mut Vec<(SimTime, EventKey, Option<u64>)>| {
            let (i, &(at, _, token)) = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, key, _))| (at, key))?;
            reference.remove(i);
            Some((at, token))
        };
        let popped = |e: Event| match e {
            Event::Timer { token, .. } => Some(token),
            Event::FrameArrival { .. } => None,
        };
        let mut arena = FrameArena::new();
        for (token, &(op, dt, creator)) in ops.iter().enumerate() {
            let token = token as u64;
            let at = SimTime(now + dt);
            let mut plan_key = || {
                plan_seq += 1;
                EventKey { creator: EventKey::PLAN_CREATOR, seq: plan_seq - 1 }
            };
            match op {
                0 | 1 => {
                    let c = creator as usize;
                    let key = EventKey { creator, seq: seqs[c] };
                    seqs[c] += 1;
                    q.push(at, key, Event::Timer { node: NodeId(creator), token });
                    reference.push((at, key, Some(token)));
                }
                2 => {
                    // In order: never before the plan pushed last.
                    let at = SimTime(last_plan.max(now) + dt);
                    last_plan = at.nanos();
                    let key = plan_key();
                    q.push(at, key, Event::Timer { node: NodeId(creator), token });
                    reference.push((at, key, Some(token)));
                }
                3 => {
                    // Any time from now on: out of order when it lands
                    // before an earlier plan.
                    let key = plan_key();
                    last_plan = last_plan.max(at.nanos());
                    q.push(at, key, Event::Timer { node: NodeId(creator), token });
                    reference.push((at, key, Some(token)));
                }
                4 => {
                    let key = plan_key();
                    let ip = Ipv4Addr::new(10, 0, 0, 1);
                    let frame = arena.alloc(Frame::arp_request(ip, MacAddr::from_index(1), ip));
                    let port = PortId(0);
                    q.push(at, key, Event::FrameArrival { node: NodeId(creator), port, frame });
                    reference.push((at, key, None));
                }
                _ => {
                    let got = q.pop().map(|(at, e)| (at, popped(e)));
                    let want = pop_reference(&mut reference);
                    prop_assert_eq!(got, want, "op {} at now {}", op, now);
                    if let Some((at, _)) = got {
                        now = at.nanos();
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        while let Some(want) = pop_reference(&mut reference) {
            let got = q.pop().map(|(at, e)| (at, popped(e)));
            prop_assert_eq!(got, Some(want));
        }
        prop_assert!(q.pop().is_none());
    }

    /// Jitter only adds to the jitter-free floor, episodes included; with
    /// no jitter the two are equal, which is what lets deterministic links
    /// skip their random stream and ARP frames travel at `floor_at`.
    #[test]
    fn delay_samples_never_undershoot_the_floor(
        base_ms in 0.0f64..50.0,
        jitter in 0.0f64..20.0,
        jittered in any::<bool>(),
        start in 0u64..50_000,
        len in 1u64..50_000,
        extra in 0.0f64..10.0,
        rng_seed in any::<u64>(),
    ) {
        let episode = |start: u64| CongestionEpisode {
            start: SimTime(start),
            end: SimTime(start + len),
            extra_mean_ms: extra,
        };
        // Two overlapping episodes, so their extras also stack.
        let model = DelayModel::with_one_way_ms(base_ms)
            .with_jitter_ms(if jittered { jitter } else { 0.0 })
            .with_persistent_episode(episode(start))
            .with_persistent_episode(episode(start + len / 2));
        let mut rng = seed::rng(rng_seed, "delay", 0);
        for k in 0..50u64 {
            let t = SimTime(k * 2_000);
            let (d, floor) = (model.sample(t, &mut rng), model.floor_at(t));
            prop_assert!(d >= floor, "{d} < {floor}");
            if !jittered {
                prop_assert_eq!(d, floor);
            }
        }
    }

    #[test]
    fn episodes_only_raise_delay_inside_their_window(
        start in 0u64..1_000_000,
        len in 1u64..1_000_000,
        extra in 1.0f64..50.0,
        rng_seed in any::<u64>(),
    ) {
        let episode = CongestionEpisode {
            start: SimTime(start),
            end: SimTime(start + len),
            extra_mean_ms: extra,
        };
        let model = DelayModel::ideal(SimDuration::from_millis(1))
            .with_persistent_episode(episode);
        let mut rng = seed::rng(rng_seed, "episode", 0);
        let before = model.sample(SimTime(start.saturating_sub(1)), &mut rng);
        let inside = model.sample(SimTime(start), &mut rng);
        let after = model.sample(SimTime(start + len), &mut rng);
        prop_assert_eq!(before, SimDuration::from_millis(1));
        prop_assert_eq!(after, SimDuration::from_millis(1));
        prop_assert!(inside > SimDuration::from_millis(1));
    }

    #[test]
    fn switch_never_reflects_or_duplicates(
        in_port in 0u16..8,
        n_ports in 2u16..8,
        dst_idx in 0u64..12,
    ) {
        prop_assume!(in_port < n_ports);
        let mut sw = Switch::new();
        let frame = Frame {
            src: MacAddr::from_index(100),
            dst: MacAddr::from_index(dst_idx),
            payload: Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                ttl: 64,
                payload: IcmpMessage::EchoRequest { id: 1, seq: 1 },
            }),
        };
        let actions = sw.on_frame(PortId(in_port), n_ports, frame);
        let mut out_ports: Vec<u16> = actions
            .iter()
            .map(|a| match a {
                rp_netsim::sim::Action::Send { port, .. } => port.0,
                _ => unreachable!("switches only send"),
            })
            .collect();
        // Never back out the ingress port.
        prop_assert!(!out_ports.contains(&in_port));
        // Never the same port twice.
        out_ports.sort_unstable();
        let n = out_ports.len();
        out_ports.dedup();
        prop_assert_eq!(n, out_ports.len());
        // Never an out-of-range port.
        prop_assert!(out_ports.iter().all(|p| *p < n_ports));
    }

    #[test]
    fn echo_rtt_scales_with_link_delay(one_way_ms in 0.1f64..80.0, seed_v in any::<u64>()) {
        let mut net = Network::new(seed_v);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::ideal(SimDuration::from_micros(10)));
        net.bind_host(lg, lgp, Ipv4Addr::new(10, 0, 0, 1));
        let member = net.add_router(RouterBehavior { initial_ttl: 255, ..Default::default() });
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::ideal(SimDuration::from_millis_f64(one_way_ms)),
        );
        net.bind_router(member, mp, Ipv4Addr::new(10, 0, 0, 9));
        for k in 0..3u64 {
            net.plan_ping(lg, SimTime::ZERO + SimDuration::from_secs(k), Ipv4Addr::new(10, 0, 0, 9));
        }
        net.run_to_completion();
        let min = net
            .host(lg)
            .outcomes()
            .iter()
            .filter_map(|o| o.reply())
            .map(|r| r.rtt.as_millis_f64())
            .fold(f64::INFINITY, f64::min);
        // RTT ≥ twice the propagation; ≤ that plus a generous processing
        // allowance.
        prop_assert!(min >= 2.0 * one_way_ms);
        prop_assert!(min <= 2.0 * one_way_ms + 1.0, "{min} vs {one_way_ms}");
    }

    #[test]
    fn ttl_is_preserved_across_any_switch_chain(chain_len in 1usize..6, seed_v in any::<u64>()) {
        let mut net = Network::new(seed_v);
        let mut switches = vec![net.add_switch()];
        for _ in 1..=chain_len {
            let next = net.add_switch();
            let prev = *switches.last().unwrap();
            net.connect(prev, next, DelayModel::ideal(SimDuration::from_micros(100)));
            switches.push(next);
        }
        let lg = net.add_host();
        let (_, lgp) = net.connect(switches[0], lg, DelayModel::ideal(SimDuration::from_micros(10)));
        net.bind_host(lg, lgp, Ipv4Addr::new(10, 0, 0, 1));
        let member = net.add_router(RouterBehavior { initial_ttl: 255, ..Default::default() });
        let (_, mp) = net.connect(
            *switches.last().unwrap(),
            member,
            DelayModel::ideal(SimDuration::from_micros(10)),
        );
        net.bind_router(member, mp, Ipv4Addr::new(10, 0, 0, 9));
        net.plan_ping(lg, SimTime::ZERO + SimDuration::from_secs(1), Ipv4Addr::new(10, 0, 0, 9));
        net.run_to_completion();
        let reply = net.host(lg).outcomes()[0].reply().expect("reply arrives");
        prop_assert_eq!(reply.ttl, 255, "layer 2 must never touch TTL");
    }
}
