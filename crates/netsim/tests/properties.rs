//! Property-based tests on the packet simulator's invariants.

use proptest::prelude::*;
use rp_netsim::event::{Event, EventKey, EventQueue};
use rp_netsim::{
    CongestionEpisode, DelayModel, Frame, IcmpMessage, Ipv4Packet, MacAddr, Network, NodeId,
    Payload, PortId, RouterBehavior, Switch,
};
use rp_types::{seed, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Run the epoch-barrier scheduler in miniature over bare event queues:
/// `n_shards` queues, windows bounded by `t_min + L`, and "cross-shard"
/// spawns delivered only at the barrier between windows. Returns the
/// canonical merged trace — per window, pops from all shards sorted by
/// `(time, key)`, windows concatenated.
///
/// Each entry is `(time, creator, spawn_target)`; a `Some` target makes the
/// popped event spawn a follow-up event at `time + L + (creator % 3)` keyed
/// by the spawner, exercising the epoch edge (`+ 0` lands exactly on the
/// next window's horizon).
fn run_barrier_model(n_shards: usize, entries: &[(u64, u32, Option<u32>)]) -> Vec<(u64, u32, u64)> {
    const L: u64 = 7;
    let shard_of = |c: u32| (c as usize) % n_shards;
    let mut queues: Vec<EventQueue> = (0..n_shards).map(|_| EventQueue::new()).collect();
    let mut seqs = [0u64; 8];
    let mut spawns: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for &(t, c, spawn) in entries {
        let seq = seqs[c as usize];
        seqs[c as usize] += 1;
        let token = (u64::from(c) << 32) | seq;
        if let Some(d) = spawn {
            spawns.insert(token, d);
        }
        queues[shard_of(c)].push(
            SimTime(t),
            EventKey { creator: c, seq },
            Event::Timer {
                node: NodeId(c),
                token,
            },
        );
    }
    let mut trace: Vec<(u64, u32, u64)> = Vec::new();
    loop {
        let t_min = queues.iter_mut().filter_map(|q| q.peek_time()).min();
        let Some(t_min) = t_min else { break };
        let horizon = SimTime(t_min.0 + L);
        let mut window: Vec<(u64, u32, u64)> = Vec::new();
        let mut handoffs: Vec<(usize, SimTime, EventKey, Event)> = Vec::new();
        for q in queues.iter_mut() {
            while let Some(at) = q.peek_time() {
                if at >= horizon {
                    break;
                }
                let (at, ev) = q.pop().expect("peeked");
                let Event::Timer { node, token } = ev else {
                    unreachable!("model pushes only timers")
                };
                let (c, seq) = ((token >> 32) as u32, token & 0xffff_ffff);
                window.push((at.0, c, seq));
                if let Some(d) = spawns.remove(&token) {
                    let spawner = node.0;
                    let sseq = seqs[spawner as usize];
                    seqs[spawner as usize] += 1;
                    let skey = EventKey {
                        creator: spawner,
                        seq: sseq,
                    };
                    let stoken = (u64::from(spawner) << 32) | sseq;
                    let sat = SimTime(at.0 + L + u64::from(spawner) % 3);
                    handoffs.push((
                        shard_of(d),
                        sat,
                        skey,
                        Event::Timer {
                            node: NodeId(d),
                            token: stoken,
                        },
                    ));
                }
            }
        }
        // The canonical merge: within a window, order is (time, key).
        window.sort_unstable_by_key(|&(t, c, s)| (t, c, s));
        trace.extend(window);
        // The barrier: spawned events enter destination queues only now.
        for (dst, at, key, ev) in handoffs {
            queues[dst].push(at, key, ev);
        }
    }
    trace
}

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

    /// The ordering theorem behind the sharded data plane: partition keyed
    /// events across any number of queues, run bounded-lag windows with
    /// barrier-deferred cross-shard spawns, and the concatenation of
    /// per-window `(time, key)` merges is exactly the single-queue global
    /// pop order — simultaneous timestamps and spawns landing precisely on
    /// a window horizon included.
    #[test]
    fn sharded_queues_merge_in_global_key_order(
        raw in proptest::collection::vec((0u64..40, 0u32..8, 0u32..16), 1..120),
        n_shards in 2usize..5,
    ) {
        // Third element doubles as the optional spawn target: values in
        // 0..8 spawn a cross-shard follow-up at that node, 8..16 spawn
        // nothing — the vendored proptest has no Option strategy.
        let entries: Vec<(u64, u32, Option<u32>)> = raw
            .iter()
            .map(|&(t, c, s)| (t, c, (s < 8).then_some(s)))
            .collect();
        let reference = run_barrier_model(1, &entries);
        let sharded = run_barrier_model(n_shards, &entries);
        prop_assert_eq!(&reference, &sharded, "merged trace must not depend on the partition");
        // And the merged trace really is globally sorted by (time, key).
        for w in reference.windows(2) {
            prop_assert!(w[0] <= w[1], "global (time, creator, seq) order: {w:?}");
        }
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
            .filter_map(|o| o.reply)
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
        let reply = net.host(lg).outcomes()[0].reply.expect("reply arrives");
        prop_assert_eq!(reply.ttl, 255, "layer 2 must never touch TTL");
    }
}
