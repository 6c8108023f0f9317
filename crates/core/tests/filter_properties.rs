//! Property-based tests on the six filters: invariances the paper's
//! methodology implies but never states.

use proptest::prelude::*;
use remote_peering::filters::{apply, AnalyzedInterface, Discard, FilterConfig};
use remote_peering::probe::{InterfaceSamples, Sample};
use rp_ixp::registry::ListingEntry;
use rp_ixp::LgOperator;
use rp_types::Asn;

fn samples_from(replies: &[(f64, u8)], second_lg: Option<&[(f64, u8)]>) -> InterfaceSamples {
    let mk = |v: &[(f64, u8)]| -> Vec<Sample> {
        v.iter()
            .map(|(rtt, ttl)| Sample {
                rtt_ms: *rtt,
                ttl: *ttl,
            })
            .collect()
    };
    let mut per_lg = vec![(LgOperator::Pch, mk(replies))];
    if let Some(second) = second_lg {
        per_lg.push((LgOperator::RipeNcc, mk(second)));
    }
    InterfaceSamples {
        ip: "10.0.2.2".parse().unwrap(),
        per_lg,
        unanswered: vec![],
    }
}

fn entry() -> ListingEntry {
    ListingEntry {
        ip: "10.0.2.2".parse().unwrap(),
        asns: vec![Asn(64500)],
    }
}

fn arb_replies() -> impl Strategy<Value = Vec<(f64, u8)>> {
    proptest::collection::vec(
        (
            0.1f64..300.0,
            prop_oneof![Just(64u8), Just(255u8), Just(254u8), Just(128u8)],
        ),
        0..60,
    )
}

proptest! {
    #[test]
    fn verdict_is_invariant_under_reply_order(mut replies in arb_replies()) {
        let cfg = FilterConfig::default();
        let a = apply(&samples_from(&replies, None), &entry(), &cfg);
        replies.reverse();
        let b = apply(&samples_from(&replies, None), &entry(), &cfg);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.min_rtt_ms, y.min_rtt_ms);
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            other => prop_assert!(false, "order changed the verdict: {other:?}"),
        }
    }

    #[test]
    fn analyzed_min_is_the_true_minimum(replies in arb_replies()) {
        let cfg = FilterConfig::default();
        if let Ok(AnalyzedInterface { min_rtt_ms, .. }) =
            apply(&samples_from(&replies, None), &entry(), &cfg)
        {
            let true_min = replies.iter().map(|(r, _)| *r).fold(f64::INFINITY, f64::min);
            prop_assert_eq!(min_rtt_ms, true_min);
        }
    }

    #[test]
    fn duplicating_a_healthy_reply_never_flips_accept_to_reject(
        rtt in 0.5f64..5.0,
        n in 8usize..30,
    ) {
        // A clean interface (uniform TTL, tight RTTs) must stay accepted as
        // replies accumulate — the filters are monotone in evidence for
        // well-behaved interfaces.
        let cfg = FilterConfig::default();
        let base: Vec<(f64, u8)> = (0..n).map(|k| (rtt + 0.01 * k as f64, 255)).collect();
        let first = apply(&samples_from(&base, None), &entry(), &cfg);
        prop_assert!(first.is_ok());
        let mut more = base.clone();
        more.extend_from_slice(&base);
        let second = apply(&samples_from(&more, None), &entry(), &cfg);
        prop_assert!(second.is_ok());
    }

    #[test]
    fn mixed_ttls_always_reject(replies in arb_replies()) {
        let cfg = FilterConfig::default();
        let distinct: std::collections::HashSet<u8> =
            replies.iter().map(|(_, t)| *t).collect();
        if distinct.len() > 1 && replies.len() >= cfg.min_replies_per_lg {
            let outcome = apply(&samples_from(&replies, None), &entry(), &cfg);
            prop_assert_eq!(outcome, Err(Discard::TtlSwitch));
        }
    }

    #[test]
    fn lg_agreement_is_symmetric(
        a in proptest::collection::vec((0.5f64..50.0,), 8..20),
        b in proptest::collection::vec((0.5f64..50.0,), 8..20),
    ) {
        let cfg = FilterConfig::default();
        let ra: Vec<(f64, u8)> = a.iter().map(|(r,)| (*r, 255)).collect();
        let rb: Vec<(f64, u8)> = b.iter().map(|(r,)| (*r, 255)).collect();
        let ab = apply(&samples_from(&ra, Some(&rb)), &entry(), &cfg);
        let ba = apply(&samples_from(&rb, Some(&ra)), &entry(), &cfg);
        // The LG-consistency verdict cannot depend on which operator is
        // listed first.
        prop_assert_eq!(ab.is_ok(), ba.is_ok());
        if let (Err(x), Err(y)) = (&ab, &ba) {
            prop_assert_eq!(x, y);
        }
    }
}
