//! Per-network contributions to the study network's transit-provider
//! traffic.
//!
//! Figure 5a plots, for 29,570 networks, the average rate each contributes
//! as an origin of inbound traffic or destination of outbound traffic,
//! ranked in decreasing order: a few networks near the Gbps mark, a
//! power-law body, and a distinctive *bend toward a faster decline* around
//! rank 20,000 / ~100 bps. This module reproduces that curve:
//!
//! - **who contributes**: every network the study network reaches through a
//!   transit provider (peered networks, GÉANT partners, and home-IXP
//!   co-members exchange traffic off the transit links and therefore never
//!   appear in the transit dataset);
//! - **who is big**: a type-aware heavy-tailed weight puts CDNs and content
//!   networks at the top for inbound traffic (the paper's top contributors
//!   include Microsoft, Yahoo, and CDNs) — the weight orders networks, the
//!   rank-size curve assigns magnitudes;
//! - **the curve**: `A·rank^(-α)` up to a knee, then exponential decay —
//!   the bend.

use rp_bgp::RoutingView;
use rp_topology::{AsType, Topology};
use rp_types::geo::Continent;
use rp_types::{dist, seed, Bps, NetworkId};
use serde::{Deserialize, Serialize};

/// Traffic-model configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Seed for the model's random draws.
    pub seed: u64,
    /// Average total inbound transit rate (paper's figure 5b: RedIRIS
    /// inbound transit averages a handful of Gbps, peaking near 10).
    pub total_inbound: Bps,
    /// Average total outbound transit rate.
    pub total_outbound: Bps,
    /// Power-law slope of the rank-size body.
    pub alpha: f64,
    /// Fraction of contributors before the bend (paper: ~20,000 of 29,570).
    pub knee_fraction: f64,
    /// How far below the knee rate the last-ranked contributor sits.
    pub tail_drop: f64,
    /// Extra per-continent affinity multipliers beyond the distance decay —
    /// e.g. the strong Spain ↔ Latin-America traffic relationship that makes
    /// Terremark a top offload venue for RedIRIS despite the distance.
    pub continent_boosts: Vec<(Continent, f64)>,
    /// Per-country dampers/boosts layered on top (the Spain ↔ Spanish-
    /// America tie is linguistic: Brazil participates far less).
    pub country_boosts: Vec<(String, f64)>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0,
            total_inbound: Bps::from_gbps(6.5),
            total_outbound: Bps::from_gbps(3.2),
            alpha: 0.85,
            knee_fraction: 0.67,
            tail_drop: 40.0,
            continent_boosts: vec![(Continent::SouthAmerica, 6.0)],
            country_boosts: vec![("Brazil".to_string(), 0.4), ("Russia".to_string(), 0.25)],
        }
    }
}

/// Average per-network contributions, indexed by `NetworkId`.
/// Non-contributors (the vantage itself and networks reached off-transit)
/// hold zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Contributions {
    /// Average inbound rate the study network receives from each origin.
    pub inbound: Vec<Bps>,
    /// Average outbound rate the study network sends to each destination.
    pub outbound: Vec<Bps>,
}

impl Contributions {
    /// Heap bytes held by the two per-network rate columns, by capacity.
    pub fn plane_bytes(&self) -> u64 {
        ((self.inbound.capacity() + self.outbound.capacity()) * std::mem::size_of::<Bps>()) as u64
    }

    /// Total inbound transit traffic.
    pub fn total_inbound(&self) -> Bps {
        self.inbound.iter().copied().sum()
    }

    /// Total outbound transit traffic.
    pub fn total_outbound(&self) -> Bps {
        self.outbound.iter().copied().sum()
    }

    /// Networks with a nonzero contribution in either direction — the
    /// paper's "29,570 networks that are origins of the inbound traffic or
    /// destinations of the outbound traffic".
    pub fn contributors(&self) -> usize {
        self.inbound
            .iter()
            .zip(&self.outbound)
            .filter(|(i, o)| i.0 > 0.0 || o.0 > 0.0)
            .count()
    }

    /// Contribution of one network.
    pub fn of(&self, id: NetworkId) -> (Bps, Bps) {
        (self.inbound[id.index()], self.outbound[id.index()])
    }
}

/// Outbound-destination weight scale by type: where the study network's
/// own bytes go. An NREN's outbound traffic (served content, research data)
/// terminates overwhelmingly in eyeball networks.
fn outbound_scale(kind: AsType) -> f64 {
    match kind {
        AsType::Access => 8.0,
        AsType::Transit => 2.0,
        AsType::Hosting => 1.5,
        AsType::Content => 1.0,
        AsType::Enterprise => 1.0,
        AsType::Tier1 => 3.0,
        AsType::Nren => 1.0,
        AsType::Cdn => 0.5,
    }
}

/// Inbound-origin weight scale by type: who sends eyeball-bound bytes.
fn inbound_scale(kind: AsType) -> f64 {
    match kind {
        AsType::Cdn => 25.0,
        AsType::Content => 12.0,
        AsType::Hosting => 5.0,
        AsType::Transit => 2.5,
        AsType::Access => 0.8,
        // Tier-1s originate sizeable service traffic of their own
        // (backbone-hosted services, aggregated customer-origin flows the
        // path attribution credits to them); since tier-1s are excluded
        // peer candidates, this mass is never offloadable — one reason the
        // paper's maximal offload stops near 25-33%.
        AsType::Tier1 => 12.0,
        AsType::Nren => 1.0,
        AsType::Enterprise => 0.15,
    }
}

/// Rank-size curve with a knee: `rank^(-alpha)` through the body, then
/// exponential decay so the tail "bends toward a faster decline"
/// (figure 5a). Returns an unnormalized rate for 1-based `rank` of `n`.
fn rank_curve(rank: usize, n: usize, cfg: &TrafficConfig) -> f64 {
    debug_assert!(rank >= 1 && rank <= n);
    let knee = ((n as f64) * cfg.knee_fraction).max(1.0);
    let body = |r: f64| r.powf(-cfg.alpha);
    if (rank as f64) <= knee {
        body(rank as f64)
    } else {
        // Decay from the knee rate down to knee_rate / tail_drop at rank n.
        let tail_len = (n as f64 - knee).max(1.0);
        let lambda = cfg.tail_drop.ln() / tail_len;
        body(knee) * (-lambda * (rank as f64 - knee)).exp()
    }
}

/// Build per-network average contributions for `vantage` under routing
/// `view`.
pub fn contributions(topo: &Topology, view: &RoutingView, cfg: &TrafficConfig) -> Contributions {
    let _sp = rp_obs::span("traffic.contributions");
    let n = topo.len();
    let vantage = view.vantage();

    // Transit-reached networks are the only possible contributors.
    let eligible: Vec<NetworkId> = topo
        .ids()
        .filter(|&id| id != vantage && view.uses_transit(topo, id))
        .collect();

    // Heavy-tailed, type-aware, geography-aware ordering weight: a study
    // network's transit traffic skews toward its own region (RedIRIS
    // exchanges most traffic with European and transatlantic networks, with
    // a visible Latin-American component — the Terremark effect of
    // figure 7).
    let vantage_loc = topo.home_city(vantage).location;
    let mut rng = seed::rng(cfg.seed, "traffic-weights", 0);
    let in_weights: Vec<f64> = eligible
        .iter()
        .map(|&id| {
            let home = topo.home_city(id);
            let km = home.location.distance_km(vantage_loc);
            let boost = cfg
                .continent_boosts
                .iter()
                .find(|(c, _)| *c == home.continent)
                .map(|(_, b)| *b)
                .unwrap_or(1.0)
                * cfg
                    .country_boosts
                    .iter()
                    .find(|(c, _)| c == home.country)
                    .map(|(_, b)| *b)
                    .unwrap_or(1.0);
            let affinity = (1.0 + 1.5 * (-km / 3_000.0).exp()) * boost;
            // Prominence carries the heavy tail so the biggest senders are
            // the same networks the membership model puts at the exchanges;
            // a mild independent factor keeps the coupling imperfect.
            let w = affinity
                * inbound_scale(topo.node(id).kind)
                * topo.node(id).prominence
                * dist::pareto(&mut rng, 1.0, 3.0).min(8.0);
            w
        })
        .collect();
    // Outbound order: same prominence and affinity drivers, but weighted by
    // who *receives* (eyeballs), plus a lognormal reshuffle so the coupling
    // with inbound stays imperfect.
    let out_weights: Vec<f64> = in_weights
        .iter()
        .zip(&eligible)
        .map(|(w, &id)| {
            let node = topo.node(id);
            let retype = outbound_scale(node.kind) / inbound_scale(node.kind);
            w * retype * dist::log_normal(&mut rng, 0.0, 0.9)
        })
        .collect();

    // Rank by weight descending, ties to the lower id (`eligible` is in id
    // order), and give rank r the rate `rank_curve(r)` scaled to the total.
    // Both directions rank the same networks, so they share one curve.
    let m = eligible.len();
    let raw: Vec<f64> = (1..=m).map(|r| rank_curve(r, m, cfg)).collect();
    let sum: f64 = raw.iter().sum();
    let assign = |weights: &[f64], total: Bps| -> Vec<Bps> {
        let mut rates = vec![Bps::ZERO; n];
        if sum > 0.0 {
            let scale = total.0 / sum;
            for (pos, r) in dist::rank_desc(weights).into_iter().zip(&raw) {
                rates[eligible[pos].index()] = Bps(r * scale);
            }
        }
        rates
    };

    Contributions {
        inbound: assign(&in_weights, cfg.total_inbound),
        outbound: assign(&out_weights, cfg.total_outbound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_topology::{generate, TopologyConfig};

    fn setup() -> (Topology, RoutingView, Contributions) {
        let topo = generate(&TopologyConfig::test_scale(51));
        let vantage = topo.of_type(AsType::Nren).next().unwrap().id;
        let view = RoutingView::new(&topo, vantage);
        let contrib = contributions(
            &topo,
            &view,
            &TrafficConfig {
                seed: 52,
                ..Default::default()
            },
        );
        (topo, view, contrib)
    }

    #[test]
    fn totals_hit_configured_targets() {
        let (_, _, c) = setup();
        assert!((c.total_inbound().as_gbps() - 6.5).abs() < 1e-6);
        assert!((c.total_outbound().as_gbps() - 3.2).abs() < 1e-6);
    }

    #[test]
    fn only_transit_reached_networks_contribute() {
        let (topo, view, c) = setup();
        for id in topo.ids() {
            let (i, o) = c.of(id);
            if id == view.vantage() || !view.uses_transit(&topo, id) {
                assert_eq!(i, Bps::ZERO);
                assert_eq!(o, Bps::ZERO);
            } else {
                assert!(i.0 > 0.0 && o.0 > 0.0);
            }
        }
    }

    #[test]
    fn rank_curve_is_monotone_with_a_bend() {
        let cfg = TrafficConfig::default();
        let n = 10_000;
        let rates: Vec<f64> = (1..=n).map(|r| rank_curve(r, n, &cfg)).collect();
        for w in rates.windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "monotone decreasing");
        }
        // The tail declines faster (log slope steeper after the knee).
        let knee = (n as f64 * cfg.knee_fraction) as usize;
        let slope = |a: usize, b: usize| (rates[b].ln() - rates[a].ln()) / ((b - a) as f64);
        let body_slope = slope(knee / 2, knee - 1);
        let tail_slope = slope(knee + 1, n - 1);
        assert!(
            tail_slope < body_slope,
            "tail {tail_slope} must fall faster than body {body_slope}"
        );
    }

    #[test]
    fn cdns_and_content_dominate_the_top_of_inbound() {
        let (topo, _, c) = setup();
        let mut ranked: Vec<(Bps, NetworkId)> =
            topo.ids().map(|id| (c.inbound[id.index()], id)).collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let top10_content = ranked[..10]
            .iter()
            .filter(|(_, id)| {
                matches!(
                    topo.node(*id).kind,
                    AsType::Cdn | AsType::Content | AsType::Hosting
                )
            })
            .count();
        assert!(
            top10_content >= 5,
            "{top10_content}/10 content-ish at the top"
        );
    }

    #[test]
    fn contributions_are_deterministic() {
        let topo = generate(&TopologyConfig::test_scale(51));
        let vantage = topo.of_type(AsType::Nren).next().unwrap().id;
        let view = RoutingView::new(&topo, vantage);
        let cfg = TrafficConfig {
            seed: 99,
            ..Default::default()
        };
        let a = contributions(&topo, &view, &cfg);
        let b = contributions(&topo, &view, &cfg);
        assert_eq!(a.inbound, b.inbound);
        assert_eq!(a.outbound, b.outbound);
    }

    #[test]
    fn contributor_count_matches_transit_reach() {
        let (topo, view, c) = setup();
        let transit_reached = topo
            .ids()
            .filter(|&id| id != view.vantage() && view.uses_transit(&topo, id))
            .count();
        assert_eq!(c.contributors(), transit_reached);
    }
}
