//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] names axes of parameter overrides; its cross product
//! is the grid of [`Cell`]s a sweep evaluates. Parameters come in two
//! kinds:
//!
//! - **world parameters** (pathology rates, remote-provider structure,
//!   vantage city) change the generated world, so cells differing in them
//!   need separate builds and probing campaigns;
//! - **method parameters** (remoteness threshold, filter mask, peer-group
//!   assumption) only reinterpret existing probe samples, so cells
//!   differing *only* in them share one world per replicate.
//!
//! The vendored `serde` is a no-op marker shim, so specs are parsed by
//! hand from [`serde_json::Value`] — which also gives error messages
//! anchored to the offending key instead of a generic derive failure.

use remote_peering::filters::{Discard, FilterConfig};
use remote_peering::ixp::membership::PathologyRates;
use remote_peering::metrics::MethodParams;
use remote_peering::offload::PeerGroup;
use remote_peering::world::WorldConfig;
use rp_types::geo::WORLD_CITIES;
use serde_json::{json, Value};

/// Error from parsing or validating a scenario spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong, with the offending key/value named.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        message: message.into(),
    })
}

/// A sweepable parameter: an override over the world configuration or the
/// analysis methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// Registry staleness: rate of listed addresses with no device behind
    /// them (`PathologyRates::absent`).
    StaleListingRate,
    /// Registry churn: rate of mid-campaign ASN-mapping changes
    /// (`PathologyRates::asn_change`).
    AsnChurnRate,
    /// Rate of addresses no registry source maps to an ASN
    /// (`PathologyRates::unidentifiable`).
    UnidentifiableRate,
    /// Persistent congestion: rate of congested access ports
    /// (`PathologyRates::congested`).
    CongestionRate,
    /// Transient congestion: rate of late-epoch elevated floors
    /// (`PathologyRates::late_epoch`).
    LateEpochRate,
    /// Blackholing rate (`PathologyRates::blackhole`).
    BlackholeRate,
    /// Multiplier on every IXP's remote-member share
    /// (`SceneConfig::remote_share_scale`).
    RemoteShareScale,
    /// Multiplier on pseudowire propagation delay
    /// (`SceneConfig::pseudowire_slack`).
    PseudowireSlack,
    /// The study network's home city (`WorldConfig::vantage_city`).
    VantageCity,
    /// Remoteness threshold on the minimum RTT, ms.
    ThresholdMs,
    /// Filter ablation mask: `"none"` or one filter's snake_case key.
    FilterSkip,
    /// Peer-group assumption for the offload metrics.
    PeerGroupAssumption,
}

impl Param {
    /// Every parameter, in a stable order.
    pub const ALL: [Param; 12] = [
        Param::StaleListingRate,
        Param::AsnChurnRate,
        Param::UnidentifiableRate,
        Param::CongestionRate,
        Param::LateEpochRate,
        Param::BlackholeRate,
        Param::RemoteShareScale,
        Param::PseudowireSlack,
        Param::VantageCity,
        Param::ThresholdMs,
        Param::FilterSkip,
        Param::PeerGroupAssumption,
    ];

    /// Stable snake_case key used in spec files and output labels.
    pub fn key(self) -> &'static str {
        match self {
            Param::StaleListingRate => "stale_listing_rate",
            Param::AsnChurnRate => "asn_churn_rate",
            Param::UnidentifiableRate => "unidentifiable_rate",
            Param::CongestionRate => "congestion_rate",
            Param::LateEpochRate => "late_epoch_rate",
            Param::BlackholeRate => "blackhole_rate",
            Param::RemoteShareScale => "remote_share_scale",
            Param::PseudowireSlack => "pseudowire_slack",
            Param::VantageCity => "vantage_city",
            Param::ThresholdMs => "threshold_ms",
            Param::FilterSkip => "filter_skip",
            Param::PeerGroupAssumption => "peer_group",
        }
    }

    /// Inverse of [`Param::key`].
    pub fn from_key(key: &str) -> Option<Param> {
        Param::ALL.into_iter().find(|p| p.key() == key)
    }

    /// Method parameters reinterpret existing probes; world parameters
    /// require a rebuild.
    pub fn is_method(self) -> bool {
        matches!(
            self,
            Param::ThresholdMs | Param::FilterSkip | Param::PeerGroupAssumption
        )
    }

    /// Text-valued parameters (everything else is numeric).
    pub fn is_text(self) -> bool {
        matches!(
            self,
            Param::VantageCity | Param::FilterSkip | Param::PeerGroupAssumption
        )
    }

    /// The value this parameter has in an unmodified run — the baseline arm
    /// of a sweep, when present among an axis's values.
    pub fn default_value(self) -> AxisValue {
        let rates = PathologyRates::default();
        match self {
            Param::StaleListingRate => AxisValue::Num(rates.absent),
            Param::AsnChurnRate => AxisValue::Num(rates.asn_change),
            Param::UnidentifiableRate => AxisValue::Num(rates.unidentifiable),
            Param::CongestionRate => AxisValue::Num(rates.congested),
            Param::LateEpochRate => AxisValue::Num(rates.late_epoch),
            Param::BlackholeRate => AxisValue::Num(rates.blackhole),
            Param::RemoteShareScale => AxisValue::Num(1.0),
            Param::PseudowireSlack => AxisValue::Num(1.0),
            Param::VantageCity => AxisValue::Text("Madrid".to_string()),
            Param::ThresholdMs => AxisValue::Num(remote_peering::classify::REMOTENESS_THRESHOLD_MS),
            Param::FilterSkip => AxisValue::Text("none".to_string()),
            Param::PeerGroupAssumption => AxisValue::Text("all".to_string()),
        }
    }

    fn validate_value(self, value: &AxisValue) -> Result<(), SpecError> {
        match (self.is_text(), value) {
            (true, AxisValue::Num(_)) => {
                return err(format!("{} takes string values", self.key()));
            }
            (false, AxisValue::Text(_)) => {
                return err(format!("{} takes numeric values", self.key()));
            }
            _ => {}
        }
        match (self, value) {
            (_, AxisValue::Num(x)) if !x.is_finite() || *x < 0.0 => {
                err(format!("{} = {x} must be finite and >= 0", self.key()))
            }
            (Param::ThresholdMs, AxisValue::Num(x)) if *x <= 0.0 => {
                err(format!("threshold_ms = {x} must be positive"))
            }
            (Param::VantageCity, AxisValue::Text(city)) => {
                if WORLD_CITIES.iter().any(|c| c.name == city) {
                    Ok(())
                } else {
                    err(format!("unknown vantage_city {city:?}"))
                }
            }
            (Param::FilterSkip, AxisValue::Text(s)) => {
                if s == "none" || Discard::ORDER.iter().any(|d| d.key() == s) {
                    Ok(())
                } else {
                    err(format!(
                        "unknown filter_skip {s:?} (expected \"none\" or a filter key)"
                    ))
                }
            }
            (Param::PeerGroupAssumption, AxisValue::Text(s)) => {
                if parse_peer_group(s).is_some() {
                    Ok(())
                } else {
                    err(format!(
                        "unknown peer_group {s:?} (expected open, open_top10_selective, open_selective, or all)"
                    ))
                }
            }
            _ => Ok(()),
        }
    }
}

fn parse_peer_group(s: &str) -> Option<PeerGroup> {
    match s {
        "open" => Some(PeerGroup::Open),
        "open_top10_selective" => Some(PeerGroup::OpenTop10Selective),
        "open_selective" => Some(PeerGroup::OpenSelective),
        "all" => Some(PeerGroup::All),
        _ => None,
    }
}

/// One coordinate value along an axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A numeric value (rates, multipliers, the threshold).
    Num(f64),
    /// A text value (city names, filter keys, peer groups).
    Text(String),
}

impl AxisValue {
    /// Compact human label ("10", "0.05", "Nairobi").
    pub fn label(&self) -> String {
        match self {
            AxisValue::Num(x) => format!("{x}"),
            AxisValue::Text(s) => s.clone(),
        }
    }

    /// The value as JSON.
    pub fn to_json(&self) -> Value {
        match self {
            AxisValue::Num(x) => json!(*x),
            AxisValue::Text(s) => Value::String(s.clone()),
        }
    }

    fn parse(v: &Value, param: Param) -> Result<AxisValue, SpecError> {
        if let Some(s) = v.as_str() {
            return Ok(AxisValue::Text(s.to_string()));
        }
        if let Some(x) = v.as_f64() {
            return Ok(AxisValue::Num(x));
        }
        err(format!(
            "axis {}: values must be numbers or strings",
            param.key()
        ))
    }
}

/// One axis of the sweep grid: a parameter and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The swept parameter.
    pub param: Param,
    /// The values the parameter takes, in spec order.
    pub values: Vec<AxisValue>,
    /// This axis's coordinate in the baseline arm.
    pub baseline: AxisValue,
}

/// A declarative sweep: named axes expanded into a cross-product grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Sweep name; also the output file stem (`results/sweeps/<name>.json`).
    pub name: String,
    /// One-line description echoed into the output.
    pub description: String,
    /// Replicates to run when the CLI doesn't override.
    pub default_replicates: u64,
    /// The sweep axes, in spec order.
    pub axes: Vec<Axis>,
}

/// Cap on the grid size, so a typo'd spec fails fast instead of scheduling
/// a million world builds.
pub const MAX_CELLS: usize = 4096;

impl ScenarioSpec {
    /// Parse and validate a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| SpecError {
            message: format!("JSON parse error: {e:?}"),
        })?;
        ScenarioSpec::parse(&v)
    }

    /// Parse and validate a spec from a JSON value.
    pub fn parse(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let name = match v.get("name").and_then(Value::as_str) {
            Some(n) if !n.is_empty() => n.to_string(),
            _ => return err("missing or empty \"name\""),
        };
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return err(format!(
                "name {name:?} must be lowercase [a-z0-9_-] (it becomes a file stem)"
            ));
        }
        let description = v
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let default_replicates = match v.get("replicates") {
            None => 8,
            Some(r) => match r.as_u64() {
                Some(n) if n >= 1 => n,
                _ => return err("\"replicates\" must be a positive integer"),
            },
        };
        let axes_v = match v.get("axes").and_then(Value::as_array) {
            Some(a) if !a.is_empty() => a,
            _ => return err("missing or empty \"axes\""),
        };
        let mut axes = Vec::new();
        for av in axes_v {
            let key = match av.get("param").and_then(Value::as_str) {
                Some(k) => k,
                None => return err("every axis needs a \"param\" key"),
            };
            let param = match Param::from_key(key) {
                Some(p) => p,
                None => {
                    return err(format!(
                        "unknown param {key:?} (known: {})",
                        Param::ALL.map(|p| p.key()).join(", ")
                    ));
                }
            };
            if axes.iter().any(|a: &Axis| a.param == param) {
                return err(format!("axis {key} appears twice"));
            }
            let values_v = match av.get("values").and_then(Value::as_array) {
                Some(vs) if !vs.is_empty() => vs,
                _ => return err(format!("axis {key}: missing or empty \"values\"")),
            };
            let mut values = Vec::new();
            for raw in values_v {
                let value = AxisValue::parse(raw, param)?;
                param.validate_value(&value)?;
                if values.contains(&value) {
                    return err(format!("axis {key}: duplicate value {}", value.label()));
                }
                values.push(value);
            }
            let baseline = match av.get("baseline") {
                Some(raw) => {
                    let b = AxisValue::parse(raw, param)?;
                    param.validate_value(&b)?;
                    if !values.contains(&b) {
                        return err(format!(
                            "axis {key}: baseline {} not among the values",
                            b.label()
                        ));
                    }
                    b
                }
                None => {
                    let default = param.default_value();
                    if values.contains(&default) {
                        default
                    } else {
                        values[0].clone()
                    }
                }
            };
            axes.push(Axis {
                param,
                values,
                baseline,
            });
        }
        let cells: usize = axes.iter().map(|a| a.values.len()).product();
        if cells > MAX_CELLS {
            return err(format!("grid has {cells} cells (cap: {MAX_CELLS})"));
        }
        Ok(ScenarioSpec {
            name,
            description,
            default_replicates,
            axes,
        })
    }

    /// Resolve a spec *reference* from JSON: `{"preset": "smoke"}` names a
    /// built-in preset, any other object is parsed as an inline spec. The
    /// library form of the CLI's file-or-preset argument, so services can
    /// accept sweep submissions without shelling out.
    pub fn resolve_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        if let Some(name) = v.get("preset").and_then(Value::as_str) {
            return ScenarioSpec::preset(name).ok_or_else(|| SpecError {
                message: format!(
                    "no preset named {name:?} (presets: {})",
                    ScenarioSpec::preset_names().join(", ")
                ),
            });
        }
        ScenarioSpec::parse(v)
    }

    /// A built-in preset by name.
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        PRESETS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, text)| ScenarioSpec::from_json(text).expect("presets are valid"))
    }

    /// The names of every built-in preset.
    pub fn preset_names() -> Vec<&'static str> {
        PRESETS.iter().map(|(n, _)| *n).collect()
    }

    /// Expand the axes into the cross-product grid, last axis fastest.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = vec![Cell { coords: Vec::new() }];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(out.len() * axis.values.len());
            for cell in &out {
                for value in &axis.values {
                    let mut coords = cell.coords.clone();
                    coords.push((axis.param, value.clone()));
                    next.push(Cell { coords });
                }
            }
            out = next;
        }
        out
    }

    /// The spec as JSON (echoed into sweep outputs so a result file is
    /// self-describing).
    pub fn to_json(&self) -> Value {
        let axes: Vec<Value> = self
            .axes
            .iter()
            .map(|a| {
                json!({
                    "param": a.param.key(),
                    "values": a.values.iter().map(AxisValue::to_json).collect::<Vec<_>>(),
                    "baseline": a.baseline.to_json(),
                })
            })
            .collect();
        json!({
            "name": self.name,
            "description": self.description,
            "replicates": self.default_replicates,
            "axes": axes,
        })
    }
}

/// One grid cell: a full coordinate assignment, in axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `(param, value)` per axis, in spec axis order.
    pub coords: Vec<(Param, AxisValue)>,
}

impl Cell {
    /// Human-readable label, e.g. `threshold_ms=10,filter_skip=none`.
    pub fn label(&self) -> String {
        self.coords
            .iter()
            .map(|(p, v)| format!("{}={}", p.key(), v.label()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Label restricted to world parameters: cells with equal keys share
    /// one world build + probe per replicate.
    pub fn world_key(&self) -> String {
        self.coords
            .iter()
            .filter(|(p, _)| !p.is_method())
            .map(|(p, v)| format!("{}={}", p.key(), v.label()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Is this the baseline arm (every coordinate at its axis baseline)?
    pub fn is_baseline(&self, spec: &ScenarioSpec) -> bool {
        self.coords
            .iter()
            .zip(&spec.axes)
            .all(|((_, v), axis)| *v == axis.baseline)
    }

    /// The cell's parameters as a JSON object.
    pub fn params_json(&self) -> Value {
        Value::Object(
            self.coords
                .iter()
                .map(|(p, v)| (p.key().to_string(), v.to_json()))
                .collect(),
        )
    }

    /// Apply the cell's world overrides on top of `base`.
    pub fn apply_world(&self, base: &WorldConfig) -> WorldConfig {
        let mut cfg = base.clone();
        for (param, value) in &self.coords {
            match (param, value) {
                (Param::StaleListingRate, AxisValue::Num(x)) => cfg.scene.rates.absent = *x,
                (Param::AsnChurnRate, AxisValue::Num(x)) => cfg.scene.rates.asn_change = *x,
                (Param::UnidentifiableRate, AxisValue::Num(x)) => {
                    cfg.scene.rates.unidentifiable = *x
                }
                (Param::CongestionRate, AxisValue::Num(x)) => cfg.scene.rates.congested = *x,
                (Param::LateEpochRate, AxisValue::Num(x)) => cfg.scene.rates.late_epoch = *x,
                (Param::BlackholeRate, AxisValue::Num(x)) => cfg.scene.rates.blackhole = *x,
                (Param::RemoteShareScale, AxisValue::Num(x)) => cfg.scene.remote_share_scale = *x,
                (Param::PseudowireSlack, AxisValue::Num(x)) => cfg.scene.pseudowire_slack = *x,
                (Param::VantageCity, AxisValue::Text(city)) => cfg.vantage_city = city.clone(),
                _ => {} // method params don't touch the world
            }
        }
        cfg
    }

    /// The cell's analysis-time methodology parameters.
    pub fn method_params(&self) -> MethodParams {
        let mut params = MethodParams::default();
        for (param, value) in &self.coords {
            match (param, value) {
                (Param::ThresholdMs, AxisValue::Num(x)) => params.threshold_ms = *x,
                (Param::FilterSkip, AxisValue::Text(s)) => {
                    params.filters = FilterConfig {
                        skip: Discard::ORDER.iter().copied().find(|d| d.key() == s),
                        ..FilterConfig::default()
                    };
                }
                (Param::PeerGroupAssumption, AxisValue::Text(s)) => {
                    params.peer_group = parse_peer_group(s).expect("validated at parse time");
                }
                _ => {}
            }
        }
        params
    }
}

/// Built-in presets: the sweeps EXPERIMENTS.md reports, plus the CI smoke
/// sweep. The old one-off `threshold_sweep` / `filter_ablation` experiment
/// paths are the `threshold` and `ablation` presets' baseline structure
/// expressed through this engine.
const PRESETS: [(&str, &str); 7] = [
    (
        "threshold",
        r#"{
            "name": "threshold",
            "description": "Remoteness-threshold sensitivity: precision/recall asymmetry around the paper's 10 ms choice",
            "replicates": 8,
            "axes": [
                {"param": "threshold_ms", "values": [2, 4, 6, 8, 10, 15, 20, 30, 50]}
            ]
        }"#,
    ),
    (
        "ablation",
        r#"{
            "name": "ablation",
            "description": "Filter ablation: what each of the six conservative filters buys, as a sweep arm",
            "replicates": 8,
            "axes": [
                {"param": "filter_skip", "values": ["none", "sample_size", "ttl_switch", "ttl_match", "rtt_consistent", "lg_consistent", "asn_change"]}
            ]
        }"#,
    ),
    (
        "pathology",
        r#"{
            "name": "pathology",
            "description": "Congestion sensitivity: persistent (congested ports) and transient (late-epoch floors) pathologies plus blackholing",
            "replicates": 6,
            "axes": [
                {"param": "congestion_rate", "values": [0.05, 0.15]},
                {"param": "late_epoch_rate", "values": [0.004, 0.02]},
                {"param": "blackhole_rate", "values": [0.0025, 0.02]}
            ]
        }"#,
    ),
    (
        "registry",
        r#"{
            "name": "registry",
            "description": "Registry-quality sensitivity: stale listings, ASN churn, unidentifiable addresses",
            "replicates": 6,
            "axes": [
                {"param": "stale_listing_rate", "values": [0.0025, 0.02]},
                {"param": "asn_churn_rate", "values": [0.0011, 0.01]},
                {"param": "unidentifiable_rate", "values": [0.27, 0.45]}
            ]
        }"#,
    ),
    (
        "remote",
        r#"{
            "name": "remote",
            "description": "Remote-provider market structure: share of remote members and pseudowire length",
            "replicates": 6,
            "axes": [
                {"param": "remote_share_scale", "values": [0, 0.5, 1, 2]},
                {"param": "pseudowire_slack", "values": [0.5, 1, 2]}
            ]
        }"#,
    ),
    (
        "vantage",
        r#"{
            "name": "vantage",
            "description": "Study-network location and peer-group assumption: the section 5.2 Madrid-vs-Nairobi economics inside the sweep engine",
            "replicates": 6,
            "axes": [
                {"param": "vantage_city", "values": ["Madrid", "Nairobi"]},
                {"param": "peer_group", "values": ["all", "open"]}
            ]
        }"#,
    ),
    (
        "smoke",
        r#"{
            "name": "smoke",
            "description": "Tiny method-only sweep for CI: two axes, one shared world per replicate",
            "replicates": 3,
            "axes": [
                {"param": "threshold_ms", "values": [10, 20]},
                {"param": "filter_skip", "values": ["none", "rtt_consistent"]}
            ]
        }"#,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_expand() {
        for name in ScenarioSpec::preset_names() {
            let spec = ScenarioSpec::preset(name).unwrap();
            assert_eq!(spec.name, name);
            let cells = spec.cells();
            let expected: usize = spec.axes.iter().map(|a| a.values.len()).product();
            assert_eq!(cells.len(), expected, "{name}");
            // Exactly one baseline arm per preset.
            let baselines = cells.iter().filter(|c| c.is_baseline(&spec)).count();
            assert_eq!(baselines, 1, "{name}: {baselines} baseline cells");
        }
        assert!(ScenarioSpec::preset("no_such_preset").is_none());
    }

    #[test]
    fn threshold_preset_baseline_is_the_papers_choice() {
        let spec = ScenarioSpec::preset("threshold").unwrap();
        let baseline = spec
            .cells()
            .into_iter()
            .find(|c| c.is_baseline(&spec))
            .unwrap();
        assert_eq!(baseline.label(), "threshold_ms=10");
        assert_eq!(baseline.method_params().threshold_ms, 10.0);
    }

    #[test]
    fn cross_product_orders_last_axis_fastest() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "t", "axes": [
                {"param": "threshold_ms", "values": [10, 20]},
                {"param": "filter_skip", "values": ["none", "asn_change"]}
            ]}"#,
        )
        .unwrap();
        let labels: Vec<String> = spec.cells().iter().map(Cell::label).collect();
        assert_eq!(
            labels,
            vec![
                "threshold_ms=10,filter_skip=none",
                "threshold_ms=10,filter_skip=asn_change",
                "threshold_ms=20,filter_skip=none",
                "threshold_ms=20,filter_skip=asn_change",
            ]
        );
    }

    #[test]
    fn method_only_cells_share_a_world_key() {
        let spec = ScenarioSpec::preset("smoke").unwrap();
        let keys: std::collections::HashSet<String> =
            spec.cells().iter().map(Cell::world_key).collect();
        assert_eq!(keys.len(), 1, "smoke is method-only");
        let spec = ScenarioSpec::preset("remote").unwrap();
        let keys: std::collections::HashSet<String> =
            spec.cells().iter().map(Cell::world_key).collect();
        assert_eq!(keys.len(), 12, "every remote cell rebuilds its world");
    }

    #[test]
    fn world_overrides_land_in_the_config() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "w", "axes": [
                {"param": "remote_share_scale", "values": [0.5]},
                {"param": "congestion_rate", "values": [0.2]},
                {"param": "vantage_city", "values": ["Nairobi"]}
            ]}"#,
        )
        .unwrap();
        let cell = &spec.cells()[0];
        let cfg = cell.apply_world(&WorldConfig::test_scale(7));
        assert_eq!(cfg.scene.remote_share_scale, 0.5);
        assert_eq!(cfg.scene.rates.congested, 0.2);
        assert_eq!(cfg.vantage_city, "Nairobi");
        // Method params stay at their defaults.
        assert_eq!(cell.method_params().threshold_ms, 10.0);
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        let cases = [
            (r#"{"axes": []}"#, "name"),
            (r#"{"name": "x", "axes": []}"#, "axes"),
            (
                r#"{"name": "x", "axes": [{"param": "bogus", "values": [1]}]}"#,
                "bogus",
            ),
            (
                r#"{"name": "x", "axes": [{"param": "threshold_ms", "values": [0]}]}"#,
                "positive",
            ),
            (
                r#"{"name": "x", "axes": [{"param": "vantage_city", "values": ["Atlantis"]}]}"#,
                "Atlantis",
            ),
            (
                r#"{"name": "x", "axes": [{"param": "filter_skip", "values": ["everything"]}]}"#,
                "filter_skip",
            ),
            (
                r#"{"name": "x", "axes": [{"param": "threshold_ms", "values": [10, 10]}]}"#,
                "duplicate",
            ),
            (
                r#"{"name": "x", "axes": [
                    {"param": "threshold_ms", "values": [10]},
                    {"param": "threshold_ms", "values": [20]}
                ]}"#,
                "twice",
            ),
            (
                r#"{"name": "x", "axes": [{"param": "threshold_ms", "values": [10], "baseline": 20}]}"#,
                "baseline",
            ),
            (
                r#"{"name": "UPPER", "axes": [{"param": "threshold_ms", "values": [10]}]}"#,
                "lowercase",
            ),
        ];
        for (text, needle) in cases {
            let e = ScenarioSpec::from_json(text).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{text}: error {:?} should mention {needle:?}",
                e.message
            );
        }
    }

    #[test]
    fn resolve_value_accepts_presets_and_inline_specs() {
        let preset = serde_json::from_str(r#"{"preset": "smoke"}"#).unwrap();
        assert_eq!(ScenarioSpec::resolve_value(&preset).unwrap().name, "smoke");
        let bogus = serde_json::from_str(r#"{"preset": "nope"}"#).unwrap();
        let e = ScenarioSpec::resolve_value(&bogus).unwrap_err();
        assert!(e.message.contains("nope"), "{}", e.message);
        let inline = serde_json::from_str(
            r#"{"name": "t", "axes": [{"param": "threshold_ms", "values": [5]}]}"#,
        )
        .unwrap();
        assert_eq!(ScenarioSpec::resolve_value(&inline).unwrap().name, "t");
    }

    #[test]
    fn defaults_match_the_unmodified_pipeline() {
        use remote_peering::ixp::membership::PathologyRates;
        let rates = PathologyRates::default();
        assert_eq!(
            Param::CongestionRate.default_value(),
            AxisValue::Num(rates.congested)
        );
        assert_eq!(
            Param::StaleListingRate.default_value(),
            AxisValue::Num(rates.absent)
        );
        let base = WorldConfig::test_scale(1);
        assert_eq!(
            Param::VantageCity.default_value(),
            AxisValue::Text(base.vantage_city)
        );
    }
}
