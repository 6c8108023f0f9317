//! Deterministic structure-aware fuzzing of the JSON surfaces.
//!
//! No external fuzzer: a seeded corpus (every scenario preset's canonical
//! JSON plus regression cases from previously fixed parser bugs) is run
//! through seeded structural mutations — truncation, byte splices, digit
//! inflation, surrogate-escape injection, deep-nest wrapping — and each
//! mutant is fed to the vendored [`serde_json::from_str`] and to
//! [`rp_scenario::ScenarioSpec::from_json`] under `catch_unwind`. `Ok` and
//! clean `Err` are both fine; a panic is a finding. The iteration count is
//! the only knob, so `repro check --fuzz N` replays bit-identically.

use rand::rngs::StdRng;
use rand::RngExt;
use rp_scenario::ScenarioSpec;
use rp_types::seed;
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome tallies of one fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Mutants executed (per target).
    pub iterations: u64,
    /// Inputs each target accepted.
    pub accepted: Vec<(&'static str, u64)>,
    /// Inputs each target rejected with a clean error.
    pub rejected: Vec<(&'static str, u64)>,
    /// Panics caught, rendered as `target: message (input prefix)`.
    pub panics: Vec<String>,
}

impl FuzzReport {
    /// Report rendering.
    pub fn to_json(&self) -> Value {
        let tally = |v: &[(&'static str, u64)]| {
            Value::Object(
                v.iter()
                    .map(|(name, n)| (name.to_string(), json!(n)))
                    .collect(),
            )
        };
        json!({
            "iterations": self.iterations,
            "accepted": tally(&self.accepted),
            "rejected": tally(&self.rejected),
            "panics": Value::Array(self.panics.iter().map(|p| json!(p)).collect()),
        })
    }
}

/// The seed corpus: every preset's canonical JSON, a hand-written minimal
/// spec, and one regression case per parser bug previously fixed in the
/// vendored `serde_json` (deep nesting, lone surrogates, overflowing
/// numbers) so those inputs are re-attacked on every run.
pub fn corpus() -> Vec<String> {
    let mut out: Vec<String> = ScenarioSpec::preset_names()
        .into_iter()
        .filter_map(ScenarioSpec::preset)
        .map(|s| serde_json::to_string(&s.to_json()).expect("preset renders"))
        .collect();
    out.push(r#"{"name":"tiny","base":{},"axes":[]}"#.to_string());
    // Regression: unbounded recursion used to overflow the parser stack.
    out.push(format!("{}1{}", "[".repeat(200), "]".repeat(200)));
    // Regression: a lone high surrogate used to produce an invalid char.
    out.push(r#"{"s":"\uD800"}"#.to_string());
    out.push(r#"{"s":"𝄞"}"#.to_string());
    // Regression: overflow to infinity used to slip through as a value.
    out.push(r#"{"n":1e999,"m":-1e999,"k":123456789012345678901234567890}"#.to_string());
    out
}

/// One seeded structural mutation of `input`.
fn mutate(rng: &mut StdRng, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    let rounds = 1 + rng.random_range(0..3usize);
    for _ in 0..rounds {
        if bytes.is_empty() {
            bytes.extend_from_slice(b"{}");
        }
        match rng.random_range(0..8u32) {
            // Truncate at a random point.
            0 => {
                let at = rng.random_range(0..bytes.len());
                bytes.truncate(at);
            }
            // Splice a random byte in.
            1 => {
                let at = rng.random_range(0..(bytes.len() + 1));
                bytes.insert(at, (rng.random::<u64>() & 0xff) as u8);
            }
            // Delete a random range.
            2 => {
                let from = rng.random_range(0..bytes.len());
                let to = (from + 1 + rng.random_range(0..8usize)).min(bytes.len());
                bytes.drain(from..to);
            }
            // Duplicate a random slice (repeats keys, brackets, commas).
            3 => {
                let from = rng.random_range(0..bytes.len());
                let to = (from + 1 + rng.random_range(0..12usize)).min(bytes.len());
                let slice: Vec<u8> = bytes[from..to].to_vec();
                let at = rng.random_range(0..(bytes.len() + 1));
                bytes.splice(at..at, slice);
            }
            // Inflate a digit run (number overflow territory).
            4 => {
                if let Some(pos) = bytes.iter().position(|b| b.is_ascii_digit()) {
                    let extra = 1 + rng.random_range(0..320usize);
                    let digits: Vec<u8> = (0..extra)
                        .map(|_| b'0' + (rng.random::<u64>() % 10) as u8)
                        .collect();
                    bytes.splice(pos..pos, digits);
                }
            }
            // Inject an escape sequence into string territory.
            5 => {
                const ESCAPES: [&[u8]; 5] = [
                    br"\uD800",
                    br"\uDC00",
                    "\u{ffff}".as_bytes(),
                    br"\x",
                    br"\u12",
                ];
                let esc = ESCAPES[rng.random_range(0..ESCAPES.len())];
                let at = rng.random_range(0..(bytes.len() + 1));
                bytes.splice(at..at, esc.iter().copied());
            }
            // Wrap in deep nesting (sometimes past the parser's cap).
            6 => {
                let depth = 1 + rng.random_range(0..200usize);
                let mut wrapped = Vec::with_capacity(bytes.len() + 2 * depth);
                wrapped.extend(std::iter::repeat(b'[').take(depth));
                wrapped.extend_from_slice(&bytes);
                wrapped.extend(std::iter::repeat(b']').take(depth));
                bytes = wrapped;
            }
            // Flip one byte to a structural character.
            _ => {
                const STRUCT: [u8; 8] = [b'{', b'}', b'[', b']', b':', b',', b'"', b'\\'];
                let at = rng.random_range(0..bytes.len());
                bytes[at] = STRUCT[rng.random_range(0..STRUCT.len())];
            }
        }
    }
    // Parsers take &str, so mutants must be valid UTF-8; lossy conversion
    // keeps the structural damage while fixing up the encoding.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `n` seeded mutants of entries of the non-empty `corpus`: the same
/// arguments always yield the same inputs (`rp-server` fuzzes job
/// envelopes with it).
pub fn mutants(master_seed: u64, corpus: &[String], n: u64) -> impl Iterator<Item = String> + '_ {
    (0..n).map(move |i| {
        let mut rng = seed::rng2(master_seed, "fuzz", i, 0);
        let base = &corpus[rng.random_range(0..corpus.len())];
        mutate(&mut rng, base)
    })
}

/// A named parse target: consumes the input, returns whether it accepted.
pub type FuzzTarget<'a> = (&'static str, &'a dyn Fn(&str) -> bool);

/// Fuzz arbitrary targets. Exposed so the tests can aim the machinery at
/// a deliberately panicking parser and watch it get caught.
pub fn run_targets(master_seed: u64, iterations: u64, targets: &[FuzzTarget<'_>]) -> FuzzReport {
    let corpus = corpus();
    let mut report = FuzzReport {
        iterations,
        accepted: targets.iter().map(|(n, _)| (*n, 0)).collect(),
        rejected: targets.iter().map(|(n, _)| (*n, 0)).collect(),
        panics: Vec::new(),
    };
    // A caught panic still prints the default hook's backtrace; silence it
    // for the duration of the (strictly serial) fuzz loop.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for input in mutants(master_seed, &corpus, iterations) {
        for (t, (name, target)) in targets.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| target(&input))) {
                Ok(true) => report.accepted[t].1 += 1,
                Ok(false) => report.rejected[t].1 += 1,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let prefix: String = input.chars().take(80).collect();
                    report
                        .panics
                        .push(format!("{name}: panicked: {msg} (input: {prefix})"));
                }
            }
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

/// Fuzz the production surfaces: the vendored JSON parser and the
/// scenario-spec parser layered on it.
pub fn run(master_seed: u64, iterations: u64) -> FuzzReport {
    run_targets(
        master_seed,
        iterations,
        &[
            ("serde_json::from_str", &|s: &str| {
                serde_json::from_str(s).is_ok()
            }),
            ("ScenarioSpec::from_json", &|s: &str| {
                ScenarioSpec::from_json(s).is_ok()
            }),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic() {
        let a = run(42, 150);
        let b = run(42, 150);
        assert_eq!(a, b);
        let c = run(43, 150);
        assert_ne!(a, c, "different seeds should explore different mutants");
    }

    #[test]
    fn production_parsers_survive_the_corpus() {
        let report = run(42, 300);
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        // The mutator must exercise both outcomes, or it is too tame /
        // too destructive to mean anything.
        for t in 0..2 {
            assert!(report.rejected[t].1 > 0, "nothing rejected: {report:?}");
        }
        assert!(
            report.accepted[0].1 > 0,
            "no mutant stayed valid JSON: {report:?}"
        );
    }

    #[test]
    fn a_panicking_parser_is_caught() {
        let bomb = |s: &str| -> bool {
            if s.contains('7') {
                panic!("boom on digit");
            }
            true
        };
        let report = run_targets(42, 60, &[("bomb", &bomb)]);
        assert!(
            !report.panics.is_empty(),
            "the corpus is full of digits; the bomb must trip"
        );
        assert!(report.panics[0].contains("boom on digit"));
    }

    #[test]
    fn corpus_keeps_the_regression_cases() {
        let c = corpus();
        assert!(c.iter().any(|s| s.contains(r"\uD800")));
        assert!(c.iter().any(|s| s.contains("1e999")));
        assert!(c.iter().any(|s| s.starts_with("[[")));
    }
}
