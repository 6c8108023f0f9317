#!/usr/bin/env python3
"""Perf-regression sentinel over `repro bench` result files.

Compares a fresh bench result against one or more committed baselines
(`BENCH_*.json` at the repository root) and fails when a gated benchmark
slowed past the tolerance.

Raw ns/op is only comparable on one host, and CI hosts drift. The
sentinel therefore normalizes every bench by the same file's
`event_queue_spread` ns/op — a pure CPU/allocator microbench that acts as
a machine-speed unit — so what is compared is "how many queue-ops does
one op of this bench cost", which is stable across hosts. The
`event_queue_*` microbenches themselves are the normalizer family, so
they are excluded from the gate and reported informationally; pass
`--raw` to skip normalization for a strictly same-host comparison.

With several baselines the per-bench reference is the median, and the
effective tolerance widens to the baselines' own relative spread when
that spread exceeds `--tolerance` — a bench whose baselines disagree by
30% cannot be gated at 15%.

Exit codes: 0 ok (or `--warn-only`), 1 regression, 2 usage/IO error.

`--self-test` runs two checks and ignores the positional arguments:
a synthetic 20% `probe_all` regression that must be flagged, and the
repository's committed BENCH_5.json → BENCH_6.json pair (different
hosts) that must pass under normalization.
"""

import argparse
import copy
import json
import os
import sys

NORMALIZER = "event_queue_spread"
# The normalizer family: these *are* the measuring stick, so they cannot
# be gated by it. Reported informationally only.
UNGATED_PREFIX = "event_queue_"
DEFAULT_TOLERANCE = 0.15


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_trend: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return doc


def bench_map(doc, label):
    if doc.get("schema") != "rp-bench/1":
        print(
            f"check_bench_trend: {label}: unexpected schema {doc.get('schema')!r}",
            file=sys.stderr,
        )
        sys.exit(2)
    out = {}
    for row in doc.get("benches", []):
        ns = row.get("ns_per_op")
        if not isinstance(ns, (int, float)) or ns <= 0:
            print(
                f"check_bench_trend: {label}: bad ns_per_op for {row.get('name')!r}",
                file=sys.stderr,
            )
            sys.exit(2)
        out[row["name"]] = float(ns)
    if not out:
        print(f"check_bench_trend: {label}: no benches", file=sys.stderr)
        sys.exit(2)
    return out


def normalize(benches, label):
    unit = benches.get(NORMALIZER)
    if unit is None:
        print(
            f"check_bench_trend: {label}: normalizer {NORMALIZER} missing "
            "(use --raw for same-host comparisons)",
            file=sys.stderr,
        )
        sys.exit(2)
    return {name: ns / unit for name, ns in benches.items()}


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    if len(xs) % 2:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2


def run_gate(new_map, base_maps, tolerance, out=sys.stdout):
    """Compare `new_map` against per-bench medians of `base_maps`.

    Returns the list of regressed bench names; prints one line per bench.
    """
    regressed = []
    names = sorted(new_map)
    width = max((len(n) for n in names), default=10) + 2
    for name in names:
        refs = [b[name] for b in base_maps if name in b]
        if not refs:
            print(f"{name:<{width}} (new bench, no baseline)", file=out)
            continue
        ref = median(refs)
        spread = (max(refs) - min(refs)) / ref if len(refs) > 1 and ref > 0 else 0.0
        eff_tol = max(tolerance, spread)
        ratio = new_map[name] / ref
        if name.startswith(UNGATED_PREFIX):
            verdict = f"info (normalizer family, not gated)"
        elif ratio > 1 + eff_tol:
            verdict = f"REGRESSION (past {eff_tol:.0%})"
            regressed.append(name)
        elif ratio < 1 - eff_tol:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<{width}} {ratio:7.3f}x  {verdict}", file=out)
    for name in sorted(set().union(*base_maps) - set(new_map)):
        print(f"{name:<{width}} (baseline only, retired)", file=out)
    return regressed


def compare_files(new_path, base_paths, tolerance, raw):
    new_doc = load(new_path)
    new_map = bench_map(new_doc, new_path)
    base_maps = [bench_map(load(p), p) for p in base_paths]
    if not raw:
        new_map = normalize(new_map, new_path)
        base_maps = [normalize(b, p) for b, p in zip(base_maps, base_paths)]
    mode = "raw" if raw else f"normalized by {NORMALIZER}"
    print(f"check_bench_trend: {new_path} vs {len(base_paths)} baseline(s), {mode}")
    return run_gate(new_map, base_maps, tolerance)


def self_test(tolerance):
    failures = []

    # 1. A synthetic 20% probe_all regression against an otherwise
    # identical baseline must be flagged.
    baseline = {
        "schema": "rp-bench/1",
        "benches": [
            {"name": "world_build", "ns_per_op": 8.0e6},
            {"name": "probe_all", "ns_per_op": 1.2e8},
            {"name": "event_queue_spread", "ns_per_op": 20.0},
            {"name": "event_queue_burst200", "ns_per_op": 21.0},
        ],
    }
    slowed = copy.deepcopy(baseline)
    for row in slowed["benches"]:
        if row["name"] == "probe_all":
            row["ns_per_op"] *= 1.20
    new_map = normalize(bench_map(slowed, "synthetic-new"), "synthetic-new")
    base_map = normalize(bench_map(baseline, "synthetic-base"), "synthetic-base")
    regressed = run_gate(new_map, [base_map], tolerance, out=open(os.devnull, "w"))
    if regressed != ["probe_all"]:
        failures.append(f"synthetic 20% probe_all regression not flagged: {regressed}")

    # 2. The committed cross-host pair must pass: the raw numbers differ
    # by ~40% (different machines) but the normalized trend is flat.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    b5 = os.path.join(root, "BENCH_5.json")
    b6 = os.path.join(root, "BENCH_6.json")
    if os.path.exists(b5) and os.path.exists(b6):
        regressed = compare_files(b6, [b5], tolerance, raw=False)
        if regressed:
            failures.append(f"committed BENCH_5 -> BENCH_6 pair regressed: {regressed}")
    else:
        failures.append("committed BENCH_5.json/BENCH_6.json not found")

    if failures:
        for f in failures:
            print(f"check_bench_trend: self-test FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("check_bench_trend: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("new", nargs="?", help="fresh bench result (rp-bench/1 JSON)")
    ap.add_argument("baselines", nargs="*", help="committed baseline files")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    ap.add_argument("--warn-only", action="store_true", help="report, never fail")
    ap.add_argument("--raw", action="store_true", help="skip normalization (same host)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test(args.tolerance)
        return
    if not args.new or not args.baselines:
        ap.error("NEW.json and at least one BASELINE.json are required")

    regressed = compare_files(args.new, args.baselines, args.tolerance, args.raw)
    if regressed:
        level = "warning" if args.warn_only else "error"
        print(
            f"check_bench_trend: {level}: {len(regressed)} regression(s): "
            f"{', '.join(regressed)}",
            file=sys.stderr,
        )
        if not args.warn_only:
            sys.exit(1)
    else:
        print("check_bench_trend: OK")


if __name__ == "__main__":
    main()
