#!/usr/bin/env python3
"""CI gate for the `repro --report` run report.

Fails (exit 1) when the report is missing or malformed, when any recorded
span has a zero event count, when a span that must be present for a full
`all` run is absent, when the filter funnel does not balance, or when the
per-kind event counters are missing or do not sum to the event total. Mirrors
the assertions of tests/report_schema.rs so a broken report fails CI even
if someone runs the repro step without the test suite.
"""

import json
import sys

# Spans that a full `repro all --scale test` run must record.
REQUIRED_SPANS = [
    "repro.run",
    "core.world.build",
    "core.campaign.probe_all",
    "core.campaign.probe_ixp",
    "core.filters.analyze_ixp",
    "core.offload.ranking",
    "core.offload.greedy",
    "netsim.run",
    "econ.fit.decay",
]

# The run report's schema is closed: a key nobody validates is a key
# nobody can trust, so an unknown top-level section fails the gate.
ALLOWED_TOP_LEVEL = {"meta", "world", "filter_funnel", "timelines", "spans", "metrics", "check"}

# Timeline series a full `repro all` run must record.
REQUIRED_SERIES = [
    "netsim.events",
    "netsim.queue_depth",
    "core.filter_funnel.probed",
    "core.filter_funnel.analyzed",
]

# Per-kind event counters; together they must account for every
# dispatched event (netsim.sim.events_processed).
EVENT_KIND_COUNTERS = [
    "netsim.sim.events.arp_request",
    "netsim.sim.events.arp_reply",
    "netsim.sim.events.icmp_echo_request",
    "netsim.sim.events.icmp_echo_reply",
    "netsim.sim.events.icmp_other",
    "netsim.sim.events.timer",
]

errors = []


def check_event_kinds(metrics):
    def value(name):
        v = metrics.get(name, {}).get("value")
        if not isinstance(v, int):
            errors.append(f"counter {name} missing")
            return None
        return v

    total = value("netsim.sim.events_processed")
    kinds = [value(name) for name in EVENT_KIND_COUNTERS]
    if total is None or None in kinds:
        return
    if sum(kinds) != total:
        errors.append(
            f"event kinds sum to {sum(kinds)}, not netsim.sim.events_processed {total}"
        )


def check_timelines(tl):
    if not isinstance(tl, dict):
        errors.append("timelines section is not an object")
        return
    bucket_ns = tl.get("bucket_ns")
    if not isinstance(bucket_ns, int) or bucket_ns <= 0:
        errors.append(f"timelines.bucket_ns must be a positive integer, got {bucket_ns!r}")
    series = tl.get("series")
    if not isinstance(series, dict) or not series:
        errors.append("timelines.series must be a non-empty object")
        return
    for name, s in series.items():
        if s.get("kind") not in ("rate", "level"):
            errors.append(f"series {name}: bad kind {s.get('kind')!r}")
        if s.get("axis") not in ("sim_time", "index"):
            errors.append(f"series {name}: bad axis {s.get('axis')!r}")
        points = s.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"series {name}: points must be a non-empty list")
            continue
        last = -1
        for p in points:
            if (
                not isinstance(p, list)
                or len(p) != 2
                or not isinstance(p[0], int)
                or not isinstance(p[1], int)
            ):
                errors.append(f"series {name}: malformed point {p!r}")
                break
            if p[0] <= last:
                errors.append(f"series {name}: points not strictly sorted at {p[0]}")
                break
            last = p[0]
    for required in REQUIRED_SERIES:
        if required not in series:
            errors.append(f"required timeline series {required} missing")


def walk(node, parent_window, seen):
    name = node["name"]
    seen.add(name)
    if node["count"] < 1:
        errors.append(f"span {name}: zero events recorded")
    if node["window_ns"] > parent_window:
        errors.append(
            f"span {name}: window {node['window_ns']}ns exceeds parent {parent_window}ns"
        )
    if node["self_ns"] > node["total_ns"]:
        errors.append(f"span {name}: self time exceeds total")
    for child in node["children"]:
        walk(child, node["window_ns"], seen)


def main(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        errors.append(f"report missing: {e}")
        return
    except ValueError as e:
        errors.append(f"report does not parse: {e}")
        return

    unknown = set(report) - ALLOWED_TOP_LEVEL
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")

    if "timelines" not in report:
        errors.append("timelines section missing")
    else:
        check_timelines(report["timelines"])

    seen = set()
    spans = report.get("spans", [])
    if not spans:
        errors.append("no spans recorded")
    for root in spans:
        walk(root, float("inf"), seen)
    for required in REQUIRED_SPANS:
        if required not in seen:
            errors.append(f"required span {required} missing")

    funnel = report.get("filter_funnel")
    if not isinstance(funnel, dict):
        errors.append("filter_funnel section missing")
    else:
        discarded = sum(funnel["discards"].values())
        if funnel["probed"] != funnel["analyzed"] + discarded:
            errors.append(
                f"funnel does not balance: {funnel['probed']} probed vs "
                f"{funnel['analyzed']} analyzed + {discarded} discarded"
            )
        if funnel["probed"] == 0:
            errors.append("funnel is empty for a full detection run")

    metrics = report.get("metrics", {})
    hits = metrics.get("core.offload.cone_cache.hits", {})
    if hits.get("value", 0) == 0:
        errors.append("cone cache recorded no hits across the sweeps")
    check_event_kinds(metrics)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: check_run_report.py RUN_REPORT_JSON", file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
    if errors:
        for e in errors:
            print(f"check_run_report: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"check_run_report: {sys.argv[1]} OK")
