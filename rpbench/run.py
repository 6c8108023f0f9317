#!/usr/bin/env python3
"""Build the benchmark and the `repro` server from source, then run one workload.

    python3 rpbench/run.py --workload <paper_study|dense_sharded|serve_mix> \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Binaries land in
$CARGO_TARGET_DIR (default `.bench_build` in the checkout); the served
results directory lives there too. Exits nonzero, without a result, when
the checkout has no sources to build, when a build fails, when an output
check fails, or when the run overstays its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_study", "dense_sharded", "serve_mix")
# Hard wall-clock limit of one measured run, set-up and checks included.
RUN_LIMIT_S = 170


def fail(msg, code=2):
    print(f"rpbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cargo_build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--offline", "--release", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", done.returncode or 1)


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "--short=12", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    for need in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} at {ROOT}: run from the root of a full checkout")

    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    cargo_build(["-p", "rp-bench", "--bin", "repro"], target)
    cargo_build(["--manifest-path", os.path.join("rpbench", "Cargo.toml")], target)

    scratch = os.path.join(target, "rpbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "rpbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--repro", os.path.join(release, "repro"),
        "--scratch", scratch,
        "--rev", revision(),
    ]
    env = {k: v for k, v in os.environ.items() if k != "RAYON_NUM_THREADS"}
    # A session of its own, so a run that overstays its limit can be
    # stopped together with the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run did not finish within {RUN_LIMIT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
