#!/usr/bin/env python3
"""Count the physical lines of non-vendor Rust: the ROADMAP's size metric.

Counts every line of every `*.rs` file under `crates/`, `tests/` and
`examples/`, skipping any path that passes through `vendor/`, `rpbench/`
or `target/`. Prints one row per crate (plus `tests` and `examples`) and
the total.

    python3 scripts/rust_loc.py              # the working tree
    python3 scripts/rust_loc.py --rev HEAD~1 # a committed tree, via git

Run it at two revisions to see what a change did to the count.
"""

import argparse
import os
import subprocess
import sys
from collections import Counter

ROOTS = ("crates", "tests", "examples")
SKIP = {"vendor", "rpbench", "target"}


def counted(path):
    parts = path.split("/")
    return parts[0] in ROOTS and path.endswith(".rs") and not SKIP & set(parts)


def group(path):
    parts = path.split("/")
    return f"crates/{parts[1]}" if parts[0] == "crates" else parts[0]


def lines(data):
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


def worktree_files(repo):
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo, root)):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP)
            for name in filenames:
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, repo).replace(os.sep, "/")
                if counted(rel):
                    with open(full, "rb") as f:
                        yield rel, f.read()


def rev_files(repo, rev):
    def git(*args):
        return subprocess.run(
            ["git", "-C", repo, *args], check=True, capture_output=True
        ).stdout

    for rel in git("ls-tree", "-r", "--name-only", rev, "--", *ROOTS).decode().splitlines():
        if counted(rel):
            yield rel, git("show", f"{rev}:{rel}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="count this git revision instead of the working tree")
    args = ap.parse_args()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = rev_files(repo, args.rev) if args.rev else worktree_files(repo)
    per = Counter()
    for rel, data in files:
        per[group(rel)] += lines(data)
    width = max((len(g) for g in per), default=5)
    for g in sorted(per):
        print(f"{g:<{width}}  {per[g]:>7}")
    print(f"{'total':<{width}}  {sum(per.values()):>7}")


if __name__ == "__main__":
    sys.exit(main())
