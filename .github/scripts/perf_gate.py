#!/usr/bin/env python3
"""Fails a change that slows a stackbench kernel workload against its parent.

    python3 .github/scripts/perf_gate.py <parent-checkout> <change-checkout>

Each checkout is built and run by its own `bash stackbench/run.sh`, into its
own target directory. Every kernel workload runs PAIRS pairs of SECONDS-long
runs, alternating which side runs first, and each run's `wall_s` is read
from its `--out` report. Both sides share the runner and the minutes, so the
host's speed cancels out. A workload fails when the change is slower in at
least LOSSES of the pairs and its median `wall_s` is more than THRESHOLD
above the parent's. The CLI workloads are left out: on a 2-core shared host
`sweep-quick`'s `wall_s` and their `setup_s` spread wider than their bounds.

A failed run of the change, such as a pin mismatch, fails the gate. A failed
run of the parent prints a warning and skips the comparison: the parent was
already accepted.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("quad-mc-hv", "core-bound", "offchip-2d-hv")
PAIRS = 10
SECONDS = 3
LOSSES = 9
THRESHOLD = 0.15


def wall_s(checkout, workload, report):
    """`wall_s` of one run of `workload` in `checkout`; None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    done = subprocess.run(
        ["bash", "stackbench/run.sh", "--workload", workload,
         "--seconds", str(SECONDS), "--out", report],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        print(done.stdout[-3000:] + done.stderr[-3000:], file=sys.stderr)
        return None
    with open(report, encoding="utf-8") as f:
        (run,) = json.load(f)["workloads"]
    return run["metrics"]["wall_s"]["value"]


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <parent-checkout> <change-checkout>")
    checkouts = {"parent": os.path.abspath(sys.argv[1]),
                 "change": os.path.abspath(sys.argv[2])}
    walls = {(side, w): [] for side in checkouts for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w in WORKLOADS:
                for side in order:
                    value = wall_s(checkouts[side], w, report)
                    if value is None and side == "change":
                        print(f"::error title=perf gate::{w}: the change's stackbench run failed")
                        return 1
                    if value is None:
                        print(f"::warning title=perf gate skipped::{w}: the parent's "
                              "stackbench run failed, so there is nothing to compare with")
                        return 0
                    walls[side, w].append(value)
                print(f"pair {pair + 1}/{PAIRS} {w}: parent {walls['parent', w][-1]:.3f} s, "
                      f"change {walls['change', w][-1]:.3f} s", flush=True)

    slower = []
    for w in WORKLOADS:
        parent, change = walls["parent", w], walls["change", w]
        losses = sum(c > p for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"{w}: wall_s median parent {statistics.median(parent):.3f} s, change "
              f"{statistics.median(change):.3f} s ({(ratio - 1) * 100:+.1f} %), "
              f"change slower in {losses} of {PAIRS} pairs")
        if losses >= LOSSES and ratio > 1 + THRESHOLD:
            slower.append(w)
    if slower:
        print(f"::error title=perf gate::slower than the parent in at least {LOSSES} of "
              f"{PAIRS} pairs and by more than {THRESHOLD:.0%} in the median: "
              + ", ".join(slower))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
