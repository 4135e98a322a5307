#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs a small set of operations (one round of reduce-shipped, one
simulate, one battery instance) once plain and twice traced, and checks
that
  * the traced runs write byte-identical outputs to the plain run, and
  * every per-layer count (``*.calls``, ``*.evals``, ``*.size`` and the
    quad.integrate totals) repeats exactly between the two traced runs.
Exits 0 when both hold.
"""

from __future__ import annotations

import shutil
import sys

import layers
import run
import workloads


def _counts(totals: dict) -> dict:
    return {k: v for k, v in totals.items()
            if k.endswith((".calls", ".evals", ".size")) or k.startswith("quad.")}


def selected_ops() -> list:
    ops = list(workloads.reduce_shipped(run.ROOT, run.WORK, 0).ops)
    ops += workloads.simulate_dense(run.ROOT, run.WORK, 0).ops[:1]
    ops += workloads.battery_check(run.ROOT, run.WORK, 0).ops[:2]
    return ops


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    opdir = run.WORK / "selftest"
    problems = []
    launcher = run.Launcher()
    try:
        for op in selected_ops():
            plain = run.run_op(launcher, op, opdir, traced=False)
            traced = [run.run_op(launcher, op, opdir, traced=True) for _ in range(2)]
            if plain["failure"]:
                problems.append(f"{op.id}: {plain['failure']}")
            for t in traced:
                if t["digests"] != plain["digests"]:
                    problems.append(f"{op.id}: traced output differs from plain output")
            counts = [_counts(layers.op_totals(t["spans"])) for t in traced
                      if t.get("spans")]
            if len(counts) != 2:
                problems.append(f"{op.id}: traced run wrote no spans")
            elif counts[0] != counts[1]:
                diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                              if counts[0].get(k) != counts[1].get(k))
                problems.append(f"{op.id}: counts differ between traced runs: {diff}")
            traced_ms = ", ".join("%.0f" % t["ms"] for t in traced)
            print(f"{op.id}: {plain['ms']:.0f} ms plain, {traced_ms} ms traced",
                  file=sys.stderr)
    finally:
        launcher.close()
        shutil.rmtree(opdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
