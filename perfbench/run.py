#!/usr/bin/env python3
"""End-to-end benchmark of the idepca command line interface.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py.  Each operation is one fresh
``python3 -m idepca.cli`` process, started only after the previous one
has exited (a closed loop with one client), and timed from spawn to
exit, so nothing cached in one process helps the next.  Every output is
checked against the references in oracle.py.

--trace 0 reports the end-to-end metrics; --trace 1 runs each operation
twice, plain and under tracer.py, and reports the per-layer metrics.
The last line of standard output is the result as JSON.  A summary with
sample counts goes to standard error, and the full record (every
operation with its exit code, time, peak memory, output digests and
failure reason) to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Times are scaled to the speed at which calibrate.py takes this long, by
# the calibration runs on either side of each measured process: on a
# shared machine the raw speed drifts by a third within minutes.
REFERENCE_CAL_MS = 50.0
CAL_SPAN_MS = 400.0
CAL_REPS_MAX = 8
# stop starting operations once one could end past this many seconds
WALL_BUDGET_S = 150.0
# a tail percentile needs ten samples beyond it; below this many samples
# it would fall under the median (see latency_summary)
TAIL_MIN_SAMPLES = 20

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Launcher:
    """Client of launcher.py, which starts and times every child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list, cwd: Path, limit: float) -> dict:
        req = {"argv": argv, "cwd": str(cwd), "limit": limit}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                self.proc.wait()
        self.proc.stdout.close()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(launcher: Launcher, op: workloads.Op, opdir: Path, traced: bool) -> dict:
    """One operation in a clean directory: exit, time, memory, digests, failure."""
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    prefix = opdir / "out"
    args = [a.replace("{out}", str(prefix)) for a in op.args]
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(opdir / "spans.json"), "--"]
    else:
        argv = [sys.executable, "-m", "idepca.cli"]
    run = launcher.spawn(argv + args, opdir, op.limit)
    stdout = (opdir / "stdout").read_bytes()
    files = {}
    for name in op.outputs:
        path = Path(f"{prefix}.{name}")
        if path.exists():
            files[name] = path.read_bytes()
    rec = {"id": op.id, "exit": run["exit"], "ms": 1e3 * run["seconds"],
           "rss_kb": run["rss_kb"],
           "digests": {"stdout": _digest(stdout),
                       **{name: _digest(data) for name, data in files.items()}},
           "failure": None}
    if run["exit"] is None:
        rec["failure"] = f"timeout: no exit within {op.limit:g} s"
    elif run["exit"] not in op.exits:
        # the reason is on stderr, or on stdout for check's FAIL lines
        lines = ((opdir / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
                 or [l for l in stdout.decode(errors="replace").splitlines()
                     if l.startswith("FAIL")][:1])
        rec["failure"] = f"exit {run['exit']}: {' '.join(lines)}"
    elif run["exit"] == 0 and not traced:
        try:
            rec["failure"] = op.check(stdout.decode(),
                                      {name: data.decode() for name, data in files.items()})
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            rec["failure"] = f"unreadable output: {type(exc).__name__}: {exc}"
    if traced and run["exit"] is not None and (opdir / "spans.json").exists():
        rec["spans"] = json.loads((opdir / "spans.json").read_text())
    return rec


def calibrate(launcher: Launcher, reps: int) -> float:
    """Mean milliseconds, spawn to exit, of reps runs of calibrate.py."""
    opdir = WORK / "calibrate"
    opdir.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for _ in range(reps):
        run = launcher.spawn([sys.executable, str(HERE / "calibrate.py")], opdir,
                             workloads.OP_LIMIT_S)
        if run["exit"] != 0:
            raise RuntimeError("calibration process failed")
        total += run["seconds"]
    return 1e3 * total / reps


def calibration_reps(op_ms: float) -> int:
    """One run of calibrate.py per CAL_SPAN_MS of operation time, each side.

    Speed changes within a long operation, and a longer calibration next
    to it tracks that better: on the 3 s simulate the scatter of scaled
    times fell from 9% with one run on each side to 5% with six.
    """
    return max(1, min(CAL_REPS_MAX, math.ceil(op_ms / CAL_SPAN_MS)))


def to_reference(ms: float, cal_ms: list) -> float:
    """Scale a time measured between two calibrations to the reference speed."""
    return ms * REFERENCE_CAL_MS / statistics.fmean(cal_ms)


def measure_setup(launcher: Launcher, files: list) -> list:
    """Seconds, at reference speed, of a process that imports idepca and loads files."""
    code = ("import sys\nfrom idepca.cli import load_problem\n"
            "for path in sys.argv[1:]:\n    load_problem(path)\n")
    argv = [sys.executable, "-c", code] + [str(f) for f in files]
    opdir = WORK / "setup"
    opdir.mkdir(parents=True, exist_ok=True)
    times = []
    launcher.spawn(argv, opdir, workloads.OP_LIMIT_S)     # warms the caches
    cal = calibrate(launcher, 1)
    for _ in range(SETUP_REPEATS):
        run = launcher.spawn(argv, opdir, workloads.OP_LIMIT_S)
        if run["exit"] != 0:
            raise RuntimeError("set-up process failed: "
                               + (opdir / "stderr").read_text(errors="replace"))
        after = calibrate(launcher, calibration_reps(1e3 * run["seconds"]))
        times.append(to_reference(run["seconds"], [cal, after]))
        cal = after
    return times


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump
    across the gap between two kinds of operation (check vs analyze,
    example1 vs example2), which halved the run-to-run spread of the median
    on battery-check."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, xs))


def latency_summary(records: list) -> tuple:
    """(median, tail percentile, tail) of reference-speed operation latencies.

    Both are Harrell-Davis estimates.  The tail is at the highest percentile
    with ten samples beyond it.  Below
    TAIL_MIN_SAMPLES samples that percentile would fall under the median;
    the tail is then the slowest distinct operation's median latency,
    reported as percentile 100.
    """
    lat = [r["ref_ms"] for r in records]
    n = len(lat)
    median = hd_quantile(lat, 0.5)
    if n < TAIL_MIN_SAMPLES:
        by_id = {}
        for r in records:
            by_id.setdefault(r["id"], []).append(r["ref_ms"])
        return median, 100.0, max(statistics.median(v) for v in by_id.values())
    p = 1.0 - 10.0 / n
    return median, 100.0 * p, hd_quantile(lat, p)


def measure_op(launcher: Launcher, op: workloads.Op, opdir: Path, trace: bool,
               cal: float) -> tuple:
    """Run op (and, tracing, its traced twin), each followed by a calibration.

    Returns the record and the last calibration time.
    """
    rec = run_op(launcher, op, opdir, traced=False)
    after = calibrate(launcher, calibration_reps(rec["ms"]))
    rec["cal_ms"] = [cal, after]
    rec["ref_ms"] = to_reference(rec["ms"], rec["cal_ms"])
    cal = after
    if trace:
        traced = run_op(launcher, op, opdir, traced=True)
        after = calibrate(launcher, calibration_reps(traced["ms"]))
        if traced["digests"] != rec["digests"]:
            rec["failure"] = rec["failure"] or "tracing changed the output"
        rec["traced"] = {"ms": traced["ms"], "cal_ms": [cal, after],
                         "ref_ms": to_reference(traced["ms"], [cal, after]),
                         "spans": traced.get("spans")}
        cal = after
    return rec, cal


def run_workload(launcher: Launcher, workload, seed: int, seconds: float,
                 trace: bool) -> list:
    """Groups of operations in seed-shuffled rounds until seconds of operation time.

    Calibration processes run before the first operation and after each;
    every record holds its raw time, the calibrations on either side and
    the time at reference speed.
    """
    rng = random.Random(seed)
    opdir = WORK / "op"
    records = []
    timed = 0.0
    started = time.monotonic()
    cal = calibrate(launcher, 2)
    done = False
    while not done:
        order = list(workload.groups)
        rng.shuffle(order)
        for group in order:
            worst = sum(op.limit for op in group) * (2 if trace else 1)
            if time.monotonic() - started + worst > WALL_BUDGET_S:
                done = True
                break
            for op in group:
                rec, cal = measure_op(launcher, op, opdir, trace, cal)
                timed += rec["ms"] / 1e3 + rec.get("traced", {}).get("ms", 0.0) / 1e3
                records.append(rec)
            if timed >= seconds and not workload.whole_rounds:
                done = True
                break
        done = done or timed >= seconds
    shutil.rmtree(opdir, ignore_errors=True)
    return records


def end_to_end(records: list, setup_times: list) -> tuple:
    lat = [r["ref_ms"] for r in records]
    failed = sum(r["failure"] is not None for r in records)
    p50, p, tail_ms = latency_summary(records)
    n = len(records)
    metrics = {
        "ops_per_s": n / (sum(lat) / 1e3),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "ok_share": (n - failed) / n,
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "ops_per_s": f"{n} ops over {sum(lat) / 1e3:.2f} s timed at reference speed "
                     f"({sum(r['ms'] for r in records) / 1e3:.2f} s wall)",
        "latency_p50_ms": f"Harrell-Davis median, n={n}",
        "latency_tail_ms": (f"Harrell-Davis p{p:.1f}, n={n}" if n >= TAIL_MIN_SAMPLES else
                            f"slowest op's median: n={n} is too few for a tail"),
        "ok_share": f"{n - failed} of {n} ok; failed_share = {failed / n:.4f}",
        "peak_rss_mb": f"max over n={n} processes",
        "setup_s": f"median of n={len(setup_times)} processes loading "
                   "the workload's problem files",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.BATTERY_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idepca" / "cli.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: no idepca sources under {ROOT}: expected src/idepca and problems/",
              file=sys.stderr)
        return 2

    # end through the finally below, which stops the launcher and its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workload = workloads.BUILDERS[args.workload](ROOT, WORK, args.seed)
    trace = bool(args.trace)
    launcher = Launcher()
    try:
        setup_times = [] if trace else measure_setup(launcher, workload.problem_files)
        records = run_workload(launcher, workload, args.seed, args.seconds, trace)
    finally:
        launcher.close()

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        traced = [r for r in records if (r.get("traced") or {}).get("spans")]
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for r in traced:
                fh.write(json.dumps({"op": r["id"], "spans": r["traced"]["spans"]}) + "\n")
        for r in traced:
            t = r["traced"]
            scale = t["ref_ms"] / t["ms"]
            r["layers"] = {k: v * scale if k.endswith("ms") else v
                           for k, v in layers.op_totals(t.pop("spans")).items()}
        metrics, details = layers.run_metrics(
            [r["layers"] for r in traced], sum(r["traced"]["ref_ms"] for r in traced),
            sum(r["ref_ms"] for r in traced))
        notes = {name: (f"share of traced op time, n={len(traced)}" if name.endswith(".share")
                        else f"mean per traced op, n={len(traced)}") for name in metrics}
        notes.update(details["bases"])
    else:
        values, notes = end_to_end(records, setup_times)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        details = {"setup_s_samples": setup_times}

    failed = [r for r in records if r["failure"] is not None]
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} ({notes[name]})",
              file=sys.stderr)
    for r in failed:
        print(f"FAILED {r['id']}: {r['failure']}", file=sys.stderr)

    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "result": result, "notes": notes, "details": details,
                               "ops": records}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
