"""Per-layer metrics from the spans of traced operations.

Each traced operation yields totals (``<span>.ms``, ``.self_ms``,
``.calls``, ``.evals``); the run reports counts as means per operation,
times as shares of the operation time, and ratios taken over the whole
run with their base stated.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import CALLS, END, EVALS, NAME, PARENT, SIZE, START

# name -> unit; the per-layer metrics BENCHMARK.json lists, in its order.
# A layer's time is given as its share of the traced operations' time
# (<span>.share = <span>.ms summed over the run / operation time): a layer a
# workload never calls then reads 0 as a share, not as a time, and the
# share stays comparable across machines.  Absolute times per operation
# are in the record's details.
PER_LAYER = {
    "cli.load_problem.share": "ratio",
    "cli.output.share": "ratio",
    "exprlang.parse.share": "ratio",
    "exprlang.compile_expr.calls": "count",
    "quad.integrate.calls": "count",
    "quad.integrate.evals": "count",
    "reduction.build_discrete_system.share": "ratio",
    "reduction.compute_an.share": "ratio",
    "reduction.compute_an.evals": "count",
    "reduction.compute_bn.share": "ratio",
    "reduction.compute_bn.evals": "count",
    "reduction.compute_qn_direct.share": "ratio",
    "reduction.compute_qn_direct.evals": "count",
    "reduction.audit_share": "ratio",
    "reduction.evals_per_index": "count",
    "diffeq.solve.share": "ratio",
    "diffeq.discrete_oscillation_check.share": "ratio",
    "criteria.evaluate_all.share": "ratio",
    "trajectory.reconstruct.share": "ratio",
    "trajectory.reconstruct.evals": "count",
    "trajectory.evals_per_sample": "count",
    "trajectory.continuous_oscillation_check.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def op_totals(doc: dict) -> dict:
    """Totals of one traced operation, keyed like the per-layer metrics."""
    spans = doc["spans"]
    incl_evals = [s[EVALS] for s in spans]
    child_s = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent >= 0:
            incl_evals[parent] += incl_evals[i]
            child_s[parent] += spans[i][END] - spans[i][START]
    out = defaultdict(float)
    out["quad.integrate.calls"] += doc["outside"][0]
    out["quad.integrate.evals"] += doc["outside"][1]
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        out[f"{name}.ms"] += 1e3 * dur
        out[f"{name}.self_ms"] += 1e3 * (dur - child_s[i])
        out[f"{name}.calls"] += 1
        out[f"{name}.evals"] += incl_evals[i]
        out["quad.integrate.calls"] += s[CALLS]
        out["quad.integrate.evals"] += s[EVALS]
        out[f"quad.evals_in.{name}"] += s[EVALS]
        if s[SIZE] is not None:
            out[f"{name}.size"] += s[SIZE]
        if name.startswith("cli.cmd_"):
            out["cli.output.ms"] += 1e3 * (dur - child_s[i])
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(per_op: list, traced_ms: float, untraced_ms: float) -> tuple:
    """(per-layer metrics, details) over the traced operations' totals.

    traced_ms and untraced_ms are the summed times of the same operations,
    traced and plain, at the same speed scale as the totals.
    """
    n = len(per_op)
    sums = defaultdict(float)
    for totals in per_op:
        for key, value in totals.items():
            sums[key] += value
    mean = {key: value / n for key, value in sums.items()} if n else {}
    build_evals = sums["reduction.build_discrete_system.evals"]
    derived = {
        "reduction.audit_share": _ratio(sums["reduction.compute_qn_direct.evals"],
                                        build_evals),
        "reduction.evals_per_index": _ratio(build_evals,
                                            sums["reduction.build_discrete_system.size"]),
        "trajectory.evals_per_sample": _ratio(sums["trajectory.reconstruct.evals"],
                                              sums["trajectory.reconstruct.size"]),
        "trace.overhead_ratio": _ratio(traced_ms, untraced_ms),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name.endswith(".share"):
            value = _ratio(sums[name[:-len(".share")] + ".ms"], traced_ms)
        else:
            value = mean.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    details = {
        "traced_ops": n,
        "bases": {
            "reduction.audit_share": "reduction.compute_qn_direct.evals / "
                                     f"reduction.build_discrete_system.evals = "
                                     f"{sums['reduction.compute_qn_direct.evals']:.0f} / "
                                     f"{build_evals:.0f}",
            "reduction.evals_per_index": f"{build_evals:.0f} evals over "
                                         f"{sums['reduction.build_discrete_system.size']:.0f} indices",
            "trajectory.evals_per_sample": f"{sums['trajectory.reconstruct.evals']:.0f} evals "
                                           f"over {sums['trajectory.reconstruct.size']:.0f} samples",
            "trace.overhead_ratio": f"{traced_ms:.1f} ms traced / {untraced_ms:.1f} ms untraced",
        },
        "per_op_mean": dict(sorted(mean.items())),
    }
    return metrics, details
