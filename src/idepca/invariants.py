"""The per-instance invariants that ``idepca check`` runs.

``check_instance`` audits one run of simulate's pipeline (the reduction,
the window continuation, its reconstruction and both verdicts) and yields
each invariant as (name, ok, detail).  Only check imports this module, so
no other command compiles it.
"""

from __future__ import annotations

import math

from .diffeq import Verdict
from .reduction import Direction, in_range

__all__ = ["check_instance", "q_audit"]


def _invariant(name: str, bound: float, what: str, residuals):
    """(name, ok, detail) of "every residual r of the pairs (n, r) is finite
    and at most bound"; the detail names the first n whose r is not finite."""
    worst = 0.0
    for n, r in residuals:
        if not math.isfinite(r):
            return name, False, f"{what} at index {n} is {r!r}"
        worst = max(worst, r)
    return name, worst <= bound, f"max {what} {worst:.3e}"


def _span(ds, n: int, x: float, power: int) -> float:
    """x * span_n ** power (power 1 or -1), span_n = alpha_dev(n) / alpha_{n+1}
    spelled from a_n alone: a_{n-k} ... a_n delayed, 1 / (a_{n+1} ... a_{n+k-1})
    advanced.  The factors are applied to x one at a time, since span_n can
    leave double range where x and the result do not (jump factor 1e-200, k = 1)."""
    delayed = ds.direction is Direction.DELAYED
    for j in range(n - ds.k, n + 1) if delayed else range(n + 1, n + ds.k):
        x = x * ds.a(j) if (power > 0) == delayed else x / ds.a(j)
    return x


def q_audit(ds):
    """(name, ok, detail) of "every Q_n agrees with its product spelling
    b_n / span_n from a_n and b_n".  Agreement is relative, to 1e-8, and a
    value that is not finite never agrees; the detail names the first n
    that fails."""
    for n, q in zip(ds.q_indices(), ds.q_seq):
        product = _span(ds, n, ds.b(n), -1)
        if not (math.isfinite(q) and math.isfinite(product)
                and abs(q - product) <= 1e-8 * max(abs(q), abs(product))):
            return ("dual_route_q_audit", False,
                    f"Q_{n} mismatch: direct {q!r} vs product {product!r}")
    return "dual_route_q_audit", True, f"{len(ds.q_seq)} indices compared"


def check_instance(ds, sol, traj, discrete, continuous):
    """Every per-instance invariant of one simulate run, as (name, ok, detail)."""
    yield q_audit(ds)

    # every residual is relative to the terms of its own interval n
    def relative(gap, *sizes):
        return abs(gap) / max(1e-300, *map(abs, sizes))

    # alpha is read nowhere else, so only the alpha_{n+1} that coeffs
    # writes is measured
    yield _invariant("alpha_telescoping", 1e-12, "deviation", (
        (n, relative(ds.alpha(n + 1) * ds.a(n) - ds.alpha(n), ds.alpha(n)))
        for n in range(ds.n0, ds.horizon) if in_range(ds.alpha(n + 1))))

    z = sol.value
    terms = {n: (ds.a(n) * z(n), ds.b(n) * z(ds.dev(n))) for n in sol.relation_indices()}
    yield _invariant("recursion_residual", 1e-9, "relative residual", (
        (n, relative(z(n + 1) - (az + bz), z(n + 1), abs(az) + abs(bz)))
        for n, (az, bz) in terms.items()))

    # y_{n+1} - y_n - Q_n y_dev(n), y_n = alpha_n z_n, divided by alpha_{n+1},
    # so it is measured wherever z and Q_n are finite, whatever alpha does
    qz = {n: _span(ds, n, ds.q(n), 1) * z(ds.dev(n)) for n in terms if n in ds.q_indices()}
    yield _invariant("reduced_form_residual", 1e-8, "relative residual", (
        (n, relative(z(n + 1) - terms[n][0] - q, z(n + 1), abs(terms[n][0]) + abs(q)))
        for n, q in qz.items()))

    # the terms of interval n also keep a window 0 from being measured
    # against a rounding residue in z_left
    yield _invariant("node_consistency", 1e-7, "relative gap", (
        (rec.n, relative(rec.jump_factor * rec.z_left - rec.z_right,
                         rec.z_right, rec.z_left, sum(map(abs, terms[rec.n - 1]))))
        for rec in traj.nodes if math.isfinite(rec.z_right)))

    if discrete.verdict is Verdict.OSCILLATORY:
        ok = continuous.verdict is Verdict.OSCILLATORY
        yield ("discrete_to_continuous_transfer", ok,
               f"discrete {discrete.verdict.value}, continuous {continuous.verdict.value}")
