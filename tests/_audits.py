"""Reference checks and helpers that several test modules share; the
package has no use for them."""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from idepca.diffeq import DiscreteSolution
from idepca.exprlang import _safe_exp
from idepca.reduction import DiscreteSystem, ProblemSpec
from idepca.trajectory import Trajectory

SPEC_FIELDS = ("a", "b", "direction", "k", "impulse", "initial_window", "horizon", "n0")


def respec(spec: ProblemSpec, **changes) -> ProblemSpec:
    """A new spec with the given fields changed, validated as a new one is."""
    return ProblemSpec(**{**{name: getattr(spec, name) for name in SPEC_FIELDS}, **changes})


def q_by_alpha_ratio(ds: DiscreteSystem, n: int) -> float:
    """The reference spelling of Q_n, alpha_{n+1} b_n / alpha_dev(n), from
    the definition of the reduced form; it has digits only while alpha is
    in double range."""
    return ds.alpha(n + 1) * ds.b(n) / ds.alpha(ds.dev(n))


def reduce_to_y(ds: DiscreteSystem, sol: DiscreteSolution) -> List[float]:
    """y_n = alpha_n z_n for n in [n0, ...], aligned at ds.n0."""
    n_hi = min(sol.n_hi, ds.n0 + len(ds.alpha_seq) - 1)
    return [ds.alpha(n) * sol.value(n) for n in range(ds.n0, n_hi + 1)]


def sign_change(u: float, v: float) -> bool:
    """u * v <= 0, evaluated without forming the (possibly huge) product."""
    return u == 0.0 or v == 0.0 or (u > 0.0) != (v > 0.0)


def max_node_discontinuity(traj: Trajectory) -> float:
    """Largest relative gap between left limit and node value (continuity
    audit), relative to the larger of the two as check's node consistency
    measures it, so a gap in a node value below 1 counts in full."""
    worst = 0.0
    for rec in traj.nodes:
        if not math.isfinite(rec.z_right):
            continue
        gap = abs(rec.z_left - rec.z_right) / max(1e-300, abs(rec.z_left), abs(rec.z_right))
        worst = max(worst, gap)
    return worst


def points(traj: Trajectory) -> Iterator[Tuple[float, float]]:
    """(t, z) of every sample, t = n + i/m as reconstruct computes it."""
    m = traj.samples_per_interval
    for j, z in enumerate(traj.samples):
        yield traj.interval_start + j // m + (j % m) / m, z


def hexes(values) -> List[str]:
    """float.hex of each value: equal lists are equal bit for bit, signed
    zeros and nan included."""
    return [float.hex(v) for v in values]


def solution_reference(expos, ws, scale: float, z_n: float, z_dev: float) -> List[float]:
    """The interval solution formula as reconstruct applies it to evaluated
    series, the reference for the kernel's one-sweep samples: z = exp(I) z_n
    + z_dev exp(I + scale) W at each (I, W), or, if any exp overflows,
    exp(I) (z_n + z_dev exp(scale) W) at every one, exp saturating at inf."""
    try:
        return [math.exp(e) * z_n + z_dev * (math.exp(e + scale) * w)
                for e, w in zip(expos, ws)]
    except OverflowError:
        g = _safe_exp(scale)
        return [_safe_exp(e) * (z_n + z_dev * (g * w)) for e, w in zip(expos, ws)]


def reference_rows(traj: Trajectory) -> List[str]:
    """The trajectory CSV's rows formatted one sample at a time and joined
    per interval, the reference Trajectory.rows() must match byte for byte."""
    m = traj.samples_per_interval
    rows = [f"{t:.10g},{z:.10g}\n" for t, z in points(traj)]
    return ["".join(rows[first:first + m]) for first in range(0, len(rows), m)]
