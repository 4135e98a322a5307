"""Reconstruction of the continuous piecewise solution from the discrete skeleton.

On each unit interval [n, n+1) the solution is

    z(t) = E(t) * ( z_n + z_dev * G(t) ),
    E(t) = exp( I(n, t) ),   G(t) = int_n^t exp( I(s, n) ) b(s) ds,

where z_dev is the solution value at the deviated node n -+ k and I is the
running integral of the coefficient a.  This is the interval solution
formula with the exponential weight factored out so E and G can be built
incrementally across the interval's sample points.

Sample rows store the right-continuous value at node times; the left limit
at each node lives in the node table, together with the jump factor that
relates the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .diffeq import (DiscreteSolution, OscillationVerdict, TooShort, block_verdict,
                     default_window)
from .exprlang import _safe_exp
from .quad import integrate
from .reduction import DiscreteSystem, ProblemSpec, weighted_integral

__all__ = [
    "NodeRecord",
    "Trajectory",
    "reconstruct",
    "continuous_oscillation_check",
    "max_node_discontinuity",
]


@dataclass(frozen=True)
class NodeRecord:
    n: int
    z_left: float
    z_right: float
    jump_factor: float


@dataclass
class Trajectory:
    k: int
    samples: List[Tuple[float, float]]       # strictly increasing in t
    nodes: List[NodeRecord]
    interval_start: int


def reconstruct(spec: ProblemSpec, ds: DiscreteSystem, sol: DiscreteSolution,
                samples_per_interval: int = 32, tol: float = 1e-10) -> Trajectory:
    """Sample the continuous solution on every interval the skeleton covers."""
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be >= 1")
    fa, fb = spec.fa, spec.fb
    intervals = sol.relation_indices()
    samples: List[Tuple[float, float]] = []
    nodes: List[NodeRecord] = []
    m = samples_per_interval
    for n in intervals:
        z_n = sol.value(n)
        z_dev = sol.value(ds.dev(n))
        expo = 0.0   # I(n, t_i), accumulated
        g = 0.0      # G(t_i), accumulated
        t_prev = float(n)
        for i in range(m + 1):
            t = n + i / m if i < m else float(n + 1)
            if i > 0:
                expo += integrate(fa, t_prev, t, tol / 10.0).value
                g += weighted_integral(fa, fb, t_prev, t, n, tol)
            t_prev = t
            z = _safe_exp(expo) * (z_n + z_dev * g)
            if i < m:
                samples.append((t, z))
            else:
                z_left = z
        nodes.append(NodeRecord(n + 1, z_left, sol.value(n + 1), spec.impulse.factor(n + 1)))
    return Trajectory(spec.k, samples, nodes, intervals.start)


def max_node_discontinuity(traj: Trajectory) -> float:
    """Largest relative gap between left limit and node value (continuity audit)."""
    worst = 0.0
    for rec in traj.nodes:
        if not math.isfinite(rec.z_right):
            continue
        gap = abs(rec.z_left - rec.z_right) / max(1.0, abs(rec.z_left))
        worst = max(worst, gap)
    return worst


def continuous_oscillation_check(traj: Trajectory, first: int) -> OscillationVerdict:
    """The sign rule on the intervals [n, n+1] from index first on.

    An interval's block is its samples plus the left limit at n+1.  first
    is the tail's first index as the discrete check computes it, its
    tail_window[0], so both verdicts judge one tail.
    """
    window = default_window(traj.k)
    per = len(traj.samples) // max(1, len(traj.nodes))
    blocks = [[z for _, z in traj.samples[i * per:(i + 1) * per]] + [rec.z_left]
              for i, rec in enumerate(traj.nodes)]
    m = len(blocks)
    i0 = max(0, first - traj.interval_start)
    if m - i0 < 2 * window:
        raise TooShort(
            f"trajectory tail spans {m - i0} intervals; need {2 * window}"
        )
    return block_verdict(blocks, traj.interval_start, i0, window)
