"""Reconstruction of the continuous piecewise solution from the discrete skeleton.

On each unit interval [n, n+1) the solution is

    z(t) = E(t) * ( z_n + z_dev * G(t) ),
    E(t) = exp( I(n, t) ),   G(t) = int_n^t exp( I(s, n) ) b(s) ds,

where z_dev is the solution value at the deviated node n -+ k and I is the
running integral of the coefficient a.  This is the interval solution
formula with the exponential weight factored out.  At each sample point
the interval's kernel gives I(n, t) and the scaled weight W(t)
(IntervalKernel.at), and G(t) = exp(scale) W(t).

Sample rows store the right-continuous value at node times; the left limit
at each node lives in the node table, together with the jump factor that
relates the two.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .diffeq import (DiscreteSolution, OscillationVerdict, TooShort, block_verdict,
                     default_window)
from .exprlang import _safe_exp
from .quad import IntervalKernel
from .reduction import DiscreteSystem, ProblemSpec

__all__ = [
    "NodeRecord",
    "Trajectory",
    "reconstruct",
    "continuous_oscillation_check",
]


class NodeRecord(NamedTuple):
    n: int
    z_left: float
    z_right: float
    jump_factor: float


class Trajectory(NamedTuple):
    k: int
    samples: List[Tuple[float, float]]       # strictly increasing in t
    nodes: List[NodeRecord]
    interval_start: int


def reconstruct(spec: ProblemSpec, ds: DiscreteSystem, sol: DiscreteSolution,
                samples_per_interval: int = 32) -> Trajectory:
    """Sample the continuous solution on every interval the skeleton covers.

    Each interval's kernel is built anew here rather than kept from the
    reduction, so only one interval's series is held at a time (keeping
    them all raised peak memory by about 5% on example 2 at horizon 505).
    """
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be >= 1")
    intervals = sol.relation_indices()
    samples: List[Tuple[float, float]] = []
    nodes: List[NodeRecord] = []
    m = samples_per_interval
    for n in intervals:
        z_n = sol.value(n)
        z_dev = sol.value(ds.dev(n))
        kernel = IntervalKernel(spec.fa, spec.fb, n)
        scale = kernel.scale
        samples.append((float(n), z_n))
        for i in range(1, m):
            t = n + i / m
            expo, w = kernel.at(t)
            samples.append((t, _safe_exp(expo) * z_n + z_dev * (_safe_exp(expo + scale) * w)))
        expo = kernel.total
        z_left = _safe_exp(expo) * z_n + z_dev * (_safe_exp(expo + scale) * kernel.weight)
        nodes.append(NodeRecord(n + 1, z_left, sol.value(n + 1), spec.impulse.factor(n + 1)))
    return Trajectory(spec.k, samples, nodes, intervals.start)


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
