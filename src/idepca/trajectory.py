"""Reconstruction of the continuous piecewise solution from the discrete skeleton.

On each unit interval [n, n+1) the solution is

    z(t) = E(t) * ( z_n + z_dev * G(t) ),
    E(t) = exp( I(n, t) ),   G(t) = int_n^t exp( I(s, n) ) b(s) ds,

where z_dev is the solution value at the deviated node n -+ k and I is the
running integral of the coefficient a.  This is the interval solution
formula with the exponential weight factored out.  The interval's kernel
gives I(n, t) and the scaled weight W(t) at all of the interval's sample
points in one call (IntervalKernel.at), and G(t) = exp(scale) W(t).

Samples are z alone at t = n + i/m, i < m, and Trajectory.points() adds t.
The one at a node time is the right-continuous value; the left limit at
each node lives in the node table, with the jump factor that relates the two.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple

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
    samples: List[float]                     # z at n + i/m, interval by interval
    nodes: List[NodeRecord]
    interval_start: int
    samples_per_interval: int

    def points(self) -> Iterator[Tuple[float, float]]:
        """(t, z) of every sample, t = n + i/m as reconstruct computes it."""
        m = self.samples_per_interval
        for j, z in enumerate(self.samples):
            n, i = divmod(j, m)
            yield self.interval_start + n + i / m, z


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
    samples: List[float] = []
    nodes: List[NodeRecord] = []
    m = samples_per_interval
    for n in intervals:
        z_n = sol.value(n)
        z_dev = sol.value(ds.dev(n))
        kernel = IntervalKernel(spec.fa, spec.fb, n)
        scale = kernel.scale
        expos, ws = kernel.at([n + i / m for i in range(1, m)])
        samples.append(z_n)
        samples += [_safe_exp(expo) * z_n + z_dev * (_safe_exp(expo + scale) * w)
                    for expo, w in zip(expos, ws)]
        expo = kernel.total
        z_left = _safe_exp(expo) * z_n + z_dev * (_safe_exp(expo + scale) * kernel.weight)
        nodes.append(NodeRecord(n + 1, z_left, sol.value(n + 1), spec.impulse(n + 1)))
    return Trajectory(spec.k, samples, nodes, intervals.start, m)


def continuous_oscillation_check(traj: Trajectory, first: int) -> OscillationVerdict:
    """The sign rule on the intervals [n, n+1] from index first on.

    An interval's block is its samples plus the left limit at n+1.  first
    is the tail's first index as the discrete check computes it, its
    tail_window[0], so both verdicts judge one tail.
    """
    window = default_window(traj.k)
    m = traj.samples_per_interval
    blocks = [traj.samples[i * m:(i + 1) * m] + [rec.z_left]
              for i, rec in enumerate(traj.nodes)]
    i0 = max(0, first - traj.interval_start)
    if len(blocks) - i0 < 2 * window:
        raise TooShort(f"trajectory tail spans {len(blocks) - i0} intervals; "
                       f"need {2 * window}")
    return block_verdict(blocks, traj.interval_start, i0, window)
