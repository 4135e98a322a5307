"""Reconstruction of the continuous piecewise solution from the discrete skeleton.

On each unit interval [n, n+1) the solution is

    z(t) = E(t) * ( z_n + z_dev * G(t) ),
    E(t) = exp( I(n, t) ),   G(t) = int_n^t exp( I(s, n) ) b(s) ds,

where z_dev is the solution value at the deviated node n -+ k and I is the
running integral of the coefficient a.  This is the interval solution
formula with the exponential weight factored out.  The kernel the reduction
built for the interval (ds.kernels[n]) holds I(n, t) and the scaled weight
W(t), G(t) = exp(scale) W(t).  Each time ds.kernels[n] changes, the
kernel takes E(t) and E(t) G(t) at the interval's offsets t - n in one
sweep over its series (IntervalKernel.factors), and each interval it
serves is then E z_n + z_dev (E G) per sample.  Where an exponential
leaves double range among an interval's samples, or at its left limit,
those values are formed as E(t) * (z_n + z_dev exp(scale) W(t)), so where
E(t) is inf the value is +-inf with the bracket's sign rather than
inf - inf.

Samples are z alone at t = n + i/m, i < m, held as one array('d') of 8
bytes each, and Trajectory.rows() adds t as it formats them.
The one at a node time is the right-continuous value; the left limit at
each node lives in the node table, with the jump factor that relates the two.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence

from .diffeq import (DiscreteSolution, OscillationVerdict, TooShort, block_sign,
                     block_verdict, default_window)
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
    samples: Sequence[float]                 # z at n + i/m, interval by interval
    nodes: List[NodeRecord]
    interval_start: int
    samples_per_interval: int

    def rows(self) -> Iterator[str]:
        """The trajectory CSV's "t,z" rows at 10 significant digits, as one
        string per interval, t = n + i/m as reconstruct computes it.

        For 1 <= n < 10^9, t = n + i/m stays in n's binade, so t - n is
        exact and depends only on the bit length of n, and %.10g of t is n's
        digits followed by t - n's first 10 - d decimals, d the digit count
        of n.  Consecutive intervals with the same (d, bit length) share one
        row template, cut before each t, whose fractions are literal text:
        n's digits join its pieces.  n only grows, so a key that changes
        never returns.  Elsewhere, and where a fraction rounds up to 1, t is
        formatted sample by sample.
        """
        m = self.samples_per_interval
        direct = "%.10g,%.10g\n" * m
        offsets = [i / m for i in range(m)]
        key = pieces = None
        fields = [0.0] * (2 * m)
        for n, first in enumerate(range(0, len(self.samples), m), self.interval_start):
            z = self.samples[first:first + m]
            digits = str(n)
            if (len(digits), n.bit_length()) != key:
                key = (len(digits), n.bit_length())
                pieces = _pieces(n, offsets)
            if pieces is None:
                fields[0::2] = [n + offset for offset in offsets]
                fields[1::2] = z
                yield direct % tuple(fields)
            else:
                yield digits.join(pieces) % tuple(z)


def _pieces(n: int, offsets: Sequence[float]) -> Optional[List[str]]:
    """Interval n's row format cut before each t, so that n's digits join it:
    "", then per t its fraction t - n as %.10g writes it (10 - d decimals,
    trailing zeros and the point dropped) and ",%.10g\n" for z.  None where
    n < 1, n >= 10^9 or a fraction rounds up to 1."""
    if not 1 <= n < 10**9:
        return None
    places = 10 - len(str(n))
    pieces = [""]
    for offset in offsets:
        fraction = "%.*f" % (places, n + offset - n)
        if fraction[0] != "0":
            return None
        pieces.append(fraction[1:].rstrip("0").rstrip(".") + ",%.10g\n")
    return pieces


def reconstruct(spec: ProblemSpec, ds: DiscreteSystem, sol: DiscreteSolution,
                samples_per_interval: int = 32) -> Trajectory:
    """Sample the continuous solution on every interval the skeleton covers,
    from the kernels the reduction built."""
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be >= 1")
    intervals = sol.relation_indices()
    samples = array("d")
    nodes: List[NodeRecord] = []
    m = samples_per_interval
    offsets = [i / m for i in range(1, m)]
    kernels = ds.kernels
    kernel = factors = None
    for n in intervals:
        z_n = sol.value(n)
        z_dev = sol.value(ds.dev(n))
        if kernels[n] is not kernel:
            kernel = kernels[n]
            factors = kernel.factors(offsets)
        samples.append(z_n)
        samples.extend(kernel.values(factors, offsets, z_n, z_dev))
        nodes.append(NodeRecord(n + 1, kernel.left_limit(z_n, z_dev), sol.value(n + 1),
                                spec.impulse(n + 1)))
    return Trajectory(spec.k, samples, nodes, intervals.start, m)


def continuous_oscillation_check(traj: Trajectory, first: int) -> OscillationVerdict:
    """The sign rule on the intervals [n, n+1] from index first on.

    An interval's block is its samples plus the left limit at n+1, signed
    one interval at a time.  first is the tail's first index as the discrete
    check computes it, its tail_window[0], so both verdicts judge one tail.
    """
    window = default_window(traj.k)
    m = traj.samples_per_interval
    intervals = len(traj.nodes)
    i0 = max(0, first - traj.interval_start)
    if intervals - i0 < 2 * window:
        raise TooShort(f"trajectory tail spans {intervals - i0} intervals; "
                       f"need {2 * window}")
    signs = [block_sign(chain(traj.samples[i * m:(i + 1) * m], (rec.z_left,)))
             for i, rec in enumerate(traj.nodes)]
    return block_verdict(signs, traj.interval_start, i0, window)
