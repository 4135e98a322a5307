"""Solvers for the delayed and advanced difference equations.

The delayed equation runs forward directly from its initial window.

For the advanced equation the nonoscillation results speak of *some*
eventually one-signed solution, not of the one every initial window starts.
`solve` therefore returns, for advanced problems, the solution through
z_{n0} = init[0] that a backward sweep z_n = (z_{n+1} - b_n z_{n+k}) / a_n
finds (Miller's algorithm; Gautschi, SIAM Rev. 9, 1967; Wimp, Computation
with Recurrence Relations, 1984).  The sweep starts from fixed terminal
values at the k nodes up to the horizon, so near n0 it approximates the
recessive solution, the one that grows slowest; whatever the start, its
output satisfies z_{n+1} = a_n z_n + b_n z_{n+k} exactly up to rounding on
[n0, horizon-k], so a one-signed result is a valid witness.  For k = 1 it is
the solution the forward recursion gives, which uses only init[0] as well.

`continue_window` is the window continuation that `simulate` and `check`
write: the delayed forward recursion, or for advanced problems the
rearranged forward sweep.  For k >= 2 every new value z_{n+k} comes from
(z_{n+1} - a_n z_n) / b_n, filling indices upward (the needed z_{n+1} is
always already known), and for k = 1 the relation collapses to
z_{n+1} = a_n z_n / (1 - b_n), so only the window's first entry
participates.

The empirical oscillation checks approximate "sign changes beyond every
index" at desk scale by one sign rule on blocks of values, the pair
(z_n, z_{n+1}) or the interval [n, n+1].  A block is positive when all its
values are > 0, negative when all are < 0, and mixed otherwise, so a zero
counts as a sign change.  The tail is EventuallyPositive/Negative when all
its blocks have that sign, Oscillatory when its longest run of consecutive
same-signed blocks is shorter than the window, and Inconclusive otherwise.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from itertools import groupby
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .quad import NumericFailure
from .reduction import Direction, DiscreteSystem, TooShort, tail_start

__all__ = [
    "Verdict",
    "DiscreteSolution",
    "OscillationVerdict",
    "backward_sweep",
    "continue_window",
    "solve",
    "discrete_oscillation_check",
    "default_window",
    "block_sign",
    "block_verdict",
]


class Verdict(Enum):
    OSCILLATORY = "Oscillatory"
    EVENTUALLY_POSITIVE = "EventuallyPositive"
    EVENTUALLY_NEGATIVE = "EventuallyNegative"
    INCONCLUSIVE = "Inconclusive"


class DiscreteSolution(NamedTuple):
    n_lo: int
    values: List[float]
    direction: Direction
    k: int
    truncated_at: Optional[int] = None  # first index whose value left double range
    swept: bool = False  # computed by the backward sweep

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.values) - 1

    def value(self, n: int) -> float:
        i = n - self.n_lo
        if not 0 <= i < len(self.values):
            raise IndexError(f"solution not defined at index {n}")
        return self.values[i]

    def relation_indices(self) -> range:
        """The n at which z_{n+1} = a_n z_n + b_n z_{dev(n)} holds.

        For advanced k >= 2 the rearranged forward sweep enforces the
        relation only from n0+1 on: the initial window is free on the first
        interval.  The backward sweep enforces it from n0 on.
        """
        if self.direction is Direction.DELAYED:
            return range(self.n_lo + self.k, self.n_hi)
        free_window = self.k > 1 and not self.swept
        return range(self.n_lo + free_window, self.n_hi - self.k + 1)


def continue_window(ds: DiscreteSystem, init: Sequence[float]) -> DiscreteSolution:
    """The continuation of the initial window that simulate and check write
    (see the module docstring); init supplies z at indices n0-k .. n0
    (delayed) or n0 .. n0+k (advanced)."""
    k = ds.k
    if len(init) != k + 1:
        raise ValueError(f"initial window must have {k + 1} entries")
    truncated = None
    if ds.direction is Direction.DELAYED:
        n_lo = ds.n0 - k
        values = [float(v) for v in init]
        for n in range(ds.n0, ds.horizon):
            z = ds.a(n) * values[n - n_lo] + ds.b(n) * values[n - k - n_lo]
            if not math.isfinite(z):
                truncated = n + 1
                break
            values.append(z)
        return DiscreteSolution(n_lo, values, Direction.DELAYED, k, truncated)
    n_lo = ds.n0
    if k == 1:
        values = [float(init[0])]
        for n in range(ds.n0, ds.horizon):
            b = ds.b(n)
            if b == 1.0:
                raise NumericFailure(f"b_{n} = 1 with k = 1: degenerate advance", n)
            z = ds.a(n) * values[n - n_lo] / (1.0 - b)
            if not math.isfinite(z):
                truncated = n + 1
                break
            values.append(z)
    else:
        values = [float(v) for v in init]
        for n in range(ds.n0 + 1, ds.horizon - k + 1):
            b = ds.b(n)
            if b == 0.0:
                raise NumericFailure(
                    f"b_{n} = 0: advanced recursion cannot be rearranged", n)
            z = (values[n + 1 - n_lo] - ds.a(n) * values[n - n_lo]) / b
            if not math.isfinite(z):
                truncated = n + k
                break
            values.append(z)
    return DiscreteSolution(n_lo, values, Direction.ADVANCED, k, truncated)


_SWEEP_EXPONENT = 64


def backward_sweep(ds: DiscreteSystem, z0: float) -> DiscreteSolution:
    """Solution of z_{n+1} = a_n z_n + b_n z_{n+k} through z_{n0} = z0.

    Sweeps z_n = (z_{n+1} - b_n z_{n+k}) / a_n down from z = 1 at the k
    nodes horizon-k+1 .. horizon.  The k live values share one binary
    exponent and are rescaled by a power of two, which is exact, whenever
    their largest magnitude leaves [2^-64, 2^64], so nothing overflows
    while sweeping; every stored value keeps its own exponent until the
    normalisation to z0.  The solution is cut at the first index whose
    normalised value overflows or falls below the smallest normal double:
    an underflowed 0 would count as a sign change.
    """
    k, n_lo = ds.k, ds.n0
    size = ds.horizon - n_lo + 1
    w = [0.0] * (size - k) + [1.0] * k   # scaled values, index n - n_lo
    exps = [0] * size                    # z_n = w[n - n_lo] * 2^exps[n - n_lo]
    shift = 0
    for n in range(ds.horizon - k, n_lo - 1, -1):
        i = n - n_lo
        a = ds.a(n)
        if a == 0.0:
            raise NumericFailure(
                f"backward sweep fails at n = {n}: a_{n} = 0 leaves z_{n} undetermined", n)
        z = (w[i + 1] - ds.b(n) * w[i + k]) / a
        if not math.isfinite(z):
            raise NumericFailure(f"backward sweep fails at n = {n}: z_{n} is not finite", n)
        w[i] = z
        exps[i] = shift
        e = math.frexp(max(abs(v) for v in w[i:i + k]))[1]
        if abs(e) > _SWEEP_EXPONENT:
            for j in range(i, i + k):
                w[j] = math.ldexp(w[j], -e)
                exps[j] = shift + e
            shift += e
    if w[0] == 0.0:
        raise NumericFailure(f"backward sweep fails at n = {n_lo}: z_{n_lo} = 0, so no "
                             f"multiple passes through {z0!r}", n_lo)
    m0, e0 = math.frexp(w[0])
    mz, ez = math.frexp(float(z0))
    values: List[float] = []
    truncated = None
    for i, (wi, ei) in enumerate(zip(w, exps)):
        m, e = math.frexp(wi)
        mant = m / m0 * mz   # |mant| < 2: no overflow before the exponent
        try:
            z = math.ldexp(mant, e + ei - e0 - exps[0] + ez)
        except OverflowError:
            z = math.inf
        if mant != 0.0 and not sys.float_info.min <= abs(z) < math.inf:
            truncated = n_lo + i
            break
        values.append(z)
    return DiscreteSolution(n_lo, values, Direction.ADVANCED, k, truncated, swept=True)


def solve(ds: DiscreteSystem, init: Sequence[float]) -> DiscreteSolution:
    """The delayed window continuation, or the advanced solution through
    z_{n0} = init[0] given by the backward sweep."""
    if ds.direction is Direction.DELAYED:
        return continue_window(ds, init)
    if len(init) != ds.k + 1:
        raise ValueError(f"initial window must have {ds.k + 1} entries")
    return backward_sweep(ds, init[0])


class OscillationVerdict(NamedTuple):
    verdict: Verdict
    tail_window: Tuple[int, int]        # first and last block index examined
    longest_run_start: Optional[int]    # None when no tail block has one sign
    longest_run_length: int
    last_sign_change: Optional[int]     # last mixed block, tail or not


def block_sign(values: Iterable[float]) -> int:
    """1 for a positive block, -1 for a negative one, 0 for a mixed one.

    One pass over values decides as all(v > 0.0) and all(v < 0.0) would, so
    a zero or a nan makes the block mixed (and an empty block is positive).
    """
    it = iter(values)
    first = next(it, 1.0)
    if first > 0.0:
        return 1 if all(v > 0.0 for v in it) else 0
    if first < 0.0:
        return -1 if all(v < 0.0 for v in it) else 0
    return 0


def block_verdict(signs: Sequence[int], offset: int, start: int,
                  window: int) -> OscillationVerdict:
    """The sign rule on the tail signs[start:], where signs[i] is the
    block_sign of block offset + i; the earliest of the longest one-signed
    runs is reported."""
    mixed = [i for i, sign in enumerate(signs) if sign == 0]
    run_start, run_length, i = None, 0, start
    for sign, group in groupby(signs[start:]):
        length = len(list(group))
        if sign and length > run_length:
            run_start, run_length = offset + i, length
        i += length
    if run_length == len(signs) - start:
        verdict = (Verdict.EVENTUALLY_POSITIVE if signs[start] > 0
                   else Verdict.EVENTUALLY_NEGATIVE)
    elif run_length < window:
        verdict = Verdict.OSCILLATORY
    else:
        verdict = Verdict.INCONCLUSIVE
    return OscillationVerdict(verdict, (offset + start, offset + len(signs) - 1),
                              run_start, run_length,
                              offset + mixed[-1] if mixed else None)


def default_window(k: int) -> int:
    # scales with the deviation: no 2(k+1) consecutive blocks of the
    # examined tail may share one sign
    return 2 * (k + 1)


def discrete_oscillation_check(sol: DiscreteSolution,
                               tail_fraction: float = 0.5) -> OscillationVerdict:
    """The sign rule on the pairs (z_n, z_{n+1}) from the first of the
    trailing tail_fraction of the solution's points."""
    window = default_window(sol.k)
    vals = sol.values
    m = len(vals)
    i0 = tail_start(m, tail_fraction)
    if m - i0 < 2 * window:
        raise TooShort(
            f"tail has {m - i0} points; need at least {2 * window}"
        )
    return block_verdict([block_sign(pair) for pair in zip(vals, vals[1:])], sol.n_lo,
                         i0, window)
