"""Solvers for the delayed and advanced difference equations.

The delayed equation runs forward directly.  The advanced equation needs
its recursion rearranged: for k >= 2 every new value z_{n+k} comes from
(z_{n+1} - a_n z_n) / b_n, filling indices upward (the needed z_{n+1} is
always already known), and for k = 1 the relation collapses to
z_{n+1} = a_n z_n / (1 - b_n).  This rearranged forward sweep is the
canonical continuation of the given initial window; for k = 1 only the
window's first entry participates, since the recursion itself already
determines every later value.

The empirical oscillation check approximates "sign changes beyond every
index" at desk scale: every fixed-length block of the examined tail must
contain an index with z_n * z_{n+1} <= 0.  A zero counts as a sign change,
with no epsilon band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .reduction import Direction, DiscreteSystem

__all__ = [
    "Verdict",
    "DiscreteSolution",
    "OscillationVerdictDiscrete",
    "AdvanceDivisionByZero",
    "DegenerateAdvance",
    "TooShort",
    "solve_delayed",
    "solve_advanced",
    "solve",
    "reduce_to_y",
    "discrete_oscillation_check",
    "default_window",
    "sign_change",
    "tail_start",
    "block_verdict",
]


class Verdict(Enum):
    OSCILLATORY = "Oscillatory"
    EVENTUALLY_POSITIVE = "EventuallyPositive"
    EVENTUALLY_NEGATIVE = "EventuallyNegative"
    INCONCLUSIVE = "Inconclusive"


class AdvanceDivisionByZero(Exception):
    """b_n = 0 where the rearranged advanced recursion must divide by it."""

    def __init__(self, n: int):
        self.index = n
        super().__init__(f"b_{n} = 0: advanced recursion cannot be rearranged")


class DegenerateAdvance(Exception):
    """k = 1 with b_n = 1: the advance step is degenerate."""

    def __init__(self, n: int):
        self.index = n
        super().__init__(f"b_{n} = 1 with k = 1: degenerate advance")


class TooShort(Exception):
    """Not enough points for the requested tail analysis."""


@dataclass
class DiscreteSolution:
    n_lo: int
    values: List[float]
    direction: Direction
    k: int
    truncated_at: Optional[int] = None  # first index whose value went non-finite

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

        For advanced k >= 2 the rearranged sweep enforces the relation only
        from n0+1 on: the initial window is free on the first interval.
        """
        if self.direction is Direction.DELAYED:
            return range(self.n_lo + self.k, self.n_hi)
        return range(self.n_lo + (self.k > 1), self.n_hi - self.k + 1)


def solve_delayed(ds: DiscreteSystem, init: Sequence[float]) -> DiscreteSolution:
    """Forward recursion z_{n+1} = a_n z_n + b_n z_{n-k}.

    init supplies z at indices n0-k .. n0.
    """
    k = ds.k
    if len(init) != k + 1:
        raise ValueError(f"initial window must have {k + 1} entries")
    n_lo = ds.n0 - k
    values = [float(v) for v in init]
    truncated = None
    for n in range(ds.n0, ds.horizon):
        z = ds.a(n) * values[n - n_lo] + ds.b(n) * values[n - k - n_lo]
        if not math.isfinite(z):
            truncated = n + 1
            break
        values.append(z)
    return DiscreteSolution(n_lo, values, Direction.DELAYED, k, truncated)


def solve_advanced(ds: DiscreteSystem, init: Sequence[float]) -> DiscreteSolution:
    """Rearranged forward sweep for z_{n+1} = a_n z_n + b_n z_{n+k}.

    init supplies z at indices n0 .. n0+k.  For k = 1 only init[0] is used;
    the recursion determines all later values.
    """
    k = ds.k
    if len(init) != k + 1:
        raise ValueError(f"initial window must have {k + 1} entries")
    n_lo = ds.n0
    truncated = None
    if k == 1:
        values = [float(init[0])]
        for n in range(ds.n0, ds.horizon):
            b = ds.b(n)
            if b == 1.0:
                raise DegenerateAdvance(n)
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
                raise AdvanceDivisionByZero(n)
            z = (values[n + 1 - n_lo] - ds.a(n) * values[n - n_lo]) / b
            if not math.isfinite(z):
                truncated = n + k
                break
            values.append(z)
    return DiscreteSolution(n_lo, values, Direction.ADVANCED, k, truncated)


def solve(ds: DiscreteSystem, init: Sequence[float]) -> DiscreteSolution:
    if ds.direction is Direction.DELAYED:
        return solve_delayed(ds, init)
    return solve_advanced(ds, init)


def reduce_to_y(ds: DiscreteSystem, sol: DiscreteSolution) -> List[float]:
    """y_n = alpha_n z_n for n in [n0, ...], aligned at ds.n0."""
    n_hi = min(sol.n_hi, ds.n0 + len(ds.alpha_seq) - 1)
    return [ds.alpha(n) * sol.value(n) for n in range(ds.n0, n_hi + 1)]


def sign_change(u: float, v: float) -> bool:
    """u * v <= 0, evaluated without forming the (possibly huge) product."""
    return u == 0.0 or v == 0.0 or (u > 0.0) != (v > 0.0)


def tail_start(m: int, fraction: float) -> int:
    """First position of the trailing fraction of m points (at least one)."""
    return m - max(1, int(round(m * fraction)))


def block_verdict(blocks: Sequence[Sequence[float]], start: int, window: int) -> Verdict:
    """Sign verdict on blocks[start:].

    Eventually positive/negative when every value there has one strict sign;
    Oscillatory when every complete run of window blocks from start holds a
    value <= 0 and a value >= 0; Inconclusive otherwise.
    """
    tail = [v for block in blocks[start:] for v in block]
    if all(v > 0.0 for v in tail):
        return Verdict.EVENTUALLY_POSITIVE
    if all(v < 0.0 for v in tail):
        return Verdict.EVENTUALLY_NEGATIVE
    while start + window <= len(blocks):
        vals = [v for block in blocks[start:start + window] for v in block]
        if not (min(vals) <= 0.0 <= max(vals)):
            return Verdict.INCONCLUSIVE
        start += window
    return Verdict.OSCILLATORY


def default_window(k: int) -> int:
    # scales with the deviation: a sign change is demanded in every block
    # of 2(k+1) consecutive indices of the examined tail
    return 2 * (k + 1)


@dataclass
class OscillationVerdictDiscrete:
    verdict: Verdict
    last_sign_change: Optional[int]
    tail_window: Tuple[int, int]


def discrete_oscillation_check(sol: DiscreteSolution, tail_fraction: float = 0.5,
                               window: Optional[int] = None) -> OscillationVerdictDiscrete:
    """Empirical verdict from the examined tail of the solution.

    Oscillatory requires a sign change inside every complete length-window
    block of the tail; EventuallyPositive/Negative require a strictly
    constant sign across the whole tail.
    """
    if window is None:
        window = default_window(sol.k)
    vals = sol.values
    m = len(vals)
    i0 = tail_start(m, tail_fraction)
    if m - i0 < 2 * window:
        raise TooShort(
            f"tail has {m - i0} points; need at least {2 * window}"
        )
    # pair i holds positions i and i+1; for finite values it holds both
    # signs exactly when sign_change is true
    pairs = list(zip(vals, vals[1:]))
    changes = [i for i, (u, v) in enumerate(pairs) if sign_change(u, v)]
    last_change = sol.n_lo + changes[-1] if changes else None
    tail_window = (sol.n_lo + i0, sol.n_lo + m - 1)
    return OscillationVerdictDiscrete(block_verdict(pairs, i0, window), last_change,
                                      tail_window)
