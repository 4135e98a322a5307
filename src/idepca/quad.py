"""Adaptive Simpson quadrature.

All definite integrals in the coefficient formulas run through
:func:`integrate`.  A panel is accepted when the fine and coarse Simpson
estimates agree to within 15x the local tolerance; the Richardson-corrected
fine estimate is returned.  Reversed bounds flip the sign of the result
without re-integration.  Non-finite integrand samples abort immediately:
singularities are the caller's problem, and this is where they surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "QuadResult",
    "NumericFailure",
    "SingularIntegrand",
    "integrate",
    "MAX_DEPTH",
]

MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float  # absolute
    evaluations: int


class NumericFailure(Exception):
    """Any stage's numeric failure (CLI exit 3); index names n where one applies."""

    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


class SingularIntegrand(NumericFailure):
    """A non-finite integrand sample; carries the offending abscissa."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"non-finite integrand sample at {abscissa!r}")


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> QuadResult:
    """Integrate f over [lo, hi]; lo > hi yields the sign-flipped value."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    count = [0]

    def sample(x: float) -> float:
        count[0] += 1
        y = f(x)
        if not math.isfinite(y):
            raise SingularIntegrand(x)
        return y

    if lo == hi:
        sample(lo)
        return QuadResult(0.0, 0.0, count[0])

    sign = 1.0
    a, b = lo, hi
    if a > b:
        a, b = b, a
        sign = -1.0

    fa, fb = sample(a), sample(b)
    m, fm, whole = _panel(sample, a, fa, b, fb)
    value, err = _adapt(sample, a, fa, m, fm, b, fb, whole, tol, 0)
    return QuadResult(sign * value, err, count[0])


def _panel(sample, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = sample(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(sample, a, fa, m, fm, b, fb, whole, tol, depth):
    if depth > MAX_DEPTH:
        raise NumericFailure(f"no convergence on [{a}, {b}] after depth {depth}")
    lm, flm, left = _panel(sample, a, fa, m, fm)
    rm, frm, right = _panel(sample, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    half = 0.5 * tol
    lv, le = _adapt(sample, a, fa, lm, flm, m, fm, left, half, depth + 1)
    rv, re_ = _adapt(sample, m, fm, rm, frm, b, fb, right, half, depth + 1)
    return lv + rv, le + re_

