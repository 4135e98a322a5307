"""Adaptive Simpson quadrature.

All definite integrals in the coefficient formulas run through
:func:`integrate`.  A panel is accepted when the fine and coarse Simpson
estimates agree to within 15x the local tolerance; the Richardson-corrected
fine estimate is returned.  Reversed bounds flip the sign of the result
without re-integration.  Non-finite integrand samples abort immediately:
singularities are the caller's problem, and this is where they surface.

Samples are taken in a fixed order: both ends, the midpoint, then at each
panel its left and right quarter points, left subtree first.  Every panel
the recursion visits costs two samples, so ``QuadResult.evaluations`` is
3 + 2 * (number of panels visited), or 1 for an empty interval (one
sample, checked for finiteness, at lo).  It equals the number of calls the
integrand received.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, NamedTuple, Optional

__all__ = [
    "QuadResult",
    "NumericFailure",
    "SingularIntegrand",
    "integrate",
    "MAX_DEPTH",
]

MAX_DEPTH = 60


class QuadResult(NamedTuple):
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
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if lo == hi:
        if not isfinite(f(lo)):
            raise SingularIntegrand(lo)
        return QuadResult(0.0, 0.0, 1)

    sign = 1.0
    a, b = lo, hi
    if a > b:
        a, b = b, a
        sign = -1.0

    fa = f(a)
    if not isfinite(fa):
        raise SingularIntegrand(a)
    fb = f(b)
    if not isfinite(fb):
        raise SingularIntegrand(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not isfinite(fm):
        raise SingularIntegrand(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, err, panels = _adapt(f, a, fa, m, fm, b, fb, whole, tol, 0)
    return QuadResult(sign * value, err, 3 + 2 * panels)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth):
    """(value, error, panels visited) of the panel [a, b] with midpoint m."""
    if depth > MAX_DEPTH:
        raise NumericFailure(f"no convergence on [{a}, {b}] after depth {depth}")
    lm = 0.5 * (a + m)
    flm = f(lm)
    if not isfinite(flm):
        raise SingularIntegrand(lm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    rm = 0.5 * (m + b)
    frm = f(rm)
    if not isfinite(frm):
        raise SingularIntegrand(rm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, 1
    half = 0.5 * tol
    lv, le, ln = _adapt(f, a, fa, lm, flm, m, fm, left, half, depth + 1)
    rv, re_, rn = _adapt(f, m, fm, rm, frm, b, fb, right, half, depth + 1)
    return lv + rv, le + re_, ln + rn + 1
