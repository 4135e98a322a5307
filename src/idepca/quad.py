"""Quadrature: one Chebyshev rule, held per unit interval by a kernel.

Every coefficient of the reduction is built from the running integrals of
one unit interval [n, n+1], which :class:`IntervalKernel` computes together
when it is built:

    A(t) = int_n^t a,    G(t) = int_n^t exp(-A(s)) b(s) ds.

Each integrand is sampled on Clenshaw-Curtis points, turned into Chebyshev
coefficients and integrated spectrally (Trefethen, *Approximation Theory
and Approximation Practice*, ch. 19).  A piece is accepted once the
chopping test of Aurentz & Trefethen ("Chopping a Chebyshev series", ACM
TOMS 2017) finds the series' plateau.  A piece that is not resolved at
degree 16 is retried at 32 and 64, reusing its samples, and is then
bisected; MAX_PIECES pieces per integrand bound the work.  A piece's tail
is judged against the whole interval's scale weighted by the piece's
length, since that is what the piece contributes to the integral.  The
rule has no tolerance parameter: it resolves to machine precision.  A
non-finite sample stops it at once, naming its abscissa.

A kernel samples the interval's solution z = exp(A) (z_n + z_dev G), as
exp(A) z_n + z_dev exp(A + scale) W with G = exp(scale) W, on a whole
ascending list of offsets u = t - n at once, forming t = n + u itself, so
one kernel can serve every interval whose integrands are the same
function.  ``IntervalKernel.solution`` does it in one sweep: per t it
finds the pieces of A and W that t belongs to, forms x once where their
bounds agree, runs A's Clenshaw recurrence and then W's, and forms z.
A kernel that serves a run of intervals takes its exponentials once
instead (``IntervalKernel.factors``), and each interval of the run is
then two products and a sum per sample.  :func:`_evaluate` reads one
series on ascending abscissae by the same walk; :func:`_piece` alone says
which piece a point belongs to.  The weight's integrand takes A this way
for a whole sampling round, whose Clenshaw-Curtis abscissae descend, by
reading the round reversed.  Every round yields its values lazily, and
:func:`_sample` alone stops at the first non-finite one.

:func:`integrate` is the same rule over any finite [lo, hi].  Its error
estimate is the sum of the accepted pieces' dropped Chebyshev tails, each
weighted by its piece's length; ``tol`` is the absolute error it accepts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import cycle
from math import exp, inf, isfinite, log, log10, pi, sin
from operator import itemgetter, mul
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exprlang import _safe_exp

__all__ = [
    "QuadResult",
    "NumericFailure",
    "IntervalKernel",
    "integrate",
    "MAX_PIECES",
]

DEGREES = (16, 32, 64)
MAX_PIECES = 64      # per integrand and interval
EPS = 2.0 ** -52


class QuadResult(NamedTuple):
    value: float
    error_estimate: float  # absolute
    evaluations: int


class NumericFailure(Exception):
    """Any stage's numeric failure (CLI exit 3); index names n where one applies.

    A failure in the computation of one unit interval also names its stage
    (``a_n``, ``b_n`` or ``Q_n direct``): the message then starts with the
    stage and the interval [n, n+1].
    """

    def __init__(self, message: str, index: Optional[int] = None,
                 stage: Optional[str] = None):
        self.index = index
        self.stage = stage
        if stage is not None:
            message = f"{stage} on [{index}, {index + 1}]: {message}"
        super().__init__(message)


# -- the per-interval Chebyshev kernel ----------------------------------------

@lru_cache(maxsize=None)
def _chebyshev(degree: int) -> Tuple[Tuple[float, ...], Tuple[Tuple[float, ...], ...]]:
    """The points x_j = cos(j pi / N), 1 down to -1, and the rows
    T_k(x_j) = cos(k j pi / N) of the map from values to coefficients.
    Every cosine is sin of an angle in [-pi/2, pi/2], so x_{N/2} is exactly
    0 and the points nest: the points of degree N are the even-indexed
    points of degree 2N, bit for bit.  The rows share the 2N distinct
    cosines rather than hold (N+1)^2 floats."""
    N = degree
    cosines = []
    for m in range(2 * N):     # cos(pi m / N)
        m = min(m, 2 * N - m)
        cosines.append(sin(pi * (N - 2 * m) / (2 * N)))
    rows = tuple(tuple(cosines[k * j % (2 * N)] for j in range(N + 1)) for k in range(N + 1))
    return rows[1], rows


def _coefficients(values: List[float], rows) -> List[float]:
    """Chebyshev coefficients of the interpolant in the points of rows.

    They are taken of values - values[0], and values[0] is added back, so a
    constant comes out exactly.
    """
    N = len(values) - 1
    v0 = values[0]
    shifted = [v - v0 for v in values]
    shifted[N] *= 0.5          # shifted[0] is 0, so its half weight is moot
    coeffs = [sum(map(mul, row, shifted)) * (2.0 / N) for row in rows]
    coeffs[0] = 0.5 * coeffs[0] + v0
    coeffs[N] *= 0.5
    return coeffs


def _chop(coeffs: List[float], tol: float) -> Optional[int]:
    """How many leading coefficients to keep, or None when the series has
    not reached its plateau below tol (Aurentz & Trefethen's standardChop,
    with 0-based indices)."""
    n = len(coeffs)
    envelope = [abs(c) for c in coeffs]
    for j in range(n - 2, -1, -1):
        envelope[j] = max(envelope[j], envelope[j + 1])
    if envelope[0] == 0.0:
        return 1
    envelope = [e / envelope[0] for e in envelope]
    log_tol = log(tol)
    for j in range(1, n):
        j2 = int(1.25 * (j + 1) + 5.5) - 1
        if j2 >= n:
            return None
        e1, e2 = envelope[j], envelope[j2]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - log(e1) / log_tol):
            plateau = j - 1
            break
    if envelope[plateau] == 0.0:
        return plateau + 1
    floor = tol ** (7.0 / 6.0)
    j3 = sum(1 for e in envelope if e >= floor)
    end = j2 + 1
    if j3 < end:
        end = j3 + 1
        envelope[j3] = floor
    slope = -log10(tol) / 3.0 / (end - 1)
    cost = [log10(envelope[i]) + slope * i for i in range(end)]
    return max(cost.index(min(cost)), 1)


def _cumulative(coeffs: List[float], half: float) -> List[float]:
    """Coefficients of x -> half * int_{-1}^x of the (nonempty) series
    (ATAP ch. 19)."""
    c = list(coeffs) + [0.0, 0.0]
    m = len(coeffs)
    b = [0.0] * (m + 1)
    b[1] = c[0] - 0.5 * c[2]
    for j in range(2, m + 1):
        b[j] = (c[j - 1] - c[j + 1]) / (2 * j)
    b[0] = -sum(map(mul, b[1:], cycle((-1.0, 1.0))))
    return [half * bj for bj in b]


def _evaluate(pieces: Tuple[array, ...], ts: List[float]) -> List[float]:
    """The running integral at each t of ts, which must ascend: one walk,
    taking t's piece from :func:`_piece` where t reaches the next edge.  The
    recurrence runs point by point, measured faster than a comprehension per
    coefficient or iterating the array itself (CPython 3.11)."""
    out: List[float] = []
    edge = -inf      # where the piece in hand ends
    for t in ts:
        if t >= edge:
            lo, hi, offset, c0, rest, edge = _piece(pieces, t)
        x = (2.0 * t - lo - hi) / (hi - lo)
        x2 = 2.0 * x
        b1 = b2 = 0.0
        for ck in rest:
            b1, b2 = ck + x2 * b1 - b2, b1
        out.append(offset + (c0 + x * b1 - b2))
    return out


def _running_integral(f: Callable[[List[float]], Iterable[float]], lo: float, hi: float,
                      name: str, n: Optional[int] = None,
                      stage: Optional[str] = None
                      ) -> Tuple[Tuple[array, ...], float, int, float]:
    """Resolve f piece by piece, left to right, and integrate it.

    f maps a sampling round's abscissae to an iterator over the integrand's
    values there, in order; :func:`_sample` reads it to the first non-finite.
    Returns the running integral F(t) = int_lo^t f as its pieces, F(hi), the
    number of samples of f, and the error estimate: the sum of the accepted
    pieces' dropped Chebyshev tails, each weighted by its piece's length.
    Each piece is one array('d') holding [lo, hi, offset, *series], and on
    it F = offset + the cumulative series in x, so pieces kept for every
    interval stay small.
    """
    length = hi - lo
    scale = 0.0          # the interval's scale: the largest |f| sampled
    pieces = []
    offset = 0.0
    evaluations = 0
    error = 0.0
    todo = [(lo, hi)]
    while todo:
        a, b = todo.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        values: List[float] = []
        for degree in DEGREES:
            points, rows = _chebyshev(degree)
            if values:
                fresh = _sample(f, mid, half, points[1::2], name, n, stage)
                merged = [0.0] * (degree + 1)
                merged[0::2], merged[1::2] = values, fresh
                values = merged
            else:
                values = _sample(f, mid, half, points, name, n, stage)
            local = max(map(abs, values))
            scale = max(scale, local)
            coeffs = _coefficients(values, rows)
            share = local * (b - a)
            if share <= EPS * scale * length:
                keep = 1       # below rounding of the whole integral
            else:
                keep = _chop(coeffs, min(0.5, EPS * max(1.0, scale * length / share)))
            if keep is not None:
                break
        evaluations += len(values)
        if keep is None:
            if len(pieces) + len(todo) + 2 > MAX_PIECES:
                raise NumericFailure(f"{name} not resolved within {MAX_PIECES} pieces",
                                     n, stage)
            todo += [(mid, b), (a, mid)]
            continue
        error += (b - a) * sum(map(abs, coeffs[keep:]))
        series = _cumulative(coeffs[:keep], half)
        pieces.append(array("d", [a, b, offset, *series]))
        offset += sum(series)
    return tuple(pieces), offset, evaluations, error


def _sample(f, mid, half, points, name, n, stage) -> List[float]:
    """f's values on the round's abscissae; the first non-finite one raises."""
    ts = [mid + half * x for x in points]
    values: List[float] = []
    for v in f(ts):
        values.append(v)
        if not isfinite(v):
            raise NumericFailure(f"{name} is not finite at t = {ts[len(values) - 1]!r}",
                                 n, stage)
    return values


class IntervalKernel:
    """The running integrals of a and of the weight on [n, n+1].

        A(t) = int_n^t a,    G(t) = int_n^t exp(-A(s)) b(s) ds = exp(scale) W(t)

    Both are built on construction: ``total`` is T_n = A(n+1) and ``weight``
    is W(n+1).  scale = max(0, -T_n) keeps exp(-A(s) - scale) at most 1 at
    both ends of the interval, so the weight overflows only where the
    coefficient built from it does.  A failure of A is stage ``a_n`` and a
    failure of the weight stage ``b_n``, whichever coefficient is asked for.
    The kernel keeps its n and the pieces of A and W (``_a``, ``_w``), not
    their sample counts or error estimates.
    """

    __slots__ = ("n", "_a", "_w", "total", "scale", "weight")

    def __init__(self, fa: Callable[[float], float], fb: Callable[[float], float], n: int):
        self.n = n
        self._a, self.total, _, _ = _running_integral(
            partial(map, fa), float(n), float(n + 1), "a", n, "a_n")
        A = self._a
        self.scale = scale = max(0.0, -self.total)

        def w(ts):
            # A on the round's descending abscissae, read reversed; exp and b
            # lazily, so no sample of b follows a non-finite weight
            return map(mul, map(_safe_exp, [-a - scale for a in reversed(_evaluate(A, ts[::-1]))]),
                       map(fb, ts))

        self._w, self.weight, _, _ = _running_integral(
            w, float(n), float(n + 1), "the weight", n, "b_n")

    def solution(self, us: List[float], z_n: float, z_dev: float) -> List[float]:
        """z = exp(A) z_n + z_dev exp(A + scale) W at t = n + u for ascending
        offsets u of us in [0, 1]: the interval's solution from z_n and the
        deviated value z_dev.  If an exp overflows, every z is formed as
        :func:`_solution` forms it then.

        One sweep: per t, x is formed once where A's and W's pieces share
        their bounds, and A's Clenshaw recurrence runs, then W's, with the
        floating-point operations of :func:`_evaluate` in its order.
        """
        n, scale = self.n, self.scale
        out: List[float] = []
        edge = -inf      # where the pieces in hand end
        try:
            for u in us:
                t = n + u
                if t >= edge:
                    lo, hi, offset, c0, rest, a_edge = _piece(self._a, t)
                    wlo, whi, w_offset, w0, w_rest, w_edge = _piece(self._w, t)
                    same = lo == wlo and hi == whi
                    edge = min(a_edge, w_edge)
                x = (2.0 * t - lo - hi) / (hi - lo)
                x2 = 2.0 * x
                b1 = b2 = 0.0
                for ck in rest:
                    b1, b2 = ck + x2 * b1 - b2, b1
                a = offset + (c0 + x * b1 - b2)
                if not same:
                    x = (2.0 * t - wlo - whi) / (whi - wlo)
                    x2 = 2.0 * x
                b1 = b2 = 0.0
                for ck in w_rest:
                    b1, b2 = ck + x2 * b1 - b2, b1
                out.append(exp(a) * z_n
                           + z_dev * (exp(a + scale) * (w_offset + (w0 + x * b1 - b2))))
        except OverflowError:
            ts = [n + u for u in us]
            return _solution(_evaluate(self._a, ts), _evaluate(self._w, ts), scale, z_n, z_dev)
        return out

    def factors(self, us: List[float]) -> Optional[List[Tuple[float, float]]]:
        """(E, G) = (exp(A), exp(A + scale) W) at t = n + u for ascending
        offsets u of us in [0, 1], for a kernel that serves several
        intervals: an interval's e z_n + z_dev g are then the bits of
        ``solution(us, z_n, z_dev)``.  None where an exp overflows."""
        ts = [self.n + u for u in us]
        scale = self.scale
        try:
            return [(exp(a), exp(a + scale) * w)
                    for a, w in zip(_evaluate(self._a, ts), _evaluate(self._w, ts))]
        except OverflowError:
            return None


def _piece(pieces: Tuple[array, ...], t: float):
    """The piece t belongs to, the one on its right where t is on an edge and
    the nearest one outside the pieces, as (lo, hi, offset, c0, the rest of
    the series reversed, where the next piece starts or inf after the last)."""
    i = max(bisect_right(pieces, t, key=itemgetter(0)) - 1, 0)
    piece = pieces[i]
    lo, hi, offset, c0 = piece[:4]
    end = pieces[i + 1][0] if i + 1 < len(pieces) else inf
    return lo, hi, offset, c0, piece[:3:-1].tolist(), end


def _solution(expos: Sequence[float], ws: Sequence[float], scale: float, z_n: float,
              z_dev: float) -> List[float]:
    """z = E z_n + z_dev exp(I + scale) W at each (I, W), E = exp(I).  If any
    exp overflows, every z is E (z_n + z_dev exp(scale) W) instead, which is
    +-inf, not nan, where E is inf."""
    try:
        return [exp(expo) * z_n + z_dev * (exp(expo + scale) * w)
                for expo, w in zip(expos, ws)]
    except OverflowError:
        g = _safe_exp(scale)
        return [_safe_exp(expo) * (z_n + z_dev * (g * w)) for expo, w in zip(expos, ws)]


# -- the rule over any interval ------------------------------------------------

def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> QuadResult:
    """Integrate f over [lo, hi]; lo > hi yields the sign-flipped value.

    NumericFailure when the error estimate exceeds tol, an absolute bound.
    """
    if not (isfinite(lo) and isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    _, total, evaluations, error = _running_integral(partial(map, f), min(lo, hi),
                                                     max(lo, hi), "the integrand")
    if error > tol:
        raise NumericFailure(f"error estimate {error:.3g} on [{lo!r}, {hi!r}] "
                             f"exceeds tol = {tol!r}")
    return QuadResult(total if lo <= hi else -total, error, evaluations)
