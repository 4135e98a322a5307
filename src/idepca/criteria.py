"""Oscillation and nonoscillation criteria for the reduced difference form.

``CRITERIA`` holds one row per published hypothesis: its direction, its
family (oscillation or nonoscillation), the statistic (a tail liminf or
limsup of sums of Q_n, or of Q*_n = -Q_n, over the row's index offsets),
the threshold as a function of the deviation k (delayed) or l (advanced)
and the side of the threshold that fires.  Where a_n > 0, Q_n has the sign
of b_n, so b_n must keep the row's sign of Q.  One evaluator turns a row
into a ``CriterionReport``; ``evaluate_all`` runs the rows of the system's
direction, and ``first_read`` gives the first interval they read.

liminf/limsup are estimated at desk scale as extrema over a trailing index
window, with a two-window convergence diagnostic; a criterion only Fires
when that diagnostic passes and its sign preconditions on a_n, b_n hold
throughout the examined tail.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .quad import NumericFailure
from .reduction import Direction, DiscreteSystem, ProblemSpec, TooShort, q_range, tail_start

__all__ = [
    "TailKind",
    "TailStats",
    "CriterionVerdict",
    "CriterionReport",
    "Criterion",
    "CRITERIA",
    "tail_stats",
    "delayed_liminf_threshold",
    "delayed_sum_threshold",
    "advanced_sum_threshold",
    "advanced_pointwise_threshold",
    "evaluate_all",
    "first_read",
    "synthesize_verdict",
    "OSCILLATION_IDS",
    "NONOSCILLATION_IDS",
]


class TailKind(Enum):
    LIMINF = "Liminf"
    LIMSUP = "Limsup"


class CriterionVerdict(Enum):
    FIRES = "Fires"
    DOES_NOT_FIRE = "DoesNotFire"
    PRECONDITION_VIOLATED = "PreconditionViolated"


_CONVERGENCE_RTOL = 1e-3


class TailStats(NamedTuple):
    statistic: float
    kind: TailKind
    window: Tuple[int, int]  # inclusive index range the extremum was taken over
    convergence_flag: bool


def _extremum(values: Sequence[float], kind: TailKind) -> float:
    return min(values) if kind is TailKind.LIMINF else max(values)


def tail_stats(seq: Sequence[float], kind: TailKind, tail_fraction: float = 0.5,
               offset: int = 0) -> TailStats:
    """Desk-scale liminf/limsup: extremum over the trailing tail_fraction.

    The convergence flag compares the last-half and last-quarter estimates;
    offset shifts the reported window to absolute indices.
    """
    m = len(seq)
    _first_read(m, tail_fraction)   # raises TooShort below 8 points
    i0 = tail_start(m, tail_fraction)
    statistic = _extremum(seq[i0:], kind)

    est_half = _extremum(seq[m - max(1, m // 2):], kind)
    est_quarter = _extremum(seq[m - max(1, m // 4):], kind)
    diff = abs(est_half - est_quarter)
    scale = max(abs(est_half), abs(est_quarter))
    flag = diff <= _CONVERGENCE_RTOL * scale or diff == 0.0
    return TailStats(statistic, kind, (offset + i0, offset + m - 1), flag)


def _first_read(m: int, tail_fraction: float) -> int:
    """The first of m points tail_stats reads: its tail's or its diagnostic's."""
    if m < 8:
        raise TooShort(f"need at least 8 points, got {m}")
    return min(tail_start(m, tail_fraction), m - max(1, m // 2))


# thresholds are computed from integer powers, never hard-coded

def delayed_liminf_threshold(k: int) -> float:
    return k ** k / (k + 1) ** (k + 1)


def delayed_sum_threshold(k: int) -> float:
    return k ** (k + 1) / (k + 1) ** (k + 1)


def advanced_sum_threshold(l: int) -> float:
    return (l - 1) ** l / l ** l


def advanced_pointwise_threshold(l: int) -> float:
    return (l - 1) ** (l - 1) / l ** l


class CriterionReport(NamedTuple):
    """One criterion's evaluation; its fields are the keys of its analyze entry."""

    criterion_id: str
    threshold: float
    statistic: float
    kind: TailKind
    window: Tuple[int, int]
    margin: float  # sign-oriented: positive means the criterion fires
    convergence_flag: bool
    precondition_violations: List[Tuple[int, str]]
    verdict: CriterionVerdict


class Criterion(NamedTuple):
    """One published hypothesis on the reduced coefficients, as a table row.

    terms(k) gives the offsets (lo, hi): the row's entry at index n is the
    fsum of sign * Q_j for j in n+lo..n+hi (sign -1 gives Q*_j = -Q_j), and
    it exists wherever n and every such j are Q indices.
    """

    criterion_id: str
    direction: Direction
    oscillation: bool  # family: True proves oscillation, False nonoscillation
    sign: int  # of the Q terms, and the sign b_n must keep over the tail
    terms: Callable[[int], Tuple[int, int]]
    kind: TailKind
    threshold: Callable[[int], float]
    above: bool  # fires when the statistic is above the threshold, else below
    boundary_fires: bool = False  # a non-strict bound: margin 0 fires too


def _pointwise(k: int) -> Tuple[int, int]:
    return 0, 0


_D, _A = Direction.DELAYED, Direction.ADVANCED
_INF, _SUP = TailKind.LIMINF, TailKind.LIMSUP

# Columns: id, direction, oscillation family, sign of Q, term offsets, tail
# kind, threshold(k), fires above the threshold.
# Within a direction the reports come in row order.
CRITERIA: Tuple[Criterion, ...] = (
    Criterion("ErbeZhang", _D, True, -1, _pointwise, _INF,
              delayed_liminf_threshold, True),
    Criterion("LadasPhilosSficas", _D, True, -1, lambda k: (-k, -1), _INF,
              delayed_sum_threshold, True),
    Criterion("GyoriLadasNonOsc", _D, False, -1, _pointwise, _SUP,
              delayed_liminf_threshold, False, boundary_fires=True),
    Criterion("GyoriLadasA", _A, True, 1, lambda l: (1, l - 1), _INF,
              advanced_sum_threshold, True),
    Criterion("GyoriLadasB", _A, True, 1, lambda l: (0, l - 1), _SUP,
              lambda l: 1.0, True),
    Criterion("OcalanAkinNonOsc", _A, False, 1, _pointwise, _INF,
              lambda l: -advanced_pointwise_threshold(l), True),
)

OSCILLATION_IDS = frozenset(c.criterion_id for c in CRITERIA if c.oscillation)
NONOSCILLATION_IDS = frozenset(c.criterion_id for c in CRITERIA if not c.oscillation)


def _preconditions(ds: DiscreteSystem, index_range: range,
                   sign: int) -> List[Tuple[int, str]]:
    """Check a_n > 0 and that b_n has the given sign over index_range."""
    violations: List[Tuple[int, str]] = []
    for n in index_range:
        if not ds.a(n) > 0.0:
            violations.append((n, "a_n <= 0"))
        if not sign * ds.b(n) > 0.0:
            violations.append((n, "b_n >= 0" if sign < 0 else "b_n <= 0"))
    return violations


def _sums(row: Criterion, ds: DiscreteSystem, start: int, stop: int) -> List[float]:
    """The row's entries at the indices start..stop-1, each an fsum of sign * Q_j."""
    lo, hi = row.terms(ds.k)
    values = [row.sign * ds.q(j) for j in range(start + lo, stop + hi)]
    sums: List[float] = []
    try:
        for i in range(stop - start):
            sums.append(math.fsum(values[i:i + hi - lo + 1]))
    except OverflowError:
        n = start + lo + len(sums)
        raise NumericFailure(f"at index {n}: the sum of {hi - lo + 1} Q values from Q_{n} "
                             "overflows", n) from None
    return sums


def _entries(row: Criterion, k: int, q_all: range, tail_fraction: float) -> Tuple[int, int, int]:
    """(n, s, m): the row's m entries are at the indices n.. whose terms
    n+lo..n+hi all lie in q_all; tail_stats reads them from entry s on."""
    lo, hi = row.terms(k)
    m = len(q_all) - max(0, hi) - max(0, -lo)
    if m < 1:
        what = "moving sum" if row.direction is _D else "advanced sums"
        raise TooShort(f"not enough Q values for the {what}")
    return q_all.start + max(0, -lo), _first_read(m, tail_fraction), m


def _evaluate(row: Criterion, ds: DiscreteSystem, tail_fraction: float) -> CriterionReport:
    n, s, m = _entries(row, ds.k, ds.q_all, tail_fraction)
    # tail_stats reads no entry before s, so they are neither summed nor built
    sums = _sums(row, ds, n + s, n + m)
    stats = tail_stats([None] * s + sums, row.kind, tail_fraction, offset=n)
    threshold = row.threshold(ds.k)
    margin = stats.statistic - threshold if row.above else threshold - stats.statistic
    violations = _preconditions(ds, range(stats.window[0], stats.window[1] + 1), row.sign)
    if violations:
        verdict = CriterionVerdict.PRECONDITION_VIOLATED
    else:
        fires = margin > 0.0 or (row.boundary_fires and margin == 0.0)
        fires = fires and stats.convergence_flag
        verdict = CriterionVerdict.FIRES if fires else CriterionVerdict.DOES_NOT_FIRE
    return CriterionReport(row.criterion_id, threshold, stats.statistic, stats.kind,
                           stats.window, margin, stats.convergence_flag, violations,
                           verdict)


def _rows(direction: Direction, k: int) -> List[Criterion]:
    """The rows of a direction; the advanced ones need an advance of at least 2."""
    return [row for row in CRITERIA if row.direction is direction and (k > 1 or direction is _D)]


def evaluate_all(ds: DiscreteSystem, tail_fraction: float = 0.5) -> List[CriterionReport]:
    """The reports of the system's direction, in row order."""
    return [_evaluate(row, ds, tail_fraction) for row in _rows(ds.direction, ds.k)]


def first_read(spec: ProblemSpec, tail_fraction: float) -> int:
    """The first interval whose kernel evaluate_all reads, through Q_n (the
    kernels of n-k..n delayed, n..n+k-1 advanced) or a window's a_n and b_n.
    Raises TooShort as evaluate_all does."""
    k, first, lag = spec.k, spec.horizon, spec.k if spec.direction is _D else 0
    for row in _rows(spec.direction, k):
        n, s, m = _entries(row, k, q_range(spec, spec.n0), tail_fraction)
        first = min(first, n + s + row.terms(k)[0] - lag, n + tail_start(m, tail_fraction))
    return first


def synthesize_verdict(reports: Sequence[CriterionReport]) -> str:
    """Overall call: oscillation criteria win, conflicts are surfaced."""
    osc = any(r.criterion_id in OSCILLATION_IDS and r.verdict is CriterionVerdict.FIRES
              for r in reports)
    nonosc = any(r.criterion_id in NONOSCILLATION_IDS and r.verdict is CriterionVerdict.FIRES
                 for r in reports)
    if osc and nonosc:
        return "ConflictDetected"
    if osc:
        return "Oscillatory"
    if nonosc:
        return "Nonoscillatory"
    return "Inconclusive"
