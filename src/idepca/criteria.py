"""Oscillation and nonoscillation criteria for the reduced difference form.

``CRITERIA`` holds one row per published hypothesis: its direction, its
family (oscillation or nonoscillation), the statistic (a tail liminf or
limsup of sums of Q_n, or of Q*_n = -Q_n, over the row's index offsets),
the threshold as a function of the deviation k (delayed) or l (advanced),
the side of the threshold that fires and the sign that b_n must keep.  One
evaluator turns a row into a ``CriterionReport``; ``evaluate_all`` runs the
rows of the system's direction.

liminf/limsup are estimated at desk scale as extrema over a trailing index
window, with a two-window convergence diagnostic; a criterion only Fires
when that diagnostic passes and its sign preconditions on a_n, b_n hold
throughout the examined tail.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .diffeq import TooShort, tail_start
from .quad import NumericFailure
from .reduction import Direction, DiscreteSystem

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
    if m < 8:
        raise TooShort(f"need at least 8 points, got {m}")
    i0 = tail_start(m, tail_fraction)
    statistic = _extremum(seq[i0:], kind)

    est_half = _extremum(seq[m - max(1, m // 2):], kind)
    est_quarter = _extremum(seq[m - max(1, m // 4):], kind)
    diff = abs(est_half - est_quarter)
    scale = max(abs(est_half), abs(est_quarter))
    flag = diff <= _CONVERGENCE_RTOL * scale or diff == 0.0
    return TailStats(statistic, kind, (offset + i0, offset + m - 1), flag)


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
    sign: int
    terms: Callable[[int], Tuple[int, int]]
    kind: TailKind
    threshold: Callable[[int], float]
    above: bool  # fires when the statistic is above the threshold, else below
    b_sign: int  # required sign of b_n over the examined tail
    boundary_fires: bool = False  # a non-strict bound: margin 0 fires too


def _pointwise(k: int) -> Tuple[int, int]:
    return 0, 0


_D, _A = Direction.DELAYED, Direction.ADVANCED
_INF, _SUP = TailKind.LIMINF, TailKind.LIMSUP

# Columns: id, direction, oscillation family, sign of Q, term offsets, tail
# kind, threshold(k), fires above the threshold, required sign of b_n.
# Within a direction the reports come in row order.
CRITERIA: Tuple[Criterion, ...] = (
    Criterion("ErbeZhang", _D, True, -1, _pointwise, _INF,
              delayed_liminf_threshold, True, -1),
    Criterion("LadasPhilosSficas", _D, True, -1, lambda k: (-k, -1), _INF,
              delayed_sum_threshold, True, -1),
    Criterion("GyoriLadasNonOsc", _D, False, -1, _pointwise, _SUP,
              delayed_liminf_threshold, False, -1, boundary_fires=True),
    Criterion("GyoriLadasA", _A, True, 1, lambda l: (1, l - 1), _INF,
              advanced_sum_threshold, True, 1),
    Criterion("GyoriLadasB", _A, True, 1, lambda l: (0, l - 1), _SUP,
              lambda l: 1.0, True, 1),
    Criterion("OcalanAkinNonOsc", _A, False, 1, _pointwise, _INF,
              lambda l: -advanced_pointwise_threshold(l), True, 1),
)

OSCILLATION_IDS = frozenset(c.criterion_id for c in CRITERIA if c.oscillation)
NONOSCILLATION_IDS = frozenset(c.criterion_id for c in CRITERIA if not c.oscillation)


def _preconditions(ds: DiscreteSystem, index_range: range,
                   b_sign: int) -> List[Tuple[int, str]]:
    """Check a_n > 0 and the required sign of b_n over index_range."""
    violations: List[Tuple[int, str]] = []
    for n in index_range:
        if not ds.a(n) > 0.0:
            violations.append((n, "a_n <= 0"))
        if not b_sign * ds.b(n) > 0.0:
            violations.append((n, "b_n >= 0" if b_sign < 0 else "b_n <= 0"))
    return violations


def _moving_sums(values: Sequence[float], start: int, width: int) -> List[float]:
    """Entry i: fsum of values[i : i + width]; values[0] is Q_start."""
    sums = []
    for i in range(len(values) - width + 1):
        try:
            sums.append(math.fsum(values[i:i + width]))
        except OverflowError:
            n = start + i
            raise NumericFailure(
                f"at index {n}: the sum of {width} Q values from Q_{n} overflows", n
            ) from None
    return sums


def _evaluate(row: Criterion, ds: DiscreteSystem, tail_fraction: float) -> CriterionReport:
    k = ds.k
    lo, hi = row.terms(k)
    # positions p = n - q_start whose terms p+lo..p+hi are all Q positions
    first, last = max(0, -lo), len(ds.q_seq) - 1 - max(0, hi)
    if last < first:
        what = "moving sum" if row.direction is _D else "advanced sums"
        raise TooShort(f"not enough Q values for the {what}")
    values = [row.sign * q for q in ds.q_seq[first + lo:last + hi + 1]]
    sums = _moving_sums(values, ds.q_start + first + lo, hi - lo + 1)
    stats = tail_stats(sums, row.kind, tail_fraction, offset=ds.q_start + first)
    threshold = row.threshold(k)
    margin = stats.statistic - threshold if row.above else threshold - stats.statistic
    violations = _preconditions(ds, range(stats.window[0], stats.window[1] + 1), row.b_sign)
    if violations:
        verdict = CriterionVerdict.PRECONDITION_VIOLATED
    else:
        fires = margin > 0.0 or (row.boundary_fires and margin == 0.0)
        fires = fires and stats.convergence_flag
        verdict = CriterionVerdict.FIRES if fires else CriterionVerdict.DOES_NOT_FIRE
    return CriterionReport(row.criterion_id, threshold, stats.statistic, stats.kind,
                           stats.window, margin, stats.convergence_flag, violations,
                           verdict)


def evaluate_all(ds: DiscreteSystem, tail_fraction: float = 0.5) -> List[CriterionReport]:
    """The reports of the system's direction, in row order; the advanced
    criteria need an advance of at least 2."""
    if ds.direction is Direction.ADVANCED and ds.k < 2:
        return []
    return [_evaluate(row, ds, tail_fraction) for row in CRITERIA
            if row.direction is ds.direction]


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
