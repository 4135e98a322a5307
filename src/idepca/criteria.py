"""Oscillation and nonoscillation criteria for the reduced difference form.

Each criterion compares a tail statistic of the reduced-form coefficients
Q_n (or their positive counterparts Q*_n = -Q_n) against a threshold that
depends only on the deviation k (delayed) or l (advanced):

    delayed liminf:    k^k / (k+1)^(k+1)
    delayed moving sum: (k/(k+1))^(k+1)
    advanced sums:     ((l-1)/l)^l  and  1
    advanced pointwise: (l-1)^(l-1) / l^l

liminf/limsup are estimated at desk scale as extrema over a trailing index
window, with a two-window convergence diagnostic; a criterion only Fires
when that diagnostic passes and its sign preconditions on a_n, b_n hold
throughout the examined tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .diffeq import TooShort, tail_start
from .reduction import Direction, DiscreteSystem

__all__ = [
    "TailKind",
    "TailStats",
    "CriterionVerdict",
    "CriterionReport",
    "WrongDirection",
    "AdvanceTooSmall",
    "tail_stats",
    "delayed_liminf_threshold",
    "delayed_sum_threshold",
    "advanced_sum_threshold",
    "advanced_pointwise_threshold",
    "erbe_zhang",
    "ladas_philos_sficas",
    "gyori_ladas",
    "ocalan_akin",
    "gyori_ladas_nonosc",
    "ocalan_akin_nonosc",
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


class WrongDirection(Exception):
    pass


class AdvanceTooSmall(Exception):
    """Advanced criteria require an advance of at least 2."""


_CONVERGENCE_RTOL = 1e-3


@dataclass(frozen=True)
class TailStats:
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


@dataclass
class CriterionReport:
    criterion_id: str
    threshold: float
    statistic: TailStats
    margin: float  # sign-oriented: positive means the criterion fires
    violations: List[Tuple[int, str]]
    verdict: CriterionVerdict
    note: Optional[str] = None


def _preconditions(ds: DiscreteSystem, index_range: range,
                   b_sign: str) -> List[Tuple[int, str]]:
    """Check a_n > 0 and the required sign of b_n over index_range."""
    violations: List[Tuple[int, str]] = []
    for n in index_range:
        if not ds.a(n) > 0.0:
            violations.append((n, "a_n <= 0"))
        bn = ds.b(n)
        if b_sign == "negative" and not bn < 0.0:
            violations.append((n, "b_n >= 0"))
        elif b_sign == "positive" and not bn > 0.0:
            violations.append((n, "b_n <= 0"))
    return violations


def _report(criterion_id: str, threshold: float, stats: TailStats, margin: float,
            ds: DiscreteSystem, b_sign: str, fire_on_boundary: bool = False,
            note: Optional[str] = None) -> CriterionReport:
    violations = _preconditions(ds, range(stats.window[0], stats.window[1] + 1), b_sign)
    if violations:
        verdict = CriterionVerdict.PRECONDITION_VIOLATED
    else:
        fires = margin > 0.0 or (fire_on_boundary and margin == 0.0)
        fires = fires and stats.convergence_flag
        verdict = CriterionVerdict.FIRES if fires else CriterionVerdict.DOES_NOT_FIRE
    return CriterionReport(criterion_id, threshold, stats, margin, violations, verdict,
                           note)


def _require(ds: DiscreteSystem, direction: Direction, min_advance: int = 0):
    if ds.direction is not direction:
        raise WrongDirection(
            f"criterion applies to {direction.value} systems, got {ds.direction.value}"
        )
    if direction is Direction.ADVANCED and ds.k < min_advance:
        raise AdvanceTooSmall(f"advance must be >= {min_advance}, got {ds.k}")


def erbe_zhang(ds: DiscreteSystem, tail_fraction: float = 0.5) -> CriterionReport:
    """Oscillation (delayed): liminf Q*_n above k^k/(k+1)^(k+1)."""
    _require(ds, Direction.DELAYED)
    qstar = [-q for q in ds.q_seq]
    stats = tail_stats(qstar, TailKind.LIMINF, tail_fraction, offset=ds.q_start)
    thr = delayed_liminf_threshold(ds.k)
    return _report("ErbeZhang", thr, stats, stats.statistic - thr, ds, "negative")


def ladas_philos_sficas(ds: DiscreteSystem, tail_fraction: float = 0.5) -> CriterionReport:
    """Oscillation (delayed): liminf of the k-term moving sum of Q*."""
    _require(ds, Direction.DELAYED)
    k = ds.k
    qstar = [-q for q in ds.q_seq]
    if len(qstar) < k + 1:
        raise TooShort("not enough Q values for the moving sum")
    # sum over j in [n-k, n-1]; entry i of sums corresponds to n = q_start + k + i
    sums = [math.fsum(qstar[i:i + k]) for i in range(len(qstar) - k)]
    stats = tail_stats(sums, TailKind.LIMINF, tail_fraction, offset=ds.q_start + k)
    thr = delayed_sum_threshold(k)
    return _report("LadasPhilosSficas", thr, stats, stats.statistic - thr, ds, "negative")


def gyori_ladas(ds: DiscreteSystem, tail_fraction: float = 0.5
                ) -> Tuple[CriterionReport, CriterionReport]:
    """Oscillation (advanced): two sub-criteria on short sums of Q_n.

    A: liminf of the (l-1)-term sum starting at n+1 vs ((l-1)/l)^l.
    B: limsup of the l-term sum starting at n vs 1.
    The pair fires if either sub-report fires.
    """
    _require(ds, Direction.ADVANCED, min_advance=2)
    l = ds.k
    q = ds.q_seq
    if len(q) < l + 1:
        raise TooShort("not enough Q values for the advanced sums")
    sums_a = [math.fsum(q[i + 1:i + l]) for i in range(len(q) - l)]
    sums_b = [math.fsum(q[i:i + l]) for i in range(len(q) - l + 1)]
    stats_a = tail_stats(sums_a, TailKind.LIMINF, tail_fraction, offset=ds.q_start)
    stats_b = tail_stats(sums_b, TailKind.LIMSUP, tail_fraction, offset=ds.q_start)
    thr_a = advanced_sum_threshold(l)
    rep_a = _report("GyoriLadasA", thr_a, stats_a, stats_a.statistic - thr_a, ds, "positive")
    rep_b = _report("GyoriLadasB", 1.0, stats_b, stats_b.statistic - 1.0, ds, "positive")
    return rep_a, rep_b


_OCALAN_NOTE = (
    "condition evaluated on signed Q_n (limsup Q_n < -threshold); the source "
    "formulation is stated for the positive counterpart, which cannot be "
    "negative by definition"
)


def ocalan_akin(ds: DiscreteSystem, tail_fraction: float = 0.5) -> CriterionReport:
    """Oscillation (advanced, b_n < 0): limsup Q_n below -(l-1)^(l-1)/l^l."""
    _require(ds, Direction.ADVANCED, min_advance=2)
    l = ds.k
    stats = tail_stats(ds.q_seq, TailKind.LIMSUP, tail_fraction, offset=ds.q_start)
    thr = -advanced_pointwise_threshold(l)
    return _report("OcalanAkin", thr, stats, thr - stats.statistic, ds, "negative",
                   note=_OCALAN_NOTE)


def gyori_ladas_nonosc(ds: DiscreteSystem, tail_fraction: float = 0.5) -> CriterionReport:
    """Nonoscillation (delayed): Q*_n <= k^k/(k+1)^(k+1) pointwise over the tail.

    Pointwise, not liminf: the hypothesis bounds every coefficient, so the
    statistic is the tail maximum of Q* and the boundary case fires.
    """
    _require(ds, Direction.DELAYED)
    qstar = [-q for q in ds.q_seq]
    stats = tail_stats(qstar, TailKind.LIMSUP, tail_fraction, offset=ds.q_start)
    thr = delayed_liminf_threshold(ds.k)
    return _report("GyoriLadasNonOsc", thr, stats, thr - stats.statistic, ds,
                   "negative", fire_on_boundary=True)


def ocalan_akin_nonosc(ds: DiscreteSystem, tail_fraction: float = 0.5) -> CriterionReport:
    """Nonoscillation (advanced, b_n > 0): liminf Q_n above -(l-1)^(l-1)/l^l."""
    _require(ds, Direction.ADVANCED, min_advance=2)
    l = ds.k
    stats = tail_stats(ds.q_seq, TailKind.LIMINF, tail_fraction, offset=ds.q_start)
    thr = -advanced_pointwise_threshold(l)
    return _report("OcalanAkinNonOsc", thr, stats, stats.statistic - thr, ds, "positive")


OSCILLATION_IDS = frozenset(
    {"ErbeZhang", "LadasPhilosSficas", "GyoriLadasA", "GyoriLadasB", "OcalanAkin"}
)
NONOSCILLATION_IDS = frozenset({"GyoriLadasNonOsc", "OcalanAkinNonOsc"})


def evaluate_all(ds: DiscreteSystem, tail_fraction: float = 0.5) -> List[CriterionReport]:
    """All criteria applicable to the system's direction (and advance size)."""
    reports: List[CriterionReport] = []
    if ds.direction is Direction.DELAYED:
        reports.append(erbe_zhang(ds, tail_fraction))
        reports.append(ladas_philos_sficas(ds, tail_fraction))
        reports.append(gyori_ladas_nonosc(ds, tail_fraction))
    elif ds.k >= 2:
        reports.extend(gyori_ladas(ds, tail_fraction))
        reports.append(ocalan_akin(ds, tail_fraction))
        reports.append(ocalan_akin_nonosc(ds, tail_fraction))
    return reports


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
