"""Reduction of the hybrid system to a delayed/advanced difference equation.

For each unit interval [n, n+1) the continuous problem collapses to

    z_{n+1} = a_n z_n + b_n z_{n -+ k}

with

    a_n = r_{n+1} * exp( I(n, n+1) ),
    b_n = r_{n+1} * int_n^{n+1} exp( I(s, n+1) ) b(s) ds,

where I(s, T) is the integral of the continuous coefficient a over [s, T]
and r_n is the jump factor applied when crossing node n (r_n = 1 for the
non-impulsive case).  From a_n the cumulative weights alpha_n and the
reduced-form coefficients Q_n are derived.

Every integral comes from one record per interval, built by the interval's
kernel (quad.IntervalKernel) at the first coefficient that needs it:
T_n = I(n, n+1) and G_n = int_n^{n+1} exp(-I(n, s)) b(s) ds = exp(scale) W_n,
since I(s, target) = I(n, target) - I(n, s).  So b_n = r_{n+1} exp(T_n) G_n.

Q_n is computed by two independent routes -- the alpha-ratio definition and
a direct route that aims the weight at the deviated node, sums the T_j
itself and multiplies the jump factors in -- and the build aborts if they
disagree.  That audit is the main defense against index and sign bugs in
this file.  Both routes read the same (T_n, scale, W_n), so the quadrature
error is common to them and cancels; what is left between them is
rounding, and a relative bound is enough even where Q_n is tiny.
"""

from __future__ import annotations

import math
from functools import cached_property
from enum import Enum
from typing import Callable, List, Sequence, Tuple

from .exprlang import Expr, compile_expr, _safe_exp
from .quad import IntervalKernel, NumericFailure

__all__ = [
    "Direction",
    "ProblemSpec",
    "DiscreteSystem",
    "ZeroImpulseFactor",
    "DiagnosticMismatch",
    "IndexOutOfRange",
    "compute_an",
    "compute_bn",
    "compute_qn",
    "compute_qn_direct",
    "build_discrete_system",
]


class Direction(Enum):
    DELAYED = "delayed"
    ADVANCED = "advanced"


class ZeroImpulseFactor(ValueError):
    """A realized jump factor is zero (or not finite) at some node."""

    def __init__(self, n: int, value: float):
        self.index = n
        self.value = value
        super().__init__(f"jump factor at node {n} is {value!r}; must be finite and nonzero")


class DiagnosticMismatch(NumericFailure):
    """The alpha-ratio and direct routes for Q_n disagree."""

    def __init__(self, n: int, ratio_value: float, direct_value: float):
        self.ratio_value = ratio_value
        self.direct_value = direct_value
        super().__init__(
            f"Q_{n} mismatch: alpha-ratio {ratio_value!r} vs direct {direct_value!r}", n
        )


class IndexOutOfRange(Exception):
    def __init__(self, n: int, message: str):
        self.index = n
        super().__init__(f"index {n}: {message}")


class ProblemSpec:
    """One problem instance: coefficients, deviation, impulses, window.

    impulse maps a node n to its jump factor r_n = 1 + c_n.  Construction
    raises ValueError on a bad k, horizon or window, and ZeroImpulseFactor
    (a ValueError) on a jump factor r_n on [n0, horizon] that is zero or not
    finite; every node the reduction and the reconstruction read lies there.
    """

    def __init__(self, a: Expr, b: Expr, direction: Direction, k: int,
                 impulse: Callable[[int], float], initial_window: Sequence[float],
                 horizon: int, n0: int = 0):
        self.a, self.b, self.direction, self.k = a, b, direction, k
        self.impulse = impulse
        self.initial_window = tuple(initial_window)
        self.horizon, self.n0 = horizon, n0
        if k < 1:
            raise ValueError("k must be a positive integer")
        if horizon <= n0 + k:
            raise ValueError("horizon must exceed n0 + k")
        if len(self.initial_window) != k + 1:
            raise ValueError(f"initial_window must have exactly {k + 1} entries")
        for n in range(n0, horizon + 1):
            r = impulse(n)
            if not math.isfinite(r) or r == 0.0:
                raise ZeroImpulseFactor(n, r)

    @cached_property
    def fa(self) -> Callable[[float], float]:
        """The compiled coefficient a(t)."""
        return compile_expr(self.a)

    @cached_property
    def fb(self) -> Callable[[float], float]:
        """The compiled coefficient b(t)."""
        return compile_expr(self.b)

    @cached_property
    def intervals(self) -> "_Intervals":
        """n -> (T_n, scale, W_n), the interval integrals the coefficients are built from."""
        return _Intervals(self)


class _Intervals(dict):
    """n -> (T_n, scale, W_n) of one spec, each entry from one interval kernel.

    a_n reads T_n, b_n all three, and Q_n direct T_j over the deviation span
    and the weight of n, so every interval is integrated once.
    """

    def __init__(self, spec: ProblemSpec):
        super().__init__()
        self._fa, self._fb = spec.fa, spec.fb

    def __missing__(self, n: int) -> Tuple[float, float, float]:
        k = IntervalKernel(self._fa, self._fb, n)
        return self.setdefault(n, (k.total, k.scale, k.weight))


def _scaled(expo: float, value: float, n: int, stage: str) -> float:
    """value * exp(expo), or the stage's NumericFailure if that overflows."""
    out = value * _safe_exp(expo) if value != 0.0 else 0.0
    if not math.isfinite(out):
        raise NumericFailure(f"the weighted integral exp({expo!r}) * {value!r} overflowed",
                             n, stage)
    return out


def compute_an(spec: ProblemSpec, n: int) -> float:
    """a_n = r_{n+1} * exp(T_n), T_n the integral of a over [n, n+1]."""
    total = spec.intervals[n][0]
    value = spec.impulse(n + 1) * _safe_exp(total)
    if not math.isfinite(value):
        raise NumericFailure(f"exp(T_n) overflowed (T_n = {total!r})", n, "a_n")
    return value


def compute_bn(spec: ProblemSpec, n: int) -> float:
    """b_n = r_{n+1} * int_n^{n+1} exp(I(s, n+1)) b(s) ds = r_{n+1} exp(T_n) G_n."""
    total, scale, weight = spec.intervals[n]
    return _scaled(total + scale, spec.impulse(n + 1) * weight, n, "b_n")


class DiscreteSystem:
    """Computed coefficient sequences over [n0, horizon]."""

    def __init__(self, n0: int, direction: Direction, k: int, a_seq: List[float],
                 b_seq: List[float], alpha_seq: List[float], q_seq: List[float],
                 q_start: int):
        self.n0, self.direction, self.k = n0, direction, k
        self.a_seq = a_seq          # a_n for n in [n0, horizon)
        self.b_seq = b_seq          # b_n for n in [n0, horizon)
        self.alpha_seq = alpha_seq  # alpha_n for n in [n0, horizon]
        self.q_seq = q_seq          # Q_n for n in [q_start, q_start + len)
        self.q_start = q_start

    @property
    def horizon(self) -> int:
        return self.n0 + len(self.a_seq)

    def a(self, n: int) -> float:
        return self.a_seq[self._at(n, len(self.a_seq), "a_n")]

    def b(self, n: int) -> float:
        return self.b_seq[self._at(n, len(self.b_seq), "b_n")]

    def alpha(self, n: int) -> float:
        return self.alpha_seq[self._at(n, len(self.alpha_seq), "alpha_n")]

    def q(self, n: int) -> float:
        i = n - self.q_start
        if not 0 <= i < len(self.q_seq):
            raise IndexOutOfRange(n, "Q_n not computed at this index")
        return self.q_seq[i]

    def q_indices(self) -> range:
        return range(self.q_start, self.q_start + len(self.q_seq))

    def dev(self, n: int) -> int:
        """The deviated node n - k (delayed) or n + k (advanced)."""
        return n - self.k if self.direction is Direction.DELAYED else n + self.k

    def _at(self, n: int, size: int, what: str) -> int:
        i = n - self.n0
        if not 0 <= i < size:
            raise IndexOutOfRange(n, f"{what} not computed at this index")
        return i


def compute_qn(ds: DiscreteSystem, n: int) -> float:
    """Q_n from the alpha-ratio definition; signed (Q*_n is just -Q_n)."""
    dev = ds.dev(n)
    # an alpha that underflowed or overflowed has no digits left for the ratio route
    for j in (dev, n + 1):
        if ds.alpha(j) == 0.0:
            raise NumericFailure(f"at index {n}: alpha_{j} underflowed to 0", n)
        if math.isinf(ds.alpha(j)):
            raise NumericFailure(f"at index {n}: alpha_{j} overflowed", n)
    q = ds.alpha(n + 1) * ds.b(n) / ds.alpha(dev)
    if not math.isfinite(q):
        raise NumericFailure(f"at index {n}: Q_n = alpha_{n + 1} b_n / alpha_{dev} is {q!r}",
                             n)
    return q


def compute_qn_direct(spec: ProblemSpec, n: int) -> float:
    """Q_n from the weight aimed at the deviated node, with the jump-factor product.

    Independent of the alpha route: the exponential weight targets the
    deviated node n -+ k directly, I(s, n -+ k) = I(n, n -+ k) - I(n, s),
    with I(n, n -+ k) summed here from the interval totals T_j, and the
    jump factors enter as an explicit product over the nodes between n and
    the deviated node.
    """
    intervals = spec.intervals
    prod = 1.0
    if spec.direction is Direction.DELAYED:
        for j in range(n - spec.k + 1, n + 1):
            prod /= spec.impulse(j)
        expo = -math.fsum(intervals[j][0] for j in range(n - spec.k, n))
    else:
        for j in range(n + 1, n + spec.k + 1):
            prod *= spec.impulse(j)
        expo = math.fsum(intervals[j][0] for j in range(n, n + spec.k))
    _, scale, weight = intervals[n]
    return _scaled(expo + scale, prod * weight, n, "Q_n direct")


_Q_AUDIT_REL = 1e-8


def _q_routes_agree(q_ratio: float, q_direct: float) -> bool:
    if not (math.isfinite(q_ratio) and math.isfinite(q_direct)):
        return False
    return abs(q_ratio - q_direct) <= _Q_AUDIT_REL * max(abs(q_ratio), abs(q_direct))


def build_discrete_system(spec: ProblemSpec) -> DiscreteSystem:
    """Compute a_n, b_n, alpha_n, Q_n over [n0, horizon] with the dual audit."""
    n0, horizon, k = spec.n0, spec.horizon, spec.k
    a_seq: List[float] = []
    b_seq: List[float] = []
    for n in range(n0, horizon):
        a_seq.append(compute_an(spec, n))
        b_seq.append(compute_bn(spec, n))

    alpha_seq = [1.0]
    for j in range(n0, horizon):
        aj = a_seq[j - n0]
        if aj == 0.0:
            raise NumericFailure(f"a_{j} = 0; alpha is undefined past index {j}", j)
        alpha_seq.append(alpha_seq[-1] / aj)

    ds = DiscreteSystem(
        n0=n0, direction=spec.direction, k=k,
        a_seq=a_seq, b_seq=b_seq, alpha_seq=alpha_seq,
        q_seq=[], q_start=n0,
    )
    # Q_n exists where alpha exists at the deviated node
    q_range = [n for n in range(n0, horizon) if n0 <= ds.dev(n) <= horizon]
    ds.q_start = q_range[0]
    for n in q_range:
        q_ratio = compute_qn(ds, n)
        q_direct = compute_qn_direct(spec, n)
        if not _q_routes_agree(q_ratio, q_direct):
            raise DiagnosticMismatch(n, q_ratio, q_direct)
        ds.q_seq.append(q_ratio)
    return ds
