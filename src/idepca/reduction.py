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

Q_n is computed by two independent routes -- the alpha-ratio definition and
a direct nested quadrature with the jump-factor product -- and the build
aborts if they disagree.  That audit is the main defense against index and
sign bugs in this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from .exprlang import Expr, compile_expr, _safe_exp
from .quad import NumericFailure, integrate

__all__ = [
    "Direction",
    "ImpulseSpec",
    "ProblemSpec",
    "DiscreteSystem",
    "ZeroImpulseFactor",
    "DiagnosticMismatch",
    "IndexOutOfRange",
    "compute_an",
    "compute_bn",
    "compute_qn",
    "compute_qn_direct",
    "weighted_integral",
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
    """The alpha-ratio and direct-quadrature routes for Q_n disagree."""

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


@dataclass(frozen=True)
class ImpulseSpec:
    """Jump factors r_n = 1 + c_n applied at integer nodes.

    When expr is set, r_n is that formula in the node index n.  Otherwise
    entry i of values applies at node i, and every other node takes default.
    """

    values: Tuple[float, ...] = ()
    default: float = 1.0
    expr: Optional[Expr] = None

    @classmethod
    def none(cls) -> "ImpulseSpec":
        return cls()

    @classmethod
    def constant(cls, r: float) -> "ImpulseSpec":
        return cls(default=r)

    @classmethod
    def formula(cls, expr: Expr) -> "ImpulseSpec":
        return cls(expr=expr)

    @classmethod
    def table(cls, values: Sequence[float], default: float = 1.0) -> "ImpulseSpec":
        return cls(values=tuple(values), default=default)

    @cached_property
    def fr(self) -> Callable[[float], float]:
        """The compiled formula for r_n (only when expr is set)."""
        return compile_expr(self.expr)

    def factor(self, n: int) -> float:
        """The realized jump factor 1 + c_n; never zero."""
        if self.expr is not None:
            r = self.fr(float(n))
        else:
            r = self.values[n] if 0 <= n < len(self.values) else self.default
        if not math.isfinite(r) or r == 0.0:
            raise ZeroImpulseFactor(n, r)
        return r


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: coefficients, deviation, impulses, window.

    Construction, dataclasses.replace included, raises ValueError on a bad
    k, horizon or window, and ZeroImpulseFactor (a ValueError) on a jump
    factor r_n on [n0, horizon] that is zero or not finite.
    """

    a: Expr
    b: Expr
    direction: Direction
    k: int
    impulse: ImpulseSpec
    initial_window: Tuple[float, ...]
    horizon: int
    n0: int = 0

    def __post_init__(self):
        object.__setattr__(self, "initial_window", tuple(self.initial_window))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.horizon <= self.n0 + self.k:
            raise ValueError("horizon must exceed n0 + k")
        if len(self.initial_window) != self.k + 1:
            raise ValueError(f"initial_window must have exactly {self.k + 1} entries")
        for n in range(self.n0, self.horizon + 1):
            self.impulse.factor(n)

    @cached_property
    def fa(self) -> Callable[[float], float]:
        """The compiled coefficient a(t)."""
        return compile_expr(self.a)

    @cached_property
    def fb(self) -> Callable[[float], float]:
        """The compiled coefficient b(t)."""
        return compile_expr(self.b)


def compute_an(spec: ProblemSpec, n: int, tol: float = 1e-10) -> float:
    """a_n = r_{n+1} * exp(integral of a over [n, n+1])."""
    r = spec.impulse.factor(n + 1)
    expo = integrate(spec.fa, n, n + 1, tol).value
    value = r * _safe_exp(expo)
    if not math.isfinite(value):
        raise NumericFailure(f"at index {n}: a_n overflowed (exponent {expo!r})", n)
    return value


def weighted_integral(fa: Callable[[float], float], fb: Callable[[float], float],
                      lo: float, hi: float, target: float, tol: float) -> float:
    """int_lo^hi exp(I(s, target)) b(s) ds, the inner integral I at tol/10.

    I(s, target) is signed, so a target left of the interval gives the
    decaying weight exp(-I(target, s)).
    """
    inner_tol = tol / 10.0

    def integrand(s: float) -> float:
        return _safe_exp(integrate(fa, s, target, inner_tol).value) * fb(s)

    return integrate(integrand, lo, hi, tol).value


def compute_bn(spec: ProblemSpec, n: int, tol: float = 1e-10) -> float:
    """b_n = r_{n+1} * int_n^{n+1} exp(I(s, n+1)) b(s) ds (nested quadrature)."""
    r = spec.impulse.factor(n + 1)
    value = r * weighted_integral(spec.fa, spec.fb, n, n + 1, n + 1, tol)
    if not math.isfinite(value):
        raise NumericFailure(f"at index {n}: b_n overflowed", n)
    return value


@dataclass
class DiscreteSystem:
    """Computed coefficient sequences over [n0, horizon]."""

    n0: int
    direction: Direction
    k: int
    a_seq: List[float]       # a_n for n in [n0, horizon)
    b_seq: List[float]       # b_n for n in [n0, horizon)
    alpha_seq: List[float]   # alpha_n for n in [n0, horizon]
    q_seq: List[float]       # Q_n for n in [q_start, q_start + len)
    q_start: int

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
    alpha_dev = ds.alpha(dev)
    if alpha_dev == 0.0:
        raise NumericFailure(f"at index {n}: alpha_{dev} underflowed to 0", n)
    q = ds.alpha(n + 1) * ds.b(n) / alpha_dev
    if not math.isfinite(q):
        raise NumericFailure(f"at index {n}: Q_n = alpha_{n + 1} b_n / alpha_{dev} is {q!r}",
                             n)
    return q


def compute_qn_direct(spec: ProblemSpec, n: int, tol: float = 1e-10) -> float:
    """Q_n by direct nested quadrature with the jump-factor product.

    Independent of the alpha route: the exponential weight targets the
    deviated node n -+ k directly and the jump factors enter as an explicit
    product over the nodes between n and the deviated node.
    """
    if spec.direction is Direction.DELAYED:
        target = n - spec.k
        prod = 1.0
        for j in range(n - spec.k + 1, n + 1):
            prod /= spec.impulse.factor(j)
    else:
        target = n + spec.k
        prod = 1.0
        for j in range(n + 1, n + spec.k + 1):
            prod *= spec.impulse.factor(j)
    return prod * weighted_integral(spec.fa, spec.fb, n, n + 1, target, tol)


# Near-zero Q values fall back to an absolute floor: a pure relative test is
# meaningless against quadrature noise when the weighted integral nearly
# cancels.  The floor scales with the alpha-ratio amplification, since the
# ratio route multiplies b_n's absolute quadrature error by that factor.
_Q_AUDIT_REL = 1e-8
_Q_AUDIT_ABS = 1e-12


def _q_routes_agree(q_ratio: float, q_direct: float, tol: float,
                    amplification: float) -> bool:
    if not (math.isfinite(q_ratio) and math.isfinite(q_direct)):
        return False
    diff = abs(q_ratio - q_direct)
    scale = max(abs(q_ratio), abs(q_direct))
    floor = max(_Q_AUDIT_ABS, 10.0 * tol * max(1.0, amplification))
    return diff <= _Q_AUDIT_REL * scale or diff <= floor


def build_discrete_system(spec: ProblemSpec, tol: float = 1e-10) -> DiscreteSystem:
    """Compute a_n, b_n, alpha_n, Q_n over [n0, horizon] with the dual audit."""
    n0, horizon, k = spec.n0, spec.horizon, spec.k
    a_seq: List[float] = []
    b_seq: List[float] = []
    for n in range(n0, horizon):
        a_seq.append(compute_an(spec, n, tol))
        b_seq.append(compute_bn(spec, n, tol))

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
        q_direct = compute_qn_direct(spec, n, tol)
        amp = abs(ds.alpha(n + 1) / ds.alpha(ds.dev(n)))
        if not _q_routes_agree(q_ratio, q_direct, tol, amp):
            raise DiagnosticMismatch(n, q_ratio, q_direct)
        ds.q_seq.append(q_ratio)
    return ds
