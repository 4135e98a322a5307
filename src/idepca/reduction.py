"""Reduction of the hybrid system to a delayed/advanced difference equation.

For each unit interval [n, n+1) the continuous problem collapses to

    z_{n+1} = a_n z_n + b_n z_{n -+ k}

with

    a_n = r_{n+1} * exp( I(n, n+1) ),
    b_n = r_{n+1} * int_n^{n+1} exp( I(s, n+1) ) b(s) ds,

where I(s, T) is the integral of the continuous coefficient a over [s, T]
and r_n is the jump factor applied when crossing node n (r_n = 1 for the
non-impulsive case).  From a_n the cumulative weights alpha_n are
derived, and the reduced-form coefficients Q_n from the same integrals.

Every integral comes from one kernel per interval (quad.IntervalKernel),
which build_discrete_system makes in index order, from a and b compiled
once, and keeps on the DiscreteSystem.  Where neither a nor b reads t, every
interval integrates the same functions, so one kernel, built on
[n0, n0+1], serves them all.  T_n = I(n, n+1) is a kernel's ``total`` and
G_n = int_n^{n+1} exp(-I(n, s)) b(s) ds = exp(scale) W_n its ``scale`` and
``weight``, since I(s, target) = I(n, target) - I(n, s).  So
b_n = r_{n+1} exp(T_n) G_n.  The reconstruction samples the same kernels
inside each interval, so every command integrates an interval once.

Q_n = alpha_{n+1} b_n / alpha_{n -+ k} is computed once, without alpha:
the weight is aimed at the deviated node, the T_j between n and it are
summed and the jump factors multiplied in, so no intermediate leaves
double range where Q_n does not.  `check` compares it with the product
spelling of a_n and b_n.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable, Dict, List, Sequence

from .exprlang import Expr, compile_expr, _safe_exp
from .quad import IntervalKernel, NumericFailure

__all__ = [
    "Direction",
    "ProblemSpec",
    "DiscreteSystem",
    "ZeroImpulseFactor",
    "TooShort",
    "tail_start",
    "in_range",
    "compute_an",
    "compute_bn",
    "compute_qn_direct",
    "build_discrete_system",
]

Kernels = Dict[int, IntervalKernel]   # n -> the kernel of [n, n+1]


class Direction(Enum):
    DELAYED = "delayed"
    ADVANCED = "advanced"


class ZeroImpulseFactor(ValueError):
    """A realized jump factor is zero (or not finite) at some node."""

    def __init__(self, n: int, value: float):
        self.index = n
        self.value = value
        super().__init__(f"jump factor at node {n} is {value!r}; must be finite and nonzero")


# the tail rule that the criteria and the oscillation checks share
class TooShort(NumericFailure):
    """Not enough points for the requested tail analysis."""


def tail_start(m: int, fraction: float) -> int:
    """First position of the trailing fraction of m points (at least one)."""
    return m - max(1, int(round(m * fraction)))


def in_range(x: float) -> bool:
    """x lies in the normal double range.  A subnormal x has lost digits to
    rounding, and an underflowed 0.0 or a subnormal would count as a sign
    change."""
    return sys.float_info.min <= abs(x) < math.inf


class ProblemSpec:
    """One problem instance: coefficients, deviation, impulses, window, as
    plain data that construction validates.

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


def _scaled(expo: float, value: float, n: int, stage: str) -> float:
    """value * exp(expo), or the stage's NumericFailure if that overflows.
    Where it is not finite, value * h * h with h = exp(expo / 2) is tried,
    since exp(expo) alone can overflow where the product does not."""
    out = value * _safe_exp(expo) if value != 0.0 else 0.0
    if not math.isfinite(out):
        h = _safe_exp(expo / 2)
        out = value * h * h
    if not math.isfinite(out):
        raise NumericFailure(f"the weighted integral exp({expo!r}) * {value!r} overflowed",
                             n, stage)
    return out


def compute_an(spec: ProblemSpec, kernels: Kernels, n: int) -> float:
    """a_n = r_{n+1} * exp(T_n), T_n the integral of a over [n, n+1]."""
    total = kernels[n].total
    value = spec.impulse(n + 1) * _safe_exp(total)
    if not math.isfinite(value):
        raise NumericFailure(f"exp(T_n) overflowed (T_n = {total!r})", n, "a_n")
    return value


def compute_bn(spec: ProblemSpec, kernels: Kernels, n: int) -> float:
    """b_n = r_{n+1} * int_n^{n+1} exp(I(s, n+1)) b(s) ds = r_{n+1} exp(T_n) G_n."""
    kernel = kernels[n]
    return _scaled(kernel.total + kernel.scale, spec.impulse(n + 1) * kernel.weight,
                   n, "b_n")


class DiscreteSystem:
    """Computed coefficient sequences over [n0, horizon]."""

    def __init__(self, n0: int, direction: Direction, k: int, a_seq: List[float],
                 b_seq: List[float], alpha_seq: List[float], q_seq: List[float],
                 q_start: int, kernels: Kernels):
        self.n0, self.direction, self.k = n0, direction, k
        self.a_seq = a_seq          # a_n for n in [n0, horizon)
        self.b_seq = b_seq          # b_n for n in [n0, horizon)
        self.alpha_seq = alpha_seq  # alpha_n for n in [n0, horizon]
        self.q_seq = q_seq          # Q_n for n in [q_start, q_start + len)
        self.q_start = q_start
        self.kernels = kernels      # the kernel of [n, n+1] for n in [n0, horizon)

    @property
    def horizon(self) -> int:
        return self.n0 + len(self.a_seq)

    def a(self, n: int) -> float:
        return _at(self.a_seq, self.n0, n, "a_n")

    def b(self, n: int) -> float:
        return _at(self.b_seq, self.n0, n, "b_n")

    def alpha(self, n: int) -> float:
        return _at(self.alpha_seq, self.n0, n, "alpha_n")

    def q(self, n: int) -> float:
        return _at(self.q_seq, self.q_start, n, "Q_n")

    def q_indices(self) -> range:
        return range(self.q_start, self.q_start + len(self.q_seq))

    def dev(self, n: int) -> int:
        """The deviated node n - k (delayed) or n + k (advanced)."""
        return n - self.k if self.direction is Direction.DELAYED else n + self.k


def _at(seq: List[float], first: int, n: int, what: str) -> float:
    """The entry of index n of seq, whose entry 0 is index first."""
    i = n - first
    if not 0 <= i < len(seq):
        raise IndexError(f"index {n}: {what} not computed at this index")
    return seq[i]


def compute_qn_direct(spec: ProblemSpec, kernels: Kernels, n: int) -> float:
    """Q_n from the weight aimed at the deviated node, with the jump-factor product.

    Q_n is signed (Q*_n is just -Q_n).  The exponential weight targets the
    deviated node n -+ k directly, I(s, n -+ k) = I(n, n -+ k) - I(n, s),
    with I(n, n -+ k) summed here from the interval totals T_j, and the
    jump factors enter as an explicit product over the nodes between n and
    the deviated node.
    """
    prod = 1.0
    if spec.direction is Direction.DELAYED:
        for j in range(n - spec.k + 1, n + 1):
            prod /= spec.impulse(j)
        expo = -math.fsum(kernels[j].total for j in range(n - spec.k, n))
    else:
        for j in range(n + 1, n + spec.k + 1):
            prod *= spec.impulse(j)
        expo = math.fsum(kernels[j].total for j in range(n, n + spec.k))
    kernel = kernels[n]
    return _scaled(expo + kernel.scale, prod * kernel.weight, n, "Q_n direct")


def build_discrete_system(spec: ProblemSpec) -> DiscreteSystem:
    """Compute a_n, b_n, alpha_n and Q_n over [n0, horizon], and keep the
    kernels: one per interval, or one for all where a and b do not read t."""
    n0, horizon, k = spec.n0, spec.horizon, spec.k
    fa, fb = compile_expr(spec.a), compile_expr(spec.b)
    shared = None if fa.reads_x or fb.reads_x else IntervalKernel(fa, fb, n0)
    kernels: Kernels = {}
    a_seq: List[float] = []
    b_seq: List[float] = []
    for n in range(n0, horizon):
        kernels[n] = shared if shared is not None else IntervalKernel(fa, fb, n)
        a_seq.append(compute_an(spec, kernels, n))
        b_seq.append(compute_bn(spec, kernels, n))

    alpha_seq = [1.0]
    for j in range(n0, horizon):
        aj = a_seq[j - n0]
        if aj == 0.0:
            raise NumericFailure(f"a_{j} = 0; alpha is undefined past index {j}", j)
        alpha_seq.append(alpha_seq[-1] / aj)

    # Q_n exists where the deviated node lies in [n0, horizon]
    if spec.direction is Direction.DELAYED:
        q_range = range(n0 + k, horizon)
    else:
        q_range = range(n0, horizon - k + 1)
    return DiscreteSystem(
        n0=n0, direction=spec.direction, k=k,
        a_seq=a_seq, b_seq=b_seq, alpha_seq=alpha_seq,
        q_seq=[compute_qn_direct(spec, kernels, n) for n in q_range], q_start=q_range[0],
        kernels=kernels,
    )
