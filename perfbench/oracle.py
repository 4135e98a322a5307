"""Independent references for the benchmark's output checks.

Nothing here calls into idepca.  The coefficients come from closed forms
(or, for the battery, from closed-form running integrals plus SciPy
quadrature), and oscillation of constant-coefficient instances is decided
exactly from the characteristic equation.

Notation follows the reduced equation z_{n+1} = a_n z_n + b_n z_{n -+ k}:
alpha_n = prod_{j in [n0, n)} 1/a_j and Q_n = alpha_{n+1} b_n / alpha_{n -+ k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as sci_integrate

# the reduction audit's relative tolerance for Q_n, reused for every
# coefficient comparison
REL_TOL = 1e-8


def close(x: float, ref: float, scale: float = 0.0, rel: float = REL_TOL) -> bool:
    """|x - ref| within rel of the larger magnitude (or of scale, if larger)."""
    return abs(x - ref) <= rel * max(abs(x), abs(ref), scale) or x == ref


# -- reference coefficient tables ---------------------------------------------

@dataclass
class Coefficients:
    """a_n, b_n for n in [n0, horizon) and the derived alpha_n, Q_n."""

    n0: int
    k: int
    direction: str
    a: list
    b: list
    alpha: list = None
    q: dict = None

    def __post_init__(self):
        if self.alpha is None:
            alpha = [1.0]
            for an in self.a:
                alpha.append(alpha[-1] / an)
            self.alpha = alpha
        if self.q is None:
            self.q = self._q_from_alpha()

    @property
    def horizon(self) -> int:
        return self.n0 + len(self.a)

    def _q_from_alpha(self) -> dict:
        n0, k, h = self.n0, self.k, self.horizon
        if self.direction == "delayed":
            rng, other = range(n0 + k, h), lambda n: n - k
        else:
            rng, other = range(n0, h - k + 1), lambda n: n + k
        return {n: self.alpha[n + 1 - n0] * self.b[n - n0] / self.alpha[other(n) - n0]
                for n in rng}


def constant_an_bn(a: float, b: float, r: float) -> tuple:
    """a_n = r e^a and b_n = r b (e^a - 1)/a for constant coefficients."""
    weight = math.expm1(a) / a if a != 0.0 else 1.0
    return r * math.exp(a), r * b * weight


def constant_coefficients(a: float, b: float, r: float, direction: str, k: int,
                          n0: int, horizon: int) -> Coefficients:
    """Closed-form table for constant a, b and a constant jump factor r."""
    an, bn = constant_an_bn(a, b, r)
    size = horizon - n0
    alpha = [an ** -i for i in range(size + 1)]
    if direction == "delayed":
        q = {n: bn / an ** (k + 1) for n in range(n0 + k, horizon)}
    else:
        q = {n: bn * an ** (k - 1) for n in range(n0, horizon - k + 1)}
    return Coefficients(n0, k, direction, [an] * size, [bn] * size, alpha, q)


def example2_coefficients(k: int, n0: int, horizon: int, r: float) -> Coefficients:
    """a = b = 1/t: a_n = r (n+1)/n and b_n = r/n (r = 1/2 gives the paper's)."""
    a = [r * (n + 1) / n for n in range(n0, horizon)]
    b = [r / n for n in range(n0, horizon)]
    # alpha_n = prod_{j in [n0, n)} j / (r (j+1)) = r^{n0-n} n0 / n
    alpha = [r ** (n0 - n) * n0 / n for n in range(n0, horizon + 1)]
    return Coefficients(n0, k, "advanced", a, b, alpha)


# -- battery coefficients: closed-form running integral, SciPy for b_n --------

def _poly_parts(c):
    """Antiderivative of (c0 + c1 x + c2 x^2)/5 with x = t/s, as a callable."""
    c0, c1, c2, s = c

    def prim(t):
        x = t / s
        return s * (c0 * x + c1 * x * x / 2.0 + c2 * x ** 3 / 3.0) / 5.0

    def value(t):
        x = t / s
        return (c0 + c1 * x + c2 * x * x) / 5.0

    return value, prim


def _exp_parts(c):
    """Antiderivative of c0 exp(c1 (t/s)/2)/5, as a callable."""
    c0, c1, s = c
    rate = c1 / (2.0 * s)

    def prim(t):
        if rate == 0.0:
            return c0 * t / 5.0
        return c0 * math.expm1(rate * t) / (5.0 * rate)

    def value(t):
        return c0 * math.exp(rate * t) / 5.0

    return value, prim


def basis_parts(kind: str, params):
    return _poly_parts(params) if kind == "poly" else _exp_parts(params)


def battery_coefficients(a_basis, b_basis, r: float, direction: str, k: int,
                         n0: int, horizon: int) -> Coefficients:
    """a_n in closed form; b_n = r int_n^{n+1} exp(I(s, n+1)) b(s) ds by QUADPACK."""
    _, a_prim = basis_parts(*a_basis)
    b_val, _ = basis_parts(*b_basis)
    a_seq, b_seq = [], []
    for n in range(n0, horizon):
        end = a_prim(n + 1)
        a_seq.append(r * math.exp(end - a_prim(n)))
        val, _ = sci_integrate.quad(lambda s: math.exp(end - a_prim(s)) * b_val(s),
                                    n, n + 1, epsabs=1e-15, epsrel=1e-13, limit=200)
        b_seq.append(r * val)
    return Coefficients(n0, k, direction, a_seq, b_seq)


# -- criterion statistics recomputed from reference Q -------------------------

def _thresholds(k: int) -> dict:
    return {
        "ErbeZhang": k ** k / (k + 1) ** (k + 1),
        "LadasPhilosSficas": k ** (k + 1) / (k + 1) ** (k + 1),
        "GyoriLadasNonOsc": k ** k / (k + 1) ** (k + 1),
        "GyoriLadasA": (k - 1) ** k / k ** k,
        "GyoriLadasB": 1.0,
        "OcalanAkin": -((k - 1) ** (k - 1)) / k ** k,
        "OcalanAkinNonOsc": -((k - 1) ** (k - 1)) / k ** k,
    }


def criterion_terms(cid: str, q: dict, k: int, n: int) -> list:
    """The Q terms whose sum is the criterion's sequence entry at index n."""
    if cid == "ErbeZhang" or cid == "GyoriLadasNonOsc":
        return [-q[n]]
    if cid == "LadasPhilosSficas":
        return [-q[j] for j in range(n - k, n)]
    if cid == "GyoriLadasA":
        return [q[j] for j in range(n + 1, n + k)]
    if cid == "GyoriLadasB":
        return [q[j] for j in range(n, n + k)]
    if cid in ("OcalanAkin", "OcalanAkinNonOsc"):
        return [q[n]]
    raise KeyError(cid)


_MINIMIZED = {"ErbeZhang", "LadasPhilosSficas", "GyoriLadasA", "OcalanAkinNonOsc"}


def criterion_reference(cid: str, q: dict, k: int, window) -> tuple:
    """(statistic, threshold, margin, scale) over the reported index window.

    scale is the largest sum of term magnitudes in the window: the size
    against which rounding in the statistic is judged.
    """
    entries = []
    scale = 0.0
    for n in range(window[0], window[1] + 1):
        terms = criterion_terms(cid, q, k, n)
        entries.append(math.fsum(terms))
        scale = max(scale, sum(abs(t) for t in terms))
    stat = min(entries) if cid in _MINIMIZED else max(entries)
    thr = _thresholds(k)[cid]
    if cid in ("GyoriLadasNonOsc", "OcalanAkin"):
        margin = thr - stat
    else:
        margin = stat - thr
    return stat, thr, margin, scale


# -- exact oscillation oracle for constant coefficients -----------------------

def has_positive_root(an: float, bn: float, k: int, direction: str) -> bool:
    """Whether the characteristic equation has a root lambda > 0.

    delayed:  lambda^{k+1} = a lambda^k + b
    advanced: lambda = a + b lambda^k

    All solutions oscillate iff there is no positive root.  Decided from the
    sign of the polynomial at its only positive stationary point.
    """
    if direction == "delayed":
        # p(l) = l^{k+1} - a l^k - b; p(0) = -b
        if bn > 0.0:
            return True
        if an <= 0.0:
            return False          # p increases on l > 0 from p(0) = -b >= 0
        if bn == 0.0:
            return True           # l = a
        # p is minimal at l* = k a/(k+1): p(l*) = -a l*^k/(k+1) - b
        return -bn <= an ** (k + 1) * k ** k / (k + 1) ** (k + 1)
    # h(l) = a + b l^k - l
    if k == 1:
        return bn != 1.0 and an / (1.0 - bn) > 0.0
    if bn <= 0.0:
        return an > 0.0           # h decreases from h(0) = a
    if an <= 0.0:
        return True               # h'(0) = -1 takes h below 0; h grows to +inf
    # convex for b > 0: minimal at l* = (b k)^(-1/(k-1)), h(l*) = a - l*(k-1)/k
    lam = (bn * k) ** (-1.0 / (k - 1))
    return an <= lam * (k - 1) / k


def characteristic_polynomial(an: float, bn: float, k: int, direction: str):
    """Coefficients, highest degree first, of the characteristic polynomial.

    Filled additively: for k = 1 two terms share a degree, and assigning
    them in turn would overwrite one with the other.
    """
    if direction == "delayed":
        terms = ((k + 1, 1.0), (k, -an), (0, -bn))
    else:
        terms = ((k, bn), (1, -1.0), (0, an))
    degree = max(d for d, _ in terms)
    coeffs = np.zeros(degree + 1)
    for d, c in terms:
        coeffs[degree - d] += c
    return coeffs


def positive_roots(an: float, bn: float, k: int, direction: str) -> list:
    """Positive real roots by numpy, for cross-checking has_positive_root."""
    coeffs = np.trim_zeros(characteristic_polynomial(an, bn, k, direction), "f")
    roots = np.roots(coeffs)
    return sorted(float(z.real) for z in roots
                  if z.real > 0.0 and abs(z.imag) <= 1e-7 * max(1.0, abs(z)))


# -- continuous interval solution ---------------------------------------------

def interval_weights(kind: str, params: tuple, n: int, tau: np.ndarray):
    """E(t) = exp(I(n, t)) and G(t) = int_n^t exp(-I(n, s)) b(s) ds at t = n + tau.

    kind "constant": params (a, b); kind "reciprocal": a = b = 1/t.
    """
    if kind == "constant":
        a, b = params
        e = np.exp(a * tau)
        g = b * tau if a == 0.0 else b * (-np.expm1(-a * tau)) / a
        return e, g
    t = n + tau
    return t / n, 1.0 - n / t
