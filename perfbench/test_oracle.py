"""Hand cases for the benchmark's references.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sci_integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def test_probe_a3_b1_k5_has_no_positive_root():
    an, bn = oracle.constant_an_bn(3.0, 1.0, 1.0)
    assert an == pytest.approx(math.exp(3.0))
    assert bn == pytest.approx((math.exp(3.0) - 1.0) / 3.0)
    assert not oracle.has_positive_root(an, bn, 5, "advanced")
    assert oracle.positive_roots(an, bn, 5, "advanced") == []
    # h(l) = a + b l^5 - l is smallest where 5 b l^4 = 1
    lam = (5.0 * bn) ** -0.25
    assert an + bn * lam ** 5 - lam == pytest.approx(19.7, abs=0.05)


def test_advanced_negative_b_instance_has_root_near_1_26():
    an, bn = oracle.constant_an_bn(1.342, -0.611, 1.008)
    assert oracle.has_positive_root(an, bn, 3, "advanced")
    roots = oracle.positive_roots(an, bn, 3, "advanced")
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.26, abs=0.01)
    lam = roots[0]
    assert an + bn * lam ** 3 - lam == pytest.approx(0.0, abs=1e-9)


def test_k1_polynomial_fill_keeps_both_terms():
    # delayed k=1: l^2 - a l - b; advanced k=1: (b - 1) l + a.  Assigning
    # each term's coefficient in turn would let one overwrite the other.
    assert list(oracle.characteristic_polynomial(2.0, 3.0, 1, "delayed")) == [1.0, -2.0, -3.0]
    assert list(oracle.characteristic_polynomial(2.0, 3.0, 1, "advanced")) == [2.0, 2.0]
    assert oracle.positive_roots(2.0, 0.5, 1, "advanced") == [pytest.approx(4.0)]
    assert oracle.has_positive_root(2.0, 0.5, 1, "advanced")
    assert not oracle.has_positive_root(2.0, 3.0, 1, "advanced")


def test_analytic_decision_agrees_with_numpy_roots():
    rng = random.Random(7)
    checked = 0
    for _ in range(2000):
        an = math.exp(rng.uniform(-3.0, 3.0))
        bn = rng.uniform(-3.0, 3.0)
        k = rng.randint(1, 5)
        direction = rng.choice(("delayed", "advanced"))
        roots = oracle.positive_roots(an, bn, k, direction)
        # skip near-tangent cases, where a double root splits numerically
        grid = np.abs(np.polyval(oracle.characteristic_polynomial(an, bn, k, direction),
                                 np.linspace(1e-3, 50.0, 20001)))
        if grid.min() < 1e-6:
            continue
        assert oracle.has_positive_root(an, bn, k, direction) == bool(roots), \
            (an, bn, k, direction, roots)
        checked += 1
    assert checked > 1500


def test_example1_closed_form():
    table = oracle.constant_coefficients(-1.0, -1.0 / 3.0, 0.5, "delayed", 3, 0, 60)
    an = 0.5 * math.exp(-1.0)
    bn = 0.5 * (-1.0 / 3.0) * (math.exp(-1.0) - 1.0) / -1.0
    assert table.a[10] == pytest.approx(an, rel=1e-15)
    assert table.b[10] == pytest.approx(bn, rel=1e-14)
    assert table.alpha[5] == pytest.approx(an ** -5, rel=1e-14)
    assert table.q[3] == pytest.approx(table.alpha[4] * bn / table.alpha[0], rel=1e-13)
    assert min(table.q) == 3 and max(table.q) == 59


def test_example2_closed_form():
    table = oracle.example2_coefficients(5, 1, 120, 0.5)
    for n in (1, 7, 119):
        assert table.a[n - 1] == pytest.approx((n + 1) / (2 * n), rel=1e-15)
        assert table.b[n - 1] == pytest.approx(1 / (2 * n), rel=1e-15)
    prod = 1.0
    for j in range(1, 40):
        prod /= table.a[j - 1]
    assert table.alpha[39] == pytest.approx(prod, rel=1e-13)
    n, k = 10, 5
    assert table.q[n] == pytest.approx((n + k) / (2 ** k * n * (n + 1)), rel=1e-13)
    assert max(table.q) == 120 - 5


def test_constant_q_matches_alpha_route():
    table = oracle.constant_coefficients(1.3, -0.7, 0.9, "advanced", 4, 0, 30)
    via_alpha = oracle.Coefficients(0, 4, "advanced", table.a, table.b)
    for n, q in table.q.items():
        assert via_alpha.q[n] == pytest.approx(q, rel=1e-12)


def test_battery_coefficients_reduce_to_closed_form():
    # a = (c0)/5 and b = (c0')/5 constant: the constant closed form applies
    a_basis = ("poly", (2.5, 0.0, 0.0, 61))
    b_basis = ("exp", (-1.5, 0.0, 61))
    table = oracle.battery_coefficients(a_basis, b_basis, 0.8, "delayed", 2, 0, 12)
    an, bn = oracle.constant_an_bn(0.5, -0.3, 0.8)
    assert table.a[4] == pytest.approx(an, rel=1e-13)
    assert table.b[4] == pytest.approx(bn, rel=1e-12)


def test_interval_weights_against_quadrature():
    tau = np.array([0.0, 0.25, 0.5, 1.0])
    e, g = oracle.interval_weights("constant", (-1.0, -1.0 / 3.0), 7, tau)
    for t, ev, gv in zip(tau, e, g):
        ref_g = sci_integrate.quad(lambda s: math.exp(s) * (-1.0 / 3.0), 0.0, t)[0]
        assert ev == pytest.approx(math.exp(-t), rel=1e-15)
        assert gv == pytest.approx(ref_g, rel=1e-12, abs=1e-15)
    e, g = oracle.interval_weights("reciprocal", (), 7, tau)
    for t, ev, gv in zip(tau, e, g):
        ref_g = sci_integrate.quad(lambda s: (7.0 / s) / s, 7.0, 7.0 + t)[0]
        assert ev == pytest.approx((7.0 + t) / 7.0, rel=1e-15)
        assert gv == pytest.approx(ref_g, rel=1e-12, abs=1e-15)


def test_criterion_reference_windows():
    q = {n: 0.1 * n for n in range(0, 20)}
    stat, thr, margin, _ = oracle.criterion_reference("ErbeZhang", q, 2, (10, 15))
    assert stat == pytest.approx(-1.5) and thr == pytest.approx(4 / 27)
    assert margin == pytest.approx(stat - thr)
    stat, _, _, _ = oracle.criterion_reference("LadasPhilosSficas", q, 2, (10, 15))
    assert stat == pytest.approx(-(1.3 + 1.4))
    stat, _, _, _ = oracle.criterion_reference("GyoriLadasA", q, 3, (0, 5))
    assert stat == pytest.approx(0.1 + 0.2)
    stat, thr, margin, _ = oracle.criterion_reference("OcalanAkin", q, 3, (0, 5))
    assert stat == pytest.approx(0.5) and margin == pytest.approx(thr - 0.5)
