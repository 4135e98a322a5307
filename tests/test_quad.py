import math

import pytest

from idepca.exprlang import compile_expr, parse
from idepca.quad import NumericFailure, SingularIntegrand, integrate


class TestClosedForms:
    def test_constant_one(self):
        res = integrate(lambda s: 1.0, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential(self):
        res = integrate(math.exp, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-10)

    def test_reciprocal(self):
        res = integrate(lambda s: 1.0 / s, 1.0, 2.0, 1e-10)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_orientation_flip(self):
        res = integrate(lambda s: 1.0, 1.0, 0.0, 1e-10)
        assert res.value == pytest.approx(-1.0, abs=1e-12)


class TestProperties:
    def test_antisymmetry_exact(self):
        f = lambda s: math.sin(s) * math.exp(s / 3.0)
        fwd = integrate(f, 0.25, 1.75, 1e-10).value
        rev = integrate(f, 1.75, 0.25, 1e-10).value
        assert rev == -fwd

    def test_additivity(self):
        f = lambda s: math.cos(s) + s * s
        tol = 1e-10
        whole = integrate(f, 0.0, 2.0, tol).value
        parts = integrate(f, 0.0, 0.7, tol).value + integrate(f, 0.7, 2.0, tol).value
        assert abs(whole - parts) <= 3.0 * tol

    def test_cubic_exact_in_one_panel(self):
        # Simpson integrates cubics exactly, so the very first bisection
        # pair must be accepted: 5 samples total
        res = integrate(lambda s: s ** 3 - 2.0 * s + 1.0, 0.0, 2.0, 1e-10)
        assert res.evaluations == 5
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_interval(self):
        res = integrate(lambda s: 42.0, 3.0, 3.0, 1e-10)
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.evaluations == 1

    def test_result_invariants(self):
        res = integrate(lambda s: math.exp(-s * s), -1.0, 1.0, 1e-10)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 1


class TestErrors:
    def test_singular_sample_carries_abscissa(self):
        # evaluation-layer semantics: domain errors surface as non-finite
        # samples, which the quadrature rejects with the abscissa
        f = lambda s: 1.0 / s if s != 0.0 else math.inf
        with pytest.raises(SingularIntegrand) as exc:
            integrate(f, 0.0, 1.0, 1e-10)
        assert exc.value.abscissa == 0.0

    def test_nan_sample_rejected(self):
        sqrt_t = compile_expr(parse("sqrt(t)", "t"))
        with pytest.raises(SingularIntegrand):
            integrate(sqrt_t, -1.0, 1.0, 1e-10)

    def test_no_convergence_on_discontinuity(self):
        # a step deep inside a huge interval keeps the bracketing panel's
        # Simpson discrepancy proportional to its width at every depth
        step = lambda s: 1.0 if s > 1.0 / math.pi else 0.0
        with pytest.raises(NumericFailure, match=r"^no convergence on \[") as exc:
            integrate(step, 0.0, 2.0 ** 61, 1e-10)
        assert exc.value.index is None

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda s: 1.0, 0.0, math.inf, 1e-10)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda s: 1.0, 0.0, 1.0, 0.0)


class TestExponent:
    """The exponent I(s, T) of a coefficient expression, as the reduction computes it."""

    def test_constant_coefficient(self):
        a = compile_expr(parse("-1", "t"))
        assert integrate(a, 4.0, 5.0, 1e-10).value == pytest.approx(-1.0, abs=1e-12)

    def test_reciprocal_coefficient(self):
        a = compile_expr(parse("1/t", "t"))
        value = integrate(a, 1.0, 2.0, 1e-10).value
        assert value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_zero_coefficient(self):
        a = compile_expr(parse("0", "t"))
        assert integrate(a, 2.0, 9.0, 1e-10).value == 0.0

    def test_orientation(self):
        a = compile_expr(parse("t", "t"))
        assert integrate(a, 1.0, 0.0, 1e-10).value == -integrate(a, 0.0, 1.0, 1e-10).value

    def test_accepts_plain_callable(self):
        value = integrate(lambda s: 2.0 * s, 0.0, 1.0, 1e-10).value
        assert value == pytest.approx(1.0, abs=1e-10)
