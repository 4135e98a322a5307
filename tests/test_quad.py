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


class TestKernelContract:
    """Values, error estimates, evaluation counts and sample order, pinned bitwise.

    The expected numbers were recorded from the recursive kernel that
    sampled through a counting closure; the summation tree and the sample
    order are part of the contract, so every bit must match.
    """

    @staticmethod
    def _nested(a, b, target, lo, hi):
        # the reduction's weighted integral: exp(int_s^target a) * b(s)
        return integrate(lambda s: math.exp(integrate(a, s, target, 1e-11).value) * b(s),
                         lo, hi, 1e-10)

    @pytest.mark.parametrize("case,value,error,evaluations", [
        ("reversed", "-0x1.dabd4f2db7784p+0", "0x1.5818be5555555p-35", 497),
        ("nested_exp_weight", "0x1.2aaaaaaaaaac2p+0", "0x1.3941e48888888p-35", 177),
        ("deep_recursion", "0x1.5555555555459p-1", "0x1.3afb59e03b6d5p-35", 985),
        ("battery_exp", "0x1.b6e69a83171ccp-5", "0x1.3da6294cccccdp-34", 17),
    ])
    def test_recorded_results(self, case, value, error, evaluations):
        if case == "reversed":
            res = integrate(lambda s: math.sin(3.0 * s) + s * s, 1.75, 0.25, 1e-10)
        elif case == "nested_exp_weight":
            # example 2's coefficients, 1/t and 1/t, with the weight aimed at 7
            res = self._nested(lambda t: 1.0 / t, lambda t: 1.0 / t, 7.0, 2.0, 3.0)
        elif case == "deep_recursion":
            # sqrt's infinite slope at 0 drives one branch to depth 48
            res = integrate(math.sqrt, 0.0, 1.0, 1e-10)
        else:
            # battery-style exponential and quadratic coefficients, integer
            # bounds, weight aimed five nodes ahead
            a = lambda t: -1.3 * math.exp(0.8 * (t / 61) / 2) / 5
            b = lambda t: (0.7 + 1.1 * (t / 61) - 0.4 * (t / 61) ** 2) / 5
            res = self._nested(a, b, 45, 40, 41)
        assert res.value.hex() == value
        assert res.error_estimate.hex() == error
        assert res.evaluations == evaluations

    def test_depth_limit_message(self):
        with pytest.raises(NumericFailure) as exc:
            integrate(math.sqrt, 0.0, 1.0, 1e-12)
        assert str(exc.value) == "no convergence on [0.0, 4.336808689942018e-19] after depth 61"

    @pytest.mark.parametrize("f,lo,hi,tol", [
        (math.exp, 0.0, 1.0, 1e-10),
        (math.sqrt, 0.0, 1.0, 1e-10),
        (lambda s: 1.0 / (1e-6 + (s - 1.0 / 3.0) ** 2), 0.0, 1.0, 1e-9),
        (math.cos, 2.0, -3.0, 1e-12),
        (lambda s: 42.0, 3.0, 3.0, 1e-10),
    ])
    def test_evaluations_count_integrand_calls(self, f, lo, hi, tol):
        calls = []

        def counted(s):
            calls.append(s)
            return f(s)

        res = integrate(counted, lo, hi, tol)
        assert res.evaluations == len(calls)
        assert res.evaluations == 1 or (res.evaluations - 3) % 2 == 0

    def test_sample_order(self):
        # ends, midpoint, the quarter points, then the left subtree first
        xs = []

        def quartic(s):
            xs.append(s)
            return s ** 4

        integrate(quartic, 0.0, 1.0, 1e-4)
        assert xs == [0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]

    def test_first_singular_sample_in_evaluation_order(self):
        # 0.75 is a quarter point of the whole interval and is sampled before
        # 0.375, which belongs to the left half's panel
        f = lambda s: math.inf if s in (0.375, 0.75) else s
        with pytest.raises(SingularIntegrand) as exc:
            integrate(f, 0.0, 1.0, 1e-10)
        assert exc.value.abscissa == 0.75

    def test_stops_at_first_singular_sample(self):
        # the right quarter point is never evaluated once the left one is
        # singular: in a nested integral that evaluation could itself fail
        xs = []

        def singular_at_quarter(s):
            xs.append(s)
            return math.nan if s == 0.25 else s

        with pytest.raises(SingularIntegrand) as exc:
            integrate(singular_at_quarter, 0.0, 1.0, 1e-10)
        assert exc.value.abscissa == 0.25
        assert xs == [0.0, 1.0, 0.5, 0.25]

    def test_empty_interval_checks_its_sample(self):
        with pytest.raises(SingularIntegrand) as exc:
            integrate(lambda s: math.nan, 2.0, 2.0, 1e-10)
        assert exc.value.abscissa == 2.0

    def test_result_is_immutable_with_named_fields(self):
        res = integrate(lambda s: 1.0, 0.0, 1.0, 1e-10)
        assert (res.value, res.error_estimate, res.evaluations) == (1.0, 0.0, 5)
        with pytest.raises(AttributeError):
            res.value = 2.0
