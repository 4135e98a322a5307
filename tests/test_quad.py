import math
from bisect import bisect_right
from pathlib import Path

import pytest

from idepca.exprlang import compile_expr, parse
from idepca import quad
from idepca.cli import main
from idepca.quad import (MAX_PIECES, IntervalKernel, NumericFailure, _chebyshev, _evaluate,
                         integrate)


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
        # a cubic is resolved by the first degree-16 piece: 17 samples
        res = integrate(lambda s: s ** 3 - 2.0 * s + 1.0, 0.0, 2.0, 1e-10)
        assert res.evaluations == 17
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_interval(self):
        # one degree-16 piece of zero length, every sample at lo
        res = integrate(lambda s: 42.0, 3.0, 3.0, 1e-10)
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.evaluations == 17

    def test_result_invariants(self):
        res = integrate(lambda s: math.exp(-s * s), -1.0, 1.0, 1e-10)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 1


class TestErrors:
    def test_singular_sample_carries_abscissa(self):
        # evaluation-layer semantics: domain errors surface as non-finite
        # samples, which the quadrature rejects with the abscissa
        f = lambda s: 1.0 / s if s != 0.0 else math.inf
        with pytest.raises(NumericFailure) as exc:
            integrate(f, 0.0, 1.0, 1e-10)
        assert str(exc.value) == "the integrand is not finite at t = 0.0"
        assert (exc.value.index, exc.value.stage) == (None, None)

    def test_nan_sample_rejected(self):
        sqrt_t = compile_expr(parse("sqrt(t)", "t"))
        with pytest.raises(NumericFailure, match="not finite at t = -"):
            integrate(sqrt_t, -1.0, 1.0, 1e-10)

    def test_no_convergence_on_discontinuity(self):
        # a step deep inside a huge interval: the piece that brackets it is
        # accepted once its share falls below rounding of the whole
        # integral, about 512 wide, and its dropped tail, weighted by that
        # width, is far above tol
        step = lambda s: 1.0 if s > 1.0 / math.pi else 0.0
        with pytest.raises(NumericFailure,
                           match=r"^error estimate \S+ on \[0\.0, 2\.30\d+e\+18\] "
                                 r"exceeds tol = 1e-10$") as exc:
            integrate(step, 0.0, 2.0 ** 61, 1e-10)
        assert exc.value.index is None

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda s: 1.0, 0.0, math.inf, 1e-10)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda s: 1.0, 0.0, 1.0, 0.0)


class TestExponent:
    """The exponent I(s, T) of a coefficient expression, through integrate."""

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
    """integrate is the interval kernel's rule: same bits, same samples."""

    @pytest.mark.parametrize("n", [0, 7, 400])
    def test_same_bits_as_the_interval_kernel(self, n):
        # example 2's a = 1/t and a battery-style exponential coefficient
        for fa in (lambda t: 1.0 / (t + 1.0), lambda t: -1.3 * math.exp(0.8 * (t / 61) / 2) / 5):
            kernel = IntervalKernel(fa, lambda t: 1.0, n)
            assert integrate(fa, n, n + 1, 1e-10).value == kernel.total
            assert integrate(fa, n + 1, n, 1e-10).value == -kernel.total

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

    def test_sample_order(self):
        # a resolved quartic: the degree-16 Clenshaw-Curtis points, from hi
        # down to lo
        xs = []

        def quartic(s):
            xs.append(s)
            return s ** 4

        integrate(quartic, 0.0, 1.0, 1e-4)
        points, _ = _chebyshev(16)
        assert xs == [0.5 + 0.5 * x for x in points]
        assert (xs[0], xs[8], xs[-1]) == (1.0, 0.5, 0.0)

    def test_first_singular_sample_in_evaluation_order(self):
        # both ends are singular; hi is sampled first
        f = lambda s: math.inf if s in (0.0, 1.0) else s
        with pytest.raises(NumericFailure) as exc:
            integrate(f, 0.0, 1.0, 1e-10)
        assert str(exc.value) == "the integrand is not finite at t = 1.0"

    def test_stops_at_first_singular_sample(self):
        # no sample follows the singular one: in a nested integral that
        # evaluation could itself fail
        xs = []

        def singular_at_midpoint(s):
            xs.append(s)
            return math.nan if s == 0.5 else s

        with pytest.raises(NumericFailure) as exc:
            integrate(singular_at_midpoint, 0.0, 1.0, 1e-10)
        assert str(exc.value) == "the integrand is not finite at t = 0.5"
        assert len(xs) == 9 and xs[-1] == 0.5

    def test_empty_interval_checks_its_sample(self):
        with pytest.raises(NumericFailure) as exc:
            integrate(lambda s: math.nan, 2.0, 2.0, 1e-10)
        assert str(exc.value) == "the integrand is not finite at t = 2.0"

    def test_error_estimate_is_the_weighted_dropped_tail(self):
        # exp needs degree 32 on [0, 1]; what the chop drops is at rounding
        res = integrate(math.exp, 0.0, 1.0, 1e-10)
        assert 0.0 < res.error_estimate < 1e-14
        assert res.evaluations == 33

    def test_result_is_immutable_with_named_fields(self):
        res = integrate(lambda s: 1.0, 0.0, 1.0, 1e-10)
        assert (res.value, res.error_estimate, res.evaluations) == (1.0, 0.0, 17)
        with pytest.raises(AttributeError):
            res.value = 2.0


def _scalar_running(run, t):
    """The running integral at one t: offset + the Clenshaw recurrence, on
    the piece that bisect_right picks (the first piece for t left of it)."""
    piece = run[max(0, bisect_right([p[0] for p in run], t) - 1)]
    lo, hi, offset, series = piece[0], piece[1], piece[2], piece[3:]
    x = (2.0 * t - lo - hi) / (hi - lo)
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for ck in reversed(series[1:]):
        b1, b2 = ck + x2 * b1 - b2, b1
    return offset + (series[0] + x * b1 - b2)


class TestIntervalKernel:
    """A(t) = int_n^t a and G(t) = int_n^t exp(-A(s)) b(s) ds = exp(scale) W(t)."""

    # constant a and b: int_lo^hi exp(alpha (T - s)) beta ds
    #                   = beta (exp(alpha (T - lo)) - exp(alpha (T - hi))) / alpha
    # on [lo, hi] = [2, 3]; the weight aimed at T is exp(I(2, T)) G(3), and
    # the targets at or left of lo take the reversed orientation that
    # trajectory reconstruction uses
    @pytest.mark.parametrize("target", [5.0, 3.0, 2.0, 0.5])
    def test_weight_closed_form(self, target):
        alpha, beta, lo, hi = 0.7, -0.4, 2.0, 3.0
        expected = beta * (math.exp(alpha * (target - lo))
                           - math.exp(alpha * (target - hi))) / alpha
        k = IntervalKernel(lambda s: alpha, lambda s: beta, 2)
        value = math.exp(alpha * (target - lo) + k.scale) * k.weight
        assert value == pytest.approx(expected, rel=1e-13)

    def test_running_integrals_inside_the_interval(self):
        alpha, beta = 0.7, -0.4
        k = IntervalKernel(lambda s: alpha, lambda s: beta, 2)
        for t in (2.125, 2.5, 2.9):
            (expo,), (w,) = k.at([t - 2.0])
            assert expo == pytest.approx(alpha * (t - 2.0), rel=1e-14)
            expected = beta * (1.0 - math.exp(-alpha * (t - 2.0))) / alpha
            assert math.exp(k.scale) * w == pytest.approx(expected, rel=1e-13)

    # with b = t the weight's two pieces disagree in the last bit at 2.5,
    # and at 2.625 the offset added last differs from it added first
    @pytest.mark.parametrize("b", [lambda t: 1.0, lambda t: t], ids=["b=1", "b=t"])
    def test_list_evaluation_is_the_scalar_recurrence(self, b):
        # the kink at 2.5 is where [2, 3] is bisected; 2.5 itself belongs to
        # the piece on its right
        k = IntervalKernel(lambda t: abs(t - 2.5), b, 2)
        assert [tuple(p[:2]) for p in k._a] == [(2.0, 2.5), (2.5, 3.0)]
        ts = [2.25, 2.5, 2.625, 2.75]
        for run, values in zip((k._a, k._w), k.at([t - 2.0 for t in ts])):
            assert values == [_scalar_running(run, t) for t in ts]

    @pytest.mark.parametrize("n", [0, 7, 400, 1000003])
    def test_offsets_are_the_interval_abscissae(self, n):
        # at(us) reads its pieces at n + u, the floats the reconstruction
        # formed before the kernel took offsets, bit for bit
        k = IntervalKernel(lambda t: -1.0 / (t + 1.0), lambda t: math.sin(t), n)
        us = sorted([i / 7 for i in range(7)] + [0.5, 1.0])
        expos, ws = k.at(us)
        assert expos == _evaluate(k._a, [n + u for u in us])
        assert ws == _evaluate(k._w, [n + u for u in us])

    def test_evaluate_is_the_per_point_reference(self):
        # kinks off every bisection point give both integrals several pieces;
        # ts hit every piece edge exactly and reach past both interval ends
        k = IntervalKernel(lambda t: abs(t - 2.3), lambda t: abs(t - 2.7), 2)
        for run in (k._a, k._w):
            assert len(run) >= 3
            edges = sorted({p[0] for p in run} | {p[1] for p in run})
            mids = [0.5 * (p[0] + p[1]) for p in run]
            ts = sorted([1.5, 2.0 - 1e-9, 3.0 + 1e-9, 3.5, *edges, *mids])
            assert _evaluate(run, ts) == [_scalar_running(run, t) for t in ts]

    def test_reciprocal_closed_form(self):
        # example 2's a = b = 1/t: T_n = ln((n+1)/n), G_n = 1/(n+1)
        for n in (1, 7, 400):
            k = IntervalKernel(lambda t: 1.0 / t, lambda t: 1.0 / t, n)
            assert k.total == pytest.approx(math.log((n + 1) / n), rel=1e-14)
            assert math.exp(k.scale) * k.weight == pytest.approx(1.0 / (n + 1), rel=1e-14)

    def test_constant_integrands_are_exact(self):
        k = IntervalKernel(lambda t: 0.0, lambda t: 1.0, 4)
        assert (k.total, k.scale, k.weight) == (0.0, 0.0, 1.0)
        assert IntervalKernel(lambda t: -1.0, lambda t: 0.0, 4).total == -1.0

    def test_resolved_constant_costs_one_degree_16_piece(self):
        calls = []

        def a(t):
            calls.append(t)
            return -2.5

        IntervalKernel(a, lambda t: 1.0, 0)
        assert len(calls) == 17
        assert calls[0] == 1.0 and calls[8] == 0.5 and calls[-1] == 0.0

    def test_weight_is_scaled_below_overflow(self):
        # exp(-A(s)) = exp(800 (s - n)) overflows, exp(-A(s) - 800) does not
        k = IntervalKernel(lambda t: -800.0, lambda t: -1.0 / 3.0, 0)
        assert k.scale == 800.0
        assert k.weight == pytest.approx(-1.0 / 2400.0, rel=1e-13)

    @pytest.mark.parametrize("a,closed", [
        # an infinite slope at the left end, and a kink inside the interval
        # on a bisection point and off every one: near the kink at 0.3 the
        # pieces only get small enough because each is judged against the
        # interval's scale weighted by its length, not against its own
        (math.sqrt, 2.0 / 3.0),
        (lambda t: abs(t - 0.5), 0.25),
        (lambda t: abs(t - 0.3), 0.29),
    ], ids=["sqrt", "kink-0.5", "kink-0.3"])
    def test_non_smooth_integrand_is_bisected(self, a, closed):
        k = IntervalKernel(a, lambda t: 1.0, 0)
        assert k.total == pytest.approx(closed, rel=1e-13)
        assert len(k._a) > 1

    def test_nonfinite_a_names_stage_interval_and_integrand(self):
        with pytest.raises(NumericFailure) as exc:
            IntervalKernel(lambda t: 1.0 / t if t else math.inf, lambda t: 1.0, 0)
        assert str(exc.value) == "a_n on [0, 1]: a is not finite at t = 0.0"
        assert (exc.value.index, exc.value.stage) == (0, "a_n")

    def test_nonfinite_weight_names_the_weight(self):
        # A is taken for the whole sampling round, b point by point: no
        # sample of b follows the non-finite one, at the round's midpoint
        xs = []

        def b(t):
            xs.append(t)
            return math.nan if t == 3.5 else 1.0

        with pytest.raises(NumericFailure) as exc:
            IntervalKernel(lambda t: 0.0, b, 3)
        assert str(exc.value) == "b_n on [3, 4]: the weight is not finite at t = 3.5"
        assert (exc.value.index, exc.value.stage) == (3, "b_n")
        assert len(xs) == 9 and xs[-1] == 3.5

    def test_piece_budget(self):
        # sin(5000 t) needs more than MAX_PIECES pieces of degree 64; every
        # piece tried, kept or bisected, costs at most 65 samples
        calls = []

        def a(t):
            calls.append(t)
            return math.sin(5000.0 * t)

        with pytest.raises(NumericFailure) as exc:
            IntervalKernel(a, lambda t: 1.0, 2)
        assert str(exc.value) == f"a_n on [2, 3]: a not resolved within {MAX_PIECES} pieces"
        assert exc.value.index == 2
        assert len(calls) <= (2 * MAX_PIECES - 1) * 65


def test_commands_evaluate_ascending_abscissae(monkeypatch, tmp_path):
    # _evaluate finds each piece's points by bisection, so every caller
    # must pass ascending ts: the weight's integrand, check and simulate
    calls = []

    def ascending(pieces, ts):
        calls.append(all(u <= v for u, v in zip(ts, ts[1:])))
        return _evaluate(pieces, ts)

    monkeypatch.setattr(quad, "_evaluate", ascending)
    example2 = str(Path(__file__).resolve().parent.parent / "problems" / "example2.json")
    monkeypatch.chdir(tmp_path)
    assert main(["check", example2]) == 0
    after_check = len(calls)
    assert main(["simulate", example2, "--samples", "7"]) == 0
    assert 0 < after_check < len(calls) and all(calls)
