import dataclasses
import functools
import json
import math
from pathlib import Path

import pytest

from _battery import get_battery
from idepca import reduction, trajectory
from idepca.cli import load_problem, main
from idepca.diffeq import continue_window
from idepca.exprlang import parse
from idepca.quad import NumericFailure
from idepca.reduction import (
    DiagnosticMismatch,
    Direction,
    ImpulseSpec,
    IndexOutOfRange,
    ProblemSpec,
    ZeroImpulseFactor,
    _q_routes_agree,
    build_discrete_system,
    compute_an,
    compute_bn,
    compute_qn,
    compute_qn_direct,
)
from idepca.trajectory import reconstruct

E = math.e
EXAMPLES = Path(__file__).resolve().parent.parent / "problems"


def make_spec(a="-1", b="-1/3", direction=Direction.DELAYED, k=3, factor=0.5,
              window=None, horizon=20, n0=0):
    if window is None:
        window = (1.0,) * (k + 1)
    impulse = ImpulseSpec.none() if factor is None else ImpulseSpec.constant(factor)
    return ProblemSpec(
        a=parse(a, "t"), b=parse(b, "t"), direction=direction, k=k,
        impulse=impulse, initial_window=tuple(window), horizon=horizon, n0=n0,
    )


class TestImpulseSpec:
    def test_none_factor(self):
        assert ImpulseSpec.none().factor(7) == 1.0

    def test_constant_factor(self):
        assert ImpulseSpec.constant(0.5).factor(3) == 0.5

    def test_formula_factor(self):
        imp = ImpulseSpec.formula(parse("1 + 1/n", "n"))
        assert imp.factor(4) == pytest.approx(1.25)

    def test_table_with_default(self):
        imp = ImpulseSpec.table([2.0, 3.0], default=1.5)
        assert imp.factor(0) == 2.0
        assert imp.factor(1) == 3.0
        assert imp.factor(9) == 1.5

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroImpulseFactor) as exc:
            ImpulseSpec.constant(0.0).factor(3)
        assert exc.value.index == 3

    def test_nonfinite_formula_factor_rejected(self):
        imp = ImpulseSpec.formula(parse("1/n", "n"))
        with pytest.raises(ZeroImpulseFactor):
            imp.factor(0)


class TestProblemSpecValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            make_spec(k=0, window=(1.0,))

    def test_horizon_must_exceed_start_plus_k(self):
        with pytest.raises(ValueError):
            make_spec(horizon=3)

    def test_window_length(self):
        with pytest.raises(ValueError):
            make_spec(window=(1.0, 1.0))

    def test_zero_jump_factor_names_its_node(self):
        with pytest.raises(ZeroImpulseFactor, match="jump factor at node 2 is 0.0") as exc:
            ProblemSpec(a=parse("-1", "t"), b=parse("-1/3", "t"),
                        direction=Direction.DELAYED, k=1,
                        impulse=ImpulseSpec.table([1.0, 1.0, 0.0]),
                        initial_window=(1.0, 1.0), horizon=10)
        assert exc.value.index == 2
        assert isinstance(exc.value, ValueError)

    def test_replace_checks_the_longer_horizon(self):
        # the zero at node 25 lies past horizon 20, so only the longer run fails
        spec = ProblemSpec(a=parse("-1", "t"), b=parse("-1/3", "t"),
                           direction=Direction.DELAYED, k=1,
                           impulse=ImpulseSpec.formula(parse("1 - 1/(26 - n)", "n")),
                           initial_window=(1.0, 1.0), horizon=20)
        assert dataclasses.replace(spec, horizon=24).horizon == 24
        with pytest.raises(ZeroImpulseFactor) as exc:
            dataclasses.replace(spec, horizon=30)
        assert exc.value.index == 25

    def test_each_expression_compiled_once(self, monkeypatch):
        compiled = []
        compile_expr = reduction.compile_expr

        def counting(expr):
            compiled.append(expr)
            return compile_expr(expr)

        monkeypatch.setattr(reduction, "compile_expr", counting)
        spec = ProblemSpec(a=parse("-1 + t/50", "t"), b=parse("sin(t)/3", "t"),
                           direction=Direction.ADVANCED, k=2,
                           impulse=ImpulseSpec.formula(parse("1 + 1/(n + 1)", "n")),
                           initial_window=(1.0, 1.0, 1.0), horizon=12)
        ds = build_discrete_system(spec)
        reconstruct(spec, ds, continue_window(ds, spec.initial_window), 4)
        assert [id(e) for e in compiled] == [id(spec.impulse.expr), id(spec.a), id(spec.b)]


class TestCoefficients:
    def test_an_constant_negative(self):
        # a = -1 with jump factor 1/2 gives a_n = 1/(2e) at every index
        spec = make_spec()
        assert compute_an(spec, 0) == pytest.approx(1.0 / (2.0 * E), abs=1e-12)
        assert compute_an(spec, 7) == pytest.approx(1.0 / (2.0 * E), abs=1e-12)

    def test_an_reciprocal(self):
        # a = 1/t with jump factor 1/2 gives a_n = (n+1)/(2n)
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=20)
        assert compute_an(spec, 4) == pytest.approx(0.625, abs=1e-10)

    def test_an_identity(self):
        spec = make_spec(a="0", b="0", factor=None)
        assert compute_an(spec, 3) == pytest.approx(1.0, abs=1e-12)

    def test_bn_constant_data(self):
        spec = make_spec()
        expected = (1.0 - E) / (6.0 * E)
        assert compute_bn(spec, 0) == pytest.approx(expected, abs=1e-10)

    def test_bn_reciprocal(self):
        # a = b = 1/t with jump factor 1/2 gives b_n = 1/(2n)
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=20)
        assert compute_bn(spec, 5) == pytest.approx(0.1, abs=1e-10)

    def test_bn_zero(self):
        spec = make_spec(b="0")
        assert compute_bn(spec, 2) == 0.0

    @pytest.mark.parametrize("alpha,beta,r", [
        (0.7, -0.4, 0.5),
        (-1.2, 0.9, 1.5),
        (0.0, 0.3, 0.8),
    ])
    def test_constant_coefficient_closed_forms(self, alpha, beta, r):
        spec = make_spec(a=f"{alpha}", b=f"{beta}", factor=r, k=1,
                         window=(1.0, 1.0), horizon=10)
        an = compute_an(spec, 2)
        bn = compute_bn(spec, 2)
        assert an == pytest.approx(r * math.exp(alpha), abs=1e-10)
        if alpha == 0.0:
            assert bn == pytest.approx(r * beta, abs=1e-10)
        else:
            assert bn == pytest.approx(r * beta * (math.exp(alpha) - 1.0) / alpha,
                                       abs=1e-10)


class TestAlpha:
    def test_unit_sequence(self):
        # a = 0 without impulses gives a_n = 1
        ds = build_discrete_system(make_spec(a="0", factor=None, horizon=5))
        assert ds.alpha(3) == 1.0

    def test_constant_two(self):
        ds = build_discrete_system(make_spec(a="0", factor=2.0, horizon=5))
        assert ds.alpha(3) == pytest.approx(0.125)

    def test_start_value_is_one(self):
        ds = build_discrete_system(make_spec(a="1/t", n0=7, horizon=12))
        assert ds.alpha(7) == 1.0

    def test_zero_entry_rejected(self):
        # exp(-800) underflows, so a_0 is exactly 0
        with pytest.raises(NumericFailure,
                           match=r"^a_0 = 0; alpha is undefined past index 0$") as exc:
            build_discrete_system(make_spec(a="-800", horizon=5))
        assert exc.value.index == 0

    def test_out_of_range(self):
        ds = build_discrete_system(make_spec(horizon=5))
        with pytest.raises(IndexOutOfRange):
            ds.alpha(7)


class TestBuildDelayed:
    def test_example_constant_sequences(self):
        ds = build_discrete_system(make_spec(horizon=30))
        for n in range(30):
            assert ds.a(n) == pytest.approx(1.0 / (2.0 * E), abs=1e-11)
            assert ds.b(n) == pytest.approx((1.0 - E) / (6.0 * E), abs=1e-10)

    def test_q_constant_closed_form(self):
        # with a = -1, b = -1/3, factor 1/2, k = 3 the reduced coefficient
        # collapses to -(8/3) e^3 (e - 1) at every index
        ds = build_discrete_system(make_spec(horizon=30))
        expected = -(8.0 / 3.0) * E ** 3 * (E - 1.0)
        for n in ds.q_indices():
            assert ds.q(n) == pytest.approx(expected, rel=1e-9)

    def test_q_range_starts_at_k(self):
        ds = build_discrete_system(make_spec(horizon=12))
        assert ds.q_indices() == range(3, 12)

    def test_alpha_telescoping(self):
        ds = build_discrete_system(make_spec(horizon=25))
        prod = 1.0
        for n in range(ds.n0, ds.horizon):
            prod *= ds.a(n)
            assert abs(ds.alpha(n + 1) * prod - 1.0) <= 1e-12

    def test_trivial_q_for_flat_system(self):
        # a = 0 and no impulses make every exponential weight 1, so Q_n = b
        ds = build_discrete_system(
            make_spec(a="0", b="0.25", factor=None, horizon=12))
        for n in ds.q_indices():
            assert ds.q(n) == pytest.approx(0.25, abs=1e-10)

    def test_zero_b_gives_zero_q(self):
        ds = build_discrete_system(make_spec(b="0", horizon=12))
        assert all(q == 0.0 for q in ds.q_seq)


class TestBuildAdvanced:
    def test_example_sequences(self):
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=30)
        ds = build_discrete_system(spec)
        for n in range(1, 30):
            assert ds.a(n) == pytest.approx((n + 1) / (2.0 * n), abs=1e-10)
            assert ds.b(n) == pytest.approx(1.0 / (2.0 * n), abs=1e-10)

    def test_q_closed_form(self):
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=30)
        ds = build_discrete_system(spec)
        for n in ds.q_indices():
            expected = (n + 5) / (32.0 * n * (n + 1))
            assert ds.q(n) == pytest.approx(expected, rel=1e-8)
        assert ds.q(5) == pytest.approx(10.0 / 960.0, rel=1e-8)

    def test_q_range(self):
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=30)
        ds = build_discrete_system(spec)
        assert ds.q_indices() == range(1, 26)

    def test_deviated_node(self):
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=30)
        assert build_discrete_system(spec).dev(7) == 12
        assert build_discrete_system(make_spec(horizon=12)).dev(7) == 4


def _varying_coefficients(direction, k):
    spec = make_spec(a="0.3 - t/50", b="sin(t)/4", direction=direction, k=k,
                     factor=1.25, window=(1.0,) * (k + 1), horizon=16)
    return [(spec, build_discrete_system(spec))]


def _battery_systems():
    return [(inst.spec, inst.ds) for inst in get_battery()]


class TestDualRoutes:
    # both routes read the same interval records, so they differ by
    # rounding only: at most 8.4e-16 relative on the battery
    @pytest.mark.parametrize("systems", [
        pytest.param(functools.partial(_varying_coefficients, Direction.DELAYED, 2),
                     id="Direction.DELAYED-2"),
        pytest.param(functools.partial(_varying_coefficients, Direction.ADVANCED, 3),
                     id="Direction.ADVANCED-3"),
        pytest.param(_battery_systems, id="battery"),
    ])
    def test_routes_agree_for_varying_coefficients(self, systems):
        for spec, ds in systems():
            for n in ds.q_indices():
                ratio = compute_qn(ds, n)
                direct = compute_qn_direct(spec, n)
                assert abs(ratio - direct) <= 1e-12 * max(abs(ratio), abs(direct))

    @pytest.mark.parametrize("ratio,direct", [
        (math.inf, math.inf), (-math.inf, -1.0), (1.0, math.nan),
    ])
    def test_nonfinite_route_never_agrees(self, ratio, direct):
        # inf <= 1e-8 * inf would otherwise pass the relative test
        assert not _q_routes_agree(ratio, direct)

    @pytest.mark.parametrize("wrong", [lambda q: 0.0, lambda q: 2.0 * q],
                             ids=["zero", "double"])
    def test_tiny_q_mismatch_is_caught(self, monkeypatch, wrong):
        # Q_n is about 1e-11 here; an absolute floor on the audit would let
        # a direct route that is off by 100% pass
        direct = reduction.compute_qn_direct
        monkeypatch.setattr(reduction, "compute_qn_direct", lambda spec, n: (
            wrong(direct(spec, n)) if n == 6 else direct(spec, n)))
        spec = make_spec(b="1e-12", k=1, horizon=12)
        with pytest.raises(DiagnosticMismatch) as exc:
            build_discrete_system(spec)
        assert exc.value.index == 6


class TestAccessors:
    def test_out_of_range_raises(self):
        ds = build_discrete_system(make_spec(horizon=10))
        with pytest.raises(IndexOutOfRange):
            ds.a(10)
        with pytest.raises(IndexOutOfRange):
            ds.q(0)  # delayed q starts at k
        with pytest.raises(IndexOutOfRange):
            ds.alpha(-1)

    def test_horizon_property(self):
        ds = build_discrete_system(make_spec(horizon=10))
        assert ds.horizon == 10
        assert len(ds.alpha_seq) == 11


class TestStageFailures:
    """A kernel failure names its stage, the interval [n, n+1] and the integrand."""

    def test_a_n(self):
        spec = make_spec(a="1/t", b="1", factor=None)
        with pytest.raises(NumericFailure) as exc:
            compute_an(spec, 0)
        assert str(exc.value) == "a_n on [0, 1]: a is not finite at t = 0.0"
        assert (exc.value.index, exc.value.stage) == (0, "a_n")

    # 3.5 is the middle Chebyshev point of [3, 4].  The stage names the
    # integrand that failed, not the coefficient that asked for the interval:
    # the spec is fresh, so each trigger is the first to integrate [3, 4]
    @pytest.mark.parametrize("trigger", ["compute_an", "compute_bn", "compute_qn_direct",
                                         "reconstruct"])
    @pytest.mark.parametrize("a,b,stage,integrand", [
        ("1/(t - 3.5)", "1", "a_n", "a"),
        ("0", "1/(t - 3.5)", "b_n", "the weight"),
    ], ids=["a", "weight"])
    def test_failure_is_labelled_by_its_integrand(self, a, b, stage, integrand, trigger):
        smooth = make_spec(a="0", b="1", k=1, factor=None, horizon=8)
        ds = build_discrete_system(smooth)
        sol = continue_window(ds, smooth.initial_window)
        spec = dataclasses.replace(smooth, a=parse(a, "t"), b=parse(b, "t"))
        with pytest.raises(NumericFailure) as exc:
            if trigger == "reconstruct":
                reconstruct(spec, ds, sol, 8)
            else:
                getattr(reduction, trigger)(spec, 3)
        assert str(exc.value) == f"{stage} on [3, 4]: {integrand} is not finite at t = 3.5"
        assert (exc.value.index, exc.value.stage) == (3, stage)

    def test_b_n_overflow(self):
        # a_0 = e^700 is finite, b_0 = 1e10 (e^700 - 1) / 700 is not
        spec = make_spec(a="700", b="1e10", factor=None)
        assert math.isfinite(compute_an(spec, 0))
        with pytest.raises(NumericFailure,
                           match=r"^b_n on \[0, 1\]: the weighted integral exp\(700\.0\) "
                                 r"\* .* overflowed$") as exc:
            compute_bn(spec, 0)
        assert exc.value.index == 0

    def test_b_n_overflow_through_the_jump_factor(self):
        # b_0 = 1e300 * 1e10 overflows although the weighted integral does not
        spec = make_spec(a="0", b="1e10", factor=1e300)
        with pytest.raises(NumericFailure, match=r"^b_n on \[0, 1\]: .* overflowed$"):
            compute_bn(spec, 0)

    def test_q_n_direct_overflow(self):
        # the weight aimed three nodes ahead is exp(900) (1 - e^-300) / 300
        spec = make_spec(a="300", b="1", direction=Direction.ADVANCED, factor=None)
        with pytest.raises(NumericFailure,
                           match=r"^Q_n direct on \[0, 1\]: the weighted integral "
                                 r"exp\(900\.0\) \* .* overflowed$") as exc:
            compute_qn_direct(spec, 0)
        assert (exc.value.index, exc.value.stage) == (0, "Q_n direct")


class TestOneKernelPerInterval:
    """The reduction, its Q audit included, integrates each interval once, and
    the reconstruction once more."""

    def test_kernel_count(self, monkeypatch):
        built = []

        class Counting(reduction.IntervalKernel):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(reduction, "IntervalKernel", Counting)
        monkeypatch.setattr(trajectory, "IntervalKernel", Counting)
        spec = load_problem(EXAMPLES / "example2.json").spec
        ds = build_discrete_system(spec)
        assert sorted(built) == list(range(spec.n0, spec.horizon))
        built.clear()
        for n in ds.q_indices():
            compute_qn_direct(spec, n)
        assert built == []
        sol = continue_window(ds, spec.initial_window)
        reconstruct(spec, ds, sol, 4)
        assert built == list(sol.relation_indices())


class TestNonSmoothCoefficients:
    """Both exit 0 and match the closed form of a_n = exp(T_n)."""

    @pytest.mark.parametrize("a,total", [
        # an infinite slope at t = 0
        ("-sqrt(t)", lambda n: -2.0 / 3.0 * ((n + 1) ** 1.5 - n ** 1.5)),
        # a kink inside [10, 11]
        ("-abs(t - 10.5)/10", lambda n: -0.025 if n == 10 else -abs(n - 10) / 10),
    ], ids=["sqrt", "kink"])
    def test_exit_0_and_closed_form(self, tmp_path, a, total):
        doc = {"a": a, "b": "-1/3", "direction": "delayed", "k": 1, "impulse": "none",
               "initial_window": [1, 1], "n0": 0, "horizon": 30}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["coeffs", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        spec = load_problem(path).spec
        for n in range(30):
            assert compute_an(spec, n) == pytest.approx(math.exp(total(n)), rel=1e-10)


class TestClosedFormAccuracy:
    """The shipped examples at horizon 505, to 1e-13 relative."""

    def test_example1(self):
        # a = -1, b = -1/3, r = 1/2; alpha overflows past about n = 420, so
        # the coefficients are computed one by one rather than built
        spec = load_problem(EXAMPLES / "example1.json", {"horizon": 505}).spec
        a, b, r = -1.0, -1.0 / 3.0, 0.5
        for n in range(505):
            assert compute_an(spec, n) == pytest.approx(r * math.exp(a), rel=1e-13)
            assert compute_bn(spec, n) == pytest.approx(r * b * (math.exp(a) - 1.0) / a,
                                                        rel=1e-13)

    def test_example2(self):
        pf = load_problem(EXAMPLES / "example2.json", {"horizon": 505})
        ds = build_discrete_system(pf.spec)
        for n in range(1, 505):
            assert ds.a(n) == pytest.approx((n + 1) / (2 * n), rel=1e-13)
            assert ds.b(n) == pytest.approx(1.0 / (2 * n), rel=1e-13)
        for n in range(1, 506):
            assert ds.alpha(n) == pytest.approx(math.ldexp(1.0, n - 1) / n, rel=1e-13)
