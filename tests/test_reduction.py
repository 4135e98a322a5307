import functools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from _audits import q_by_alpha_ratio, respec
from _battery import get_battery
from idepca import cli, invariants, reduction
from idepca.cli import _parse_impulse, load_problem, main, validate_problem
from idepca.diffeq import continue_window
from idepca.exprlang import compile_expr, parse
from idepca.quad import IntervalKernel, NumericFailure
from idepca.reduction import (
    Direction,
    DiscreteSystem,
    ProblemSpec,
    ZeroImpulseFactor,
    build_discrete_system,
    compute_an,
    compute_bn,
    compute_qn_direct,
)
from idepca.trajectory import reconstruct

E = math.e
EXAMPLES = Path(__file__).resolve().parent.parent / "problems"


def make_spec(a="-1", b="-1/3", direction=Direction.DELAYED, k=3, factor=0.5,
              window=None, horizon=20, n0=0):
    if window is None:
        window = (1.0,) * (k + 1)
    impulse = (lambda n: 1.0) if factor is None else (lambda n: factor)
    return ProblemSpec(
        a=parse(a, "t"), b=parse(b, "t"), direction=direction, k=k,
        impulse=impulse, initial_window=tuple(window), horizon=horizon, n0=n0,
    )


def kernels_of(spec, *ns):
    """The kernels of the intervals [n, n+1], n in ns, as the build makes them."""
    fa, fb = compile_expr(spec.a), compile_expr(spec.b)
    return {n: IntervalKernel(fa, fb, n) for n in ns}


def impulse_spec(impulse, n0=0, horizon=10):
    """A delayed k = 1 spec whose jump factors are the file's impulse value."""
    return ProblemSpec(a=parse("-1", "t"), b=parse("-1/3", "t"),
                       direction=Direction.DELAYED, k=1, impulse=_parse_impulse(impulse),
                       initial_window=(1.0, 1.0), horizon=horizon, n0=n0)


class TestImpulseSpec:
    """The problem file's impulse key: the function n -> r_n that
    cli._parse_impulse makes of each shape, and ProblemSpec's check of it."""

    def test_none_factor(self):
        assert _parse_impulse("none")(7) == 1.0

    def test_constant_factor(self):
        assert _parse_impulse({"factor": 0.5})(3) == 0.5

    def test_formula_factor(self):
        assert _parse_impulse({"formula": "1 + 1/n"})(4) == pytest.approx(1.25)

    def test_table_with_default(self):
        r = _parse_impulse({"table": [2.0, 3.0], "default": 1.5})
        assert (r(0), r(1), r(9)) == (2.0, 3.0, 1.5)
        assert _parse_impulse({"table": [2.0, 3.0]})(9) == 1.0

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroImpulseFactor) as exc:
            impulse_spec({"factor": 0.0}, n0=3)
        assert exc.value.index == 3

    def test_nonfinite_formula_factor_rejected(self):
        with pytest.raises(ZeroImpulseFactor) as exc:
            impulse_spec({"formula": "1/n"})
        assert exc.value.index == 0


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
            impulse_spec({"table": [1.0, 1.0, 0.0]})
        assert exc.value.index == 2
        assert isinstance(exc.value, ValueError)

    def test_replace_checks_the_longer_horizon(self):
        # the zero at node 25 lies past horizon 20, so only the longer run fails
        spec = impulse_spec({"formula": "1 - 1/(26 - n)"}, horizon=20)
        assert respec(spec, horizon=24).horizon == 24
        with pytest.raises(ZeroImpulseFactor) as exc:
            respec(spec, horizon=30)
        assert exc.value.index == 25

    def test_each_expression_compiled_once(self, monkeypatch):
        compiled = []
        compile_expr = reduction.compile_expr

        def counting(expr):
            compiled.append(expr)
            return compile_expr(expr)

        # the impulse formula is compiled where the problem file is read
        monkeypatch.setattr(cli, "compile_expr", counting)
        monkeypatch.setattr(reduction, "compile_expr", counting)
        spec = validate_problem({"a": "-1 + t/50", "b": "sin(t)/3", "direction": "advanced",
                                 "k": 2, "impulse": {"formula": "1 + 1/(n + 1)"},
                                 "initial_window": [1, 1, 1], "horizon": 12}).spec
        ds = build_discrete_system(spec)
        reconstruct(spec, ds, continue_window(ds, spec.initial_window), 4)
        assert compiled == [parse("1 + 1/(n + 1)", "n"), spec.a, spec.b]
        assert [id(e) for e in compiled[1:]] == [id(spec.a), id(spec.b)]


class TestCoefficients:
    def test_an_constant_negative(self):
        # a = -1 with jump factor 1/2 gives a_n = 1/(2e) at every index
        spec = make_spec()
        kernels = kernels_of(spec, 0, 7)
        assert compute_an(spec, kernels, 0) == pytest.approx(1.0 / (2.0 * E), abs=1e-12)
        assert compute_an(spec, kernels, 7) == pytest.approx(1.0 / (2.0 * E), abs=1e-12)

    def test_an_reciprocal(self):
        # a = 1/t with jump factor 1/2 gives a_n = (n+1)/(2n)
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=20)
        assert compute_an(spec, kernels_of(spec, 4), 4) == pytest.approx(0.625, abs=1e-10)

    def test_an_identity(self):
        spec = make_spec(a="0", b="0", factor=None)
        assert compute_an(spec, kernels_of(spec, 3), 3) == pytest.approx(1.0, abs=1e-12)

    def test_bn_constant_data(self):
        spec = make_spec()
        expected = (1.0 - E) / (6.0 * E)
        assert compute_bn(spec, kernels_of(spec, 0), 0) == pytest.approx(expected, abs=1e-10)

    def test_bn_reciprocal(self):
        # a = b = 1/t with jump factor 1/2 gives b_n = 1/(2n)
        spec = make_spec(a="1/t", b="1/t", direction=Direction.ADVANCED, k=5,
                         window=(1.0,) * 6, n0=1, horizon=20)
        assert compute_bn(spec, kernels_of(spec, 5), 5) == pytest.approx(0.1, abs=1e-10)

    def test_bn_zero(self):
        spec = make_spec(b="0")
        assert compute_bn(spec, kernels_of(spec, 2), 2) == 0.0

    @pytest.mark.parametrize("alpha,beta,r", [
        (0.7, -0.4, 0.5),
        (-1.2, 0.9, 1.5),
        (0.0, 0.3, 0.8),
    ])
    def test_constant_coefficient_closed_forms(self, alpha, beta, r):
        spec = make_spec(a=f"{alpha}", b=f"{beta}", factor=r, k=1,
                         window=(1.0, 1.0), horizon=10)
        kernels = kernels_of(spec, 2)
        an = compute_an(spec, kernels, 2)
        bn = compute_bn(spec, kernels, 2)
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
        with pytest.raises(IndexError):
            ds.alpha(7)

    # Q_n does not read alpha, so an alpha outside double range leaves it
    # as it is; the build stores the 0 or inf and coeffs writes it blank
    @pytest.mark.parametrize("spec,index,alpha,q", [
        # r = 1e30 underflows alpha to 0 from n = 11 on; Q_n = b_n / (a_{n-1} a_n)
        # = b / r
        (dict(a="0", factor=1e30, k=1, horizon=14), 11, 0.0, -1e-30 / 3.0),
        # a_n = exp(-5) overflows alpha from n = 142 on; the ratio route gave
        # Q_140 = 0.0 there, and Q_n = b_n a_{n+1} = 0.002 (1 - e^-5) e^-5
        (dict(a="-5", b="0.01", direction=Direction.ADVANCED, k=2, factor=None,
              window=(1.0, 2.0, 3.0), horizon=143), 142, math.inf,
         0.002 * (1.0 - math.exp(-5.0)) * math.exp(-5.0)),
    ], ids=["underflow", "overflow"])
    def test_out_of_double_range_leaves_q(self, spec, index, alpha, q):
        ds = build_discrete_system(make_spec(**spec))
        assert ds.alpha(index) == alpha
        assert math.isfinite(ds.alpha(index - 1)) and ds.alpha(index - 1) != 0.0
        for n in ds.q_indices():
            assert ds.q(n) == pytest.approx(q, rel=1e-13)

    def test_battery_instance_79_at_horizon_244(self):
        # advanced, k = 1: alpha_242 is subnormal here, which left the ratio
        # route too few digits to agree with the direct one at Q_241
        spec = respec(get_battery()[79].spec, horizon=244)
        ds = build_discrete_system(spec)
        assert 0.0 < abs(ds.alpha(242)) < sys.float_info.min
        assert ds.q_indices() == range(0, 244)
        assert invariants.q_audit(ds) == ("dual_route_q_audit", True, "244 indices compared")


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


# every shape of the problem file's impulse key; the tables vary over the
# nodes that n0 = 0 and n0 = 3 read
IMPULSE_SHAPES = ("none", {"factor": 1.25}, {"formula": "1 + sin(n)/2"},
                  {"table": [0.5, 2, 0.75, 1.25, 1.5, 0.8, 2.5, 0.6]},
                  {"table": [2, 0.5, 1.5, 0.8, 1.25], "default": 0.75})


def _varying_coefficients(direction, k):
    for n0 in (0, 3):
        for impulse in IMPULSE_SHAPES:
            spec = ProblemSpec(a=parse("0.3 - t/50", "t"), b=parse("sin(t)/4", "t"),
                               direction=direction, k=k, impulse=_parse_impulse(impulse),
                               initial_window=(1.0,) * (k + 1), horizon=n0 + 16, n0=n0)
            yield spec, build_discrete_system(spec)


def _battery_systems():
    return [(inst.spec, inst.ds) for inst in get_battery()]


class TestDualRoutes:
    """compute_qn_direct, the one spelling of Q_n the package keeps, against
    the reference alpha ratio of tests/_audits.py, and check's audit of it
    against the product spelling of a_n and b_n.

    An index or sign slip in a spelling depends on the direction, k, n0 and
    how the jump factors vary, not on the coefficients, so the cases cover
    those.  Both spellings read the same interval records, so they differ
    by rounding only: at most 8.4e-16 relative on the battery.
    """

    @pytest.mark.parametrize("systems", [
        *[pytest.param(functools.partial(_varying_coefficients, direction, k),
                       id=f"{direction}-{k}")
          for direction in Direction for k in range(1, 7)],
        pytest.param(_battery_systems, id="battery"),
    ])
    def test_routes_agree_for_varying_coefficients(self, systems):
        for spec, ds in systems():
            for n in ds.q_indices():
                ratio = q_by_alpha_ratio(ds, n)
                direct = compute_qn_direct(spec, ds.kernels, n)
                assert ds.q(n) == direct
                assert abs(ratio - direct) <= 1e-12 * max(abs(ratio), abs(direct))
            assert invariants.q_audit(ds) == ("dual_route_q_audit", True,
                                        f"{len(ds.q_seq)} indices compared")

    @pytest.mark.parametrize("q,product", [
        (math.inf, math.inf), (-math.inf, -1.0), (1.0, math.nan),
    ])
    def test_nonfinite_route_never_agrees(self, q, product):
        # advanced with k = 1 the product spelling of Q_1 is b_1 alone;
        # inf <= 1e-8 * inf would otherwise pass the relative test
        ds = DiscreteSystem(n0=0, direction=Direction.ADVANCED, k=1, a_seq=[1.0] * 3,
                            b_seq=[1.0, product, 1.0], alpha_seq=[1.0] * 4,
                            q_seq=[1.0, q, 1.0], kernels={}, origin=0)
        assert invariants.q_audit(ds) == ("dual_route_q_audit", False,
                                    f"Q_1 mismatch: direct {q!r} vs product {product!r}")

    @pytest.mark.parametrize("wrong", [lambda q: 0.0, lambda q: 2.0 * q],
                             ids=["zero", "double"])
    def test_tiny_q_mismatch_is_caught(self, monkeypatch, wrong):
        # Q_n is about 1e-11 here; an absolute floor on check's audit would
        # let a route that is off by 100% pass
        direct = reduction.compute_qn_direct
        monkeypatch.setattr(reduction, "compute_qn_direct", lambda spec, kernels, n: (
            wrong(direct(spec, kernels, n)) if n == 6 else direct(spec, kernels, n)))
        ds = build_discrete_system(make_spec(b="1e-12", k=1, horizon=12))
        name, ok, detail = invariants.q_audit(ds)
        assert (name, ok) == ("dual_route_q_audit", False)
        assert detail.startswith("Q_6 mismatch: direct ")


class TestAccessors:
    def test_out_of_range_raises(self):
        ds = build_discrete_system(make_spec(horizon=10))
        with pytest.raises(IndexError):
            ds.a(10)
        with pytest.raises(IndexError):
            ds.q(0)  # delayed q starts at k
        with pytest.raises(IndexError):
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
            build_discrete_system(spec)
        assert str(exc.value) == "a_n on [0, 1]: a is not finite at t = 0.0"
        assert (exc.value.index, exc.value.stage) == (0, "a_n")

    # 3.5 is the middle Chebyshev point of [3, 4].  The build makes the
    # kernel of [3, 4] before it computes a_3 or b_3, and the stage names
    # the integrand that failed
    @pytest.mark.parametrize("a,b,stage,integrand", [
        ("1/(t - 3.5)", "1", "a_n", "a"),
        ("0", "1/(t - 3.5)", "b_n", "the weight"),
    ], ids=["a", "weight"])
    def test_failure_is_labelled_by_its_integrand(self, a, b, stage, integrand):
        spec = make_spec(a=a, b=b, k=1, factor=None, horizon=8)
        with pytest.raises(NumericFailure) as exc:
            build_discrete_system(spec)
        assert str(exc.value) == f"{stage} on [3, 4]: {integrand} is not finite at t = 3.5"
        assert (exc.value.index, exc.value.stage) == (3, stage)

    def test_b_n_overflow(self):
        # a_0 = e^700 is finite, b_0 = 1e10 (e^700 - 1) / 700 is not
        spec = make_spec(a="700", b="1e10", factor=None)
        kernels = kernels_of(spec, 0)
        assert math.isfinite(compute_an(spec, kernels, 0))
        with pytest.raises(NumericFailure,
                           match=r"^b_n on \[0, 1\]: exp\(700\.0\) \* .* overflowed$") as exc:
            compute_bn(spec, kernels, 0)
        assert exc.value.index == 0

    def test_a_n_past_exp_range(self, tmp_path):
        # exp(720) overflows alone, while a_n = 1e-10 exp(720) = 4.9e302 does
        # not; the window's tail is too short for check
        spec = make_spec(a="720", b="0", k=1, factor=1e-10)
        kernels = kernels_of(spec, 0)
        assert kernels[0].total == 720.0
        assert compute_an(spec, kernels, 0) == 1e-10 * math.exp(360.0) * math.exp(360.0)
        doc = {"a": "720", "b": "0", "direction": "delayed", "k": 1,
               "impulse": {"factor": 1e-10}, "initial_window": [1, 1], "n0": 0,
               "horizon": 40}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["coeffs", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        assert main(["analyze", str(path)]) == 0
        assert main(["check", str(path)]) == 3

    def test_a_n_overflow(self):
        # a_0 = e^800 overflows, split or not
        spec = make_spec(a="800", b="0", factor=None)
        with pytest.raises(NumericFailure) as exc:
            compute_an(spec, kernels_of(spec, 0), 0)
        assert str(exc.value) == "a_n on [0, 1]: exp(800.0) * 1.0 overflowed"
        assert (exc.value.index, exc.value.stage) == (0, "a_n")

    def test_b_n_overflow_through_the_jump_factor(self):
        # b_0 = 1e300 * 1e10 overflows although the weighted integral does not
        spec = make_spec(a="0", b="1e10", factor=1e300)
        with pytest.raises(NumericFailure, match=r"^b_n on \[0, 1\]: .* overflowed$"):
            compute_bn(spec, kernels_of(spec, 0), 0)

    def test_q_n_direct_overflow(self):
        # the weight aimed three nodes ahead is exp(900) (1 - e^-300) / 300
        spec = make_spec(a="300", b="1", direction=Direction.ADVANCED, factor=None)
        with pytest.raises(NumericFailure,
                           match=r"^Q_n direct on \[0, 1\]: exp\(900\.0\) \* .* "
                                 r"overflowed$") as exc:
            compute_qn_direct(spec, kernels_of(spec, 0, 1, 2), 0)
        assert (exc.value.index, exc.value.stage) == (0, "Q_n direct")


    def test_q_n_direct_past_exp_range(self):
        # exp(800) overflows, while Q_1 = exp(800) (1 - e^-400) 1e-300 / 400 is 6.8e44
        spec = make_spec(a="-400", b="1e-300", k=1, factor=None)
        assert compute_qn_direct(spec, kernels_of(spec, 0, 1), 1) == pytest.approx(
            2.5e-303 * math.exp(400.0) * math.exp(400.0), rel=1e-12)

    # a finite value * exp(expo) keeps its bits; past it, the split exponent
    # is tried, and raises where that overflows too
    @pytest.mark.parametrize("expo,value", [(700.0, 1e-3), (-745.0, 1e300), (3.5, -2.0),
                                            (709.7, 1.0), (-1e4, 1.0), (1.0, 0.0)])
    def test_scaled_keeps_finite_products(self, expo, value):
        assert reduction._scaled(expo, value, 0, "b_n") == value * math.exp(expo)

    @pytest.mark.parametrize("expo,value", [(800.0, 2.5e-303), (1000.0, -1e-300),
                                            (1500.0, 1e-300), (800.0, 1e10),
                                            (800.0, math.nan)])
    def test_scaled_past_exp_range(self, expo, value):
        expected = value * math.exp(expo / 2) * math.exp(expo / 2) if expo < 1400 else math.inf
        if not math.isfinite(expected):
            with pytest.raises(NumericFailure, match="overflowed$"):
                reduction._scaled(expo, value, 0, "b_n")
        else:
            assert reduction._scaled(expo, value, 0, "b_n") == expected


@pytest.fixture
def built(monkeypatch):
    """The n of every kernel built, under whichever name a module imported it."""
    built = []
    init = IntervalKernel.__init__

    def counting(self, fa, fb, n):
        built.append(n)
        init(self, fa, fb, n)

    monkeypatch.setattr(IntervalKernel, "__init__", counting)
    return built


class TestOneKernelPerInterval:
    """The reduction, its Q_n included, integrates each interval once, and
    the reconstruction samples the reduction's kernels."""

    def test_kernel_count(self, built):
        spec = load_problem(EXAMPLES / "example2.json").spec
        ds = build_discrete_system(spec)
        assert sorted(built) == list(range(spec.n0, spec.horizon))
        built.clear()
        for n in ds.q_indices():
            compute_qn_direct(spec, ds.kernels, n)
        sol = continue_window(ds, spec.initial_window)
        reconstruct(spec, ds, sol, 4)
        assert built == []

    def test_check_builds_one_kernel_per_index(self, built, capsys):
        assert main(["check", str(EXAMPLES / "example2.json")]) == 0
        spec = load_problem(EXAMPLES / "example2.json").spec
        assert sorted(built) == list(range(spec.n0, spec.horizon))

    def test_kept_kernels_are_compact(self, tmp_path):
        # every interval's kernel is kept for the reconstruction.  One array
        # of doubles per piece retains 634 bytes per interval here, the
        # coefficient sequences included (CPython 3.11); each piece as a
        # plain list of floats retains about 1,240
        doc = json.loads((EXAMPLES / "example2.json").read_text())
        path = tmp_path / "example2-h505.json"
        path.write_text(json.dumps({**doc, "horizon": 505}))
        build_discrete_system(load_problem(path).spec)   # fills the rule's caches
        spec = load_problem(path).spec
        tracemalloc.start()
        try:
            ds = build_discrete_system(spec)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.horizon == 505
        assert retained / (spec.horizon - spec.n0) <= 768


class TestSharedKernel:
    """Where neither a nor b reads t, one kernel, built on [n0, n0+1], serves
    every interval; the test is syntactic."""

    def test_one_kernel_for_every_interval(self, built):
        spec = make_spec(n0=3, horizon=40)
        ds = build_discrete_system(spec)
        assert built == [3]
        assert all(ds.kernels[n] is ds.kernels[3] for n in range(3, 40))

    def test_a_term_in_t_keeps_one_kernel_per_interval(self, built):
        # 0*t is 0, but a reads t as written
        spec = make_spec(a="-1 + 0*t", n0=3, horizon=40)
        ds = build_discrete_system(spec)
        assert built == list(range(3, 40))
        assert len({id(kernel) for kernel in ds.kernels.values()}) == 37

    @pytest.mark.parametrize("spec", [
        lambda: load_problem(EXAMPLES / "example1.json", {"horizon": 240}).spec,
        lambda: make_spec(a="-5", b="0.001", k=1, factor=None, horizon=400),
    ], ids=["example1-h240", "a=-5,b=0.001-h400"])
    def test_agrees_with_one_kernel_per_interval(self, monkeypatch, spec):
        spec = spec()
        shared = build_discrete_system(spec)
        compile_expr = reduction.compile_expr

        def reading(expr):   # one kernel per interval, as if a and b read t
            f = compile_expr(expr)
            f.reads_x = True
            return f

        monkeypatch.setattr(reduction, "compile_expr", reading)
        apart = build_discrete_system(spec)
        assert len({id(kernel) for kernel in shared.kernels.values()}) == 1
        assert len({id(kernel) for kernel in apart.kernels.values()}) == len(apart.kernels)
        for seq in ("a_seq", "b_seq", "q_seq"):
            ours, theirs = getattr(shared, seq), getattr(apart, seq)
            assert len(ours) == len(theirs)
            assert ours == pytest.approx(theirs, rel=1e-13, abs=0.0)

    def test_reconstruct_samples_the_shared_kernel_once(self, monkeypatch):
        spec = load_problem(EXAMPLES / "example1.json").spec
        ds = build_discrete_system(spec)
        calls = []
        factors = IntervalKernel.factors

        def counting(self, us):
            calls.append(len(us))
            return factors(self, us)

        def sweep(self, us, z_n, z_dev):
            calls.append("solution")

        monkeypatch.setattr(IntervalKernel, "factors", counting)
        monkeypatch.setattr(IntervalKernel, "solution", sweep)
        traj = reconstruct(spec, ds, continue_window(ds, spec.initial_window), 16)
        assert calls == [15]
        assert len(traj.nodes) > 1


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
        ds = build_discrete_system(load_problem(path).spec)
        for n in range(30):
            assert ds.a(n) == pytest.approx(math.exp(total(n)), rel=1e-10)


class TestClosedFormAccuracy:
    """The shipped examples at horizon 505, to 1e-13 relative."""

    def test_example1(self):
        # a = -1, b = -1/3, r = 1/2, k = 3: alpha_n = (2e)^n overflows from
        # n = 420 on, and Q_n, computed without alpha, is -(8/3) e^3 (e - 1)
        # at every index
        ds = build_discrete_system(
            load_problem(EXAMPLES / "example1.json", {"horizon": 505}).spec)
        a, b, r = -1.0, -1.0 / 3.0, 0.5
        for n in range(505):
            assert ds.a(n) == pytest.approx(r * math.exp(a), rel=1e-13)
            assert ds.b(n) == pytest.approx(r * b * (math.exp(a) - 1.0) / a, rel=1e-13)
        assert math.isinf(ds.alpha(420))
        assert ds.q_indices() == range(3, 505)
        for n in ds.q_indices():
            assert ds.q(n) == pytest.approx(-(8.0 / 3.0) * E ** 3 * (E - 1.0), rel=1e-13)

    def test_example2(self):
        pf = load_problem(EXAMPLES / "example2.json", {"horizon": 505})
        ds = build_discrete_system(pf.spec)
        for n in range(1, 505):
            assert ds.a(n) == pytest.approx((n + 1) / (2 * n), rel=1e-13)
            assert ds.b(n) == pytest.approx(1.0 / (2 * n), rel=1e-13)
        for n in range(1, 506):
            assert ds.alpha(n) == pytest.approx(math.ldexp(1.0, n - 1) / n, rel=1e-13)
