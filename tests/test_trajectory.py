import json
import math
import random
import tracemalloc
from array import array
from itertools import groupby
from pathlib import Path

import pytest

from _audits import (hexes, max_node_discontinuity, points, reference_rows,
                     solution_reference)
from idepca import diffeq, quad, trajectory
from idepca.cli import load_problem, main, validate_problem
from idepca.diffeq import (TooShort, Verdict, continue_window, discrete_oscillation_check,
                           solve)
from idepca.exprlang import parse
from idepca.quad import IntervalKernel, _evaluate
from idepca.reduction import (
    Direction,
    ProblemSpec,
    build_discrete_system,
)
from idepca.trajectory import (
    NodeRecord,
    Trajectory,
    continuous_oscillation_check,
    reconstruct,
)

REPO = Path(__file__).resolve().parent.parent


def make_pipeline(a="-1", b="-1/3", direction=Direction.DELAYED, k=3,
                  factor=0.5, window=None, horizon=12, n0=0, samples=8):
    if window is None:
        window = (1.0,) * (k + 1)
    impulse = (lambda n: 1.0) if factor is None else (lambda n: factor)
    spec = ProblemSpec(a=parse(a, "t"), b=parse(b, "t"), direction=direction,
                       k=k, impulse=impulse, initial_window=tuple(window),
                       horizon=horizon, n0=n0)
    ds = build_discrete_system(spec)
    sol = continue_window(ds, spec.initial_window)   # what simulate reconstructs
    traj = reconstruct(spec, ds, sol, samples)
    return spec, ds, sol, traj


def assert_rows_match(spec, m):
    """Reconstruct what simulate writes and require its CSV rows, one string
    per interval, to be the per-sample reference byte for byte."""
    ds = build_discrete_system(spec)
    traj = reconstruct(spec, ds, continue_window(ds, spec.initial_window), m)
    rows = list(traj.rows())
    assert len(rows) == len(traj.nodes)
    assert rows == reference_rows(traj)
    return traj


def continuous_verdict(sol, traj):
    """The continuous verdict on the tail the discrete check picks, as the CLI runs it."""
    return continuous_oscillation_check(traj, discrete_oscillation_check(sol).tail_window[0])


class TestReconstruction:
    def test_pure_ode_matches_exponential(self):
        # b = 0 and no impulses leave the plain ODE x' = x, so z(t) = e^t
        _, _, _, traj = make_pipeline(a="1", b="0", k=1, factor=None,
                                      window=(1.0, 1.0), horizon=5)
        for t, z in points(traj):
            assert z == pytest.approx(math.exp(t), rel=1e-9)
        mid = [z for t, z in points(traj) if t == 0.5]
        assert mid[0] == pytest.approx(1.6487212, abs=1e-6)

    def test_samples_strictly_increasing(self):
        # m samples per interval at t = n + i/m, the first at float(n); at
        # m = 1 that leaves each continuous block [z_n, z_left]
        for m in (8, 1, 4):
            _, _, sol, traj = make_pipeline(samples=m)
            assert traj.samples_per_interval == m
            assert len(traj.samples) == m * len(traj.nodes)
            pairs = list(points(traj))
            assert [z for _, z in pairs] == list(traj.samples)
            for j, (t, z) in enumerate(pairs):
                n, i = traj.interval_start + j // m, j % m
                assert t == n + i / m
                if i == 0:
                    assert type(t) is float and t == float(n)
                    assert z == sol.value(n)
            times = [t for t, _ in pairs]
            assert all(u < v for u, v in zip(times, times[1:]))

    # example 1 starts at n0 = 0 and example 2 at n0 = 1
    @pytest.mark.parametrize("m", [1, 3, 7, 32, 128])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_rows_are_the_per_sample_rows(self, name, m):
        assert_rows_match(load_problem(REPO / "problems" / f"{name}.json").spec, m)

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_samples_hold_one_number_each(self, name):
        # what a dense reconstruction keeps: one 8-byte double per sample,
        # not a float object and its list slot (about 33 bytes) or a (t, z)
        # tuple of two (about 113)
        pf = load_problem(REPO / "problems" / f"{name}.json")
        ds = build_discrete_system(pf.spec)
        sol = continue_window(ds, pf.spec.initial_window)
        tracemalloc.start()
        try:
            traj = reconstruct(pf.spec, ds, sol, 128)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.samples) == 128 * len(traj.nodes)
        assert retained / len(traj.samples) <= 12

    def test_interval_blocks_include_left_limit(self):
        # every sample is positive and every left limit negative, so only
        # the left limits can put a sign change in each block
        spec, _, _, _ = make_pipeline(k=1, window=(1.0, 1.0), samples=4)
        samples = [1.0] * (16 * 4)
        nodes = [NodeRecord(n + 1, -1.0, 1.0, 0.5) for n in range(16)]
        traj = Trajectory(spec.k, samples, nodes, 0, 4)
        assert continuous_oscillation_check(traj, 8).verdict is Verdict.OSCILLATORY

    # a nan sample or left limit makes its interval mixed, whether the
    # samples are a list or an array
    @pytest.mark.parametrize("form", [list, lambda s: array("d", s)], ids=["list", "array"])
    @pytest.mark.parametrize("where", ["sample", "left-limit"])
    def test_nan_makes_interval_mixed(self, form, where):
        spec, _, _, _ = make_pipeline(k=1, window=(1.0, 1.0), samples=4)
        samples = [1.0] * (16 * 4)
        nodes = [NodeRecord(n + 1, 1.0, 1.0, 0.5) for n in range(16)]
        if where == "sample":
            samples[13 * 4 + 2] = math.nan
        else:
            nodes[13] = NodeRecord(14, math.nan, 1.0, 0.5)
        res = continuous_oscillation_check(Trajectory(spec.k, form(samples), nodes, 0, 4), 8)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert res.last_sign_change == 13

    def test_jump_factor_relates_node_values(self):
        _, _, _, traj = make_pipeline()
        for rec in traj.nodes:
            assert rec.jump_factor == 0.5
            assert rec.z_right == pytest.approx(0.5 * rec.z_left, rel=1e-9,
                                                abs=1e-12)

    def test_node_continuity_without_impulses(self):
        _, _, _, traj = make_pipeline(factor=None)
        assert max_node_discontinuity(traj) <= 1e-8

    def test_node_continuity_relative_to_small_values(self):
        # without impulses z is continuous at every node; here |z| < 1 at
        # every node and falls to 1e-17, so the gap is measured against |z|
        # itself, not against max(1, |z|)
        _, _, _, traj = make_pipeline(a="-2", k=1, factor=None, window=(1.0, 1.0),
                                      horizon=40)
        assert max(abs(rec.z_right) for rec in traj.nodes) < 1.0
        worst = max(abs(rec.z_left - rec.z_right) / abs(rec.z_right) for rec in traj.nodes)
        assert worst <= 1e-14

    def test_node_values_match_discrete_solution(self):
        _, _, sol, traj = make_pipeline()
        for rec in traj.nodes:
            assert rec.z_right == sol.value(rec.n)

    def test_advanced_skips_unconstrained_first_interval(self):
        # for k >= 2 the initial window is free on [n0, n0+1), so the
        # reconstruction starts one interval later
        _, _, _, traj = make_pipeline(a="1/t", b="1/t",
                                      direction=Direction.ADVANCED, k=5,
                                      window=(1.0,) * 6, n0=1, horizon=20)
        assert traj.interval_start == 2
        assert traj.nodes[0].n == 3

    def test_advanced_sweep_starts_at_n0(self):
        # the backward sweep satisfies the relation on the first interval
        # too, so its reconstruction starts at n0 and joins up there
        spec, ds, _, _ = make_pipeline(a="1/t", b="1/t", direction=Direction.ADVANCED,
                                       k=5, window=(1.0,) * 6, n0=1, horizon=20,
                                       factor=None)
        sol = solve(ds, spec.initial_window)
        traj = reconstruct(spec, ds, sol, 8)
        assert traj.interval_start == 1
        assert traj.nodes[0].n == 2
        assert max_node_discontinuity(traj) <= 1e-8

    def test_advanced_unit_advance_starts_at_n0(self):
        _, _, _, traj = make_pipeline(b="0.2", direction=Direction.ADVANCED,
                                      k=1, window=(1.0, 1.0), horizon=8)
        assert traj.interval_start == 0

    def test_minimum_sampling_rejected(self):
        spec, ds, sol, _ = make_pipeline()
        with pytest.raises(ValueError):
            reconstruct(spec, ds, sol, 0)


class TestExpOverflowInsideInterval:
    """a = 800 pi sin(2 pi t), so A(t) = 800 sin^2(pi t) leaves double range
    inside every interval while every T_n is 0 and the skeleton stays
    finite.  E(t) is inf there, and z(t) = E(t) (z_n + z_dev G(t)) is inf
    with the bracket's sign, not inf - inf."""

    DOC = {"a": "2513.2741228718345*sin(6.283185307179586*t)", "b": "-0.1",
           "direction": "delayed", "k": 1, "impulse": "none", "initial_window": [1, 1],
           "n0": 0, "horizon": 30}

    def test_samples_and_both_verdicts(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(self.DOC))
        prefix = tmp_path / "s"
        assert main(["simulate", str(path), "--samples", "8", "--out", str(prefix)]) == 0
        rows = (tmp_path / "s.trajectory.csv").read_text().splitlines()
        assert rows[5] == "0.5,inf"
        assert not any(row.endswith("nan") for row in rows)
        verdicts = json.loads((tmp_path / "s.verdicts.json").read_text())
        assert verdicts["discrete"]["verdict"] == "EventuallyPositive"
        assert verdicts["continuous"]["verdict"] == "EventuallyPositive"

    # the negated window gives the mirror image, -inf inside every interval
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [1, 3, 7, 32, 128])
    def test_rows_are_the_per_sample_rows(self, m, sign):
        traj = assert_rows_match(
            validate_problem({**self.DOC, "initial_window": [sign, sign]}).spec, m)
        if m >= 7:     # at m = 3 the samples' A is at most 600, in range
            assert sign * math.inf in traj.samples


STIFF = "ROADMAP item 25: a stiff interval's samples carry about e^scale eps of error"


class TestStiffInterval:
    """Constant a < 0 and b, so on [n, n+1] z(n + u) = e^(au) z_n
    + z_dev b (e^(au) - 1) / a.  A sample is exp(A) z_n + z_dev
    exp(A + scale) W, scale = -a: W is accurate to about eps |W(n+1)|, and
    exp(A + scale) reaches e^scale near t = n, so the sample's error grows
    like e^(-a) eps.  a_n, b_n, Q_n and the node values read W only at
    n + 1, where exp(A + scale) = 1."""

    @pytest.mark.parametrize("a", [-1, -10, pytest.param(-50, marks=pytest.mark.xfail(
        strict=True, reason=STIFF))])
    def test_samples_match_closed_form(self, a):
        b, m = -1 / 3, 16
        _, ds, sol, traj = make_pipeline(a=str(a), direction=Direction.ADVANCED, k=2,
                                         factor=None, horizon=30, samples=m)
        worst = 0.0
        for j, z in enumerate(traj.samples):
            n, u = traj.interval_start + j // m, (j % m) / m
            z_n, z_dev = sol.value(n), sol.value(ds.dev(n))
            exact = math.exp(a * u) * z_n + z_dev * b * math.expm1(a * u) / a
            worst = max(worst, abs(z - exact) / max(abs(z_n), abs(z_dev * b / a)))
        assert worst <= 1e-9

    @pytest.mark.xfail(strict=True, reason=STIFF)
    def test_positive_solution_is_not_oscillatory(self, tmp_path):
        # b > 0 keeps every z_n > 0, and then z > 0 on every interval too
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({"a": "-40", "b": "0.01", "direction": "delayed", "k": 1,
                                    "impulse": "none", "initial_window": [1, 1], "n0": 0,
                                    "horizon": 40}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "s")]) == 0
        verdicts = json.loads((tmp_path / "s.verdicts.json").read_text())
        assert verdicts["discrete"]["verdict"] == "EventuallyPositive"
        assert verdicts["continuous"]["verdict"] == "EventuallyPositive"


def reference_samples(ds, sol, m):
    """Every interval's samples and left limit as reconstruct formed them
    from evaluated series: z_n, then the solution formula on each series
    of the interval's kernel evaluated at kernel.n + i/m by quad._evaluate."""
    samples, lefts = [], []
    offsets = [i / m for i in range(1, m)]
    for n in sol.relation_indices():
        kernel = ds.kernels[n]
        z_n, z_dev = sol.value(n), sol.value(ds.dev(n))
        ts = [kernel.n + u for u in offsets]
        samples += [z_n, *solution_reference(_evaluate(kernel._a, ts), _evaluate(kernel._w, ts),
                                             kernel.scale, z_n, z_dev)]
        lefts += solution_reference((kernel.total,), (kernel.weight,), kernel.scale, z_n, z_dev)
    return samples, lefts


PI = "3.141592653589793"
# kinks on bisection points (piece edges at n + 0.5 and n + 0.75) and off
# them (near n + 0.3 and n + 0.7)
KINKED = {
    "kink-on-edges": {"a": f"abs(sin({PI}*(t - 0.5))) - 0.8",
                      "b": f"-0.2*abs(cos({PI}*(t - 0.25)))"},
    "kink-off-edges": {"a": f"-0.5 + 0.3*abs(sin({PI}*(t - 0.3)))",
                       "b": f"-0.2*abs(sin({PI}*(t - 0.7)))"},
}


class TestOneSweep:
    """reconstruct takes the exponentials of each run of intervals that share
    a kernel once, in one sweep over its series (IntervalKernel.factors), a
    run of one interval included; every interval's samples and left limit
    are then the solution formula on the evaluated series, bit for bit."""

    def assert_reference(self, spec, m):
        ds = build_discrete_system(spec)
        sol = continue_window(ds, spec.initial_window)
        traj = reconstruct(spec, ds, sol, m)
        samples, lefts = reference_samples(ds, sol, m)
        assert hexes(traj.samples) == hexes(samples)
        assert hexes(rec.z_left for rec in traj.nodes) == hexes(lefts)
        return ds, traj

    @pytest.mark.parametrize("m", [7, 128])
    def test_per_interval_single_piece_kernels(self, m):
        spec = load_problem(REPO / "problems" / "example2.json", {"horizon": 120}).spec
        ds, _ = self.assert_reference(spec, m)
        kernels = list(ds.kernels.values())
        assert len({id(k) for k in kernels}) == len(kernels)
        assert all(len(k._a) == len(k._w) == 1 for k in kernels)

    @pytest.mark.parametrize("m", [7, 128])
    @pytest.mark.parametrize("name", sorted(KINKED))
    def test_bisected_kernels(self, name, m):
        # at m = 128 samples fall on piece edges (t = n + 0.5, n + 0.75);
        # A's and W's pieces differ in number and bounds
        doc = {**KINKED[name], "direction": "delayed", "k": 1, "impulse": "none",
               "initial_window": [1, 1], "n0": 0, "horizon": 40}
        ds, traj = self.assert_reference(validate_problem(doc).spec, m)
        kernel = ds.kernels[5]
        edges = {p[0] for p in kernel._a[1:]} | {p[0] for p in kernel._w[1:]}
        assert len(kernel._a) != len(kernel._w)
        assert bool(edges & {5 + i / m for i in range(m)}) == (m == 128)

    @pytest.mark.parametrize("m", [1, 128])
    def test_shared_kernel(self, m):
        spec = load_problem(REPO / "problems" / "example1.json", {"horizon": 240}).spec
        ds, _ = self.assert_reference(spec, m)
        assert len({id(k) for k in ds.kernels.values()}) == 1

    @pytest.mark.parametrize("m", [7, 128])
    def test_exp_overflow_inside(self, m):
        spec = validate_problem(TestExpOverflowInsideInterval.DOC).spec
        _, traj = self.assert_reference(spec, m)
        assert math.inf in traj.samples
        assert not any(map(math.isnan, traj.samples))

    @pytest.mark.parametrize("m", [16, 128])
    def test_shared_kernel_whose_exponentials_overflow(self, m):
        # stiff-a720: one kernel serves every interval, and exp(A + scale)
        # = exp(720 (1 - u)) overflows at the first offset u = 1/128, not at
        # u = 1/16, so at m = 128 every interval takes the overflow form; the
        # samples are inaccurate (ROADMAP item 25), but none is nan
        doc = {"a": "-720", "b": "-1/3", "direction": "advanced", "k": 2, "impulse": "none",
               "initial_window": [1, 1, 1], "n0": 0, "horizon": 30}
        ds, traj = self.assert_reference(validate_problem(doc).spec, m)
        kernels = list(ds.kernels.values())
        assert len({id(k) for k in kernels}) == 1
        assert (kernels[0].factors([i / m for i in range(1, m)]) is None) == (m == 128)
        assert not any(map(math.isnan, traj.samples))

    def test_each_kernel_is_evaluated_once_per_run(self, monkeypatch):
        # example 2 has one kernel per interval; one kernel made to serve
        # intervals 10 to 19 and another 25 and 26 make runs of 10 and 2:
        # each run takes its factors once, whatever its length, and the
        # sweep reads no series through _evaluate
        spec = load_problem(REPO / "problems" / "example2.json", {"horizon": 40}).spec
        ds = build_discrete_system(spec)
        for n in range(11, 20):
            ds.kernels[n] = ds.kernels[10]
        ds.kernels[26] = ds.kernels[25]
        calls, evaluated = [], []
        factors = IntervalKernel.factors

        def counting(self, us):
            calls.append(self)
            return factors(self, us)

        monkeypatch.setattr(IntervalKernel, "factors", counting)

        def evaluate(pieces, ts):
            evaluated.append(pieces)
            return _evaluate(pieces, ts)

        monkeypatch.setattr(quad, "_evaluate", evaluate)
        sol = continue_window(ds, spec.initial_window)
        traj = reconstruct(spec, ds, sol, 16)
        runs = [(kernel, len(list(run)))
                for kernel, run in groupby(ds.kernels[n] for n in sol.relation_indices())]
        assert [length for _, length in runs if length > 1] == [10, 2]
        assert 1 in [length for _, length in runs]
        assert calls == [kernel for kernel, _ in runs]
        assert evaluated == []
        monkeypatch.setattr(quad, "_evaluate", _evaluate)
        samples, lefts = reference_samples(ds, sol, 16)
        assert hexes(traj.samples) == hexes(samples)
        assert hexes(rec.z_left for rec in traj.nodes) == hexes(lefts)


def t_rows(n_lo, intervals, m):
    """rows() of a trajectory of unit samples on [n_lo, n_lo + intervals)
    next to the rows formatted one sample at a time."""
    traj = Trajectory(1, array("d", [1.0] * (m * intervals)), [], n_lo, m)
    direct = ["".join("%.10g,%.10g\n" % (n + i / m, 1.0) for i in range(m))
              for n in range(n_lo, n_lo + intervals)]
    return list(traj.rows()), direct


class TestTimeColumn:
    """rows() formats t once per (digit count, bit length) of n; these pin
    its t column to %.10g of n + i/m across the edges of both."""

    # each run starts one below a binade or decade edge, so a template built
    # below the edge would be reused above it if the key missed that edge
    STARTS = ([2**k - 1 for k in range(31)] + [10**k - 1 for k in range(10)] + [-3])

    @pytest.mark.parametrize("m", [1, 3, 7, 20, 32, 128, 1000])
    def test_edges_match_direct_format(self, m):
        for n_lo in self.STARTS:
            got, direct = t_rows(n_lo, 6 if n_lo == -3 else 3, m)
            assert got == direct, (n_lo, m)

    def test_seeded_sweep_matches_direct_format(self):
        rng = random.Random(20261020)
        for _ in range(400):
            m = rng.choice([rng.randrange(1, 40), rng.randrange(40, 1500)])
            n_lo = rng.choice([rng.randrange(-5, 5), rng.randrange(1, 2**31),
                               2**rng.randrange(31) - rng.randrange(3),
                               10**rng.randrange(10) - rng.randrange(3)])
            got, direct = t_rows(n_lo, 3, m)
            assert got == direct, (n_lo, m)

    # 0.05 rounds to ...1 in the binade below 2^29 and to ...0 in the one
    # above; 999 and 1000 keep 7 and 6 decimals; 123456789 + 31/32 carries
    @pytest.mark.parametrize("n_lo,intervals,m,n,i,t", [
        (536870911, 2, 20, 536870911, 1, "536870911.1"),
        (536870911, 2, 20, 536870912, 1, "536870912"),
        (999, 2, 128, 999, 1, "999.0078125"),
        (999, 2, 128, 1000, 1, "1000.007812"),
        (123456789, 1, 32, 123456789, 31, "123456790"),
    ])
    def test_named_edges(self, n_lo, intervals, m, n, i, t):
        got, direct = t_rows(n_lo, intervals, m)
        assert got == direct
        assert got[n - n_lo].splitlines()[i] == f"{t},1"

    def test_one_template_per_digit_count_and_bit_length(self, monkeypatch):
        built = []
        pieces = trajectory._pieces

        def counted(n, offsets):
            built.append(n)
            return pieces(n, offsets)

        monkeypatch.setattr(trajectory, "_pieces", counted)
        got, direct = t_rows(1, 504, 128)
        assert got == direct
        assert built == [1, 2, 4, 8, 10, 16, 32, 64, 100, 128, 256]


class TestContinuousCheck:
    def test_alternating_skeleton_oscillatory(self):
        # a = 0 without impulses gives a_n = 1, and b large negative forces
        # alternation; the reconstructed trajectory must oscillate too
        _, _, sol, traj = make_pipeline(a="0", b="-3", k=1, factor=None,
                                        window=(1.0, 1.0), horizon=30)
        assert continuous_verdict(sol, traj).verdict is Verdict.OSCILLATORY

    def test_growing_exponential_positive(self):
        _, _, sol, traj = make_pipeline(a="1", b="0", k=1, factor=None,
                                        window=(1.0, 1.0), horizon=20)
        res = continuous_verdict(sol, traj)
        assert res.verdict is Verdict.EVENTUALLY_POSITIVE

    def test_negative_solution(self):
        _, _, sol, traj = make_pipeline(a="1", b="0", k=1, factor=None,
                                        window=(-1.0, -1.0), horizon=20)
        res = continuous_verdict(sol, traj)
        assert res.verdict is Verdict.EVENTUALLY_NEGATIVE

    def test_both_verdicts_use_block_sign(self, monkeypatch):
        # an alternating skeleton, judged with every block called positive
        _, _, sol, traj = make_pipeline(a="0", b="-3", k=1, factor=None,
                                        window=(1.0, 1.0), horizon=30)
        monkeypatch.setattr(diffeq, "block_sign", lambda values: 1)
        monkeypatch.setattr(trajectory, "block_sign", lambda values: 1)
        assert discrete_oscillation_check(sol).verdict is Verdict.EVENTUALLY_POSITIVE
        assert continuous_verdict(sol, traj).verdict is Verdict.EVENTUALLY_POSITIVE

    def test_run_across_tile_edge_inconclusive(self):
        # intervals 22..25 are positive and every other interval ends in a
        # negative left limit: a run of window = 4 intervals that a tiling
        # of the tail from 20 into 20..23, 24..27, ... would split in two
        spec, _, _, _ = make_pipeline(k=1, window=(1.0, 1.0), samples=4)
        samples = [1.0] * (40 * 4)
        nodes = [NodeRecord(n + 1, 1.0 if 22 <= n <= 25 else -1.0, 1.0, 0.5)
                 for n in range(40)]
        res = continuous_oscillation_check(Trajectory(spec.k, samples, nodes, 0, 4), 20)
        assert res.tail_window == (20, 39)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert (res.longest_run_start, res.longest_run_length) == (22, 4)
        assert res.last_sign_change == 39

    def test_empty_trajectory_too_short(self):
        spec, _, _, _ = make_pipeline()
        with pytest.raises(TooShort):
            continuous_oscillation_check(Trajectory(spec.k, [], [], 0, 8), 0)

    def test_discrete_oscillatory_transfers(self):
        _, _, sol, traj = make_pipeline(horizon=40)
        assert discrete_oscillation_check(sol).verdict is Verdict.OSCILLATORY
        assert continuous_verdict(sol, traj).verdict is Verdict.OSCILLATORY
