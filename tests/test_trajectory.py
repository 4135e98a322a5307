import math
import tracemalloc
from pathlib import Path

import pytest

from _audits import max_node_discontinuity
from idepca.cli import load_problem
from idepca.diffeq import (TooShort, Verdict, continue_window, discrete_oscillation_check,
                           solve)
from idepca.exprlang import parse
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


def continuous_verdict(sol, traj):
    """The continuous verdict on the tail the discrete check picks, as the CLI runs it."""
    return continuous_oscillation_check(traj, discrete_oscillation_check(sol).tail_window[0])


class TestReconstruction:
    def test_pure_ode_matches_exponential(self):
        # b = 0 and no impulses leave the plain ODE x' = x, so z(t) = e^t
        _, _, _, traj = make_pipeline(a="1", b="0", k=1, factor=None,
                                      window=(1.0, 1.0), horizon=5)
        for t, z in traj.points():
            assert z == pytest.approx(math.exp(t), rel=1e-9)
        mid = [z for t, z in traj.points() if t == 0.5]
        assert mid[0] == pytest.approx(1.6487212, abs=1e-6)

    def test_samples_strictly_increasing(self):
        # m samples per interval at t = n + i/m, the first at float(n); at
        # m = 1 that leaves each continuous block [z_n, z_left]
        for m in (8, 1, 4):
            _, _, sol, traj = make_pipeline(samples=m)
            assert traj.samples_per_interval == m
            assert len(traj.samples) == m * len(traj.nodes)
            points = list(traj.points())
            assert [z for _, z in points] == traj.samples
            for j, (t, z) in enumerate(points):
                n, i = traj.interval_start + j // m, j % m
                assert t == n + i / m
                if i == 0:
                    assert type(t) is float and t == float(n)
                    assert z == sol.value(n)
            times = [t for t, _ in points]
            assert all(u < v for u, v in zip(times, times[1:]))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_samples_hold_one_number_each(self, name):
        # what a dense reconstruction keeps: a float and its list slot per
        # sample (about 33 bytes), not a (t, z) tuple of two (about 113)
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
        assert retained / len(traj.samples) <= 48

    def test_interval_blocks_include_left_limit(self):
        # every sample is positive and every left limit negative, so only
        # the left limits can put a sign change in each block
        spec, _, _, _ = make_pipeline(k=1, window=(1.0, 1.0), samples=4)
        samples = [1.0] * (16 * 4)
        nodes = [NodeRecord(n + 1, -1.0, 1.0, 0.5) for n in range(16)]
        traj = Trajectory(spec.k, samples, nodes, 0, 4)
        assert continuous_oscillation_check(traj, 8).verdict is Verdict.OSCILLATORY

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
