"""Metamorphic relations of the reduction on the tests' battery.

A constant jump factor r only rescales the reduced problem: against the
same coefficients without impulses (r = 1), a_n and b_n scale by r, and
Q_n = alpha_{n+1} b_n / alpha_dev(n) by r^-k (delayed) or r^k (advanced).
This pins the impulsive case, the paper's contribution, independently of
the dual-route Q audit, and every criterion's statistic, an extremum of
sums of Q_n, scales as Q_n does.  The difference equation is linear, so scaling
the initial window by c > 0 scales every z by c and keeps every verdict.
"""

from pathlib import Path

import pytest

from _audits import respec
from _battery import get_battery
from idepca.cli import load_problem
from idepca.criteria import evaluate_all, first_read
from idepca.diffeq import continue_window, discrete_oscillation_check, solve
from idepca.reduction import Direction, build_discrete_system

# the largest relative gap over battery seeds 1-6 is 8.9e-16 for Q_n and
# 3.3e-16 for b_n; a_n agrees exactly
COEFFICIENT_REL = 1e-14
# for z it is 4.5e-12: a value near a sign change carries the rounding of
# its larger terms
SOLUTION_REL = 1e-9
WINDOW_SCALE = 0.37
STATISTIC_REL = 1e-12
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def test_jump_factor_rescales_the_reduced_coefficients():
    for inst in get_battery():
        spec, ds = inst.spec, inst.ds
        r = inst.factor
        plain = build_discrete_system(respec(spec, impulse=lambda n: 1.0))
        for n in range(ds.n0, ds.horizon):
            assert close(ds.a(n), r * plain.a(n), COEFFICIENT_REL), (inst.index, n)
            assert close(ds.b(n), r * plain.b(n), COEFFICIENT_REL), (inst.index, n)
        q_scale = r ** (-spec.k if spec.direction is Direction.DELAYED else spec.k)
        assert ds.q_indices() == plain.q_indices()
        for n in ds.q_indices():
            assert close(ds.q(n), q_scale * plain.q(n), COEFFICIENT_REL), (inst.index, n)


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_jump_factor_rescales_every_statistic(name, r):
    pf = load_problem(PROBLEMS / f"{name}.json")

    def statistics(factor):
        # through analyze's build, which starts where the rows first read
        spec = respec(pf.spec, impulse=lambda n: factor)
        ds = build_discrete_system(spec, first_read(spec, pf.tail_fraction))
        return [rep.statistic for rep in evaluate_all(ds, pf.tail_fraction)]

    k = pf.spec.k
    scale = r ** (-k if pf.spec.direction is Direction.DELAYED else k)
    plain = statistics(1.0)
    assert len(plain) == 3 and all(plain)
    for got, want in zip(statistics(r), plain, strict=True):
        assert close(got, scale * want, STATISTIC_REL), (name, r)


@pytest.mark.parametrize("solver", [solve, continue_window])
def test_window_scale_scales_every_z(solver):
    for inst in get_battery():
        window = inst.spec.initial_window
        sol = solver(inst.ds, window)
        scaled = solver(inst.ds, [WINDOW_SCALE * v for v in window])
        assert (scaled.n_lo, scaled.truncated_at) == (sol.n_lo, sol.truncated_at)
        assert len(scaled.values) == len(sol.values)
        for n, (z, w) in enumerate(zip(sol.values, scaled.values), sol.n_lo):
            assert close(w, WINDOW_SCALE * z, SOLUTION_REL), (inst.index, n)
        assert discrete_oscillation_check(scaled) == discrete_oscillation_check(sol)
