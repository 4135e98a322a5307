import math
import random
import sys
from array import array

import pytest

from _audits import reduce_to_y, sign_change
from idepca.diffeq import (
    TooShort,
    Verdict,
    block_sign,
    continue_window,
    default_window,
    discrete_oscillation_check,
    DiscreteSolution,
    solve,
)
from idepca.quad import NumericFailure
from idepca.reduction import Direction, DiscreteSystem

E = math.e


def fabricate(a_seq, b_seq, k=1, direction=Direction.DELAYED, n0=0):
    """Hand-built DiscreteSystem for solver tests, no quadrature involved."""
    a_seq = [float(v) for v in a_seq]
    b_seq = [float(v) for v in b_seq]
    assert len(a_seq) == len(b_seq)
    alpha = [1.0]
    for v in a_seq:
        alpha.append(alpha[-1] / v if v != 0.0 else math.nan)
    ds = DiscreteSystem(n0=n0, direction=direction, k=k, a_seq=a_seq, b_seq=b_seq,
                        alpha_seq=alpha, q_seq=[], kernels={}, origin=n0)
    for n in ds.q_indices():
        denom = ds.alpha(ds.dev(n))
        ds.q_seq.append(math.nan if denom == 0.0 or math.isnan(denom)
                        else ds.alpha(n + 1) * ds.b(n) / denom)
    return ds


class TestSolveDelayed:
    def test_constant_solution(self):
        ds = fabricate([1.0] * 10, [0.0] * 10, k=2)
        sol = continue_window(ds, [1.0, 1.0, 1.0])
        assert sol.n_lo == -2
        assert all(v == 1.0 for v in sol.values)
        assert sol.truncated_at is None

    def test_period_two_alternation(self):
        # z_{n+1} = z_{n-1} swaps the two window values forever
        ds = fabricate([0.0] * 8, [1.0] * 8, k=1)
        sol = continue_window(ds, [1.0, -1.0])
        assert sol.value(1) == 1.0
        assert sol.value(2) == -1.0
        assert sol.value(7) == 1.0

    def test_single_step_constant_data(self):
        # one step with a_n = 1/(2e), b_n = (1-e)/(6e) and an all-ones window
        an = 1.0 / (2.0 * E)
        bn = (1.0 - E) / (6.0 * E)
        ds = fabricate([an] * 6, [bn] * 6, k=3)
        sol = continue_window(ds, [1.0] * 4)
        assert sol.value(1) == pytest.approx(an + bn, abs=1e-12)
        assert sol.value(1) == pytest.approx(0.0785863, abs=1e-7)

    def test_window_kept_verbatim(self):
        ds = fabricate([0.5] * 5, [0.25] * 5, k=2)
        window = [3.0, -1.0, 2.0]
        sol = continue_window(ds, window)
        assert sol.values[:3] == window

    def test_overflow_truncates(self):
        ds = fabricate([1e200] * 6, [0.0] * 6, k=1)
        sol = continue_window(ds, [1.0, 1.0])
        assert sol.truncated_at == 2
        assert all(math.isfinite(v) for v in sol.values)

    def test_wrong_window_length(self):
        ds = fabricate([1.0] * 5, [0.0] * 5, k=2)
        with pytest.raises(ValueError):
            continue_window(ds, [1.0, 1.0])


class TestContinuationCut:
    """The window continuation keeps a value while it is normal or an exact
    0.0, and is cut at the first other one, as the backward sweep is."""

    @pytest.mark.parametrize("a,b,k,direction,window,cut", [
        # z_n = 1e-10^n: z_31 is about 1e-310, subnormal
        (1e-10, 0.0, 1, Direction.DELAYED, [1.0, 1.0], 31),
        # z_2 = 1e-200 * 1e-200 rounds straight to 0
        (1e-200, 0.0, 1, Direction.DELAYED, [1.0, 1.0], 2),
        (1e-200, 0.0, 1, Direction.ADVANCED, [1.0, 1.0], 2),
        # z_5 = (z_4 - z_3) / 1e200 = -3e-400 rounds to 0
        (1.0, 1e200, 2, Direction.ADVANCED, [1.0, 2.0, 4.0], 5),
        # overflow cuts at the index it did before underflow was cut
        (1e200, 0.0, 1, Direction.DELAYED, [1.0, 1.0], 2),
        (1e200, 0.0, 1, Direction.ADVANCED, [1.0, 1.0], 2),
        (1.0, 1e-200, 2, Direction.ADVANCED, [1.0, 2.0, 4.0], 4),
    ], ids=["gradual-underflow", "direct-underflow", "advanced-k1-underflow",
            "advanced-k2-underflow", "delayed-overflow", "advanced-k1-overflow",
            "advanced-k2-overflow"])
    def test_cut_at_first_value_out_of_range(self, a, b, k, direction, window, cut):
        ds = fabricate([a] * 40, [b] * 40, k=k, direction=direction)
        sol = continue_window(ds, window)
        assert sol.truncated_at == cut
        assert sol.n_hi == cut - 1
        assert all(sys.float_info.min <= abs(v) < math.inf for v in sol.values)

    @pytest.mark.parametrize("a,b,k,direction,window", [
        # z_{n+2} = z_{n+1} - z_n from 1, 1 and z_{n+1} = z_n - z_{n-1}
        (1.0, 1.0, 2, Direction.ADVANCED, [1.0, 1.0, 1.0]),
        (1.0, -1.0, 1, Direction.DELAYED, [1.0, 1.0]),
    ], ids=["advanced", "delayed"])
    def test_exact_zero_kept(self, a, b, k, direction, window):
        ds = fabricate([a] * 12, [b] * 12, k=k, direction=direction)
        sol = continue_window(ds, window)
        assert sol.truncated_at is None and sol.n_hi == 12
        assert sol.values.count(0.0) == 4
        assert set(sol.values) == {1.0, 0.0, -1.0}


class TestSolveAdvanced:
    def test_geometric_growth_k1(self):
        # z_{n+1} = z_n / (1 - 1/2) doubles every step
        ds = fabricate([1.0] * 6, [0.5] * 6, k=1, direction=Direction.ADVANCED)
        sol = continue_window(ds, [1.0, 99.0])  # only the first entry is used
        assert sol.value(0) == 1.0
        assert sol.value(1) == pytest.approx(2.0)
        assert sol.value(2) == pytest.approx(4.0)

    def test_rearranged_step_k2(self):
        ds = fabricate([1.0] * 6, [1.0] * 6, k=2, direction=Direction.ADVANCED)
        sol = continue_window(ds, [1.0, 1.0, 1.0])
        assert sol.value(3) == pytest.approx(0.0)

    def test_window_kept_for_k_at_least_2(self):
        ds = fabricate([0.5] * 8, [0.25] * 8, k=3, direction=Direction.ADVANCED)
        window = [1.0, 2.0, 3.0, 4.0]
        sol = continue_window(ds, window)
        assert sol.values[:4] == window

    def test_original_recursion_satisfied(self):
        ds = fabricate([0.9, 1.1, 0.8, 1.2, 0.95, 1.05, 0.85, 1.15],
                       [0.4, -0.3, 0.5, 0.6, -0.2, 0.35, 0.45, -0.25],
                       k=3, direction=Direction.ADVANCED)
        sol = continue_window(ds, [1.0, 0.5, -0.5, 2.0])
        # the sweep enforces the relation from n0+1 on
        for n in range(1, sol.n_hi - 2):
            lhs = sol.value(n + 1)
            rhs = ds.a(n) * sol.value(n) + ds.b(n) * sol.value(n + 3)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_division_by_zero(self):
        ds = fabricate([1.0] * 6, [1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                       k=2, direction=Direction.ADVANCED)
        with pytest.raises(NumericFailure,
                           match=r"^b_1 = 0: advanced recursion cannot be rearranged$") as exc:
            continue_window(ds, [1.0, 1.0, 1.0])
        assert exc.value.index == 1

    def test_degenerate_advance_k1(self):
        ds = fabricate([1.0] * 6, [1.0] * 6, k=1, direction=Direction.ADVANCED)
        with pytest.raises(NumericFailure,
                           match=r"^b_0 = 1 with k = 1: degenerate advance$") as exc:
            continue_window(ds, [1.0, 1.0])
        assert exc.value.index == 0

    def test_dispatch(self):
        ds = fabricate([1.0] * 6, [0.5] * 6, k=1, direction=Direction.ADVANCED)
        sol = solve(ds, [1.0, 0.0])
        assert sol.direction is Direction.ADVANCED

    @staticmethod
    def residual(ds, sol, n):
        """|z_{n+1} - a_n z_n - b_n z_{n+k}| relative to its largest term."""
        terms = (sol.value(n + 1), ds.a(n) * sol.value(n),
                 ds.b(n) * sol.value(n + ds.k))
        return abs(terms[0] - terms[1] - terms[2]) / max(abs(t) for t in terms)

    @pytest.mark.parametrize("a,b,k", [(0.6, 0.2, 2), (0.5, 0.1, 5),
                                       (1.2, 0.05, 3), (2.0, 0.25, 1)])
    def test_ratio_tends_to_smallest_root(self, a, b, k):
        # iterating lambda <- a + b lambda^k from 0 climbs monotonically to
        # the smallest positive root of lambda = a + b lambda^k
        root = 0.0
        for _ in range(500):
            root = a + b * root ** k
        ds = fabricate([a] * 200, [b] * 200, k=k, direction=Direction.ADVANCED)
        sol = solve(ds, [1.0] * (k + 1))
        for n in range(0, 50):
            assert sol.value(n + 1) / sol.value(n) == pytest.approx(root, rel=1e-10)

    @pytest.mark.parametrize("z0,a_scale,horizon", [(-2.5, 1.0, 12), (1e300, 0.1, 600)])
    def test_relation_holds_from_n0(self, z0, a_scale, horizon):
        # the second case spans about 600 decades: the raw sweep would
        # overflow without its rescaling, the normalised values do not
        rng = random.Random(7)
        a_seq = [a_scale * rng.uniform(0.8, 1.2) for _ in range(horizon - 2)]
        b_seq = [rng.uniform(-0.5, 0.6) * a_scale for _ in range(horizon - 2)]
        ds = fabricate(a_seq, b_seq, k=3, direction=Direction.ADVANCED, n0=2)
        sol = solve(ds, [z0, 7.0, -7.0, 7.0])
        assert sol.value(2) == z0
        assert sol.truncated_at is None and sol.n_hi == horizon
        assert sol.relation_indices() == range(2, horizon - 2)
        for n in range(2, horizon - 2):
            assert self.residual(ds, sol, n) <= 1e-12

    @pytest.mark.parametrize("a,b", [(1e-3, 1e-4), (1e3, -1e-7)])
    def test_normalised_range_cuts(self, a, b):
        # z_n is about a^n: 1e-309 underflows the normal range and 1e309
        # overflows, both first at n = 103
        ds = fabricate([a] * 200, [b] * 200, k=2, direction=Direction.ADVANCED)
        sol = solve(ds, [1.0, 1.0, 1.0])
        assert sol.truncated_at == 103
        assert sol.n_hi == 102
        assert all(sys.float_info.min <= abs(v) < math.inf for v in sol.values)
        for n in sol.relation_indices():
            assert self.residual(ds, sol, n) <= 1e-12

    def test_vanishing_start_is_named(self):
        # b_3 = 1 with k = 1 forces z_3 = (1 - b_3) z_4 / a_3 = 0
        ds = fabricate([1.0] * 6, [1.0] + [0.5] * 5, k=1,
                       direction=Direction.ADVANCED, n0=3)
        with pytest.raises(NumericFailure,
                           match=r"^backward sweep fails at n = 3: z_3 = 0") as exc:
            solve(ds, [1.0, 1.0])
        assert exc.value.index == 3

    def test_zero_a_is_named(self):
        ds = fabricate([1.0, 1.0, 0.0, 1.0, 1.0, 1.0], [0.5] * 6, k=2,
                       direction=Direction.ADVANCED)
        with pytest.raises(NumericFailure, match=r"^backward sweep fails at n = 2: "
                                                 r"a_2 = 0 leaves z_2 undetermined$") as exc:
            solve(ds, [1.0, 1.0, 1.0])
        assert exc.value.index == 2

    def test_unit_advance_matches_window_continuation(self):
        ds = fabricate([0.9, 1.1, 0.8, 1.2, 0.95], [0.4, -0.3, 0.5, 0.6, -0.2],
                       k=1, direction=Direction.ADVANCED)
        swept = solve(ds, [1.5, 99.0]).values
        forward = continue_window(ds, [1.5, 99.0]).values
        assert swept == pytest.approx(forward, rel=1e-14)


class TestReduceToY:
    def test_identity_alpha(self):
        ds = fabricate([1.0] * 6, [0.0] * 6, k=1)
        sol = continue_window(ds, [2.0, 2.0])
        y = reduce_to_y(ds, sol)
        assert y == [2.0] * 7

    def test_zero_solution(self):
        ds = fabricate([0.5] * 6, [0.25] * 6, k=1)
        sol = continue_window(ds, [0.0, 0.0])
        assert all(v == 0.0 for v in reduce_to_y(ds, sol))

    def test_reduced_recursion_residual(self):
        ds = fabricate([0.6, 0.7, 0.8, 0.9, 0.65, 0.75, 0.85, 0.95],
                       [-0.2, -0.3, -0.25, -0.15, -0.2, -0.3, -0.25, -0.15],
                       k=2)
        sol = continue_window(ds, [1.0, 1.0, 1.0])
        y = reduce_to_y(ds, sol)
        scale = max(abs(v) for v in y)
        for n in range(2, 7):
            residual = (y[n + 1] - y[n]) - ds.q(n) * y[n - 2]
            assert abs(residual) <= 1e-12 * scale


class TestSignChange:
    def test_strict_change(self):
        assert sign_change(1.0, -1.0)
        assert sign_change(-1e300, 1e300)

    def test_zero_counts(self):
        assert sign_change(0.0, 5.0)
        assert sign_change(5.0, 0.0)

    def test_same_sign(self):
        assert not sign_change(1.0, 2.0)
        assert not sign_change(-3.0, -0.5)


class TestOscillationCheck:
    def make_sol(self, values, k=1):
        return DiscreteSolution(0, [float(v) for v in values],
                                Direction.DELAYED, k)

    def test_alternating_is_oscillatory(self):
        sol = self.make_sol([(-1.0) ** n for n in range(40)])
        assert discrete_oscillation_check(sol).verdict is Verdict.OSCILLATORY

    def test_decaying_positive(self):
        sol = self.make_sol([1.0 + 1.0 / (n + 1) for n in range(40)])
        res = discrete_oscillation_check(sol)
        assert res.verdict is Verdict.EVENTUALLY_POSITIVE
        assert res.last_sign_change is None

    def test_eventually_negative(self):
        sol = self.make_sol([-0.5 - 1.0 / (n + 1) for n in range(40)])
        assert (discrete_oscillation_check(sol).verdict
                is Verdict.EVENTUALLY_NEGATIVE)

    def test_zero_before_tail_ignored(self):
        values = [1.0] * 40
        values[2] = 0.0
        res = discrete_oscillation_check(self.make_sol(values))
        assert res.verdict is Verdict.EVENTUALLY_POSITIVE
        # the reported index is the left element of the last changing pair
        assert res.last_sign_change == 2

    def test_run_across_tile_edge_inconclusive(self):
        # pairs 22..25 are positive, a run of window = 4 pairs that a tiling
        # of the tail from 20 into 20..23, 24..27, ... would split in two
        values = [(-1.0) ** n for n in range(40)]
        values[22:27] = [1.0] * 5
        res = discrete_oscillation_check(self.make_sol(values))
        assert res.tail_window == (20, 38)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert (res.longest_run_start, res.longest_run_length) == (22, 4)
        assert res.last_sign_change == 38

    def test_sparse_changes_inconclusive(self):
        # one isolated sign change in the tail, far from block-per-window
        values = [1.0] * 40
        values[30] = -1.0
        res = discrete_oscillation_check(self.make_sol(values))
        assert res.verdict is Verdict.INCONCLUSIVE

    def test_too_short(self):
        with pytest.raises(TooShort):
            discrete_oscillation_check(self.make_sol([1.0] * 6))

    def test_scaling_invariance(self):
        values = [math.sin(0.9 * n) + 0.1 for n in range(60)]
        base = discrete_oscillation_check(self.make_sol(values)).verdict
        scaled = discrete_oscillation_check(
            self.make_sol([123.5 * v for v in values])).verdict
        assert base is scaled

    def test_default_window_scales_with_deviation(self):
        assert default_window(1) == 4
        assert default_window(5) == 12

    def test_value_accessor_bounds(self):
        sol = self.make_sol([1.0, 2.0, 3.0])
        assert sol.n_hi == 2
        with pytest.raises(IndexError):
            sol.value(3)


class TestBlockSign:
    """block_sign decides as the two all() tests it replaced, in one pass."""

    @staticmethod
    def by_all(block):
        return (1 if all(v > 0.0 for v in block) else -1 if all(v < 0.0 for v in block)
                else 0)

    @pytest.mark.parametrize("block,sign", [
        ((1.0, 2.0), 1), ((-1.0, -2.0), -1), ((1.0, -2.0), 0), ((1.0, 0.0), 0),
        ((-0.0, -1.0), 0), ((math.nan, 1.0), 0), ((1.0, math.nan), 0),
        ((-1.0, math.nan), 0), ((math.nan,), 0), ((math.inf, 1.0), 1),
        ((-1.0, -math.inf), -1), ((math.inf, -math.inf), 0), ((), 1),
    ])
    def test_rule(self, block, sign):
        assert self.by_all(block) == sign
        for form in (tuple, list, lambda b: array("d", b), iter):
            assert block_sign(form(block)) == sign

    def test_random_blocks(self):
        rng = random.Random(25)
        pool = (-2.0, -1e-300, -0.0, 0.0, 5e-324, 3.0, math.inf, -math.inf, math.nan)
        for _ in range(2000):
            block = [rng.choice(pool) if rng.random() < 0.2 else rng.choice((-1, 1))
                     * rng.uniform(1e-3, 1e3) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.5:
                block = [abs(v) for v in block]
            sign = self.by_all(block)
            assert block_sign(block) == block_sign(array("d", block)) == sign, block

    def test_nan_pair_is_a_sign_change(self):
        values = [1.0] * 40
        values[30] = math.nan
        res = discrete_oscillation_check(DiscreteSolution(0, values, Direction.DELAYED, 1))
        assert res.verdict is Verdict.INCONCLUSIVE
        assert res.last_sign_change == 30


class TestRelationIndices:
    # The expected ranges are the formulas the trajectory reconstruction and
    # the check command each used before relation_indices owned the rule.
    @staticmethod
    def reconstruct_range(ds, sol):
        if ds.direction is Direction.DELAYED:
            first = ds.n0
            last = min(ds.horizon - 1, sol.n_hi - 1)
        else:
            first = ds.n0 if ds.k == 1 else ds.n0 + 1
            last = min(ds.horizon - 1, sol.n_hi - ds.k)
        return range(first, last + 1)

    @staticmethod
    def check_range(ds, sol):
        k = ds.k
        if ds.direction is Direction.DELAYED:
            return range(ds.n0, min(ds.horizon, sol.n_hi))
        start = ds.n0 if k == 1 else ds.n0 + 1
        return range(start, min(ds.horizon - k + 1, sol.n_hi - k + 1))

    @pytest.mark.parametrize("a,b,k,direction,n0,window,expected", [
        (0.5, -0.3, 2, Direction.DELAYED, 0, [1.0, -1.0, 2.0], range(0, 10)),
        (1.1, 0.2, 1, Direction.ADVANCED, 0, [1.0, 5.0], range(0, 10)),
        (1.1, 0.5, 3, Direction.ADVANCED, 2, [1.0, 2.0, -1.0, 3.0], range(3, 10)),
        # z_3 = 2e200 and z_4 overflows, so the sweep stops at n_hi = 3
        (1.0, 1e-200, 2, Direction.ADVANCED, 0, [1.0, 2.0, 4.0], range(1, 2)),
        (1e200, 0.0, 1, Direction.DELAYED, 0, [1.0, 1.0], range(0, 1)),
    ], ids=["delayed", "advanced_k1", "advanced_k3_n0", "advanced_truncated",
            "delayed_truncated"])
    def test_matches_previous_formulas(self, a, b, k, direction, n0, window, expected):
        # the window continuation is the solution reconstruct and check
        # receive from simulate and check
        ds = fabricate([a] * 10, [b] * 10, k=k, direction=direction, n0=n0)
        sol = continue_window(ds, window)
        assert sol.relation_indices() == expected
        assert sol.relation_indices() == self.reconstruct_range(ds, sol)
        assert sol.relation_indices() == self.check_range(ds, sol)


def _pair_loop_check(values, k, tail_fraction):
    """Brute-force reference for the sign rule on pairs: every window
    position in the tail is tried.  Returns (verdict, last change position,
    tail pair positions, longest one-signed run as (start, length)) or None
    when the tail is too short."""
    window = default_window(k)
    m = len(values)
    tail_len = max(1, int(round(m * tail_fraction)))
    if tail_len < 2 * window:
        return None
    i0 = m - tail_len

    def one_signed(lo, length):   # pairs lo .. lo+length-1
        vals = values[lo:lo + length + 1]
        return all(v > 0.0 for v in vals) or all(v < 0.0 for v in vals)

    changes = [i for i in range(m - 1) if sign_change(values[i], values[i + 1])]
    last = changes[-1] if changes else None
    run = (None, 0)
    for lo in range(i0, m - 1):
        length = 0
        while lo + length < m - 1 and one_signed(lo, length + 1):
            length += 1
        if length > run[1]:
            run = (lo, length)
    if one_signed(i0, m - 1 - i0):
        verdict = (Verdict.EVENTUALLY_POSITIVE if values[i0] > 0.0
                   else Verdict.EVENTUALLY_NEGATIVE)
    elif any(one_signed(lo, window) for lo in range(i0, m - window)):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.OSCILLATORY
    return verdict, last, (i0, m - 2), run


def _signed_runs(rng, length, k):
    """Runs of one sign, short or long, with scattered exact zeros."""
    zero_share = rng.choice((0.0, 0.05, 0.2))
    values = []
    while len(values) < length:
        sign = rng.choice((-1.0, 1.0))
        run = rng.choice((rng.randint(1, 3), rng.randint(1, 2 * (k + 1) + 2),
                          rng.randint(1, length)))
        for _ in range(run):
            zero = rng.random() < zero_share
            values.append(0.0 if zero else sign * rng.uniform(1e-3, 1e3))
    return values[:length]


def test_block_verdict_matches_pair_loop():
    rng = random.Random(20251018)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 5)
        fraction = rng.choice((0.5, 0.75, 1.0))
        values = _signed_runs(rng, rng.randint(8, 80), k)
        n_lo = rng.randint(-5, 5)
        sol = DiscreteSolution(n_lo, values, Direction.DELAYED, k)
        expected = _pair_loop_check(values, k, fraction)
        if expected is None:
            with pytest.raises(TooShort):
                discrete_oscillation_check(sol, fraction)
            continue
        verdict, last, (lo, hi), (run_start, run_length) = expected
        res = discrete_oscillation_check(sol, fraction)
        assert res.verdict is verdict, values
        assert res.last_sign_change == (None if last is None else n_lo + last)
        assert res.tail_window == (n_lo + lo, n_lo + hi)
        assert res.longest_run_start == (None if run_start is None else n_lo + run_start)
        assert res.longest_run_length == run_length
        seen.add(verdict)
    assert seen == set(Verdict)
