import math
from pathlib import Path

import pytest

from idepca.criteria import (
    CRITERIA,
    CriterionReport,
    CriterionVerdict,
    NONOSCILLATION_IDS,
    OSCILLATION_IDS,
    TailKind,
    advanced_pointwise_threshold,
    advanced_sum_threshold,
    delayed_liminf_threshold,
    delayed_sum_threshold,
    evaluate_all,
    synthesize_verdict,
    tail_stats,
)
from idepca.diffeq import TooShort
from idepca.quad import NumericFailure
from idepca.reduction import Direction, DiscreteSystem


def system_with_q(q_values, k=3, direction=Direction.DELAYED, b_value=-0.3,
                  a_value=0.5):
    """DiscreteSystem scaffold with prescribed Q values and coefficient signs."""
    m = len(q_values)
    size = m + k + 1
    q_start = k if direction is Direction.DELAYED else 0
    return DiscreteSystem(
        n0=0, direction=direction, k=k,
        a_seq=[a_value] * size, b_seq=[b_value] * size,
        alpha_seq=[1.0] * (size + 1),
        q_seq=[float(q) for q in q_values], q_start=q_start, kernels={},
    )


def report(ds, criterion_id):
    """The named criterion's entry among everything evaluate_all reports."""
    return next(r for r in evaluate_all(ds) if r.criterion_id == criterion_id)
class TestThresholds:
    def test_delayed_liminf(self):
        assert delayed_liminf_threshold(3) == 27.0 / 256.0
        assert delayed_liminf_threshold(1) == 0.25

    def test_delayed_sum(self):
        assert delayed_sum_threshold(3) == 81.0 / 256.0

    def test_advanced_sum(self):
        assert advanced_sum_threshold(5) == 1024.0 / 3125.0

    def test_advanced_pointwise(self):
        assert advanced_pointwise_threshold(5) == 256.0 / 3125.0
        assert advanced_pointwise_threshold(2) == 0.25


class TestTailStats:
    def test_monotone_decay_liminf(self):
        seq = [1.0 / n for n in range(1, 1001)]
        stats = tail_stats(seq, TailKind.LIMINF)
        assert stats.statistic == pytest.approx(0.001)

    def test_alternating(self):
        seq = [(-1.0) ** n for n in range(64)]
        lo = tail_stats(seq, TailKind.LIMINF)
        hi = tail_stats(seq, TailKind.LIMSUP)
        assert lo.statistic == -1.0 and lo.convergence_flag
        assert hi.statistic == 1.0 and hi.convergence_flag

    def test_constant(self):
        stats = tail_stats([0.7] * 20, TailKind.LIMSUP)
        assert stats.statistic == 0.7
        assert stats.convergence_flag

    def test_window_offset(self):
        stats = tail_stats([1.0] * 10, TailKind.LIMINF, offset=5)
        assert stats.window == (10, 14)

    def test_too_short(self):
        with pytest.raises(TooShort, match=r"^need at least 8 points, got 7$"):
            tail_stats([1.0] * 7, TailKind.LIMINF)

    def test_trending_sequence_fails_convergence(self):
        seq = [float(n) for n in range(100)]
        assert not tail_stats(seq, TailKind.LIMINF).convergence_flag

    def test_enlarging_tail_weakens_estimates(self):
        seq = [math.sin(1.3 * n) * (1.0 + 0.01 * n) for n in range(200)]
        narrow_inf = tail_stats(seq, TailKind.LIMINF, 0.25).statistic
        wide_inf = tail_stats(seq, TailKind.LIMINF, 0.9).statistic
        assert wide_inf <= narrow_inf
        narrow_sup = tail_stats(seq, TailKind.LIMSUP, 0.25).statistic
        wide_sup = tail_stats(seq, TailKind.LIMSUP, 0.9).statistic
        assert wide_sup >= narrow_sup


class TestErbeZhang:
    def test_fires_above_threshold(self):
        ds = system_with_q([-0.2] * 30, k=3)
        rep = report(ds, "ErbeZhang")
        assert rep.verdict is CriterionVerdict.FIRES
        assert rep.threshold == 27.0 / 256.0
        assert rep.margin > 0.0

    def test_does_not_fire_below_threshold(self):
        ds = system_with_q([-0.05] * 30, k=3)
        assert report(ds, "ErbeZhang").verdict is CriterionVerdict.DOES_NOT_FIRE

    def test_precondition_violated_on_positive_b(self):
        ds = system_with_q([-0.2] * 30, k=3, b_value=0.3)
        rep = report(ds, "ErbeZhang")
        assert rep.verdict is CriterionVerdict.PRECONDITION_VIOLATED
        assert rep.precondition_violations

    def test_convergence_gate(self):
        # statistic above threshold but still trending: must not fire
        ds = system_with_q([-0.2 - 0.01 * n for n in range(30)], k=3)
        rep = report(ds, "ErbeZhang")
        assert rep.statistic > rep.threshold
        assert rep.verdict is CriterionVerdict.DOES_NOT_FIRE


class TestLadasPhilosSficas:
    def test_constant_sum_fires(self):
        # k-term sum of a constant 0.11 is 0.33 > (3/4)^4
        ds = system_with_q([-0.11] * 30, k=3)
        rep = report(ds, "LadasPhilosSficas")
        assert rep.statistic == pytest.approx(0.33)
        assert rep.verdict is CriterionVerdict.FIRES

    def test_constant_sum_does_not_fire(self):
        ds = system_with_q([-0.10] * 30, k=3)
        rep = report(ds, "LadasPhilosSficas")
        assert rep.statistic == pytest.approx(0.30)
        assert rep.verdict is CriterionVerdict.DOES_NOT_FIRE

    def test_too_few_points(self):
        # 8 values pass ErbeZhang's tail but leave no 8-term moving sum
        ds = system_with_q([-0.1] * 8, k=8)
        with pytest.raises(TooShort, match=r"^not enough Q values for the moving sum$"):
            evaluate_all(ds)

    def test_sum_overflow_names_its_index(self):
        # each Q*_n is finite, but two of them sum past the double range
        ds = system_with_q([-1e308] * 30, k=2, b_value=-1e308)
        with pytest.raises(NumericFailure, match=r"^at index 2: ") as info:
            evaluate_all(ds)
        assert info.value.index == 2


class TestGyoriLadas:
    def test_sub_a_fires(self):
        ds = system_with_q([0.3] * 30, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        rep_a, rep_b = report(ds, "GyoriLadasA"), report(ds, "GyoriLadasB")
        assert rep_a.statistic == pytest.approx(1.2)
        assert rep_a.verdict is CriterionVerdict.FIRES
        assert rep_b.statistic == pytest.approx(1.5)
        assert rep_b.verdict is CriterionVerdict.FIRES

    def test_neither_fires(self):
        ds = system_with_q([0.05] * 30, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        assert report(ds, "GyoriLadasA").verdict is CriterionVerdict.DOES_NOT_FIRE
        assert report(ds, "GyoriLadasB").verdict is CriterionVerdict.DOES_NOT_FIRE

    def test_too_few_points(self):
        # with l = 5 values GyoriLadasA has one entry; with 4 it has none
        ds = system_with_q([0.3] * 4, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        with pytest.raises(TooShort, match=r"^not enough Q values for the advanced sums$"):
            evaluate_all(ds)


class TestNonOscillation:
    def test_gyori_ladas_nonosc_fires(self):
        ds = system_with_q([-0.10] * 30, k=3)
        assert report(ds, "GyoriLadasNonOsc").verdict is CriterionVerdict.FIRES

    def test_gyori_ladas_nonosc_boundary_fires(self):
        # the hypothesis is a non-strict bound, so equality still fires
        ds = system_with_q([-0.25] * 30, k=1)
        rep = report(ds, "GyoriLadasNonOsc")
        assert rep.margin == 0.0
        assert rep.verdict is CriterionVerdict.FIRES

    def test_gyori_ladas_nonosc_large_q_does_not_fire(self):
        ds = system_with_q([-92.0] * 30, k=3)
        assert report(ds, "GyoriLadasNonOsc").verdict is CriterionVerdict.DOES_NOT_FIRE

    def test_ocalan_akin_nonosc_fires_on_positive_q(self):
        ds = system_with_q([0.01] * 30, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        assert report(ds, "OcalanAkinNonOsc").verdict is CriterionVerdict.FIRES

    def test_ocalan_akin_nonosc_zero_q_l2(self):
        ds = system_with_q([0.0] * 30, k=2, direction=Direction.ADVANCED,
                           b_value=0.3)
        rep = report(ds, "OcalanAkinNonOsc")
        assert rep.margin == pytest.approx(0.25)
        # b > 0 makes the bound automatic; still only Fires via margin
        assert rep.verdict is CriterionVerdict.FIRES

    def test_ocalan_akin_nonosc_does_not_fire(self):
        ds = system_with_q([-0.1] * 30, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        rep = report(ds, "OcalanAkinNonOsc")
        assert rep.verdict is not CriterionVerdict.FIRES


class TestEvaluateAll:
    def test_delayed_report_set(self):
        ds = system_with_q([-0.2] * 30, k=3)
        ids = [r.criterion_id for r in evaluate_all(ds)]
        assert ids == ["ErbeZhang", "LadasPhilosSficas", "GyoriLadasNonOsc"]

    def test_advanced_report_set(self):
        ds = system_with_q([0.3] * 30, k=5, direction=Direction.ADVANCED,
                           b_value=0.3)
        ids = [r.criterion_id for r in evaluate_all(ds)]
        assert ids == ["GyoriLadasA", "GyoriLadasB", "OcalanAkinNonOsc"]

    def test_advanced_unit_advance_empty(self):
        ds = system_with_q([0.3] * 30, k=1, direction=Direction.ADVANCED,
                           b_value=0.3)
        assert evaluate_all(ds) == []


class TestTermRule:
    """A row's entry at n exists wherever n and all its terms are Q indices."""

    @pytest.mark.parametrize("m, k", [(20, 3), (31, 5)])
    def test_window_ends(self, m, k):
        delayed = system_with_q([-0.1] * m, k=k)
        # n must itself be a Q index, although its last term is Q*_{n-1}
        assert report(delayed, "LadasPhilosSficas").window[1] == delayed.q_start + m - 1
        ds = system_with_q([0.3] * m, k=k, direction=Direction.ADVANCED,
                           b_value=0.3)
        # Q_{n+1} .. Q_{n+l-1} and Q_n .. Q_{n+l-1} both end at the last Q
        assert report(ds, "GyoriLadasA").window[1] == ds.q_start + m - k
        assert report(ds, "GyoriLadasB").window[1] == ds.q_start + m - k

    def test_sums_read_their_offsets(self):
        # distinct powers of two: each sum names exactly the Q it adds
        q = [2.0 ** i for i in range(12)]
        ds = system_with_q(q, k=3, direction=Direction.ADVANCED, b_value=0.3)
        rep_a, rep_b = report(ds, "GyoriLadasA"), report(ds, "GyoriLadasB")
        n = rep_a.window[0] - ds.q_start
        assert rep_a.statistic == q[n + 1] + q[n + 2]
        assert rep_b.statistic == q[-3] + q[-2] + q[-1]
        delayed = system_with_q([-x for x in q], k=3)
        rep = report(delayed, "LadasPhilosSficas")
        n = rep.window[0] - delayed.q_start
        assert rep.statistic == q[n - 3] + q[n - 2] + q[n - 1]


class TestSynthesis:
    def test_oscillatory_wins(self):
        ds = system_with_q([-0.2] * 30, k=3)
        assert synthesize_verdict(evaluate_all(ds)) == "Oscillatory"

    def test_nonoscillatory(self):
        ds = system_with_q([-0.05] * 30, k=3)
        assert synthesize_verdict(evaluate_all(ds)) == "Nonoscillatory"

    def test_inconclusive(self):
        ds = system_with_q([-0.2] * 30, k=3, b_value=0.3)
        assert synthesize_verdict(evaluate_all(ds)) == "Inconclusive"

    def test_conflict_detected(self):
        reports = evaluate_all(system_with_q([-0.2] * 30, k=3))
        fired = [r for r in reports if r.criterion_id == "ErbeZhang"]
        nonosc = [r for r in reports if r.criterion_id == "GyoriLadasNonOsc"]
        nonosc[0] = nonosc[0]._replace(verdict=fired[0].verdict)  # force both families firing
        assert synthesize_verdict(fired + nonosc) == "ConflictDetected"

    def test_id_partition(self):
        assert not (OSCILLATION_IDS & NONOSCILLATION_IDS)
        ids = [c.criterion_id for c in CRITERIA]
        assert len(set(ids)) == len(ids) == 6
        assert OSCILLATION_IDS | NONOSCILLATION_IDS == set(ids)


class TestTable:
    def test_readme_table_matches_rows(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("| `")]
        documented = [(cid.strip("`"), direction, family, side, b_sign)
                      for cid, direction, family, _, _, side, b_sign in rows]
        expected = [(c.criterion_id, c.direction.value,
                     "oscillation" if c.oscillation else "nonoscillation",
                     "above" if c.above else ("at or below" if c.boundary_fires else "below"),
                     "< 0" if c.sign < 0 else "> 0")
                    for c in CRITERIA]
        assert documented == expected

    def test_readme_entry_keys_match_report_fields(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text[text.index("with these keys:"):text.index("The criteria are one table")]
        keys = [line[3:line.index("`", 3)] for line in section.splitlines()
                if line.startswith("- `")]
        assert keys == list(CriterionReport._fields)
