import csv
import itertools
import json
import math
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from _battery import HORIZON, draws, get_battery
from idepca import cli, diffeq, invariants, quad, reduction, trajectory
from idepca.quad import NumericFailure

REPO = Path(__file__).resolve().parent.parent
EXAMPLE1 = REPO / "problems" / "example1.json"
EXAMPLE2 = REPO / "problems" / "example2.json"

E = math.e


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "idepca.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "a": "-1",
    "b": "-1/3",
    "direction": "delayed",
    "k": 3,
    "impulse": {"factor": 0.5},
    "initial_window": [1, 1, 1, 1],
    "n0": 0,
    "horizon": 30,
    "tol": 1e-10,
}

# exp(-800) underflows, so a_0 = 0
ZERO_A_DOC = {**BASE_DOC, "a": "-800"}
ADVANCED_ZERO_B_DOC = {**BASE_DOC, "direction": "advanced", "k": 2, "b": "0",
                       "initial_window": [1, 1, 1]}
# a_n = b_n = 1 exactly: z_{n+1} = a_n z_n + b_n z_{n+1} cannot be solved for z_{n+1}
DEGENERATE_K1_DOC = {**BASE_DOC, "direction": "advanced", "k": 1, "a": "0", "b": "1",
                     "impulse": "none", "initial_window": [1, 1]}
# alpha_18 = 2.66e-319 is subnormal, and alpha_18 a_17 = alpha_17 fails on rounding alone
SUBNORMAL_ALPHA_DOC = {**BASE_DOC, "a": "40.892101514950994 - 0.3203959244574941*sin(t)",
                       "b": "6.256898118262356 + 1.6530054283751117*cos(t)",
                       "direction": "advanced", "impulse": {"factor": 0.8749578775898675},
                       "horizon": 61}
# Q_n = exp(800) * 2.5e-303 = 6.8e44, although exp(800) alone overflows;
# a_n and b_n are positive, and z_3 underflows to 0
EXP_OVERFLOW_Q_DOC = {**BASE_DOC, "a": "-400", "b": "1e-300", "k": 1, "impulse": "none",
                      "initial_window": [1, 1]}
# with jump factor 1e-200 and k = 1, a_{n-1} a_n underflows while
# Q_n = b_n / (a_{n-1} a_n) is -1e200, and z_3 = -1e-400 underflows
SPAN_UNDERFLOW_DOC = {**BASE_DOC, "a": "0", "b": "-1", "k": 1,
                      "impulse": {"factor": 1e-200}, "initial_window": [1, 1]}

# Battery instances (seeds 3 and 4 of the benchmark's battery draw) whose
# discrete verdict the tiled sign test called Oscillatory while the
# continuous one, tiled from another index, said Inconclusive.
TILE_EDGE_DOCS = {
    "seed3-004": {
        "a": "-0.69443884597322514*exp(0.1670637698380939*(t/61)/2)/5",
        "b": "-1.5836967613155539*exp(0.62204474839940582*(t/61)/2)/5",
        "direction": "delayed", "k": 5, "impulse": {"factor": 1.3577078335383077},
        "initial_window": [1.4880720345194067, 0.7670849061381627, 0.6244348366816385,
                           0.9820014227475411, 1.1387584432200044, 0.983508736554668],
        "n0": 0, "horizon": 61, "tol": 1e-10, "tail_fraction": 0.5,
    },
    "seed3-040": {
        "a": "-1.7975720457578568*exp(-0.56039593761137718*(t/61)/2)/5",
        "b": "(-1.6886547357261716 + 0.15552011188567061*(t/61)"
             " + 1.7192902964245316*(t/61)^2)/5",
        "direction": "delayed", "k": 4, "impulse": {"factor": 0.8154556589171863},
        "initial_window": [1.3705107595309864, 1.1946597150967815, 0.6343566706814971,
                           1.3582912149957838, 1.1011259241055478],
        "n0": 0, "horizon": 61, "tol": 1e-10, "tail_fraction": 0.5,
    },
    "seed3-071": {
        "a": "(-0.46565159105006959 + 1.7515655134607573*(t/61)"
             " + 0.41469964614402155*(t/61)^2)/5",
        "b": "-1.9703014213052938*exp(-0.5164237619370553*(t/61)/2)/5",
        "direction": "delayed", "k": 1, "impulse": {"factor": 0.49938627492536874},
        "initial_window": [0.9783866423811549, 0.5642923739133144],
        "n0": 0, "horizon": 61, "tol": 1e-10, "tail_fraction": 0.5,
    },
    "seed4-042": {
        "a": "-0.073418344219278175*exp(1.8949929081028145*(t/61)/2)/5",
        "b": "-1.2755939413591708*exp(0.46027723673129861*(t/61)/2)/5",
        "direction": "delayed", "k": 5, "impulse": {"factor": 1.300161449850877},
        "initial_window": [1.099221274402596, 1.2246438761129024, 0.5228727115899661,
                           0.936957308883631, 1.3003142370677956, 0.6382484929385872],
        "n0": 0, "horizon": 61, "tol": 1e-10, "tail_fraction": 0.5,
    },
}


class TestCoeffs:
    def test_example1_closed_forms(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        res = run_cli("coeffs", EXAMPLE1, "--out", out)
        assert res.returncode == 0
        rows = read_csv(out)
        assert rows[0] == ["n", "a_n", "b_n", "alpha_n", "q_n"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0 / (2.0 * E), abs=1e-9)
            assert float(row[2]) == pytest.approx((1.0 - E) / (6.0 * E), abs=1e-9)

    def test_example2_row_five(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", EXAMPLE2, "--out", out).returncode == 0
        rows = {row[0]: row for row in read_csv(out)[1:]}
        assert float(rows["5"][1]) == pytest.approx(0.6, abs=1e-9)
        assert float(rows["5"][2]) == pytest.approx(0.1, abs=1e-9)

    def test_q_column_blank_outside_range(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", EXAMPLE1, "--out", out).returncode == 0
        rows = read_csv(out)[1:]
        assert rows[0][4] == ""   # delayed: Q starts at n = k
        assert rows[3][4] != ""

    def test_alpha_blank_past_double_range(self, tmp_path):
        # alpha_n = (2e)^n overflows from n = 420 on; Q_n does not read it
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", EXAMPLE1, "--out", out, "--horizon", 505).returncode == 0
        rows = read_csv(out)[1:]
        assert len(rows) == 505
        assert all(row[3] != "" for row in rows[:420])
        assert float(rows[419][3]) == pytest.approx((2.0 * E) ** 419, rel=1e-9)
        for row in rows[420:]:
            assert row[3] == ""
            assert row[4] == f"{-(8.0 / 3.0) * E ** 3 * (E - 1.0):.10g}"

    # alpha goes subnormal at n = 18 (factor 0.875, a near 41) and at
    # n = 709 (a = 1, e^-709 < 2.2e-308): digits lost to rounding, so blank
    @pytest.mark.parametrize("doc,first_blank", [
        pytest.param(SUBNORMAL_ALPHA_DOC, 18, id="telescoping-h61"),
        pytest.param({**BASE_DOC, "a": "1", "b": "0.5", "direction": "advanced",
                      "impulse": "none", "horizon": 740}, 709, id="h740"),
    ])
    def test_alpha_blank_when_subnormal(self, tmp_path, doc, first_blank):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", write_problem(tmp_path, doc), "--out", out).returncode == 0
        alphas = [row[3] for row in read_csv(out)[1:]]
        assert all(alphas[:first_blank])
        assert float(alphas[first_blank - 1]) >= sys.float_info.min
        assert not any(alphas[first_blank:])

    def test_far_n0_constant_coefficients(self, tmp_path):
        # n0 = 2^25 - 2.  The one kernel of constant a and b is built on
        # [n0, n0+1]; the kernel of [2^25, 2^25 + 1], whose abscissae round to
        # ulp(2^25) = 2^-27, does not resolve its weight, and is not built
        n0 = 33554430
        doc = {**BASE_DOC, "k": 1, "impulse": "none", "initial_window": [1, 1],
               "n0": n0, "horizon": n0 + 6}
        path = write_problem(tmp_path, doc)
        out = tmp_path / "coeffs.csv"
        assert cli.main(["coeffs", str(path), "--out", str(out)]) == 0
        assert [int(row[0]) for row in read_csv(out)[1:]] == list(range(n0, n0 + 6))
        ds = reduction.build_discrete_system(cli.load_problem(path).spec)
        for n in range(n0, n0 + 6):
            assert ds.a(n) == pytest.approx(math.exp(-1.0), rel=1e-15)
            assert ds.b(n) == pytest.approx(-(1.0 - math.exp(-1.0)) / 3.0, rel=1e-11)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("coeffs", EXAMPLE1, "--out", a)
        run_cli("coeffs", EXAMPLE1, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_horizon_override(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", EXAMPLE1, "--out", out,
                       "--horizon", 10).returncode == 0
        assert len(read_csv(out)) == 11  # header + rows 0..9

    def test_impulse_shapes_of_one_constant_agree(self, tmp_path, capsys):
        # the three shapes reach the reduction as the same n -> r_n
        outputs = []
        for impulse in ({"factor": 0.5}, {"formula": "0.5"}, {"table": [0.5], "default": 0.5}):
            path = str(write_problem(tmp_path, {**BASE_DOC, "impulse": impulse}))
            codes = [cli.main(["coeffs", path]), cli.main(["check", path])]
            outputs.append((codes, capsys.readouterr()))
        assert outputs[0][0] == [0, 0]
        assert outputs[0][1].out.count("PASS") >= 5
        assert outputs[0] == outputs[1] == outputs[2]


class TestAnalyze:
    def test_example1_oscillatory(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("analyze", EXAMPLE1, "--out", out).returncode == 0
        doc = json.loads(out.read_text())
        assert doc["overall_verdict"] == "Oscillatory"
        by_id = {c["criterion_id"]: c for c in doc["criteria"]}
        assert by_id["ErbeZhang"]["verdict"] == "Fires"
        assert by_id["ErbeZhang"]["margin"] > 0

    def test_example2_nonoscillatory(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("analyze", EXAMPLE2, "--out", out).returncode == 0
        doc = json.loads(out.read_text())
        assert doc["overall_verdict"] == "Nonoscillatory"
        by_id = {c["criterion_id"]: c for c in doc["criteria"]}
        assert by_id["OcalanAkinNonOsc"]["verdict"] == "Fires"

    def test_zero_b_inconclusive(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "b": "0"})
        out = tmp_path / "report.json"
        assert run_cli("analyze", path, "--out", out).returncode == 0
        assert json.loads(out.read_text())["overall_verdict"] == "Inconclusive"

    def test_negative_jump_factor_violates_a_n_positive(self, tmp_path):
        # r = -0.5 makes every a_n = -1/(2e) negative
        doc = {**json.loads(EXAMPLE1.read_text()), "impulse": {"factor": -0.5}}
        out = tmp_path / "report.json"
        assert run_cli("analyze", write_problem(tmp_path, doc), "--out", out).returncode == 0
        report = json.loads(out.read_text())
        assert report["overall_verdict"] == "Inconclusive"
        assert len(report["criteria"]) == 3
        for entry in report["criteria"]:
            assert entry["verdict"] == "PreconditionViolated"
            first, last = entry["window"]
            a_violations = [v for v in entry["precondition_violations"] if v[1] == "a_n <= 0"]
            assert a_violations == [[n, "a_n <= 0"] for n in range(first, last + 1)]

    @pytest.mark.parametrize("horizon", [400, 1000])
    def test_past_alpha_range(self, tmp_path, horizon):
        # alpha_n = e^(2n) (1 + ...) overflows from about n = 355 on; every
        # Q_n is about -(e^2 - 1) e^2 / 2
        doc = {"a": "-2", "b": "-1", "direction": "delayed", "k": 1, "impulse": "none",
               "initial_window": [1, 1], "horizon": horizon}
        out = tmp_path / "report.json"
        res = run_cli("analyze", write_problem(tmp_path, doc), "--out", out)
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["overall_verdict"] == "Oscillatory"

    def test_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("analyze", EXAMPLE1, "--out", out)
        doc = json.loads(out.read_text())
        for entry in doc["criteria"]:
            for key in ("criterion_id", "threshold", "statistic", "margin",
                        "convergence_flag", "precondition_violations",
                        "verdict"):
                assert key in entry


class TestSimulate:
    def test_example1_outputs(self, tmp_path):
        prefix = tmp_path / "ex1"
        assert run_cli("simulate", EXAMPLE1, "--out", prefix).returncode == 0
        traj = read_csv(f"{prefix}.trajectory.csv")
        nodes = read_csv(f"{prefix}.nodes.csv")
        verdicts = json.loads(Path(f"{prefix}.verdicts.json").read_text())

        assert traj[0] == ["t", "z"]
        times = [float(r[0]) for r in traj[1:]]
        assert all(u < v for u, v in zip(times, times[1:]))

        assert nodes[0] == ["n", "z_left", "z_right", "jump_factor"]
        for row in nodes[1:]:
            z_left, z_right, factor = map(float, row[1:])
            assert factor == 0.5
            assert z_right == pytest.approx(0.5 * z_left, rel=1e-6, abs=1e-12)

        assert verdicts["discrete"]["verdict"] == "Oscillatory"
        assert verdicts["continuous"]["verdict"] == "Oscillatory"
        assert verdicts["solution_truncated_at"] is None

    def test_depca_continuity(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "impulse": "none",
                                        "horizon": 40})
        prefix = tmp_path / "depca"
        assert run_cli("simulate", path, "--out", prefix).returncode == 0
        nodes = read_csv(f"{prefix}.nodes.csv")[1:]
        for row in nodes:
            z_left, z_right = float(row[1]), float(row[2])
            assert abs(z_left - z_right) <= 1e-8 * max(1.0, abs(z_left))

    def test_writes_nothing_on_numeric_failure(self, tmp_path):
        # the tail is too short for the oscillation verdicts
        res = run_cli("simulate", EXAMPLE1, "--horizon", 8, "--out", tmp_path / "s")
        assert res.returncode == 3
        assert res.stderr == "numeric failure: tail has 6 points; need at least 16\n"
        assert list(tmp_path.iterdir()) == []


class TestSimulateCut:
    """simulate's window continuation is cut at its first value that is
    neither normal nor an exact 0, as the backward sweep is: an underflowed
    0 would count as a sign change."""

    @staticmethod
    def simulate(tmp_path, doc, samples=4):
        prefix = tmp_path / "s"
        code = cli.main(["simulate", str(write_problem(tmp_path, doc)), "--out", str(prefix),
                         "--samples", str(samples)])
        return code, prefix

    # z_{n+1} = e^-41.5 z_n goes from z_17 = 4.0e-307 straight to 0, and
    # a = -5, b = 0.001 decays through the subnormals to 0
    @pytest.mark.parametrize("a,b,horizon,cut", [("-41.5", "0", 60, 18),
                                                 ("-5", "0.001", 400, 176)],
                             ids=["to-zero", "gradual"])
    def test_positive_solution_stays_positive(self, tmp_path, a, b, horizon, cut):
        doc = {"a": a, "b": b, "direction": "delayed", "k": 1, "impulse": "none",
               "initial_window": [1, 1], "horizon": horizon}
        code, prefix = self.simulate(tmp_path, doc)
        assert code == 0
        verdicts = json.loads(Path(f"{prefix}.verdicts.json").read_text())
        assert verdicts["solution_truncated_at"] == cut
        assert verdicts["discrete"]["verdict"] == "EventuallyPositive"
        assert verdicts["continuous"]["verdict"] == "EventuallyPositive"

    def test_underflow_leaves_too_short_a_tail(self, tmp_path, capsys):
        code, prefix = self.simulate(tmp_path, EXP_OVERFLOW_Q_DOC)
        assert code == 3
        assert capsys.readouterr().err == ("numeric failure: tail has 2 points; "
                                           "need at least 8\n")
        assert not Path(f"{prefix}.verdicts.json").exists()

    def test_delayed_positive_coefficients_keep_a_positive_window(self, tmp_path, capsys):
        # a_n = e^a > 0 and b_n = b (1 - e^a) / -a >= 0, so every z_n of a
        # positive window is positive.  Samples inside an interval can still
        # underflow, so only the discrete verdict is read.  Every interval
        # costs a kernel, so the draws are ten, of 2,040 intervals in all
        rng = random.Random(7)
        for i in range(10):
            k = rng.randint(1, 4)
            doc = {"a": repr(rng.uniform(-60.0, 0.0)), "b": repr(rng.uniform(0.0, 0.01)),
                   "direction": "delayed", "k": k, "impulse": "none",
                   "initial_window": [rng.uniform(0.5, 1.5) for _ in range(k + 1)],
                   "horizon": (60, 200, 400)[i % 3]}
            code, prefix = self.simulate(tmp_path, doc, samples=1)
            err = capsys.readouterr().err
            if code == 3:
                assert re.match(r"numeric failure: (trajectory )?tail (has|spans) \d+ ", err), doc
                continue
            assert code == 0, (doc, err)
            verdicts = json.loads(Path(f"{prefix}.verdicts.json").read_text())
            assert verdicts["discrete"]["verdict"] == "EventuallyPositive", doc


class TestCheck:
    def test_example1_all_pass(self):
        res = run_cli("check", EXAMPLE1, "--samples", 4)
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if l]
        assert lines and all(l.startswith("PASS") for l in lines)
        names = {l.split()[1].rstrip(":") for l in lines}
        assert "dual_route_q_audit" in names
        assert "node_consistency" in names

    def test_example2_all_pass(self):
        res = run_cli("check", EXAMPLE2, "--samples", 4)
        assert res.returncode == 0
        assert all(l.startswith("PASS") for l in res.stdout.splitlines() if l)

    @pytest.mark.parametrize("impulse", [{"factor": 0.5}, "none"], ids=["factor", "none"])
    def test_zero_in_window_is_consistent(self, tmp_path, impulse):
        # z_2 is the window's exact 0 and the reconstructed left limit a
        # rounding residue; the gap is measured against the interval's terms
        doc = {"a": "-1", "b": "-1/3", "direction": "advanced", "k": 2,
               "impulse": impulse, "initial_window": [1, 1, 0], "horizon": 40}
        res = run_cli("check", write_problem(tmp_path, doc))
        assert res.returncode == 0, res.stdout
        assert "FAIL" not in res.stdout

    @pytest.mark.parametrize("name", sorted(TILE_EDGE_DOCS))
    def test_one_tail_for_both_verdicts(self, tmp_path, name):
        res = run_cli("check", write_problem(tmp_path, TILE_EDGE_DOCS[name]))
        assert res.returncode == 0, res.stdout
        assert "FAIL" not in res.stdout

    # alpha overflows from index 420 (example 1) and 345 (example 2), and
    # goes subnormal near 740 (a = 1), where y_n = alpha_n z_n overflowed or
    # lost its digits; the reduced form is measured in z
    @pytest.mark.parametrize("doc", [
        pytest.param({**json.loads(EXAMPLE1.read_text()), "horizon": 505}, id="example1-h505"),
        pytest.param({**json.loads(EXAMPLE2.read_text()), "horizon": 505}, id="example2-h505"),
        pytest.param({**BASE_DOC, "a": "1", "b": "0.5", "direction": "advanced",
                      "impulse": "none", "horizon": 740}, id="alpha-subnormal-h740"),
        pytest.param(SUBNORMAL_ALPHA_DOC, id="alpha-subnormal-telescoping"),
    ])
    def test_past_alpha_range_all_pass(self, tmp_path, doc):
        res = run_cli("check", write_problem(tmp_path, doc))
        assert res.returncode == 0, res.stdout
        lines = res.stdout.splitlines()
        assert len(lines) == 6 and all(l.startswith("PASS ") for l in lines)

    # the span's factors must be applied one at a time, and the weight's
    # exponent split, for Q_n to agree with its product spelling
    @pytest.mark.parametrize("doc", [SPAN_UNDERFLOW_DOC, EXP_OVERFLOW_Q_DOC],
                             ids=["span-underflow", "q-weight-exp-overflow"])
    def test_past_alpha_range_q_audit_passes(self, doc):
        ds = reduction.build_discrete_system(cli.validate_problem(doc).spec)
        assert invariants.q_audit(ds) == ("dual_route_q_audit", True,
                                    f"{len(ds.q_seq)} indices compared")

    # z_3 underflows on both, so the continuation is cut at 3 and leaves a
    # tail too short for a verdict
    @pytest.mark.parametrize("doc", [SPAN_UNDERFLOW_DOC, EXP_OVERFLOW_Q_DOC],
                             ids=["span-underflow", "q-weight-exp-overflow"])
    def test_underflowed_tail_exits_3(self, tmp_path, doc):
        res = run_cli("check", write_problem(tmp_path, doc))
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == "numeric failure: tail has 2 points; need at least 8\n"


class TestSchemaErrors:
    def test_unknown_key(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "extra": 1})
        res = run_cli("coeffs", path)
        assert res.returncode == 2
        assert "unknown" in res.stderr

    def test_missing_key(self, tmp_path):
        doc = dict(BASE_DOC)
        del doc["direction"]
        res = run_cli("coeffs", write_problem(tmp_path, doc))
        assert res.returncode == 2

    def test_bad_direction(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "direction": "sideways"})
        assert run_cli("coeffs", path).returncode == 2

    def test_window_length_mismatch(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "initial_window": [1, 1]})
        assert run_cli("coeffs", path).returncode == 2

    def test_bad_expression(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "a": "2*+3"})
        res = run_cli("coeffs", path)
        assert res.returncode == 2
        assert "parse error" in res.stderr

    def test_overflowing_literal(self, tmp_path):
        res = run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, "a": "1e999"}))
        assert res.returncode == 2
        assert "not finite" in res.stderr

    def test_zero_jump_factor_in_table(self, tmp_path):
        path = write_problem(
            tmp_path, {**BASE_DOC, "impulse": {"table": [0.5, 0.0, 0.5]}})
        res = run_cli("check", path)
        assert res.returncode == 2

    def test_no_output_file_on_schema_error(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "k": 0})
        out = tmp_path / "coeffs.csv"
        assert run_cli("coeffs", path, "--out", out).returncode == 2
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert run_cli("coeffs", tmp_path / "nope.json").returncode == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("coeffs", path).returncode == 2

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        res = run_cli("coeffs", path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: cannot read problem file: ")

    def test_json_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000)
        res = run_cli("coeffs", path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid JSON: ")

    def test_bad_tail_flag(self):
        res = run_cli("analyze", EXAMPLE1, "--tail", 1.5)
        assert res.returncode == 2
        assert "tail_fraction" in res.stderr

    def test_tol_key_is_checked_and_ignored(self, tmp_path):
        res = run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, "tol": 0}))
        assert res.returncode == 2
        assert "tol" in res.stderr
        tables = [run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, "tol": tol})).stdout
                  for tol in (1e-10, 0.5)]
        assert tables[0] == tables[1] != ""

    def test_infinite_tol_in_file(self, tmp_path):
        path = write_problem(tmp_path, {**BASE_DOC, "tol": math.inf})
        assert "Infinity" in path.read_text()
        res = run_cli("coeffs", path)
        assert res.returncode == 2
        assert "finite" in res.stderr

    @pytest.mark.parametrize("entry", [math.nan, 10 ** 400], ids=["nan", "huge_int"])
    def test_nonfinite_window_entry(self, tmp_path, entry):
        # JSON NaN, and an integer too large for a float
        path = write_problem(tmp_path, {**BASE_DOC,
                                        "initial_window": [1, entry, 1, 1]})
        res = run_cli("analyze", path)
        assert res.returncode == 2
        assert "finite" in res.stderr

    @pytest.mark.parametrize("command,samples", [
        ("simulate", 0),
        ("check", 0),
        ("check", -4),
    ])
    def test_nonpositive_samples_flag(self, tmp_path, command, samples):
        res = run_cli(command, EXAMPLE1, "--samples", samples,
                      "--out", tmp_path / "run")
        assert res.returncode == 2
        assert "samples" in res.stderr
        assert list(tmp_path.iterdir()) == []


def test_readme_common_flags_match_parser():
    """The one parser takes exactly the flags the README lists as common, and
    its commands are the four the README documents, in order."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    start = text.index("common flags")
    documented = set(re.findall(r"`(--[a-z]+)`", text[start:text.index("\n\n", start)]))
    parser = cli.build_parser()
    options = {opt for action in parser._actions for opt in action.option_strings
               if opt.startswith("--")}
    assert options - {"--help"} == documented
    (command,) = [action for action in parser._actions if action.dest == "command"]
    section = text[text.index("## Command line"):text.index("## Start-up")]
    assert list(command.choices) == re.findall(r"^idepca (\w+) problems/", section, re.M)


class TestStrictReader:
    """cli.read_strict reads a command line without argparse exactly as
    argparse would, or declines it; argparse then reads it."""

    VALUES = (*cli.COMMANDS, "p.json", "-", "-5", "", "x", "4", "1.5", "nan")
    OPTIONS = ("--out", "--tail", "--samples", "--horizon", "--hor", "--samples=4", "--", "-h")
    ALPHABET = VALUES + OPTIONS

    @classmethod
    def longer_argvs(cls, count, seed=20251021):
        """count argvs of 5 to 9 tokens: half drawn token by token from the
        alphabet, half shaped like the strict form (a command, a value, then
        pairs of a distinct flag and a value), so that the reader accepts
        some with several flags."""
        rng = random.Random(seed)
        for i in range(count):
            size = rng.randint(5, 9)
            if i % 2:
                yield [rng.choice(cls.ALPHABET) for _ in range(size)]
            else:
                argv = [rng.choice(tuple(cli.COMMANDS)), rng.choice(cls.VALUES)]
                for flag in rng.sample(tuple(cli.FLAGS), (size - 1) // 2):
                    argv += [flag, rng.choice(cls.VALUES)]
                yield argv

    def test_agrees_with_argparse_wherever_it_accepts(self):
        parser = cli.build_parser()
        short = (list(argv) for size in range(5)
                 for argv in itertools.product(self.ALPHABET, repeat=size))
        accepted = {"short": 0, "longer": 0}
        for label, argvs in (("short", short), ("longer", self.longer_argvs(20_000))):
            for argv in argvs:
                args = cli.read_strict(argv)
                if args is None:
                    continue
                accepted[label] += 1
                try:
                    expected = parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"argparse exits on {argv!r}, which the reader accepts")
                # repr, so that nan compares equal to nan and 4 differs from 4.0
                assert repr(sorted(vars(args).items())) == repr(sorted(vars(expected).items()))
        # a command and a problem that does not start with "-" (4 x 10), then
        # at most one flag with a value its type takes (10 + 3 + 1 + 1)
        assert accepted["short"] == 40 + 40 * 15
        assert accepted["longer"] > 200

    def test_accepts_the_measured_command_lines(self, tmp_path):
        import digest_outputs as dig

        # the benchmark's modules (workloads, checks, problems, oracle) are
        # imported by bare name, so they leave sys.modules afterwards
        bench = REPO / "perfbench"
        sys.path.insert(0, str(bench))
        try:
            import workloads

            measured = [[arg.replace("{out}", "out") for arg in op.args]
                        for build in workloads.BUILDERS.values()
                        for op in build(REPO, tmp_path / "work", 1).ops]
        finally:
            sys.path.remove(str(bench))
            for name, module in list(sys.modules.items()):
                if Path(getattr(module, "__file__", None) or "/").parent == bench:
                    del sys.modules[name]
        measured += [dig.strict(command)
                     for command in (*dig.COMMANDS, dig.SEVEN, dig.TWENTY,
                                     *(command for _, command in dig.DENSE))]
        assert len(measured) > 100
        assert [argv for argv in measured if cli.read_strict(argv) is None] == []
        # the digest's argparse cases are declined, and their twins accepted
        for argv, twin in dig.ARGPARSE:
            assert cli.read_strict(argv) is None
            assert twin is None or cli.read_strict(twin) is not None

    def test_argparse_cases_match_their_strict_twins(self, tmp_path):
        import digest_outputs as dig

        doc = dig._shipped("example1")
        for argv, twin in dig.ARGPARSE:
            code, sha = dig.digest(doc, argv, tmp_path)
            if twin is None:
                assert code == 0
            else:
                assert (code, sha) == dig.digest(doc, twin, tmp_path) and code == 0


class TestCheckAuditsSimulate:
    """check's discrete_to_continuous_transfer line names the two verdicts
    that simulate writes to verdicts.json: check audits simulate's run."""

    @staticmethod
    def assert_same_verdicts(tmp_path, capsys, problem):
        assert cli.main(["simulate", str(problem), "--out", str(tmp_path / "run")]) == 0
        verdicts = json.loads((tmp_path / "run.verdicts.json").read_text())
        assert verdicts["discrete"]["verdict"] == "Oscillatory"
        assert cli.main(["check", str(problem)]) in (0, 1)
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if " discrete_to_continuous_transfer: " in line]
        assert line.endswith(f": discrete {verdicts['discrete']['verdict']}, "
                             f"continuous {verdicts['continuous']['verdict']}")

    def test_example1(self, tmp_path, capsys):
        self.assert_same_verdicts(tmp_path, capsys, EXAMPLE1)

    def test_battery_oscillatory(self, tmp_path, capsys):
        # the instances whose window continuation, the solution simulate
        # runs, has a discrete verdict of Oscillatory at tail fraction 0.5
        chosen = []
        for d, inst in zip(draws(), get_battery()):
            try:
                sol = diffeq.continue_window(inst.ds, d.window)
                verdict = diffeq.discrete_oscillation_check(sol, 0.5).verdict
            except NumericFailure:
                continue
            if verdict is diffeq.Verdict.OSCILLATORY:
                chosen.append(d)
        assert chosen
        for d in chosen:
            doc = {"a": d.source_a, "b": d.source_b, "direction": d.direction.value,
                   "k": d.k, "impulse": {"factor": d.factor},
                   "initial_window": list(d.window), "horizon": HORIZON}
            directory = tmp_path / f"battery-{d.index:03d}"
            directory.mkdir()
            self.assert_same_verdicts(directory, capsys, write_problem(directory, doc))


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["coeffs", "analyze", "simulate"])
    def test_missing_directory(self, tmp_path, command):
        out = tmp_path / "no" / "such" / "run"
        res = run_cli(command, EXAMPLE1, "--samples", 4, "--out", out)
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot write {out}")
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_simulate_leaves_no_partial_result(self, tmp_path):
        # the node table cannot be written after the trajectory was
        (tmp_path / "run.nodes.csv").mkdir()
        res = run_cli("simulate", EXAMPLE1, "--samples", 4, "--out", tmp_path / "run")
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot write {tmp_path / 'run.nodes.csv'}")
        assert [p.name for p in tmp_path.iterdir()] == ["run.nodes.csv"]


class TestFlagOverrides:
    """--tail and --horizon are validated like the keys they replace."""

    @pytest.mark.parametrize("key,bad,flags", [
        ("tail_fraction", 0, ["--tail", 0.5]),
        ("horizon", 3, ["--horizon", 20]),
    ], ids=["tail_fraction", "horizon"])
    def test_flag_replaces_faulty_key(self, tmp_path, key, bad, flags):
        path = write_problem(tmp_path, {**BASE_DOC, key: bad})
        assert run_cli("analyze", path).returncode == 2
        assert run_cli("analyze", path, *flags).returncode == 0

    def test_jump_scan_covers_shorter_horizon(self, tmp_path):
        # node 50 lies past the horizon that runs
        doc = {**BASE_DOC, "impulse": {"formula": "1/(n-50)"}, "horizon": 60}
        out = tmp_path / "coeffs.csv"
        res = run_cli("coeffs", write_problem(tmp_path, doc), "--horizon", 30,
                      "--out", out)
        assert res.returncode == 0, res.stderr
        assert len(read_csv(out)) == 31  # header + rows 0..29

    def test_jump_scan_covers_longer_horizon(self, tmp_path):
        doc = {**BASE_DOC, "impulse": {"formula": "1/(n-70)"}, "horizon": 60}
        out = tmp_path / "coeffs.csv"
        res = run_cli("coeffs", write_problem(tmp_path, doc), "--horizon", 80,
                      "--out", out)
        assert res.returncode == 2
        assert "node 70" in res.stderr
        assert not out.exists()


class TestNumericErrors:
    @pytest.mark.parametrize("command,doc,flags,message", [
        *[pytest.param(command, ZERO_A_DOC, [], "a_0 = 0; alpha is undefined past index 0",
                       id=f"zero_a-{command}")
          for command in ("coeffs", "simulate", "check")],
        # analyze builds no alpha and starts at index 12; its first Q_n,
        # Q_15, is aimed back across three intervals where a = -800, and
        # overflows
        pytest.param("analyze", ZERO_A_DOC, [], "Q_n direct on [15, 16]: exp(3200.0) * "
                     "-0.003333333333333412 overflowed", id="zero_a-analyze"),
        *[pytest.param(command, ADVANCED_ZERO_B_DOC, [],
                       "b_1 = 0: advanced recursion cannot be rearranged",
                       id=f"advanced_zero_b-{command}")
          for command in ("simulate", "check")],
        *[pytest.param(command, DEGENERATE_K1_DOC, [],
                       "b_0 = 1 with k = 1: degenerate advance",
                       id=f"degenerate_k1-{command}")
          for command in ("simulate", "check")],
        pytest.param("analyze", None, ["--horizon", 8], "need at least 8 points, got 5",
                     id="short_q_tail-analyze"),
    ])
    def test_each_cause(self, tmp_path, command, doc, flags, message):
        problem = EXAMPLE1 if doc is None else write_problem(tmp_path, doc)
        res = run_cli(command, problem, *flags, "--out", tmp_path / "run")
        assert res.returncode == 3
        assert res.stderr == f"numeric failure: {message}\n"
        assert "Traceback" not in res.stderr
        assert list(tmp_path.glob("run*")) == []

    def test_singular_coefficient_exit_code(self, tmp_path):
        # 1/t is singular at the left endpoint of the first interval
        path = write_problem(tmp_path, {**BASE_DOC, "a": "1/t"})
        res = run_cli("coeffs", path)
        assert res.returncode == 3
        assert res.stderr == "numeric failure: a_n on [0, 1]: a is not finite at t = 0.0\n"

    # With a = 0 the jump factor alone sets a_n = r, so alpha_n = r^-n, and
    # Q_n = b r^-k (delayed) or b r^k (advanced).  Q_n does not read alpha.
    @pytest.mark.parametrize("command", ["coeffs", "analyze", "check"])
    @pytest.mark.parametrize("direction,k", [("delayed", 1), ("advanced", 2)])
    def test_alpha_underflow(self, tmp_path, direction, k, command):
        # r = 1e30 underflows alpha to 0 from n = 11 on
        doc = {**BASE_DOC, "a": "0", "direction": direction, "k": k,
               "impulse": {"factor": 1e30}, "initial_window": [1] * (k + 1),
               "horizon": 14}
        out = tmp_path / "out"
        res = run_cli(command, write_problem(tmp_path, doc), "--out", out)
        if command == "check":
            # z_n = y_n / alpha_n overflows with alpha's underflow, so the
            # solution is cut before it has a tail
            assert res.returncode == 3
            assert res.stdout == ""
            assert res.stderr.startswith("numeric failure: tail has ")
            return
        assert res.returncode == 0, res.stderr
        if command == "coeffs":
            q = -1.0 / 3.0 * 1e30 ** (-k if direction == "delayed" else k)
            rows = read_csv(out)[1:]
            assert [row[3] == "" for row in rows] == [False] * 11 + [True] * 3
            assert float(rows[11][4]) == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("command", ["coeffs", "analyze"])
    def test_alpha_overflow(self, tmp_path, command):
        # r = 1e-30 overflows alpha from n = 11 on, which made Q_10 infinite
        # when Q_n was alpha_{n+1} b_n / alpha_{n-1}; it is b r^-1
        doc = {**BASE_DOC, "a": "0", "k": 1, "impulse": {"factor": 1e-30},
               "initial_window": [1, 1], "horizon": 14}
        out = tmp_path / "out"
        res = run_cli(command, write_problem(tmp_path, doc), "--out", out)
        assert res.returncode == 0, res.stderr
        if command == "coeffs":
            rows = read_csv(out)[1:]
            assert [row[3] == "" for row in rows] == [False] * 11 + [True] * 3
            assert float(rows[10][4]) == pytest.approx(-1e30 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("command", ["coeffs", "check"])
    def test_alpha_overflow_at_the_deviated_node(self, tmp_path, command):
        # alpha_142 overflows to inf, which made the ratio route's Q_140 0.0;
        # coeffs writes it blank, and check measures alpha only where coeffs
        # writes it
        doc = {**BASE_DOC, "a": "-5", "b": "0.01", "direction": "advanced", "k": 2,
               "impulse": "none", "initial_window": [1, 2, 3], "horizon": 143}
        out = tmp_path / "coeffs.csv"
        res = run_cli(command, write_problem(tmp_path, doc), "--out", out)
        assert res.stderr == ""
        if command == "coeffs":
            assert res.returncode == 0
            rows = read_csv(out)[1:]
            assert rows[141][3] != "" and rows[142][3] == ""
            assert float(rows[140][4]) == pytest.approx(1.3385e-5, rel=1e-4)
            return
        assert res.returncode == 0, res.stdout
        assert res.stdout.splitlines()[0] == "PASS dual_route_q_audit: 142 indices compared"
        assert res.stdout.splitlines()[1].startswith("PASS alpha_telescoping: max deviation ")
        assert "FAIL" not in res.stdout

    # every Q_n is about 2.5e307, finite, but a sum of 8 of them is not;
    # the index is that of the first sum the tail reads
    @pytest.mark.parametrize("sign,direction,index", [
        ("-", "delayed", 30),
        ("", "advanced", 23),
    ])
    def test_criterion_sum_overflow(self, tmp_path, sign, direction, index):
        doc = {"a": "0", "b": f"{sign}2.5e307", "direction": direction, "k": 8,
               "impulse": "none", "initial_window": [1] * 9, "horizon": 60}
        res = run_cli("analyze", write_problem(tmp_path, doc))
        assert res.returncode == 3
        assert res.stderr == (f"numeric failure: at index {index}: the sum of 8 Q "
                              f"values from Q_{index} overflows\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("doc", [
        pytest.param(ZERO_A_DOC, id="zero_a"),
        pytest.param(ADVANCED_ZERO_B_DOC, id="advanced_zero_b"),
        pytest.param(DEGENERATE_K1_DOC, id="degenerate_k1"),
    ])
    def test_check_prints_nothing_on_numeric_failure(self, tmp_path, doc):
        # check measures simulate's run, so advanced_zero_b fails in the
        # window continuation before any invariant; no line is printed
        res = run_cli("check", write_problem(tmp_path, doc))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("numeric failure: ")

    def test_check_failure_report_is_whole(self, monkeypatch, capsys):
        # a left limit off by one part in a million fails node consistency
        # (exit 1); every line is still printed, in order, after the failing
        # one.  The fault is injected: the kernel has no setting that
        # degrades it.
        rebuild = trajectory.reconstruct

        def wrong(*args):
            traj = rebuild(*args)
            rec = traj.nodes[0]
            traj.nodes[0] = type(rec)(rec.n, perturbed(rec.z_left), rec.z_right,
                                      rec.jump_factor)
            return traj

        monkeypatch.setattr(trajectory, "reconstruct", wrong)
        assert cli.main(["check", str(EXAMPLE1), "--samples", "4"]) == 1
        lines = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert lines == [
            "PASS dual_route_q_audit", "PASS alpha_telescoping", "PASS recursion_residual",
            "PASS reduced_form_residual", "FAIL node_consistency",
            "PASS discrete_to_continuous_transfer",
        ]


class TestDeepExpressions:
    """Expressions nested past the parser's limit exit 2 and name their key."""

    SUM300 = "+".join(["0"] * 299) + "-1"

    @pytest.mark.parametrize("key,source,shallow", [
        pytest.param("a", SUM300, "-1", id="sum300"),
        pytest.param("a", "-" * 300 + "1", "1", id="neg300"),
    ])
    def test_at_the_limit_matches_shallow_form(self, tmp_path, key, source, shallow):
        # the deep spelling evaluates to the same floats at every sample, so
        # the coefficient table is byte-identical to the shallow one
        deep_out, shallow_out = tmp_path / "deep.csv", tmp_path / "shallow.csv"
        deep = run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, key: source}, "deep.json"),
                       "--out", deep_out)
        flat = run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, key: shallow}, "flat.json"),
                       "--out", shallow_out)
        assert deep.returncode == 0 and flat.returncode == 0, deep.stderr
        assert deep_out.read_bytes() == shallow_out.read_bytes()

    @pytest.mark.parametrize("key,source,offset", [
        pytest.param("a", "+".join(["0"] * 599) + "-1", 601, id="sum600"),
        pytest.param("b", "-" * 1200 + "1", 899, id="neg1200"),
    ])
    def test_past_the_limit_exits_2(self, tmp_path, key, source, offset):
        out = tmp_path / "coeffs.csv"
        res = run_cli("coeffs", write_problem(tmp_path, {**BASE_DOC, key: source}),
                      "--out", out)
        assert res.returncode == 2
        assert res.stderr == (f"error: key '{key}': parse error at offset {offset}: "
                              "expression nested deeper than 300 levels\n")
        assert not out.exists()


def perturbed(value):
    return value * (1.0 + 1e-6)


class TestInvariantsCanFail:
    """Each check invariant reports FAIL, with exit 1, on a perturbed input.

    The perturbation goes through the module attribute the CLI calls, in
    this process.
    """

    @staticmethod
    def check(capsys, problem=EXAMPLE1):
        code = cli.main(["check", str(problem), "--samples", "4"])
        return code, capsys.readouterr()

    @staticmethod
    def off_by_one_part_in_a_million(monkeypatch, index):
        direct = reduction.compute_qn_direct

        def wrong(spec, kernels, n):
            value = direct(spec, kernels, n)
            return perturbed(value) if n == index else value

        monkeypatch.setattr(reduction, "compute_qn_direct", wrong)

    def test_build_computes_each_q_once(self, monkeypatch):
        # the build keeps what the route gives, unaudited
        calls = []
        direct = reduction.compute_qn_direct
        self.off_by_one_part_in_a_million(monkeypatch, 10)
        wrong = reduction.compute_qn_direct

        def counted(spec, kernels, n):
            calls.append(n)
            return wrong(spec, kernels, n)

        monkeypatch.setattr(reduction, "compute_qn_direct", counted)
        spec = cli.load_problem(EXAMPLE1).spec
        ds = reduction.build_discrete_system(spec)
        assert calls == list(ds.q_indices())
        assert ds.q(10) == perturbed(direct(spec, ds.kernels, 10))

    def test_q_audit_coeffs_exit_0(self, monkeypatch, capsys):
        # the audit is check's alone: coeffs writes the route's Q_10 as it is
        self.off_by_one_part_in_a_million(monkeypatch, 10)
        assert cli.main(["coeffs", str(EXAMPLE1)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert float(rows[11].split(",")[4]) == pytest.approx(perturbed(
            float(rows[12].split(",")[4])), rel=1e-9)

    def test_q_audit_check_fails(self, monkeypatch, capsys):
        self.off_by_one_part_in_a_million(monkeypatch, 10)
        code, captured = self.check(capsys)
        assert code == 1
        assert captured.out.startswith("FAIL dual_route_q_audit: Q_10 mismatch")

    def test_alpha_telescoping(self, monkeypatch, capsys):
        build = cli.build_discrete_system
        for index in (5, 55):   # near the start and in the tail

            def wrong(spec):
                ds = build(spec)
                ds.alpha_seq[index] = perturbed(ds.alpha_seq[index])
                return ds

            monkeypatch.setattr(cli, "build_discrete_system", wrong)
            code, captured = self.check(capsys)
            assert code == 1
            assert "FAIL alpha_telescoping: max deviation 1.000e-06" in captured.out

    def test_recursion_residual(self, monkeypatch, capsys):
        continuation = diffeq.continue_window
        # z_2 is of order 0.1 and z_17 about 1.5e-4: each residual is
        # relative to the terms of its own interval
        for index in (5, 20):

            def wrong(ds, init):
                sol = continuation(ds, init)
                sol.values[index] = perturbed(sol.values[index])
                return sol

            monkeypatch.setattr(diffeq, "continue_window", wrong)
            code, captured = self.check(capsys)
            assert code == 1
            for name in ("recursion_residual", "reduced_form_residual", "node_consistency"):
                assert f"FAIL {name}" in captured.out

    def test_reduced_form_residual(self, monkeypatch, capsys):
        # Q_n is read by the audit and the reduced form alone; the
        # recursion reads a_n and b_n
        self.off_by_one_part_in_a_million(monkeypatch, 30)
        code, captured = self.check(capsys)
        assert code == 1
        assert "FAIL dual_route_q_audit: Q_30 mismatch" in captured.out
        assert "FAIL reduced_form_residual: max relative residual " in captured.out
        assert "PASS recursion_residual" in captured.out
        assert captured.out.count("FAIL") == 2

    def test_continuity_without_impulses(self, monkeypatch, capsys, tmp_path):
        rebuild = trajectory.reconstruct

        def wrong(*args):
            traj = rebuild(*args)
            rec = traj.nodes[0]
            traj.nodes[0] = type(rec)(rec.n, perturbed(rec.z_left), rec.z_right,
                                      rec.jump_factor)
            return traj

        monkeypatch.setattr(trajectory, "reconstruct", wrong)
        doc = {**json.loads(EXAMPLE1.read_text()), "impulse": "none"}
        code, captured = self.check(capsys, write_problem(tmp_path, doc))
        assert code == 1
        assert "FAIL node_consistency" in captured.out
        assert "continuity_without_impulses" not in captured.out

    def test_discrete_to_continuous_transfer(self, monkeypatch, capsys):
        rebuild = trajectory.reconstruct

        def one_signed(*args):
            traj = rebuild(*args)
            traj.samples[:] = array("d", [abs(z) for z in traj.samples])
            traj.nodes[:] = [type(rec)(rec.n, abs(rec.z_left), rec.z_right, rec.jump_factor)
                             for rec in traj.nodes]
            return traj

        monkeypatch.setattr(trajectory, "reconstruct", one_signed)
        code, captured = self.check(capsys)
        assert code == 1
        assert ("FAIL discrete_to_continuous_transfer: discrete Oscillatory, "
                "continuous EventuallyPositive") in captured.out

    def test_residual_that_is_not_finite_fails(self, monkeypatch, capsys, tmp_path):
        # z stays finite while y = alpha z overflows from n = 63 on, which
        # the reduced form, measured in z, does not see
        doc = {"a": "-5", "b": "0.01", "direction": "advanced", "k": 2, "impulse": "none",
               "initial_window": [1, 2, 3], "horizon": 130}
        code, captured = self.check(capsys, write_problem(tmp_path, doc))
        assert code == 0, captured.out
        # a NaN residual fails: a max over the residuals would keep 4e-16
        direct = reduction.compute_qn_direct
        monkeypatch.setattr(reduction, "compute_qn_direct", lambda spec, kernels, n: (
            math.nan if n == 30 else direct(spec, kernels, n)))
        code, captured = self.check(capsys)
        assert code == 1
        assert captured.out.startswith("FAIL dual_route_q_audit: Q_30 mismatch: direct nan")
        assert ("FAIL reduced_form_residual: relative residual at index 30 is nan"
                in captured.out)
        assert captured.out.count("FAIL") == 2


# The probes of ROADMAP item 2: horizon 60, no impulses, window all ones.
# Each run must end, with exit 0 or 3, within PROBE_BUDGET evaluations of
# a and b together.  Each takes 3,896; a nested quadrature per sample takes
# millions on them, or does not end.
PROBE_BUDGET = 10_000
PROBES = {
    "a=-3": ("-3", "-1", "delayed", 5),
    "a=3": ("3", "1", "advanced", 5),
    "a=t/10": ("t/10", "1", "advanced", 3),
    "a=5": ("5", "1", "advanced", 4),
}


@pytest.fixture
def evaluations(monkeypatch):
    """The count of a and b evaluations together, through wrappers of the
    functions that the build compiles from them."""
    counts = [0]
    compile_expr = reduction.compile_expr

    def compiling(expr):
        f = compile_expr(expr)

        def counted(t):
            counts[0] += 1
            return f(t)

        counted.reads_x = f.reads_x
        return counted

    monkeypatch.setattr(reduction, "compile_expr", compiling)
    return counts


class TestProbes:
    @pytest.mark.parametrize("probe", PROBES)
    def test_within_budget(self, tmp_path, evaluations, probe):
        a, b, direction, k = PROBES[probe]
        doc = {"a": a, "b": b, "direction": direction, "k": k, "impulse": "none",
               "initial_window": [1] * (k + 1), "horizon": 60}
        out = tmp_path / "report.json"
        code = cli.main(["analyze", str(write_problem(tmp_path, doc)), "--out", str(out)])
        assert code in (0, 3)
        assert 0 < evaluations[0] <= PROBE_BUDGET
        if probe == "a=-3":
            # a=3 and a=5 are left out: OcalanAkinNonOsc fires on them
            # unsoundly (ROADMAP item 4), so their verdict is not pinned
            assert json.loads(out.read_text())["overall_verdict"] == "Oscillatory"


# The work bound of one interval (ROADMAP item 21).  The kernel resolves a,
# then the weight exp(-A) b, piece by piece.  A piece samples the points of
# DEGREES[0] and then only the new points of each doubled degree, at most
# DEGREES[-1] + 1 samples in all, and an unresolved piece is bisected only
# while the pieces accepted, pending and being split stay within MAX_PIECES.
# The pieces tried thus form a binary tree of at most MAX_PIECES leaves, so
# at most 2 MAX_PIECES - 1 of them, whether the interval resolves or exits 3,
# and each of a and b is evaluated at most this often per interval:
WORK_BOUND = (2 * quad.MAX_PIECES - 1) * (quad.DEGREES[-1] + 1)   # 127 * 65 = 8,255

# delayed, k = 1, no impulses, intervals [0, 1] to [3, 4]; the weight of
# sin(1000 t) takes the whole bound on every interval, and the others exit 3
# on an unresolved, non-finite or overflowing interval or resolve below it
HOSTILE = {
    "high-frequency": ("sin(1000*t)", "cos(700*t)"),
    "high-frequency-a-unresolved": ("sin(100000*t)", "1"),
    "high-frequency-weight-unresolved": ("0.1", "sin(30000*t)"),
    "kinked-unresolved": ("abs(sin(300*t))^0.5", "abs(t - 1.3) - 0.5"),
    "kinked": ("abs(t - 0.3) - 1", "abs(t - 2.7)"),
    "pole": ("1/(t - 0.5)", "1"),
    "integrable-singularity": ("abs(t - 0.3)^(-0.5)", "ln(abs(t - 1.7))"),
    "weight-singularity": ("-0.5", "abs(t - 2.3)^(-0.5)"),
    "overflowing-b_n": ("700", "1e300"),
    "near-overflow": ("709*cos(6.283185307179586*t)", "1e-300"),
    "overflowing-q_n": ("-700", "1e300*sin(t)"),
}


@pytest.fixture
def kernel_work(monkeypatch):
    """(n, evaluations of a, evaluations of b) of each kernel construction,
    counted through wrappers of the a and b it is built from."""
    work = []
    build = quad.IntervalKernel

    def counted(fa, fb, n):
        counts = [0, 0]

        def a(t):
            counts[0] += 1
            return fa(t)

        def b(t):
            counts[1] += 1
            return fb(t)

        try:
            return build(a, b, n)
        finally:
            work.append((n, *counts))

    monkeypatch.setattr(reduction, "IntervalKernel", counted)
    return work


@pytest.mark.parametrize("a,b", HOSTILE.values(), ids=HOSTILE)
def test_work_per_interval_within_bound(tmp_path, kernel_work, a, b):
    doc = {"a": a, "b": b, "direction": "delayed", "k": 1, "impulse": "none",
           "initial_window": [1, 1], "horizon": 4}
    out = tmp_path / "coeffs.csv"
    assert cli.main(["coeffs", str(write_problem(tmp_path, doc)), "--out", str(out)]) in (0, 3)
    assert kernel_work
    assert all(fa <= WORK_BOUND and fb <= WORK_BOUND for _, fa, fb in kernel_work), kernel_work
