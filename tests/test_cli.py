import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_bad_tol_flag(self):
        res = run_cli("coeffs", EXAMPLE1, "--tol", 0)
        assert res.returncode == 2
        assert "tol" in res.stderr

    def test_bad_tail_flag(self):
        res = run_cli("analyze", EXAMPLE1, "--tail", 1.5)
        assert res.returncode == 2
        assert "tail_fraction" in res.stderr

    def test_infinite_tol_flag(self):
        # an infinite tolerance would make the dual-route audit unfailable
        assert run_cli("coeffs", EXAMPLE1, "--tol", "inf").returncode == 2

    def test_nan_tol_flag(self):
        res = run_cli("coeffs", EXAMPLE1, "--tol", "nan")
        assert res.returncode == 2
        assert "tol" in res.stderr

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


class TestFlagOverrides:
    """--tol, --tail and --horizon are validated like the keys they replace."""

    @pytest.mark.parametrize("key,bad,flags", [
        ("tol", 0, ["--tol", 1e-9]),
        ("tail_fraction", 0, ["--tail", 0.5]),
        ("horizon", 3, ["--horizon", 20]),
    ], ids=["tol", "tail_fraction", "horizon"])
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
          for command in ("coeffs", "analyze", "simulate", "check")],
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
        assert "numeric failure" in res.stderr

    # With a = 0 the jump factor alone sets a_n = r, so alpha_n = r^-n.
    @pytest.mark.parametrize("command", ["coeffs", "analyze", "check"])
    @pytest.mark.parametrize("direction,k", [("delayed", 1), ("advanced", 2)])
    def test_alpha_underflow(self, tmp_path, direction, k, command):
        # r = 1e30 underflows alpha to 0 from n = 11 on
        doc = {**BASE_DOC, "a": "0", "direction": direction, "k": k,
               "impulse": {"factor": 1e30}, "initial_window": [1] * (k + 1),
               "horizon": 14}
        out = tmp_path / "out"
        res = run_cli(command, write_problem(tmp_path, doc), "--out", out)
        assert res.returncode == 3
        assert "numeric failure" in res.stderr and "alpha_11" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["coeffs", "analyze"])
    def test_alpha_overflow(self, tmp_path, command):
        # r = 1e-30 overflows alpha_11, which made Q_10 infinite
        doc = {**BASE_DOC, "a": "0", "k": 1, "impulse": {"factor": 1e-30},
               "initial_window": [1, 1], "horizon": 11}
        out = tmp_path / "out"
        res = run_cli(command, write_problem(tmp_path, doc), "--out", out)
        assert res.returncode == 3
        assert "at index 10" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        pytest.param(ZERO_A_DOC, id="zero_a"),
        pytest.param(ADVANCED_ZERO_B_DOC, id="advanced_zero_b"),
        pytest.param(DEGENERATE_K1_DOC, id="degenerate_k1"),
    ])
    def test_check_prints_nothing_on_numeric_failure(self, tmp_path, doc):
        # advanced_zero_b fails after two invariants have passed; the report
        # is printed only once every invariant has run
        res = run_cli("check", write_problem(tmp_path, doc))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("numeric failure: ")

    def test_check_failure_report_is_whole(self, tmp_path):
        # a loose tolerance fails node consistency (exit 1); every line is
        # still printed, in order, after the failing one
        doc = {**BASE_DOC, "a": "-1/t", "n0": 1, "horizon": 60, "tol": 1e-4}
        res = run_cli("check", write_problem(tmp_path, doc), "--samples", 4)
        assert res.returncode == 1
        lines = [line.split(":")[0] for line in res.stdout.splitlines()]
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
