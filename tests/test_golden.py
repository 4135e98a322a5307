"""Byte-exact outputs of the CLI on the shipped problems.

The expected files under tests/golden/ pin the exact bytes of ``coeffs`` and
``analyze``, of ``simulate``'s trajectory, node table and verdicts, and of
the stdout of ``check --samples 4`` on both shipped problems.  A change
that alters any digit of these outputs must regenerate them on purpose:

    PYTHONPATH=<src directory of the commit to pin> python3 tests/test_golden.py

rewrites every file in tests/golden/ from the ``idepca`` that import finds,
using the same cases as the tests.  To pin the outputs of an earlier commit,
point PYTHONPATH at a checkout of that commit's ``src``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from idepca.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = ("example1", "example2")
REPORTS = (("coeffs", "csv"), ("analyze", "json"))
SIMULATE_PARTS = ("trajectory.csv", "nodes.csv", "verdicts.json")


def _problem(example):
    return str(REPO / "problems" / f"{example}.json")


def report_bytes(example, command, suffix, workdir):
    name = f"{example}.{command}.{suffix}"
    out = Path(workdir) / name
    assert main([command, _problem(example), "--out", str(out)]) == 0
    return {name: out.read_bytes()}


def simulate_bytes(example, workdir):
    prefix = Path(workdir) / example
    assert main(["simulate", _problem(example), "--out", str(prefix)]) == 0
    return {f"{example}.{part}": Path(f"{prefix}.{part}").read_bytes()
            for part in SIMULATE_PARTS}


def check_bytes(example):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["check", _problem(example), "--samples", "4"]) == 0
    return {f"{example}.check.txt": stdout.getvalue().encode("utf-8")}


def all_outputs(workdir):
    outputs = {}
    for example in EXAMPLES:
        for command, suffix in REPORTS:
            outputs.update(report_bytes(example, command, suffix, workdir))
        outputs.update(simulate_bytes(example, workdir))
        outputs.update(check_bytes(example))
    return outputs


def _assert_golden(outputs):
    for name, produced in outputs.items():
        assert produced == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("command,suffix", REPORTS)
@pytest.mark.parametrize("example", EXAMPLES)
def test_report_bytes(tmp_path, example, command, suffix):
    _assert_golden(report_bytes(example, command, suffix, tmp_path))


def test_simulate_bytes(tmp_path):
    # example 1 is delayed and example 2 advanced, so both relation ranges
    # of the reconstruction are pinned
    for example in EXAMPLES:
        _assert_golden(simulate_bytes(example, tmp_path))


@pytest.mark.parametrize("example", EXAMPLES)
def test_check_stdout(example):
    _assert_golden(check_bytes(example))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in all_outputs(workdir).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
