"""Byte-exact outputs of the CLI on the shipped problems.

The expected files under tests/golden/ pin the exact bytes of ``coeffs`` and
``analyze`` on both shipped problems and of ``simulate``'s node table and
verdicts on example 1.  A change that alters any digit of these outputs must
regenerate them on purpose.
"""

from pathlib import Path

import pytest

from idepca.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command,suffix", [("coeffs", "csv"), ("analyze", "json")])
@pytest.mark.parametrize("example", ["example1", "example2"])
def test_report_bytes(tmp_path, example, command, suffix):
    name = f"{example}.{command}.{suffix}"
    out = tmp_path / name
    assert main([command, str(REPO / "problems" / f"{example}.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_simulate_bytes(tmp_path):
    prefix = tmp_path / "example1"
    assert main(["simulate", str(REPO / "problems" / "example1.json"),
                 "--out", str(prefix)]) == 0
    for part in ("nodes.csv", "verdicts.json"):
        produced = Path(f"{prefix}.{part}").read_bytes()
        assert produced == (GOLDEN / f"example1.{part}").read_bytes(), part
