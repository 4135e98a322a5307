"""Print one digest line per CLI operation, to compare two versions' outputs.

Each line is the case, the command, the exit code and a sha256 over the
operation's stdout, stderr and written files.  Two versions behave the same
on these cases when the `diff` of their digests is empty:

    PYTHONPATH=src python tests/digest_outputs.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/digest_outputs.py > before.txt
    diff before.txt after.txt

The cases are the shipped examples, example 2 at horizon 505 and example 1
at horizon 420, the tests' battery draw (OSC_SEED selects it), problems
that exit 3 or fail a check, and both examples under each impulse shape
(formula, table, table with default, and two that exit 2).  Every case runs coeffs, analyze, simulate
--samples 4, simulate --samples 1 (one sample per interval, the grid's
edge case) and check, in process, in a temporary directory.  Last come the
benchmark's simulate-dense operations, simulate --samples 128 on example 1
at horizon 240 and on example 2 at horizon 505, with its flags.  The
battery enters as its drawn data, not as built specs, so the script runs
against another checkout's src as well.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _battery import HORIZON, draws  # noqa: E402
from idepca.cli import main  # noqa: E402

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
COMMANDS = (["coeffs"], ["analyze"], ["simulate", "--samples", "4"],
            ["simulate", "--samples", "1"], ["check"])
DENSE = (("example1", ["simulate", "--horizon", "240", "--samples", "128"]),
         ("example2", ["simulate", "--horizon", "505", "--samples", "128"]))


def _plain(a, b, **keys) -> dict:
    doc = {"a": a, "b": b, "direction": "delayed", "k": 1, "impulse": "none",
           "initial_window": [1, 1], "n0": 0, "horizon": 10}
    doc.update(keys)
    return doc


# numeric failures of each stage, a problem whose reduced form overflows, and
# one whose alpha overflows
FAILING = {
    "a-singular": _plain("1/t", "1"),
    "weight-singular": _plain("0", "1/(t - 0.5)"),
    "a-overflow-weight-singular": _plain("800", "1/(t - 0.5)"),
    "b-overflow": _plain("700", "1e10"),
    "advanced-a300-k3": _plain("300", "1", direction="advanced", k=3,
                               initial_window=[1, 1, 1, 1]),
    "a-underflow": _plain("-800", "1"),
    "a-unresolved": _plain("sin(5000*t)", "1"),
    "y-overflow": _plain("-5", "0.01", direction="advanced", k=2,
                         initial_window=[1, 2, 3], horizon=130),
    "alpha-overflow": _plain("-5", "0.01", direction="advanced", k=2,
                             initial_window=[1, 2, 3], horizon=143),
}


# each impulse shape on a delayed (example 1) and an advanced (example 2)
# problem; a zero table entry and a formula infinite at node 7 exit 2
IMPULSES = {
    "formula": {"formula": "0.5 + 0.25*sin(n)"},
    "table": {"table": [0.5, 2, 0.75, 1.25]},
    "table-default": {"table": [2, 0.5, 1.5], "default": 0.5},
    "table-zero": {"table": [0.5, 0.5, 0.5, 0.0]},
    "formula-nonfinite": {"formula": "1/(n - 7)"},
}


def _shipped(name: str) -> dict:
    return json.loads((PROBLEMS / f"{name}.json").read_text())


def cases():
    for name in ("example1", "example2"):
        yield name, _shipped(name)
    yield "example2-h505", {**_shipped("example2"), "horizon": 505}
    yield "example1-h420", {**_shipped("example1"), "horizon": 420}
    for d in draws():
        yield f"battery-{d.index:03d}", {
            "a": d.source_a, "b": d.source_b, "direction": d.direction.value,
            "k": d.k, "impulse": {"factor": d.factor},
            "initial_window": list(d.window), "n0": 0, "horizon": HORIZON, "tol": 1e-10,
        }
    yield from FAILING.items()
    for name in ("example1", "example2"):
        for shape, impulse in IMPULSES.items():
            yield f"{name}-{shape}", {**_shipped(name), "impulse": impulse}


def digest(doc: dict, command: list, directory: Path) -> tuple:
    """(exit code, sha256 hex) of one operation run in directory."""
    for old in directory.iterdir():
        old.unlink()
    problem = directory / "problem.json"
    problem.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], problem.name, *command[1:]])
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    for label, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        h.update(f"{label}\0{text}\0".encode())
    for path in sorted(directory.iterdir()):
        if path != problem:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return code, h.hexdigest()


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in cases():
            for command in COMMANDS:
                code, sha = digest(doc, command, Path(tmp))
                print(f"{name} {' '.join(command)} {code} {sha}", flush=True)
        for name, command in DENSE:
            code, sha = digest(_shipped(name), command, Path(tmp))
            print(f"{name} {' '.join(command)} {code} {sha}", flush=True)


if __name__ == "__main__":
    run()
