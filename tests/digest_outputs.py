"""Print one digest line per CLI operation, to compare two versions' outputs.

Each line is the case, the command, the exit code and a sha256 over the
operation's stdout, stderr and written files.  Two versions behave the same
on these cases when the `diff` of their digests is empty:

    PYTHONPATH=src python tests/digest_outputs.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/digest_outputs.py > before.txt
    diff before.txt after.txt

The cases are the shipped examples, example 2 at horizon 505, example 1 at
horizons 420 and 505, the tests' battery draw (OSC_SEED selects it),
problems that exit 3, problems whose alpha leaves double range, three
whose window continuation reaches 0 (underflow-gradual, delayed a=-5,
b=0.001 at horizon 400, decays through the subnormals; underflow-to-zero,
delayed a=-41.5, b=0 at horizon 60, steps straight to 0; and
exact-zeros-kept, advanced k=2, a=0, b=1 at horizon 30, whose window
[1, 1, 1] gives exact zeros), a=-2, b=-1, delayed, k=1 at horizon 1000, a
problem whose E(t) overflows inside every interval while the skeleton
stays finite, and both examples under each impulse shape (formula, table,
table with default, and two that exit 2).
Example 1 from horizon 420 on, example 2 at 505, y-overflow,
alpha-overflow, alpha-subnormal-h740, alpha-subnormal-h61 and
alpha-past-range-h1000 run past the normal range of alpha (or of
y_n = alpha_n z_n), which neither Q_n nor any check but alpha_telescoping
reads: all of them pass check.  So does q-weight-exp-overflow's Q audit,
but its z_3 underflows, which leaves simulate and check too short a tail.
far-n0 (a=-1, b=-1/3, delayed, k=1 from n0 = 33554430) builds its one
kernel on [n0, n0+1], so coeffs exits 0, and the other commands exit 3 on
its six intervals' short tail; far-n0-reads-t (a = -1 + 0*t, the same
otherwise) builds one kernel per interval and exits 3 in every command,
since its weight is not resolved on [33554432, 33554433].
Every case runs coeffs, analyze, simulate --samples 4, simulate --samples 1
(one sample per interval, the grid's edge case) and check, in process, in a
temporary directory.  Two problems whose kernels are bisected inside every
interval, at kinks of abs(...) on and off the bisection points, also run
simulate --samples 7, whose t = n + i/7 round.  Two more run simulate
--samples 7 and --samples 20 as well: decade-binade (a=-0.1, b=0.05,
delayed, k=1 from n0 = 990 to horizon 1030) crosses n = 1000 and n = 1024,
where the digit count and the bit length of n change, and negative-n0 (the
same from n0 = -5 to horizon 20) formats t sample by sample on its
intervals with n <= 0.  Last come the benchmark's
simulate-dense operations,
simulate --samples 128 on example 1 at horizon 240 and on example 2 at
horizon 505, with its flags, and then three command lines on example 1
that the parser rejects with exit 2 (an unknown command, a --samples that
is not an integer and an unknown flag), whose SystemExit code is recorded.
The battery enters as its drawn data, not as built specs, so the script
runs against another checkout's src as well.
pytest does not collect this file.
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
SEVEN = ["simulate", "--samples", "7"]
TWENTY = ["simulate", "--samples", "20"]
DENSE = (("example1", ["simulate", "--horizon", "240", "--samples", "128"]),
         ("example2", ["simulate", "--horizon", "505", "--samples", "128"]))
PARSER_ERRORS = (["frobnicate"], ["check", "--samples", "x"],
                 ["coeffs", "--no-such-flag", "1"])


def _plain(a, b, **keys) -> dict:
    doc = {"a": a, "b": b, "direction": "delayed", "k": 1, "impulse": "none",
           "initial_window": [1, 1], "n0": 0, "horizon": 10}
    doc.update(keys)
    return doc


# numeric failures of each stage, and problems whose y_n = alpha_n z_n or
# alpha leaves double range: alpha is subnormal from n = 709 on at h740 and
# from n = 18 on at h61, and Q_n's weight exp(800) overflows alone while
# Q_n = 6.8e44 does not in the last
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
    "alpha-subnormal-h740": _plain("1", "0.5", direction="advanced", k=3,
                                   initial_window=[1, 1, 1, 1], horizon=740),
    "alpha-subnormal-h61": _plain("40.892101514950994 - 0.3203959244574941*sin(t)",
                                  "6.256898118262356 + 1.6530054283751117*cos(t)",
                                  direction="advanced", k=3,
                                  impulse={"factor": 0.8749578775898675},
                                  initial_window=[1, 1, 1, 1], horizon=61),
    "q-weight-exp-overflow": _plain("-400", "1e-300", horizon=30),
    # far from the origin the weight is sampled at abscissae rounded to
    # ulp(n), so exp(-A(s)) carries about |a| ulp(n) of relative noise, above
    # the plateau the chop accepts from n = 2^25 on.  Constant coefficients
    # build one kernel, on [n0, n0+1] below 2^25, so only the short tail
    # fails; 0*t reads t, so its kernels are built per interval and fail
    "far-n0": _plain("-1", "-1/3", n0=33554430, horizon=33554436),
    "far-n0-reads-t": _plain("-1 + 0*t", "-1/3", n0=33554430, horizon=33554436),
}

# the window continuation is cut at its first value that is neither normal
# nor an exact 0: z decays through the subnormals, or steps straight to 0,
# while z_{n+2} = z_{n+1} - z_n keeps its exact zeros
STOPS = {
    "underflow-gradual": _plain("-5", "0.001", horizon=400),
    "underflow-to-zero": _plain("-41.5", "0", horizon=60),
    "exact-zeros-kept": _plain("0", "1", direction="advanced", k=2,
                               initial_window=[1, 1, 1], horizon=30),
}


# kinks in a and b split A and W into pieces: at t = n + 0.3 and n + 0.7,
# off every bisection point (18 and 30 pieces), and at n + 0.5 and n + 0.75,
# on them, where simulate --samples 4 puts samples on piece edges
PI = "3.141592653589793"
BISECTED = {
    "kink-off-edges": _plain(f"-0.5 + 0.3*abs(sin({PI}*(t - 0.3)))",
                             f"-0.2*abs(sin({PI}*(t - 0.7)))", horizon=40),
    "kink-on-edges": _plain(f"abs(sin({PI}*(t - 0.5))) - 0.8",
                            f"-0.2*abs(cos({PI}*(t - 0.25)))", horizon=40),
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


# trajectory rows across n = 1000 and n = 1024, where the digit count and
# the bit length of n change, and from n0 = -5, whose intervals with n <= 0
# format t sample by sample
TIME_EDGES = {
    "decade-binade": _plain("-0.1", "0.05", n0=990, horizon=1030),
    "negative-n0": _plain("-0.1", "0.05", n0=-5, horizon=20),
}


def _shipped(name: str) -> dict:
    return json.loads((PROBLEMS / f"{name}.json").read_text())


def cases():
    for name in ("example1", "example2"):
        yield name, _shipped(name)
    yield "example2-h505", {**_shipped("example2"), "horizon": 505}
    yield "example1-h420", {**_shipped("example1"), "horizon": 420}
    yield "example1-h505", {**_shipped("example1"), "horizon": 505}
    for d in draws():
        yield f"battery-{d.index:03d}", {
            "a": d.source_a, "b": d.source_b, "direction": d.direction.value,
            "k": d.k, "impulse": {"factor": d.factor},
            "initial_window": list(d.window), "n0": 0, "horizon": HORIZON, "tol": 1e-10,
        }
    yield from FAILING.items()
    yield from STOPS.items()
    yield "alpha-past-range-h1000", _plain("-2", "-1", horizon=1000)
    # A(t) = 800 sin^2(pi t) with every T_n = 0
    yield "exp-overflow-inside", _plain("2513.2741228718345*sin(6.283185307179586*t)",
                                        "-0.1", horizon=30)
    for name in ("example1", "example2"):
        for shape, impulse in IMPULSES.items():
            yield f"{name}-{shape}", {**_shipped(name), "impulse": impulse}


def digest(doc: dict, command: list, directory: Path) -> tuple:
    """(exit code, sha256 hex) of one operation run in directory; the code
    of a SystemExit, as the parser raises, is recorded like a return."""
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
    except SystemExit as exc:
        code = exc.code
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
        for group, extra in ((BISECTED, (SEVEN,)), (TIME_EDGES, (SEVEN, TWENTY))):
            for name, doc in group.items():
                for command in (*COMMANDS, *extra):
                    code, sha = digest(doc, command, Path(tmp))
                    print(f"{name} {' '.join(command)} {code} {sha}", flush=True)
        for name, command in (*DENSE, *(("example1", c) for c in PARSER_ERRORS)):
            code, sha = digest(_shipped(name), command, Path(tmp))
            print(f"{name} {' '.join(command)} {code} {sha}", flush=True)


if __name__ == "__main__":
    run()
