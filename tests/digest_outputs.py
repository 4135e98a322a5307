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
[1, 1, 1] gives exact zeros), two stiff problems whose samples inside an
interval are wrong (stiff-a40, delayed a=-40, b=0.01 at horizon 40, and
stiff-a720, advanced k=2, a=-720, b=-1/3 at horizon 30; see STIFF),
a=-2, b=-1, delayed, k=1 at horizon 1000, a
problem whose E(t) overflows inside every interval while the skeleton
stays finite, and both examples under each impulse shape (formula, table,
table with default, and two that exit 2).
Example 1 from horizon 420 on, example 2 at 505, y-overflow,
alpha-overflow, alpha-subnormal-h740, alpha-subnormal-h61 and
alpha-past-range-h1000 run past the normal range of alpha (or of
y_n = alpha_n z_n), which neither Q_n nor any check but alpha_telescoping
reads: all of them pass check.  So does q-weight-exp-overflow's Q audit,
but its z_3 underflows, which leaves simulate and check too short a tail.
an-past-exp-range (a=720, b=0, delayed, k=1, jump factor 1e-10 at horizon
40) has a_n = 4.9e302 although exp(720) overflows, so coeffs and analyze
exit 0, and simulate and check exit 3 on the window's short tail.
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
horizon 505, with its flags, then three command lines on example 1
that the parser rejects with exit 2 (an unknown command, a --samples that
is not an integer and an unknown flag), whose SystemExit code is recorded,
and last four on example 1 that cli.read_strict declines and argparse
reads and runs (ARGPARSE): coeffs --hor 30, simulate --samples=4 --out
problem and --horizon 30 coeffs, which give the same bytes as their
strict-form twins (tests/test_cli.py checks it), and -h, whose exit 0
is recorded.
Last of all, coeffs, analyze, simulate --samples 4 and check on both
shipped examples run again as processes, through python -m idepca.cli,
whose cli.run ends the process with os._exit instead of the interpreter's
teardown (PROCESS).  Their lines name the case process:example1 and
process:example2 and hash the process's stdout, stderr and files the
same way, so each equals its in-process twin's line but for the name.
argparse wraps its usage and help text to COLUMNS, or else to the width
of the terminal on the real stdout, so the script sets COLUMNS to 80, the
width argparse takes when stdout goes to a file: the argparse lines hash
the same in any terminal as redirected.
The battery enters as its drawn data, not as built specs, so the script
runs against another checkout's src as well.
analyze builds only from the first interval its criteria read
(criteria.first_read), and checks the tail's length before it builds
anything.  Against a version that builds every interval, that moves 8
analyze lines, and no analyze line that exits 0 there:
a-singular and weight-singular go from exit 3 to exit 0 (Inconclusive),
since their only failure is on [0, 1]; b-overflow, a-unresolved,
a-overflow-weight-singular and a-underflow still exit 3, but name the
first interval built, or its first Q_n, instead of [0, 1] or alpha; and
advanced-a300-k3 and far-n0-reads-t still exit 3, but on their short
tail ("need at least 8 points, got 6" and "got 5"), before the kernel
failure that the full build meets.  An overflow of a_n, b_n or Q_n reads
"exp(<expo>) * <value> overflowed", without "the weighted integral",
which also moves the coeffs, both simulate and the check lines of
b-overflow and advanced-a300-k3.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _battery import HORIZON, draws  # noqa: E402
from idepca import cli  # noqa: E402

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PROBLEM = "problem.json"
COMMANDS = (["coeffs"], ["analyze"], ["simulate", "--samples", "4"],
            ["simulate", "--samples", "1"], ["check"])
SEVEN = ["simulate", "--samples", "7"]
TWENTY = ["simulate", "--samples", "20"]
DENSE = (("example1", ["simulate", "--horizon", "240", "--samples", "128"]),
         ("example2", ["simulate", "--horizon", "505", "--samples", "128"]))
PARSER_ERRORS = (["frobnicate"], ["check", "--samples", "x"],
                 ["coeffs", "--no-such-flag", "1"])
# whole command lines that cli.read_strict declines and argparse reads and
# runs: an abbreviation, --flag=value and a flag before the positionals,
# each with the strict-form twin whose outputs it gives, and -h, which has
# none
ARGPARSE = ((["coeffs", PROBLEM, "--hor", "30"], ["coeffs", PROBLEM, "--horizon", "30"]),
            (["simulate", PROBLEM, "--samples=4", "--out", "problem"],
             ["simulate", PROBLEM, "--samples", "4"]),
            (["--horizon", "30", "coeffs", PROBLEM], ["coeffs", PROBLEM, "--horizon", "30"]),
            (["-h"], None))
# the shipped examples' commands, run again through python -m idepca.cli
PROCESS = ("example1", "example2")


def _plain(a, b, **keys) -> dict:
    doc = {"a": a, "b": b, "direction": "delayed", "k": 1, "impulse": "none",
           "initial_window": [1, 1], "n0": 0, "horizon": 10}
    doc.update(keys)
    return doc


# numeric failures of each stage, and problems whose y_n = alpha_n z_n or
# alpha leaves double range: alpha is subnormal from n = 709 on at h740 and
# from n = 18 on at h61; Q_n's weight exp(800) overflows alone while
# Q_n = 6.8e44 does not in q-weight-exp-overflow, and exp(720) overflows
# alone while a_n = 1e-10 exp(720) = 4.9e302 does not in an-past-exp-range
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
    "an-past-exp-range": _plain("720", "0", impulse={"factor": 1e-10}, horizon=40),
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

# stiff intervals, whose interior samples carry about e^-a eps of error
# (ROADMAP item 25): z > 0 everywhere in stiff-a40, whose continuous
# verdict still reads Oscillatory, and z = 1 on [1, 2] in stiff-a720, whose
# samples there reach 5e117, and whose Q_n = -9.4e-317 is subnormal
STIFF = {
    "stiff-a40": _plain("-40", "0.01", horizon=40),
    "stiff-a720": _plain("-720", "-1/3", direction="advanced", k=2,
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
    yield from STIFF.items()
    yield "alpha-past-range-h1000", _plain("-2", "-1", horizon=1000)
    # A(t) = 800 sin^2(pi t) with every T_n = 0
    yield "exp-overflow-inside", _plain("2513.2741228718345*sin(6.283185307179586*t)",
                                        "-0.1", horizon=30)
    for name in ("example1", "example2"):
        for shape, impulse in IMPULSES.items():
            yield f"{name}-{shape}", {**_shipped(name), "impulse": impulse}


def strict(command: list) -> list:
    """The command line of command (its name, then its flags) on PROBLEM."""
    return [command[0], PROBLEM, *command[1:]]


def in_process(argv: list) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv); the code of a
    SystemExit, as the parser raises, is recorded like a return."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def as_process(argv: list) -> tuple:
    """(exit code, stdout, stderr) of python -m idepca.cli argv, with the
    package this script imported first on the child's path."""
    path = [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    res = subprocess.run([sys.executable, "-m", "idepca.cli", *argv], capture_output=True,
                         encoding="utf-8",
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    return res.returncode, res.stdout, res.stderr


def digest(doc: dict, argv: list, directory: Path, runner=in_process) -> tuple:
    """(exit code, sha256 hex) of one operation, argv with doc as PROBLEM,
    run in directory by runner."""
    for old in directory.iterdir():
        old.unlink()
    problem = directory / PROBLEM
    problem.write_text(json.dumps(doc), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code, out, err = runner(argv)
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    for label, text in (("stdout", out), ("stderr", err)):
        h.update(f"{label}\0{text}\0".encode())
    for path in sorted(directory.iterdir()):
        if path != problem:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return code, h.hexdigest()


def run() -> None:
    os.environ["COLUMNS"] = "80"    # argparse's width when stdout is a file
    with tempfile.TemporaryDirectory() as tmp:
        def emit(name, doc, argv, runner=in_process):
            code, sha = digest(doc, argv, Path(tmp), runner)
            print(f"{name} {' '.join(a for a in argv if a != PROBLEM)} {code} {sha}",
                  flush=True)

        for name, doc in cases():
            for command in COMMANDS:
                emit(name, doc, strict(command))
        for group, extra in ((BISECTED, (SEVEN,)), (TIME_EDGES, (SEVEN, TWENTY))):
            for name, doc in group.items():
                for command in (*COMMANDS, *extra):
                    emit(name, doc, strict(command))
        for name, command in (*DENSE, *(("example1", c) for c in PARSER_ERRORS)):
            emit(name, _shipped(name), strict(command))
        for argv, _ in ARGPARSE:
            emit("example1", _shipped("example1"), argv)
        for name in PROCESS:
            for command in (["coeffs"], ["analyze"], ["simulate", "--samples", "4"], ["check"]):
                emit(f"process:{name}", _shipped(name), strict(command), as_process)


if __name__ == "__main__":
    run()
