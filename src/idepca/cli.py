"""Command line interface: problem-file ingestion and machine-readable output.

``idepca <command> <problem> [flags]`` takes the four commands that
``idepca -h`` lists and the four flags, declared once in COMMANDS and
FLAGS.  read_strict reads a command line in the strict form (the command,
the problem, then separate ``--flag value`` pairs); argparse is imported
only to read any other, so it alone writes help and errors.  simulate and
check share one run, so check audits what simulate writes, with the
invariants of idepca.invariants.

Exit codes: 0 success, 1 invariant failure, 2 input/schema error,
3 numeric failure.

Every command loads exprlang, quad and reduction to read its problem file;
the modules that only some commands run (diffeq, criteria, trajectory,
invariants) are imported inside the functions that use them; analyze
builds from the first interval its criteria read.  CSV rows are formatted
lines (every number at 10 significant digits, ``.10g``) streamed to the
file.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .exprlang import Expr, ParseError, compile_expr, parse
from .quad import NumericFailure
from .reduction import Direction, ProblemSpec, build_discrete_system, in_range

__all__ = ["main", "load_problem", "SchemaError"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3


class SchemaError(Exception):
    pass


# the four commands and the four flags (type, default, help), which both
# build_parser and read_strict read
COMMANDS = {
    "coeffs": "write the coefficient table as CSV",
    "analyze": "evaluate oscillation criteria and write a JSON report",
    "simulate": "solve and reconstruct the trajectory",
    "check": "run all per-instance consistency invariants",
}
FLAGS = {
    "--out": (str, None, "output path (coeffs/analyze) or prefix (simulate)"),
    "--tail": (float, None, "override tail fraction"),
    "--samples": (int, 32, "trajectory samples per unit interval"),
    "--horizon": (int, None, "override the index horizon"),
}


_ALLOWED_KEYS = {
    "a", "b", "direction", "k", "impulse", "initial_window",
    "n0", "horizon", "tol", "tail_fraction",
}
_REQUIRED_KEYS = {"a", "b", "direction", "k", "impulse", "initial_window", "horizon"}


class ProblemFile(NamedTuple):
    spec: ProblemSpec
    tail_fraction: float


def _require_number(key, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"key {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"key {key!r} must be finite")
    return number


def _parse_expr(source, variable, key) -> Expr:
    if not isinstance(source, str):
        raise SchemaError(f"key {key!r} must be an expression string")
    try:
        return parse(source, variable)
    except ParseError as exc:
        raise SchemaError(f"key {key!r}: {exc}") from exc


def _parse_impulse(value) -> Callable[[int], float]:
    """n -> r_n from the problem file's impulse key: "none" (r_n = 1), a
    constant factor, a formula in n, or a table whose entry i applies at
    node i, with default (1 if absent) at every other node."""
    if value == "none":
        return lambda n: 1.0
    if not isinstance(value, dict):
        raise SchemaError('impulse must be "none" or an object')
    keys = set(value)
    if keys == {"factor"}:
        r = _require_number("impulse.factor", value["factor"])
        return lambda n: r
    if keys == {"formula"}:
        return compile_expr(_parse_expr(value["formula"], "n", "impulse.formula"))
    if keys in ({"table"}, {"table", "default"}):
        table = value["table"]
        if not isinstance(table, list) or not table:
            raise SchemaError("impulse.table must be a nonempty list of numbers")
        entries = [_require_number("impulse.table", v) for v in table]
        default = _require_number("impulse.default", value.get("default", 1.0))
        return lambda n: entries[n] if 0 <= n < len(entries) else default
    raise SchemaError(f"unrecognized impulse object with keys {sorted(keys)}")


def validate_problem(doc: dict) -> ProblemFile:
    if not isinstance(doc, dict):
        raise SchemaError("problem file must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")

    direction_text = doc["direction"]
    if direction_text not in ("delayed", "advanced"):
        raise SchemaError('direction must be "delayed" or "advanced"')
    direction = Direction(direction_text)

    k = doc["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise SchemaError("k must be a positive integer")
    horizon = doc["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise SchemaError("horizon must be an integer")
    n0 = doc.get("n0", 0)
    if isinstance(n0, bool) or not isinstance(n0, int):
        raise SchemaError("n0 must be an integer")

    window = doc["initial_window"]
    if not isinstance(window, list) or len(window) != k + 1:
        raise SchemaError(f"initial_window must be a list of {k + 1} numbers")
    window = [_require_number("initial_window", v) for v in window]

    # tol is validated but read by nothing: no tolerance governs a coefficient
    if _require_number("tol", doc.get("tol", 1.0)) <= 0.0:
        raise SchemaError("tol must be positive")
    tail_fraction = _require_number("tail_fraction", doc.get("tail_fraction", 0.5))
    if not 0.0 < tail_fraction <= 1.0:
        raise SchemaError("tail_fraction must lie in (0, 1]")

    a = _parse_expr(doc["a"], "t", "a")
    b = _parse_expr(doc["b"], "t", "b")
    impulse = _parse_impulse(doc["impulse"])

    try:
        spec = ProblemSpec(
            a=a, b=b, direction=direction, k=k, impulse=impulse,
            initial_window=tuple(window), horizon=horizon, n0=n0,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return ProblemFile(spec, tail_fraction)


def load_problem(path, overrides: Optional[dict] = None) -> ProblemFile:
    """Read and validate a problem file; overrides replace its keys first."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return validate_problem(doc)


def _csv(header: list, lines):
    """The header's names, then each line of lines: rows formatted and
    ending in "\n", streamed so they are never held at once."""
    yield ",".join(header) + "\n"
    yield from lines


def _json(doc: dict) -> list:
    return [json.dumps(doc, indent=2, sort_keys=True) + "\n"]


def _write_files(files: dict) -> None:
    """Write each path's lines to the opened file, or to stdout for "-".  On
    an OSError the files already opened are removed, so a failed command
    leaves no partial result."""
    written = []
    try:
        for path, lines in files.items():
            if path == "-":
                sys.stdout.writelines(lines)
                continue
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.writelines(lines)
    except OSError as exc:
        for done in written:
            Path(done).unlink(missing_ok=True)
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from exc


# -- subcommands --------------------------------------------------------------

def cmd_coeffs(pf: ProblemFile, out: Optional[str]) -> int:
    ds = build_discrete_system(pf.spec)

    # alpha_n is blank where it has left double range, as q_n is where it
    # is undefined
    def lines():
        for n in range(ds.n0, ds.horizon):
            a, b, alpha = ds.a(n), ds.b(n), ds.alpha(n)
            alpha = f"{alpha:.10g}" if in_range(alpha) else ""
            q = f"{ds.q(n):.10g}" if n in ds.q_indices() else ""
            yield f"{n},{a:.10g},{b:.10g},{alpha},{q}\n"
    _write_files({out or "-": _csv(["n", "a_n", "b_n", "alpha_n", "q_n"], lines())})
    return EXIT_OK


def _record_dict(r) -> dict:
    """A named tuple as a JSON object; its enum fields become their values."""
    return {key: value.value if isinstance(value, Enum) else value
            for key, value in r._asdict().items()}


def cmd_analyze(pf: ProblemFile, out: Optional[str]) -> int:
    from . import criteria as crit

    ds = build_discrete_system(pf.spec, crit.first_read(pf.spec, pf.tail_fraction))
    reports = crit.evaluate_all(ds, pf.tail_fraction)
    doc = {
        "direction": pf.spec.direction.value,
        "k": pf.spec.k,
        "tail_fraction": pf.tail_fraction,
        "criteria": [_record_dict(r) for r in reports],
        "overall_verdict": crit.synthesize_verdict(reports),
    }
    _write_files({out or "-": _json(doc)})
    return EXIT_OK


def _simulation(pf: ProblemFile, samples: int):
    """(ds, sol, traj, discrete, continuous): the reduction, the window continuation,
    its reconstruction and both verdicts, which simulate writes and check audits."""
    from . import diffeq, trajectory

    ds = build_discrete_system(pf.spec)
    sol = diffeq.continue_window(ds, pf.spec.initial_window)
    traj = trajectory.reconstruct(pf.spec, ds, sol, samples)
    discrete = diffeq.discrete_oscillation_check(sol, pf.tail_fraction)
    continuous = trajectory.continuous_oscillation_check(traj, discrete.tail_window[0])
    return ds, sol, traj, discrete, continuous


def cmd_simulate(pf: ProblemFile, prefix: str, samples: int) -> int:
    _, sol, traj, discrete, continuous = _simulation(pf, samples)
    doc = {
        "discrete": _record_dict(discrete),
        "continuous": _record_dict(continuous),
        "solution_truncated_at": sol.truncated_at,
    }
    _write_files({
        f"{prefix}.trajectory.csv": _csv(["t", "z"], traj.rows()),
        f"{prefix}.nodes.csv": _csv(
            ["n", "z_left", "z_right", "jump_factor"],
            (f"{rec.n},{rec.z_left:.10g},{rec.z_right:.10g},{rec.jump_factor:.10g}\n"
             for rec in traj.nodes)),
        f"{prefix}.verdicts.json": _json(doc),
    })
    return EXIT_OK


def cmd_check(pf: ProblemFile, samples: int) -> int:
    from .invariants import check_instance

    # every invariant runs before the first line is printed, so a numeric
    # failure (exit 3) leaves stdout empty rather than a partial report
    results = list(check_instance(*_simulation(pf, samples)))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_INVARIANT


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="idepca",
        description="Oscillation analysis of linear impulsive systems with\n"
                    "piecewise constant deviating arguments.",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(COMMANDS), help="\n".join(
        f"{name:<9} {text}" for name, text in COMMANDS.items()))
    parser.add_argument("problem", help="path to a JSON problem file")
    for flag, (kind, default, text) in FLAGS.items():
        parser.add_argument(flag, type=kind, default=default, help=text)
    return parser


def read_strict(argv: list) -> Optional[SimpleNamespace]:
    """What build_parser().parse_args(argv) returns, for an argv in the
    strict form: the command, the problem, then flags of FLAGS, each at most
    once and each a separate pair whose value does not start with "-" and
    converts by the flag's type.  None for any other argv (help,
    abbreviations, --flag=value, negative numbers, flags before the
    problem, every error), which argparse reads instead."""
    flags, values = argv[2::2], argv[3::2]
    if (len(argv) < 2 or len(flags) != len(values) or argv[0] not in COMMANDS
            or argv[1].startswith("-") or len(set(flags)) != len(flags)):
        return None
    args = SimpleNamespace(command=argv[0], problem=argv[1],
                           **{flag[2:]: default for flag, (_, default, _) in FLAGS.items()})
    for flag, value in zip(flags, values):
        if flag not in FLAGS or value.startswith("-"):
            return None
        try:
            setattr(args, flag[2:], FLAGS[flag][0](value))
        except ValueError:
            return None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_strict(argv) or build_parser().parse_args(argv)
    flags = {"tail_fraction": args.tail, "horizon": args.horizon}
    try:
        pf = load_problem(args.problem, {k: v for k, v in flags.items() if v is not None})
        if args.samples < 1:
            raise SchemaError("samples must be a positive integer")

        if args.command == "coeffs":
            return cmd_coeffs(pf, args.out)
        if args.command == "analyze":
            return cmd_analyze(pf, args.out)
        if args.command == "simulate":
            return cmd_simulate(pf, args.out or Path(args.problem).stem, args.samples)
        return cmd_check(pf, args.samples)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
