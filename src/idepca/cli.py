"""Command line interface: problem-file ingestion and machine-readable output.

One parser reads ``idepca <command> <problem> [flags]`` for the four
commands that ``idepca -h`` lists.  simulate and check share one run, so
check audits what simulate writes.

Exit codes: 0 success, 1 invariant failure, 2 input/schema error,
3 numeric failure.

Every command loads exprlang, quad and reduction to read its problem file;
the modules that only some commands run (diffeq, criteria, trajectory) are
imported inside the functions that use them.  CSV rows are formatted lines
(every number at 10 significant digits, ``.10g``) streamed to the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from enum import Enum
from pathlib import Path
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

    ds = build_discrete_system(pf.spec)
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


def _invariant(name: str, bound: float, what: str, residuals):
    """(name, ok, detail) of "every residual r of the pairs (n, r) is finite
    and at most bound"; the detail names the first n whose r is not finite."""
    worst = 0.0
    for n, r in residuals:
        if not math.isfinite(r):
            return name, False, f"{what} at index {n} is {r!r}"
        worst = max(worst, r)
    return name, worst <= bound, f"max {what} {worst:.3e}"


def _span(ds, n: int, x: float, power: int) -> float:
    """x * span_n ** power (power 1 or -1), span_n = alpha_dev(n) / alpha_{n+1}
    spelled from a_n alone: a_{n-k} ... a_n delayed, 1 / (a_{n+1} ... a_{n+k-1})
    advanced.  The factors are applied to x one at a time, since span_n can
    leave double range where x and the result do not (jump factor 1e-200, k = 1)."""
    delayed = ds.direction is Direction.DELAYED
    for j in range(n - ds.k, n + 1) if delayed else range(n + 1, n + ds.k):
        x = x * ds.a(j) if (power > 0) == delayed else x / ds.a(j)
    return x


def _q_audit(ds):
    """(name, ok, detail) of "every Q_n agrees with its product spelling
    b_n / span_n from a_n and b_n".  Agreement is relative, to 1e-8, and a
    value that is not finite never agrees; the detail names the first n
    that fails."""
    for n, q in zip(ds.q_indices(), ds.q_seq):
        product = _span(ds, n, ds.b(n), -1)
        if not (math.isfinite(q) and math.isfinite(product)
                and abs(q - product) <= 1e-8 * max(abs(q), abs(product))):
            return ("dual_route_q_audit", False,
                    f"Q_{n} mismatch: direct {q!r} vs product {product!r}")
    return "dual_route_q_audit", True, f"{len(ds.q_seq)} indices compared"


def _check_instance(pf: ProblemFile, samples: int):
    """Every per-instance invariant of simulate's run, as (name, ok, detail)."""
    from .diffeq import Verdict

    ds, sol, traj, discrete, continuous = _simulation(pf, samples)
    yield _q_audit(ds)

    # every residual is relative to the terms of its own interval n
    def relative(gap, *sizes):
        return abs(gap) / max(1e-300, *map(abs, sizes))

    # alpha is read nowhere else, so only the alpha_{n+1} that coeffs
    # writes is measured
    yield _invariant("alpha_telescoping", 1e-12, "deviation", (
        (n, relative(ds.alpha(n + 1) * ds.a(n) - ds.alpha(n), ds.alpha(n)))
        for n in range(ds.n0, ds.horizon) if in_range(ds.alpha(n + 1))))

    z = sol.value
    terms = {n: (ds.a(n) * z(n), ds.b(n) * z(ds.dev(n))) for n in sol.relation_indices()}
    yield _invariant("recursion_residual", 1e-9, "relative residual", (
        (n, relative(z(n + 1) - (az + bz), z(n + 1), abs(az) + abs(bz)))
        for n, (az, bz) in terms.items()))

    # y_{n+1} - y_n - Q_n y_dev(n), y_n = alpha_n z_n, divided by alpha_{n+1},
    # so it is measured wherever z and Q_n are finite, whatever alpha does
    qz = {n: _span(ds, n, ds.q(n), 1) * z(ds.dev(n)) for n in terms if n in ds.q_indices()}
    yield _invariant("reduced_form_residual", 1e-8, "relative residual", (
        (n, relative(z(n + 1) - terms[n][0] - q, z(n + 1), abs(terms[n][0]) + abs(q)))
        for n, q in qz.items()))

    # the terms of interval n also keep a window 0 from being measured
    # against a rounding residue in z_left
    yield _invariant("node_consistency", 1e-7, "relative gap", (
        (rec.n, relative(rec.jump_factor * rec.z_left - rec.z_right,
                         rec.z_right, rec.z_left, sum(map(abs, terms[rec.n - 1]))))
        for rec in traj.nodes if math.isfinite(rec.z_right)))

    if discrete.verdict is Verdict.OSCILLATORY:
        ok = continuous.verdict is Verdict.OSCILLATORY
        yield ("discrete_to_continuous_transfer", ok,
               f"discrete {discrete.verdict.value}, continuous {continuous.verdict.value}")


def cmd_check(pf: ProblemFile, samples: int) -> int:
    # every invariant runs before the first line is printed, so a numeric
    # failure (exit 3) leaves stdout empty rather than a partial report
    results = list(_check_instance(pf, samples))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    commands = {
        "coeffs": "write the coefficient table as CSV",
        "analyze": "evaluate oscillation criteria and write a JSON report",
        "simulate": "solve and reconstruct the trajectory",
        "check": "run all per-instance consistency invariants",
    }
    parser = argparse.ArgumentParser(
        prog="idepca",
        description="Oscillation analysis of linear impulsive systems with\n"
                    "piecewise constant deviating arguments.",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(commands), help="\n".join(
        f"{name:<9} {text}" for name, text in commands.items()))
    parser.add_argument("problem", help="path to a JSON problem file")
    parser.add_argument("--out", help="output path (coeffs/analyze) or prefix (simulate)")
    parser.add_argument("--tail", type=float, help="override tail fraction")
    parser.add_argument("--samples", type=int, default=32,
                        help="trajectory samples per unit interval")
    parser.add_argument("--horizon", type=int, help="override the index horizon")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
