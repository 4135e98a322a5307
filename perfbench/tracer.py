"""Run the idepca CLI in this process with spans at its layer boundaries.

    python3 perfbench/tracer.py SPANS.json -- <idepca arguments>

behaves like ``python3 -m idepca.cli <idepca arguments>`` (same outputs,
same exit code) and writes the spans to SPANS.json when the CLI returns.

Each public function below is replaced, under every module attribute that
refers to it, by a wrapper that records a span: name, start, end, parent
span and, for a few, a size taken from the result.  ``quad.integrate`` is
called millions of times on stiff problems, so it records no spans: each
call adds one call and its ``QuadResult.evaluations`` to the counters of
the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, function): optional size extracted from the result
SPANNED = {
    ("cli", "load_problem"): None,
    ("cli", "cmd_coeffs"): None,
    ("cli", "cmd_analyze"): None,
    ("cli", "cmd_simulate"): None,
    ("cli", "cmd_check"): None,
    ("exprlang", "parse"): None,
    ("exprlang", "compile_expr"): None,
    ("reduction", "build_discrete_system"): lambda ds: len(ds.a_seq),
    ("reduction", "compute_an"): None,
    ("reduction", "compute_bn"): None,
    ("reduction", "compute_qn_direct"): None,
    ("diffeq", "solve"): None,
    ("diffeq", "discrete_oscillation_check"): None,
    ("criteria", "evaluate_all"): None,
    ("trajectory", "reconstruct"): lambda traj: len(traj.samples),
    ("trajectory", "continuous_oscillation_check"): None,
}
COUNTED = ("quad", "integrate")

# span record fields
NAME, START, END, PARENT, CALLS, EVALS, SIZE = range(7)


class Tracer:
    """Spans in a flat list; children always follow their parent."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.outside = ["(none)", 0.0, 0.0, -1, 0, 0, None]

    def span(self, name, fn, size=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn):
        spans, stack, outside = self.spans, self.stack, self.outside

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = spans[stack[-1]] if stack else outside
            rec[CALLS] += 1
            rec[EVALS] += result.evaluations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, op, missing, exit_code):
        doc = {"op": op, "exit": exit_code, "missing": missing,
               "outside": self.outside[CALLS:EVALS + 1], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(orig, replacement, modules):
    """Point every module attribute that holds orig at replacement."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap the layer functions; returns the (module, function) pairs absent."""
    importlib.import_module("idepca")
    for mod in {mod for mod, _ in SPANNED} | {COUNTED[0]}:
        try:
            importlib.import_module(f"idepca.{mod}")
        except ImportError:
            pass
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "idepca" or name.startswith("idepca.")]
    missing = []
    for (mod, fn_name), size in SPANNED.items():
        orig = getattr(sys.modules.get(f"idepca.{mod}"), fn_name, None)
        if orig is None:
            missing.append(f"{mod}.{fn_name}")
            continue
        _rebind(orig, tracer.span(f"{mod}.{fn_name}", orig, size), modules)
    mod, fn_name = COUNTED
    orig = getattr(sys.modules.get(f"idepca.{mod}"), fn_name, None)
    if orig is None:
        missing.append(f"{mod}.{fn_name}")
    else:
        _rebind(orig, tracer.counter(orig), modules)
    return missing


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <idepca arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    cli = importlib.import_module("idepca.cli")
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path, cli_args, missing, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
