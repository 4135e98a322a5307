"""Every exported name resolves, so removals cannot leave dangling exports,
and is used by the package itself or by the benchmark's tracer, so src/
keeps no helper that only tests use.

The benchmark's tracer (perfbench/tracer.py) reaches the layer functions by
module and name, and a name it cannot find only blanks that layer's metrics;
so its targets are checked here too.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import idepca

MODULES = sorted(info.name for info in pkgutil.iter_modules(idepca.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"idepca.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def load_tracer():
    """perfbench/tracer.py as a module, without installing its wrappers."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    targets = [*tracer.SPANNED, tracer.COUNTED]
    missing = [f"{mod}.{fn}" for mod, fn in targets
               if not callable(getattr(importlib.import_module(f"idepca.{mod}"), fn, None))]
    assert missing == []


def test_every_export_is_used_by_the_package_or_the_tracer():
    # a name is used when package code reads it, bare or as an attribute;
    # its definition and its __all__ entry do not count
    used = set()
    for path in Path(idepca.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    tracer = load_tracer()
    targets = {f"{mod}.{fn}" for mod, fn in [*tracer.SPANNED, tracer.COUNTED]}
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(f"idepca.{name}").__all__
              if attr not in used and f"{name}.{attr}" not in targets]
    assert unused == []


def test_tracer_counts_the_integrand_calls():
    tracer = load_tracer()
    mod, fn = tracer.COUNTED
    calls = []

    def integrand(s):
        calls.append(s)
        return s * s

    t = tracer.Tracer()
    t.counter(getattr(importlib.import_module(f"idepca.{mod}"), fn))(integrand, 0.0, 1.0, 1e-10)
    assert t.outside[tracer.CALLS:tracer.EVALS + 1] == [1, len(calls)]


def test_tracer_reconstruct_size_counts_samples():
    # trajectory.reconstruct.size is samples per interval times intervals,
    # whatever form the trajectory stores its samples in
    from idepca.cli import load_problem
    from idepca.diffeq import continue_window
    from idepca.reduction import build_discrete_system
    from idepca.trajectory import reconstruct

    size = load_tracer().SPANNED[("trajectory", "reconstruct")]
    pf = load_problem(Path(__file__).resolve().parent.parent / "problems" / "example1.json")
    ds = build_discrete_system(pf.spec)
    traj = reconstruct(pf.spec, ds, continue_window(ds, pf.spec.initial_window), 4)
    assert size(traj) == 4 * len(traj.nodes) == 4 * 60
