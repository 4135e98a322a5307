"""The package runs on the standard library alone: numpy, scipy and mpmath
may serve the tests and the benchmark as references, never idepca itself."""

import ast
import sys
from pathlib import Path

import idepca


def imported_top_levels(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_only_stdlib():
    sources = sorted(Path(idepca.__file__).parent.glob("*.py"))
    foreign = {(path.name, name) for path in sources for name in imported_top_levels(path)
               if name != "idepca" and name not in sys.stdlib_module_names}
    assert sources and foreign == set()
