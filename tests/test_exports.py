"""Every exported name resolves, so removals cannot leave dangling exports."""

import ast
import importlib
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


def test_package_reexports_resolve():
    tree = ast.parse(Path(idepca.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"idepca.{node.module}")
        for alias in node.names:
            assert getattr(idepca, alias.asname or alias.name) is getattr(source, alias.name)
