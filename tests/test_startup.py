"""Start-up pays only for what a command runs.

Most of an ``idepca`` process is interpreter start-up and imports, so the
package keeps ``dataclasses`` (and the inspect, ast, dis and tokenize it
pulls in) off its import path, ``import idepca`` re-exports nothing and so
loads no submodule, and ``cli`` imports the modules a command runs inside
that command; no package module imports ``cli``.  A well-formed command
line is read without argparse (and the gettext and locale it loads), which
only ``-h`` and command lines outside the strict form import.  No command
loads ``csv``: rows are written as formatted lines.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idepca

REPO = Path(__file__).resolve().parent.parent
EXAMPLE1 = REPO / "problems" / "example1.json"

READ = {"cli", "exprlang", "quad", "reduction"}   # every command reads a problem file
LOADED = {   # in the order that idepca -h lists the commands
    "coeffs": READ,
    "analyze": READ | {"criteria"},
    "simulate": READ | {"diffeq", "trajectory"},
    "check": READ | {"diffeq", "trajectory", "invariants"},
}
ARGPARSE = {"argparse", "gettext", "locale"}

# prints the modules loaded, as a JSON list on the last line
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def submodules(loaded: set) -> set:
    return {name.partition(".")[2] for name in loaded if name.startswith("idepca.")}


def run_python(args: list, cwd: Path):
    # the child imports this same package, whatever its working directory
    path = [str(Path(idepca.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


def loaded_after(body: str, cwd: Path) -> set:
    res = run_python(["-c", PROBE.format(body=body)], cwd)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def importers(module: str) -> set:
    """The package's source files that import module, by absolute name;
    a relative import is resolved against the package."""
    sources = sorted(Path(idepca.__file__).parent.glob("*.py"))
    assert sources
    importing = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["idepca" if node.level else "", node.module]))
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if module in names:
                importing.add(path.name)
    return importing


def test_no_module_imports_dataclasses():
    assert importers("dataclasses") == set()


def test_no_module_imports_cli():
    # under python -m idepca.cli, a module that imported cli would compile
    # it a second time, as idepca.cli beside __main__
    assert importers("idepca.cli") == set()


def test_import_alone_loads_no_submodule(tmp_path):
    assert submodules(loaded_after("import idepca", tmp_path)) == set()


@pytest.mark.parametrize("command", sorted(LOADED))
def test_command_loads_only_what_it_runs(tmp_path, command):
    body = (f"from idepca import cli\n"
            f"assert cli.main([{command!r}, {str(EXAMPLE1)!r}, '--out', 'out']) == 0")
    loaded = loaded_after(body, tmp_path)
    assert submodules(loaded) == LOADED[command]
    assert "csv" not in loaded
    assert ARGPARSE & loaded == set()


def test_help_lists_the_commands(tmp_path):
    # -h is read by argparse, which the strict reader never imports
    res = run_python(["-m", "idepca.cli", "-h"], tmp_path)
    assert res.returncode == 0
    listed = [line.split()[0] for line in res.stdout.splitlines() if line.startswith(" " * 24)]
    assert listed == list(LOADED)
