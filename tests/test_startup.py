"""Start-up pays only for what a command runs.

Most of an ``idepca`` process is interpreter start-up and imports, so the
package keeps ``dataclasses`` (and the inspect, ast, dis and tokenize it
pulls in) off its import path, ``import idepca`` re-exports nothing and so
loads no submodule, and ``cli`` imports the modules a command runs inside
that command.  No command loads ``csv``: rows are written as formatted lines.
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
LOADED = {
    "coeffs": READ,
    "analyze": READ | {"diffeq", "criteria"},
    "simulate": READ | {"diffeq", "trajectory"},
    "check": READ | {"diffeq", "trajectory"},
}

# prints the modules loaded, as a JSON list on the last line
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def submodules(loaded: set) -> set:
    return {name.partition(".")[2] for name in loaded if name.startswith("idepca.")}


def loaded_after(body: str, cwd: Path) -> set:
    # the child imports this same package, whatever its working directory
    path = [str(Path(idepca.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    res = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                         capture_output=True, text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def test_no_module_imports_dataclasses():
    sources = sorted(Path(idepca.__file__).parent.glob("*.py"))
    importing = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importing.add(path.name)
    assert sources and importing == set()


def test_import_alone_loads_no_submodule(tmp_path):
    assert submodules(loaded_after("import idepca", tmp_path)) == set()


@pytest.mark.parametrize("command", sorted(LOADED))
def test_command_loads_only_what_it_runs(tmp_path, command):
    body = (f"from idepca import cli\n"
            f"assert cli.main([{command!r}, {str(EXAMPLE1)!r}, '--out', 'out']) == 0")
    loaded = loaded_after(body, tmp_path)
    assert submodules(loaded) == LOADED[command]
    assert "csv" not in loaded
