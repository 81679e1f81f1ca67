"""The import graph: scipy and numpy.ma never load, not even when the
optimizer runs, checked in fresh interpreters so that no other test's imports leak in; every top-level
import of a module is read by it; every private module-level name of
the package is read somewhere in it; and the test oracles read no private name of it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ejm.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Library modules (the package __init__ imports only to export), test modules and
# the scripts beside them: every Python file that runs outside bench/.
LINTED = sorted(p for p in (SRC / "ejm").glob("*.py") if p.name != "__init__.py") + sorted(
    [*(ROOT / "tests").glob("*.py"), ROOT / "tests" / "golden" / "update.py", *(ROOT / "tools").glob("*.py")]
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ejm from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    return result


def loaded_after(code: str) -> dict[str, bool]:
    """Whether scipy and numpy.ma are in sys.modules after code runs in a fresh interpreter."""
    probe = f"import json, sys\n{code}\nprint(json.dumps({{m: m in sys.modules for m in ('scipy', 'numpy.ma')}}))"
    return json.loads(run_python("-c", probe).stdout.splitlines()[-1])


def test_import_ejm_leaves_scipy_unloaded():
    assert loaded_after("import ejm") == {"scipy": False, "numpy.ma": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["network"],
        ["verify", "--n", "3"],
        ["reduce", "--n", "3"],
        ["reduce", "--n", "8"],
        ["tangle", "--n", "3"],
        ["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", "20"],
    ],
    ids=["network", "verify", "reduce", "reduce-n8", "tangle", "sweep"],
)
def test_non_optimize_commands_leave_scipy_unloaded(argv):
    # numpy.ma comes in with np.unique, among others; no report needs it.
    code = f"import contextlib, io\nfrom ejm.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
    assert loaded_after(code) == {"scipy": False, "numpy.ma": False}


def test_optimizer_leaves_scipy_unloaded():
    # The compass search is the package's own: maximize and `ejm optimize` load neither.
    code = (
        "import contextlib, io\nfrom ejm import maximize\nfrom ejm.cli import main\n"
        "assert maximize({'z': (0.9, 1.0)}, budget=2000).S > 2.0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    assert main(['optimize']) == 0"
    )
    assert loaded_after(code) == {"scipy": False, "numpy.ma": False}


def test_module_entry_point_matches_in_process_report(capsys):
    assert main(["network"]) == 0
    in_process = capsys.readouterr().out.encode("utf-8")
    assert run_python("-m", "ejm", "network").stdout == in_process


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os.path, json as j\nfrom math import pi, tau\nprint(os, tau)\n"
    assert unread_imports(source) == ["j", "pi"]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names with one leading underscore that the sources define
    (by def, class or assignment) but never read, by name or as an attribute."""
    defined, read = [], set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if is_private(name) and name not in read]


def test_unread_private_names_are_found():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n", "import m\nm._C\n"]
    assert unread_private_names(sources) == ["_B", "_f"]


def test_every_private_name_is_read():
    assert unread_private_names([path.read_text() for path in sorted((SRC / "ejm").glob("*.py"))]) == []


def private_reads(source: str, package: str = "ejm") -> list[str]:
    """Names with one leading underscore that the source imports from the
    package, or reads as an attribute of any object (a module of the package
    among them)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == package:
            found += [alias.name for alias in node.names if is_private(alias.name)]
        elif isinstance(node, ast.Attribute) and is_private(node.attr):
            found.append(node.attr)
    return found


def test_private_reads_are_found():
    source = (
        "import ejm.bases\nfrom ejm import bases as b, _x\nfrom os import _exit\n"
        "ejm.bases._qubit_pair, b._vertices, b.EjmParams.__init__, ejm.bases.DOMAIN, _exit\n"
    )
    assert private_reads(source) == ["_x", "_qubit_pair", "_vertices"]


def test_oracles_read_no_private_name_of_the_package():
    # An oracle that read the builders' private tables would move with them.
    assert private_reads((ROOT / "tests" / "oracles.py").read_text()) == []
