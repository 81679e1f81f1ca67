"""The import graph: scipy loads only when the optimizer refines, checked in
fresh interpreters so that no other test's imports leak in."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ejm.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ejm from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    return result


def loaded_after(code: str) -> bool:
    """Whether scipy is in sys.modules after code runs in a fresh interpreter."""
    probe = f"import json, sys\n{code}\nprint(json.dumps('scipy' in sys.modules))"
    return json.loads(run_python("-c", probe).stdout.splitlines()[-1])


def test_import_ejm_leaves_scipy_unloaded():
    assert loaded_after("import ejm") is False


@pytest.mark.parametrize(
    "argv",
    [
        ["network"],
        ["verify", "--n", "3"],
        ["reduce", "--n", "3"],
        ["tangle", "--n", "3"],
        ["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", "20"],
    ],
    ids=["network", "verify", "reduce", "tangle", "sweep"],
)
def test_non_optimize_commands_leave_scipy_unloaded(argv):
    code = f"import contextlib, io\nfrom ejm.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
    assert loaded_after(code) is False


def test_maximize_loads_scipy_and_keeps_its_optimum():
    # The optimum the eager-import code found on this box, to the last bit.
    code = (
        "import math\nfrom ejm import maximize\n"
        "r = maximize({'z': (0.9, 1.0), 'phi': (0.0, 0.4), 'theta': (math.pi / 2, math.pi / 2),"
        " 'gamma': (math.pi / 4, math.pi / 4)}, budget=2000)\n"
        "assert (r.S, r.params.z, r.params.phi, len(r.trace), r.warning) == "
        "(2.2968108411748562, 1.0, 0.178702781778293, 459, False), r\n"
        f"assert (r.params.theta, r.params.gamma) == ({math.pi / 2!r}, {math.pi / 4!r})"
    )
    assert loaded_after(code) is True


def test_module_entry_point_matches_in_process_report(capsys):
    assert main(["network"]) == 0
    in_process = capsys.readouterr().out.encode("utf-8")
    assert run_python("-m", "ejm", "network").stdout == in_process
