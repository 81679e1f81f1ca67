"""Reports are byte-identical or the schema version says why not: every
argument vector in golden/reports.json reruns through `cli.main` in process
with the stdout and stderr digests and exit code recorded for it.  Every
entry must carry the current SCHEMA_VERSION, so a bump fails until
`golden/update.py` records the file anew; it never skips a comparison."""

import json
import shlex

import pytest
from golden.update import REPORTS, argument_vectors, run, versions

import ejm.optimize
from ejm.cli import SCHEMA_VERSION

GOLDEN = json.loads(REPORTS.read_text())


def test_golden_file_holds_every_argument_vector():
    assert [entry["argv"] for entry in GOLDEN["reports"]] == argument_vectors()


@pytest.mark.parametrize("entry", GOLDEN["reports"], ids=lambda entry: shlex.join(entry["argv"]) or "(none)")
def test_report_matches_its_digests(entry):
    assert entry["schema_version"] == SCHEMA_VERSION, "rerun tests/golden/update.py"
    got = run(entry["argv"])
    recorded = {key: entry[key] for key in got}
    assert got == recorded, (
        f"`ejm {shlex.join(entry['argv'])}` changed: recorded with python {GOLDEN['python']}"
        f" and numpy {GOLDEN['numpy']}, run with python {versions()['python']} and numpy {versions()['numpy']}"
    )


def test_golden_optimize_vectors_reach_the_refinement(monkeypatch):
    # A run whose budget ends inside the grid never calls minimize; the
    # digests must pin the refinement too.
    calls = []
    original = ejm.optimize.minimize

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ejm.optimize, "minimize", counting)
    for argv in argument_vectors():
        if argv[:1] == ["optimize"]:
            run(argv)
    assert calls
