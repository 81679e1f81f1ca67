"""Reports are byte-identical or the schema version says why not: every
argument vector in golden/reports.json reruns through `cli.main` in process
with the stdout and stderr digests and exit code recorded for it.  Every
entry must carry the current SCHEMA_VERSION, so a bump fails until
`golden/update.py` records the file anew; it never skips a comparison.
`update.py` itself refuses to re-record a report that changed while the
schema version stayed."""

import copy
import json
import shlex

import pytest
from golden.update import REPORTS, argument_vectors, changed_reports, run, sha256, versions

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


def tampered(recorded: dict) -> dict:
    """A copy of the recorded file with the first report's stdout changed and one new vector appended."""
    current = copy.deepcopy(recorded)
    current["reports"][0]["stdout"] = sha256("tampered")
    current["reports"].append({**current["reports"][0], "argv": ["new"]})
    return current


def test_update_refuses_a_changed_report():
    assert changed_reports(GOLDEN, copy.deepcopy(GOLDEN)) == []
    assert changed_reports(GOLDEN, tampered(GOLDEN)) == [GOLDEN["reports"][0]["argv"]]


def test_update_rerecords_after_a_schema_bump():
    recorded = copy.deepcopy(GOLDEN)
    for entry in recorded["reports"]:
        entry["schema_version"] = SCHEMA_VERSION - 1
    assert changed_reports(recorded, tampered(GOLDEN)) == []


def test_update_rerecords_under_another_numpy():
    assert changed_reports({**GOLDEN, "numpy": "1.26.4"}, tampered(GOLDEN)) == []
