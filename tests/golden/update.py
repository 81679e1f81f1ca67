"""Record the golden report digests in reports.json next to this file.

Each entry is an argument vector of `ejm`, run through `cli.main` in this
process, with the SHA-256 of its stdout and stderr, its exit code and the
SCHEMA_VERSION it was recorded at.  tests/test_golden.py fails on every
entry whose version is not the current one, so rerun after a schema bump,
from the repository root:

    PYTHONPATH=src python tests/golden/update.py

It refuses to write, and exits non-zero, when a report recorded at the
current SCHEMA_VERSION changed under the recorded Python and numpy versions:
such a change needs a schema bump.  New argument vectors are appended.
The file also names the OpenBLAS kernel (blas_core) the digests were taken
on: a few reports' last bits depend on it, through ejm.qla.dot, so a report
that changed under another kernel is a defect, not a reason to re-record.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import shlex
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from ejm.cli import SCHEMA_VERSION, main

REPORTS = Path(__file__).resolve().parent / "reports.json"
# argparse wraps usage and help text at the terminal width; fix it.
COLUMNS = "80"

PI = math.pi
HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
INV_SQRT3 = 1 / math.sqrt(3)
# Distances from the degenerate sets at which the clustering's tolerance edges lie.
OFFSETS = (1e-12, 1e-11, 1e-10, 1e-9)
# gamma = pi/6 and the theta that gives both reduction radii the same length.
EQUAL_GAMMA = PI / 6
EQUAL_THETA = math.acos(math.cos(2 * EQUAL_GAMMA) / (0.5 * math.sqrt(1 + 2 * math.cos(2 * EQUAL_GAMMA) ** 2)))


def point(z: float, phi: float, theta: float, gamma: float) -> list[str]:
    """Parameter flags that carry each float exactly, in the --flag=value form."""
    return [f"--z={z!r}", f"--phi={phi!r}", f"--theta={theta!r}", f"--gamma={gamma!r}"]


RANDOM = point(0.8, 0.3, 1.0, 0.5)
NEGATIVE = point(-0.7312, -2.41, 0.377, 1.22)


def argument_vectors() -> list[list[str]]:
    rng = np.random.default_rng(2503_08993)
    drawn = [
        point(float(sign * rng.uniform(INV_SQRT3, 1)), *(float(rng.uniform(lo, hi)) for lo, hi in
                                                         ((-PI, PI), (0, HALF_PI), (0, HALF_PI))))
        for sign in (1, -1, 1, -1)
    ]
    boundary = [
        point(INV_SQRT3, 0.3, 1.0, 0.5),
        point(-INV_SQRT3, 0.3, 1.0, 0.5),
        point(-1.0, PI, 0.0, 0.0),
        point(1.0, -PI, HALF_PI, HALF_PI),
    ]
    in_slack = [
        point(1 + 5e-15, 0.3, HALF_PI + 5e-15, -5e-15),
        point(-(INV_SQRT3 - 5e-15), PI + 5e-15, -5e-15, HALF_PI + 5e-15),
    ]
    near_degenerate = (
        [point(0.9, 0.5, HALF_PI - d, 0.4) for d in (0.0, *OFFSETS)]
        + [point(0.9, 0.5, 1.0, QUARTER_PI + d) for d in (0.0, *OFFSETS, *(-d for d in OFFSETS))]
        + [point(z, 0.5, 1.0, 0.4) for z in (1.0, -1.0, *(1 - d for d in OFFSETS), -1 + 1e-10)]
        + [point(0.9, 0.5, EQUAL_THETA + d, EQUAL_GAMMA) for d in (0.0, 1e-9, -1e-9)]
        + [point(0.9, 0.5, 0.0, PI / 8)]
    )
    vectors = []
    for n in range(2, 9):
        vectors += [["verify", "--n", str(n), *RANDOM], ["reduce", "--n", str(n), *NEGATIVE],
                    ["basis", "--n", str(n), *RANDOM]]
    vectors += [["verify", "--n", "1"], ["reduce", "--n", "9"], ["basis", "--n", "0"]]
    vectors += [["tangle", "--n", "2", *RANDOM], ["tangle", "--n", "3", *NEGATIVE], ["tangle", "--n", "4"]]
    vectors += [
        ["network"],
        ["network", "--method", "brute_force", *RANDOM],
        ["network", "--cross-check", *NEGATIVE],
        ["network", "--method", "brute_force", "--cross-check"],
    ]
    vectors += [
        ["sweep", "--vary", "phi", "--lo", "-3", "--hi", "3", "--points", "25"],
        ["sweep", "--vary", "theta", "--lo", "0", "--hi", "1.5", "--points", "17", "--format", "csv", *RANDOM],
        ["sweep", "--vary", "z", "--lo", "-1", "--hi", "-0.6", "--points", "9", *NEGATIVE],
        ["sweep", "--deg", "--vary", "phi", "--lo", "-90", "--hi", "90", "--points", "7", "--format", "csv"],
    ]
    vectors += [
        ["optimize", "--budget", "100"],
        ["optimize", "--budget", "500", "--z-min", "0.9", "--z-max", "1"],
        ["optimize", "--budget", "2000", "--z-min", "0.9", "--z-max", "1", "--phi-min", "0", "--phi-max", "0.4",
         "--theta-min", repr(HALF_PI), "--theta-max", repr(HALF_PI),
         "--gamma-min", repr(QUARTER_PI), "--gamma-max", repr(QUARTER_PI)],
        ["optimize", "--budget", "300", "--z-min", "-1", "--z-max", "-0.9", "--gamma-min", "0.7", "--gamma-max", "0.8"],
        ["optimize", "--deg", "--budget", "200", "--phi-min", "0", "--phi-max", "30", "--theta-min", "80"],
    ]
    vectors += [
        ["network", "--deg", "--phi", "10.2", "--theta", "90", "--gamma", "45"],
        ["reduce", "--deg", "--n", "3", "--phi", "-120", "--theta", "30", "--gamma", "20"],
    ]
    vectors += [
        ["verify", "--tol", "1e-300"],
        ["verify", "--n", "8", "--tol", "1e-300", *NEGATIVE],
        ["verify", "--tol", "0"],
        ["network", "--z", "0.5"],
        ["network", "--z", "1.1"],
        ["reduce", "--theta", "2"],
        ["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", "1"],
        ["optimize", "--budget", "99"],
        ["optimize", "--z-min", "2"],
        ["network", "--z", "nan"],
        ["frobnicate"],
        [],
    ]
    for p in boundary + in_slack + drawn:
        vectors += [["network", *p], ["reduce", "--n", "3", *p]]
    vectors += [["verify", "--n", "8", *p] for p in in_slack]
    vectors += [["reduce", "--n", "3", *p] for p in near_degenerate]
    vectors += [
        ["reduce", "--n", "2", *point(0.9, 0.5, HALF_PI, 0.4)],
        ["reduce", "--n", "4", *point(0.9, 0.5, 1.0, QUARTER_PI + 1e-10)],
        ["reduce", "--n", "5", *point(-1.0, 0.5, 1.0, 0.4)],
        ["reduce", "--n", "5", *point(1 - 1e-10, 0.5, 1.0, 0.4)],
        ["reduce", "--n", "3", *point(-0.9, 0.5, HALF_PI - 1e-10, 0.4)],
        ["reduce", "--n", "3", *point(-0.9, 0.5, 1.0, QUARTER_PI - 1e-10)],
    ]
    # Negative values in exponent form after a space, which argparse's own pattern reads as flags.
    vectors += [
        ["network", "--z", "-9e-1", "--gamma", "-5e-15"],
        ["reduce", "--n", "3", "--phi", "-1e-1", "--theta", "-5e-15"],
        ["verify", "--tol", "-1e-9"],
        ["sweep", "--vary", "gamma", "--lo", "-5e-15", "--hi", "5e-1", "--points", "5"],
        ["optimize", "--budget", "100", "--z-min", "-1e0", "--z-max", "-9e-1", "--phi-min", "-1e-1", "--phi-max", "1e-1"],
        ["network", "--z", "-inf"],
    ]
    # Long sweeps, every varying name, ranges on the domain bounds and inside their slack.
    vectors += [
        ["sweep", "--vary", "phi", f"--lo={-PI!r}", f"--hi={PI!r}", "--points", "20000"],
        ["sweep", "--vary", "z", "--lo=-1", "--hi=-0.6", "--points", "2000", *NEGATIVE],
        ["sweep", "--vary", "theta", "--lo=0", f"--hi={HALF_PI!r}", "--points", "1000", *NEGATIVE],
        ["sweep", "--vary", "gamma", "--lo=-5e-15", f"--hi={HALF_PI + 5e-15!r}", "--points", "1000", *RANDOM],
        ["sweep", "--vary", "z", f"--lo={INV_SQRT3 - 5e-15!r}", f"--hi={1 + 5e-15!r}", "--points", "2000",
         "--format", "csv", *RANDOM],
    ]
    # Default budgets, which leave room for the compass-search refinement after the grid.
    vectors += [
        ["optimize"],
        ["optimize", "--z-min", "1", "--z-max", "1"],
        ["optimize", "--z-min=1", "--z-max=1", "--phi-min=0", f"--phi-max={PI!r}"],
        ["optimize", "--z-min=-1", "--z-max=-0.9"],
        ["optimize", "--phi-min=0.1", "--phi-max=0.10000000000000002"],
    ]
    return vectors


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> dict:
    """Exit code and stdout and stderr digests of `ejm argv`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def blas_core() -> str:
    """The OpenBLAS kernel numpy's BLAS runs on in this process ("SkylakeX",
    "Haswell", ...; OPENBLAS_CORETYPE picks another), read from the OpenBLAS
    library bundled in numpy.libs, or "unknown" when there is none."""
    for library in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def record() -> dict:
    reports = [{"argv": argv, "schema_version": SCHEMA_VERSION, **run(argv)} for argv in argument_vectors()]
    return {**versions(), "blas_core": blas_core(), "reports": reports}


def changed_reports(recorded: dict, current: dict) -> list[list[str]]:
    """Argument vectors recorded at the current SCHEMA_VERSION and rerun in
    `current` whose exit code or digests differ; none when the Python or
    numpy version differs, as the digests then need not carry over."""
    if any(recorded[key] != current[key] for key in versions()):
        return []
    now = {tuple(entry["argv"]): entry for entry in current["reports"]}
    return [
        entry["argv"]
        for entry in recorded["reports"]
        if entry["schema_version"] == SCHEMA_VERSION and tuple(entry["argv"]) in now
        and any(entry[key] != now[tuple(entry["argv"])][key] for key in ("exit", "stdout", "stderr"))
    ]


if __name__ == "__main__":
    current = record()
    if REPORTS.exists() and (changed := changed_reports(json.loads(REPORTS.read_text()), current)):
        sys.exit(f"reports changed at schema version {SCHEMA_VERSION}; bump it or undo the change:\n"
                 + "\n".join(shlex.join(argv) for argv in changed))
    REPORTS.write_text(json.dumps(current, indent=1) + "\n")
    print(f"wrote {REPORTS}")
