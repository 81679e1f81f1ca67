"""ejm.qla.dot is the only step whose bits depend on the BLAS kernel: with
every ejm binding of it swapped for an einsum that never calls BLAS, a sample
of the golden argument vectors prints the same bytes under every OpenBLAS
kernel this CPU can run.  OPENBLAS_CORETYPE picks the kernel, in each child
process alone."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from golden.update import NEGATIVE, RANDOM, argument_vectors, blas_core
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
# Each kernel with the CPU features it needs.
KERNELS = {"Prescott": (), "Sandybridge": ("AVX",), "Haswell": ("AVX2", "FMA3"), "SkylakeX": ("AVX512F",)}
SAMPLE = [
    ["verify", "--n", "3", *RANDOM],
    ["verify", "--n", "8", *RANDOM],
    *(["reduce", "--n", str(n), *NEGATIVE] for n in range(2, 9)),
    ["network", "--method", "brute_force", *RANDOM],
    ["network", "--method", "brute_force", "--cross-check"],
]
# The child: swap qla.dot in every ejm module that binds it, the way
# bench/tracing.py patches, then print its BLAS core, the swap's call count
# and each report's exit code and digests.
CHILD = """
import json, sys
import numpy as np
import ejm.cli, ejm.qla
from golden.update import blas_core, run

calls = 0

def reference(a, b):
    # ndarray.dot of 1-D and 2-D operands, summed by einsum's own loops, not BLAS.
    global calls
    calls += 1
    return np.einsum(("ij" if a.ndim == 2 else "j") + "," + ("jk" if b.ndim == 2 else "j"), a, b)

original = ejm.qla.dot
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "ejm" and vars(module).get("dot") is original:
        module.dot = reference
reports = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"core": blas_core(), "calls": calls, "reports": reports}))
"""


def supported_kernels() -> list[str]:
    return [kernel for kernel, needs in KERNELS.items() if all(__cpu_features__.get(need) for need in needs)]


def test_the_sample_is_golden():
    assert all(argv in argument_vectors() for argv in SAMPLE)


@pytest.mark.skipif(blas_core() == "unknown", reason="numpy's BLAS is not the bundled OpenBLAS")
@pytest.mark.skipif(len(supported_kernels()) < 2, reason="this CPU runs one OpenBLAS kernel at most")
def test_reports_keep_their_bytes_under_every_kernel_once_qla_dot_is_swapped():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    argv = [sys.executable, "-c", CHILD, json.dumps(SAMPLE)]
    children = {
        kernel: subprocess.Popen(argv, env={**env, "OPENBLAS_CORETYPE": kernel}, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        for kernel in supported_kernels()
    }
    results = {}
    for kernel, child in children.items():
        out, err = child.communicate()
        assert child.returncode == 0, err
        results[kernel] = json.loads(out)
    # Every child ran on its own kernel (Prescott's reports its core as Katmai), and used the swap.
    assert len({result["core"] for result in results.values()}) == len(results)
    assert all(result["calls"] > 0 for result in results.values())
    first = results["Prescott"]["reports"]
    differing = {
        kernel: [shlex.join(argv) for argv, report, other in zip(SAMPLE, first, result["reports"]) if report != other]
        for kernel, result in results.items()
    }
    assert differing == dict.fromkeys(results, [])
    assert [report["exit"] for report in first] == [0] * len(SAMPLE)
