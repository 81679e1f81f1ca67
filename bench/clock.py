"""Measured times expressed on the reference host.

The speed of a shared host drifts by up to 1.7x within seconds as other
tenants come and go.  Each measured time is therefore scaled by the time a
fixed piece of calibration work takes on the reference host over the mean of
its times just before and just after the measurement.  The reference host is
an idle x86-64 virtual machine with 2 vCPUs, Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

_KX = np.arange(4.0) + 0.5j
_KY = np.arange(8.0) - 0.25j


def _numpy_work() -> None:
    store = {}
    for i in range(50):
        a = np.kron(_KX, _KY)
        m = np.outer(a[:8], a[8:16].conj())
        store[(i, i & 7)] = float(np.abs(np.trace(m))) + float(np.linalg.norm(a))


def _interpreter_work() -> None:
    subprocess.run([sys.executable, "-c", "import json, argparse, pathlib"], capture_output=True, check=True, timeout=60)


class Calibration:
    """A fixed piece of work and its time on the reference host."""

    def __init__(self, work, reference_s: float, repeats: int) -> None:
        self.work = work
        self.reference_s = reference_s
        self.repeats = repeats

    def seconds(self) -> float:
        """Shortest time of ``repeats`` runs of the work, here and now."""
        best = math.inf
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - start)
        return best

    def factor(self, before: float) -> float:
        """Factor from seconds measured since the work took ``before`` seconds
        to seconds on the reference host; the work is timed once more now."""
        return self.reference_s / (0.5 * (before + self.seconds()))


# Work in this process: small numpy calls and Python dict work, as in the program.
IN_PROCESS = Calibration(_numpy_work, 1.02e-3, repeats=2)
# Work in a fresh interpreter: start one and import a few standard modules.
CHILD = Calibration(_interpreter_work, 4.0e-2, repeats=1)
