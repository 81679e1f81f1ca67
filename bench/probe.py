"""Set-up probe, run in a fresh interpreter with ``src`` on PYTHONPATH.

    python3 bench/probe.py <workload|none>

Times ``import ejm`` and then one warm-up pass of the named workload, and
prints one JSON line with ``import_s``, ``warm_up_s`` and ``modules_imported``.
Nothing but ``sys`` and ``time`` is loaded before the timed import.  The
warm-up time is already on the reference host; the caller scales the
import time, which a fresh interpreter's calibration tracks better.
"""

import sys
import time

before = len(sys.modules)
start = time.perf_counter()
import ejm  # noqa: E402,F401

imported = time.perf_counter()
modules = len(sys.modules) - before
warm_up = 0.0
if sys.argv[1] != "none":
    import clock  # noqa: E402
    import workloads  # noqa: E402

    calibrated = clock.IN_PROCESS.seconds()
    begin = time.perf_counter()
    workloads.WORKLOADS[sys.argv[1]](seed=0).warm_up()
    warm_up = (time.perf_counter() - begin) * clock.IN_PROCESS.factor(calibrated)

import json  # noqa: E402

print(json.dumps({"import_s": imported - start, "warm_up_s": warm_up, "modules_imported": modules}))
