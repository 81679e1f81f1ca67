"""Benchmark of ``ejm``: one workload per run, checked, with one JSON result line.

    python3 bench/run.py --workload geometry|network|search|cli --seed N --seconds S --trace 0|1

Builds nothing: ``ejm`` is imported from ``src`` of the checkout this file
sits in, and the run stops with an error when it is missing.  Untraced runs
(``--trace 0``) print the end-to-end metrics; traced runs print the
per-layer metrics and write the end-to-end figures measured under tracing to
standard error, so the two runs give the tracing overhead.  The last line of
standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "ejm" / "__init__.py").is_file():
    sys.exit(f"error: no ejm package under {SRC}")
sys.path.insert(0, str(SRC))

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
PROBE_REPEATS = 3
MIN_ROUNDS = 2
_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)")


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> workloads.Workload:
    """Warm up, then run whole rounds until ``seconds`` have passed."""
    workload = workloads.WORKLOADS[name](seed, tracer)
    workload.warm_up()
    workload.prepare()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while workload.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            workload.run_round()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload


def _child(argv: list[str]) -> tuple[float, float, str]:
    """One child interpreter: its wall time on the reference host, the
    factor that scaled it, and its output."""
    before = clock.CHILD.seconds()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=workloads.child_env(),
        cwd=workloads.ROOT, timeout=120, check=True,
    )
    elapsed = time.perf_counter() - start
    factor = clock.CHILD.factor(before)
    return elapsed * factor, factor, proc.stdout + proc.stderr


def probes(target: str, repeats: int) -> list[dict]:
    """``probe.py`` results with their times on the reference host."""
    found = []
    for _ in range(repeats):
        _, factor, out = _child([str(BENCH / "probe.py"), target])
        result = json.loads(out)
        result["import_s"] *= factor
        found.append(result)
    return found


def setup_seconds(name: str) -> float:
    """Median set-up time: ``import ejm`` plus a warm-up pass in a fresh
    interpreter, or for ``cli`` a whole discarded ``ejm network`` invocation."""
    if name == "cli":
        return statistics.median(_child(["-m", "ejm", "network"])[0] for _ in range(SETUP_REPEATS))
    return statistics.median(p["import_s"] + p["warm_up_s"] for p in probes(name, SETUP_REPEATS))


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    lines = [m for m in map(_IMPORT_LINE.match, importtime.splitlines()) if m]
    total = 0.0
    enclosing: list[tuple[int, bool]] = []  # depth, and whether scipy encloses it
    for match in reversed(lines):  # an import is printed after the imports it caused
        depth = len(match[2])
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        inside = bool(enclosing) and enclosing[-1][1]
        is_scipy = match[3].split(".")[0] == "scipy"
        if is_scipy and not inside:
            total += int(match[1]) * 1e-6
        enclosing.append((depth, inside or is_scipy))
    return total


def cli_probe_metrics() -> dict[str, float]:
    """The ``cli`` layer metrics that need fresh interpreters."""
    found = probes("none", PROBE_REPEATS)
    interpreter = [_child(["-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    scipy = []
    for _ in range(PROBE_REPEATS):
        _, factor, out = _child(["-X", "importtime", "-c", "import ejm"])
        scipy.append(scipy_import_seconds(out) * factor)
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(p["import_s"] for p in found),
        "cli.import_scipy_s": statistics.median(scipy),
        "cli.modules_imported": float(found[0]["modules_imported"]),
    }


def peak_rss_mb(name: str) -> float:
    """Peak resident memory of this process, or of the largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(workloads.ejm.__file__).resolve().parent != SRC / "ejm":
        print(f"error: imported ejm from {workloads.ejm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # One core for this process and the children it starts: they run one at
    # a time, and the calibration then times the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = tracing.Tracer() if args.trace else None
    workload = run_workload(args.workload, args.seed, args.seconds, tracer)
    end_to_end = workload.metrics()
    if tracer is None:
        end_to_end["setup_s"] = (setup_seconds(args.workload), "s")
        end_to_end["peak_rss_mb"] = (peak_rss_mb(args.workload), "MB")
        metrics = end_to_end
    else:
        print(f"end-to-end under tracing: {json.dumps(end_to_end)}", file=sys.stderr)
        layer = tracer.metrics(workload.rounds) | cli_probe_metrics()
        metrics = {name: (layer[name], unit) for name, unit in tracing.METRICS.items()}
    print(f"calibration: this host took {1 / statistics.median(workload.scales):.2f}x the reference time",
          file=sys.stderr)
    for problem in workload.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
