"""Paired benchmark runs of HEAD against the working tree, summarized in one JSON file.

    python3 tools/bench_pairs.py --label 26

Builds two trees in a temporary directory: ``git archive HEAD`` and a copy
of the tracked files of the working tree (``git ls-files``; a new file
counts once it is added).  For every workload of ``BENCHMARK.json``, each of
``PAIRS`` pairs runs its ``command`` with ``--trace 0`` for its
``run_seconds`` once in each tree, with the same seed (pair k runs seed
k + 1), the tree that goes first alternating from pair to pair, then once
per tree with ``--trace 1`` and seed 1.  From each run it keeps the last
line of standard output and the ``calibration:`` line of standard error.
``BENCH_<label>.json`` gets the commit of HEAD, a digest of the change's
tree (``tree_digest``), and per workload and end-to-end metric each side's
median and quartiles, the pairs the change won, the bound from
``BENCHMARK.json`` and a verdict (``VERDICTS``), plus each side's failed
share and the traced per-layer metrics side by side.  It refuses to
overwrite an existing ``BENCH_<label>.json``, so every run made stays on
record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
VERDICTS = ("unresolved", "worse beyond the bound", "better", "within the bound")
_CALIBRATION = re.compile(r"^calibration: this host took ([0-9.]+)x the reference time$", re.M)


def parse_run(stdout: str, stderr: str) -> dict:
    """The result line of one run (the last line of stdout), with the host
    factor of its calibration line on stderr under ``host_factor``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    factor = _CALIBRATION.search(stderr)
    result["host_factor"] = float(factor.group(1)) if factor else None
    return result


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else values * 2


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired values of one metric.  ``gain`` is the change of the
    median relative to the parent's, positive when the change is better.

    The verdict is the first of ``VERDICTS`` that holds: the parent's
    interquartile range, relative to its median, exceeds the bound, unless
    every change run is better than every parent run; the gain is below
    -bound; over at least 10 pairs, the change won at least 9 in 10 and its
    median lies farther from the parent's than the parent's interquartile
    range; otherwise within the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    mid, quartiles = statistics.median(parent), _quartiles(parent)
    new = statistics.median(change)
    spread = quartiles[1] - quartiles[0]
    gain = sign * (new - mid) / mid if mid else 0.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    if mid and spread / abs(mid) > bound and not apart:
        name = VERDICTS[0]
    elif gain < -bound:
        name = VERDICTS[1]
    elif len(parent) >= 10 and 10 * won >= 9 * len(parent) and sign * (new - mid) > spread:
        name = VERDICTS[2]
    else:
        name = VERDICTS[3]
    return {
        "parent_median": mid, "parent_quartiles": quartiles,
        "change_median": new, "change_quartiles": _quartiles(change),
        "gain": gain, "pairs_won": won, "pairs": len(parent), "bound": bound, "verdict": name,
    }


def summarize(runs: list[dict], benchmark: dict) -> dict:
    """Per workload: a verdict per end-to-end metric, the failed share per
    side, and the traced per-layer metrics side by side.  Each run is
    ``{"workload", "side", "pair", "seed", "trace", "result"}``, with
    ``result`` as ``parse_run`` gives it; untraced runs pair by ``pair``."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        timed = {side: sorted((r for r in mine if r["side"] == side and not r["trace"]), key=lambda r: r["pair"])
                 for side in SIDES}
        if [r["pair"] for r in timed["parent"]] != [r["pair"] for r in timed["change"]]:
            raise ValueError(f"{workload}: the two sides ran different pairs")
        metrics = {}
        for spec in benchmark["end_to_end"]:
            values = {side: [r["result"]["metrics"][spec["name"]]["value"] for r in timed[side]] for side in SIDES}
            if values["parent"]:
                metrics[spec["name"]] = verdict(values["parent"], values["change"], spec["better"], spec["bound"])
        every = {side: [r for r in mine if r["side"] == side] for side in SIDES}
        failed = {
            side: {
                "failed": sum(r["result"]["failed"] for r in every[side]),
                "attempted": sum(r["result"]["attempted"] for r in every[side]),
                "incorrect_runs": sum(not r["result"]["correct"] for r in every[side]),
                "host_factors": [r["result"]["host_factor"] for r in every[side]],
            }
            for side in SIDES
        }
        for counts in failed.values():
            counts["failed_share"] = counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0
        traced = {side: next((r["result"]["metrics"] for r in every[side] if r["trace"]), None) for side in SIDES}
        layers = {
            name: {side: traced[side][name]["value"] if name in (traced[side] or {}) else None for side in SIDES}
            for name in (spec["name"] for spec in benchmark["per_layer"])
            if any(name in (traced[side] or {}) for side in SIDES)
        }
        summary[workload] = {"end_to_end": metrics, "runs": failed, "per_layer": layers}
    return summary


def tree_digest(tree: Path, names: list[str]) -> str:
    """SHA-256 over the path and bytes of each named file of tree, in order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (tree / name).read_bytes() + b"\0")
    return digest.hexdigest()


def _parent_tree(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def _change_tree(into: Path, output: str) -> str:
    """Copy the tracked files into ``into``; return the digest of those a run
    can read, which leaves out Markdown and the output file."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    names = [name for name in filter(None, listed.decode().split("\0")) if (ROOT / name).is_file()]
    for name in names:
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, into / name)
    return tree_digest(into, [name for name in names if name != output and not name.endswith(".md")])


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} in {tree}:\n{proc.stderr}")
    return parse_run(proc.stdout, proc.stderr)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json at the repository root")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    if out.exists():
        print(f"error: {out.name} exists; pick another --label", file=sys.stderr)
        return 1
    parent = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    seconds, seeds = benchmark["run_seconds"], [pair + 1 for pair in range(PAIRS)]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        _parent_tree(parent, trees["parent"])
        change = _change_tree(trees["change"], out.name)
        for workload in (w["name"] for w in benchmark["workloads"]):
            for pair, seed in enumerate(seeds):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = _run(trees[side], benchmark["command"], workload, seed, seconds, 0)
                    runs.append({"workload": workload, "side": side, "pair": pair, "seed": seed, "trace": 0,
                                 "result": result})
                    print(f"{workload} pair {pair} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
            for side in SIDES:
                result = _run(trees[side], benchmark["command"], workload, seeds[0], seconds, 1)
                runs.append({"workload": workload, "side": side, "pair": None, "seed": seeds[0], "trace": 1,
                             "result": result})
    report = {
        "parent": parent,
        "change": "tracked files of the working tree",
        "change_sha256": change,
        "command": benchmark["command"],
        "seconds": seconds,
        "seeds": seeds,
        "workloads": summarize(runs, benchmark),
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(main())
