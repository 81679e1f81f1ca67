"""The benchmark trajectory across changes, as one Markdown table.

    python3 tools/bench_trajectory.py

Reads every ``BENCH_<label>.json`` that ``tools/bench_pairs.py`` wrote at the
repository root, numeric labels first in numeric order, then any others by
name.  Prints one row per file and workload: the parent -> change medians of
``ops_per_s``, ``light_op_ms`` and ``peak_rss_mb``, each with its verdict.

A second table gives the noise floor.  ``tools/bench_pairs.py`` takes HEAD as
the parent, so file k + 1's parent is the tree that file k measured as its
change.  For each pair of consecutive numeric labels k, k + 1 and each
workload of both, a row gives (parent median of k + 1 - change median of k) /
change median of k for each of those metrics: how far two
measurements of the same code drift apart.  The table ends with one
``widest`` row per workload: for each metric, the drift of largest magnitude
over all those pairs, the noise floor that the committed files show.

A third table gives the count shifts: a row per file, workload and traced
per-layer ``*.count`` whose change value differs from the parent's by more
than ``COUNT_SHIFT`` of it, so the calls a change removed or added show
beside its verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("ops_per_s", "light_op_ms", "peak_rss_mb")
# Relative change of a traced count beyond which count_shifts lists it.
COUNT_SHIFT = 0.01


def _order(path: Path) -> tuple:
    label = path.stem.removeprefix("BENCH_")
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


def _row(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def table(root: Path) -> list[str]:
    """The header, then a row per BENCH file under root and workload."""
    header = ["label", "workload", *(f"{name} {column}" for name in METRICS for column in ("parent → change", "verdict"))]
    lines = [_row(header), "|" + "---|" * len(header)]
    for path in sorted(root.glob("BENCH_*.json"), key=_order):
        for workload, summary in json.loads(path.read_text())["workloads"].items():
            cells = [path.stem.removeprefix("BENCH_"), workload]
            for name in METRICS:
                metric = summary["end_to_end"].get(name)
                if metric is None:
                    cells += ["—", "—"]
                else:
                    cells += [f"{metric['parent_median']:.4g} → {metric['change_median']:.4g}", metric["verdict"]]
            lines.append(_row(cells))
    return lines


def noise_floor(root: Path) -> list[str]:
    """The header, then a row per pair of consecutive numeric labels under root
    and workload of both: the relative drift of each metric's median; then a
    ``widest`` row per workload: each metric's drift of largest magnitude."""
    header = ["labels", "workload", *(f"{name} drift" for name in METRICS)]
    lines = [_row(header), "|" + "---|" * len(header)]
    files = {int(label): path for path in root.glob("BENCH_*.json")
             if (label := path.stem.removeprefix("BENCH_")).isdigit()}
    drifts: dict[str, dict[str, list[float]]] = {}  # workload -> metric -> drift of each pair
    for label in sorted(label for label in files if label + 1 in files):
        before, after = (json.loads(files[k].read_text())["workloads"] for k in (label, label + 1))
        for workload in (name for name in before if name in after):
            cells = [f"{label} → {label + 1}", workload]
            seen = drifts.setdefault(workload, {name: [] for name in METRICS})
            for name in METRICS:
                old = before[workload]["end_to_end"].get(name)
                new = after[workload]["end_to_end"].get(name)
                if old is None or new is None:
                    cells.append("—")
                else:
                    drift = (new["parent_median"] - old["change_median"]) / old["change_median"]
                    seen[name].append(drift)
                    cells.append(f"{drift:+.1%}")
            lines.append(_row(cells))
    for workload, seen in drifts.items():
        lines.append(_row(["widest", workload, *(f"{max(seen[name], key=abs):+.1%}" if seen[name] else "—"
                                                 for name in METRICS)]))
    return lines


def count_shifts(root: Path) -> list[str]:
    """The header, then a row per BENCH file under root, workload and traced
    per-layer count whose change value differs from the parent's by more
    than COUNT_SHIFT of it: both values and the relative shift ("—" from 0)."""
    header = ["label", "workload", "count", "parent → change", "shift"]
    lines = [_row(header), "|" + "---|" * len(header)]
    for path in sorted(root.glob("BENCH_*.json"), key=_order):
        for workload, summary in json.loads(path.read_text())["workloads"].items():
            for name, values in summary["per_layer"].items():
                old, new = values["parent"], values["change"]
                if name.endswith(".count") and abs(new - old) > COUNT_SHIFT * abs(old):
                    shift = f"{(new - old) / old:+.1%}" if old else "—"
                    lines.append(_row([path.stem.removeprefix("BENCH_"), workload, name, f"{old:.4g} → {new:.4g}", shift]))
    return lines


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print("\n".join([*table(ROOT), "", *noise_floor(ROOT), "", *count_shifts(ROOT)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
