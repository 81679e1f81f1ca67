"""The benchmark trajectory across changes, as one Markdown table.

    python3 tools/bench_trajectory.py

Reads every ``BENCH_<label>.json`` that ``tools/bench_pairs.py`` wrote at the
repository root, numeric labels first in numeric order, then any others by
name.  Prints one row per file and workload: the parent -> change medians of
``ops_per_s`` and ``light_op_ms``, each with its verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("ops_per_s", "light_op_ms")


def _order(path: Path) -> tuple:
    label = path.stem.removeprefix("BENCH_")
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


def table(root: Path) -> list[str]:
    """The header, then a row per BENCH file under root and workload."""
    header = ["label", "workload", *(f"{name} {column}" for name in METRICS for column in ("parent → change", "verdict"))]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for path in sorted(root.glob("BENCH_*.json"), key=_order):
        for workload, summary in json.loads(path.read_text())["workloads"].items():
            cells = [path.stem.removeprefix("BENCH_"), workload]
            for name in METRICS:
                metric = summary["end_to_end"].get(name)
                if metric is None:
                    cells += ["—", "—"]
                else:
                    cells += [f"{metric['parent_median']:.4g} → {metric['change_median']:.4g}", metric["verdict"]]
            lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print("\n".join(table(ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
