"""tools/bench_trajectory.py reads canned BENCH files: one Markdown row per
file and workload, labels in numeric order."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def metric(parent, change, verdict):
    return {"parent_median": parent, "change_median": change, "verdict": verdict, "bound": 0.2}


def write_bench(root, label, workloads):
    report = {"parent": "0" * 40, "workloads": {
        name: {"end_to_end": {"setup_s": metric(0.1, 0.1, "within the bound"), **metrics}, "runs": {}, "per_layer": {}}
        for name, metrics in workloads.items()
    }}
    (root / f"BENCH_{label}.json").write_text(json.dumps(report))


def test_one_row_per_file_and_workload_in_numeric_label_order(tmp_path, monkeypatch, capsys):
    write_bench(tmp_path, 100, {"geometry": {"ops_per_s": metric(200.0, 230.5, "better"),
                                             "light_op_ms": metric(1.2, 1.1, "within the bound")}})
    write_bench(tmp_path, 26, {
        "geometry": {"ops_per_s": metric(157.61, 182.34, "better"), "light_op_ms": metric(1.3301, 1.2192, "better")},
        "cli": {"ops_per_s": metric(7.698, 7.726, "within the bound"),
                "light_op_ms": metric(129.94, 129.41, "unresolved")},
    })
    write_bench(tmp_path, "x", {"search": {"ops_per_s": metric(175.8, 120.0, "worse beyond the bound")}})
    (tmp_path / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    assert bench_trajectory.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| label | workload | ops_per_s parent → change | ops_per_s verdict"
        " | light_op_ms parent → change | light_op_ms verdict |",
        "|---|---|---|---|---|---|",
        "| 26 | geometry | 157.6 → 182.3 | better | 1.33 → 1.219 | better |",
        "| 26 | cli | 7.698 → 7.726 | within the bound | 129.9 → 129.4 | unresolved |",
        "| 100 | geometry | 200 → 230.5 | better | 1.2 → 1.1 | within the bound |",
        "| x | search | 175.8 → 120 | worse beyond the bound | — | — |",
    ]


def test_the_committed_files_each_give_a_row_per_workload():
    lines = bench_trajectory.table(ROOT)
    files = sorted(ROOT.glob("BENCH_*.json"))
    workloads = sum(len(json.loads(path.read_text())["workloads"]) for path in files)
    assert len(lines) == 2 + workloads
