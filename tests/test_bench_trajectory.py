"""tools/bench_trajectory.py reads canned BENCH files: one Markdown row per
file and workload, labels in numeric order, then the noise floor of each pair
of consecutive labels and its widest drift per workload, for ops_per_s,
light_op_ms and peak_rss_mb, then each traced count that shifted by more than 1%
and by at least one call per round."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def metric(parent, change, verdict):
    return {"parent_median": parent, "change_median": change, "verdict": verdict, "bound": 0.2}


def write_bench(root, label, workloads, per_layer=None):
    report = {"parent": "0" * 40, "workloads": {
        name: {"end_to_end": {"setup_s": metric(0.1, 0.1, "within the bound"), **metrics}, "runs": {},
               "per_layer": (per_layer or {}).get(name, {})}
        for name, metrics in workloads.items()
    }}
    (root / f"BENCH_{label}.json").write_text(json.dumps(report))


def test_one_row_per_file_and_workload_in_numeric_label_order(tmp_path, monkeypatch, capsys):
    write_bench(tmp_path, 100, {"geometry": {"ops_per_s": metric(200.0, 230.5, "better"),
                                             "light_op_ms": metric(1.2, 1.1, "within the bound"),
                                             "peak_rss_mb": metric(40.04296875, 40.5, "within the bound")}})
    write_bench(tmp_path, 26, {
        "geometry": {"ops_per_s": metric(157.61, 182.34, "better"), "light_op_ms": metric(1.3301, 1.2192, "better"),
                     "peak_rss_mb": metric(39.958984375, 39.84375, "unresolved")},
        "cli": {"ops_per_s": metric(7.698, 7.726, "within the bound"),
                "light_op_ms": metric(129.94, 129.41, "unresolved")},
    })
    write_bench(tmp_path, "x", {"search": {"ops_per_s": metric(175.8, 120.0, "worse beyond the bound")}})
    (tmp_path / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    assert bench_trajectory.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| label | workload | ops_per_s parent → change | ops_per_s verdict"
        " | light_op_ms parent → change | light_op_ms verdict | peak_rss_mb parent → change | peak_rss_mb verdict |",
        "|---|---|---|---|---|---|---|---|",
        "| 26 | geometry | 157.6 → 182.3 | better | 1.33 → 1.219 | better | 39.96 → 39.84 | unresolved |",
        "| 26 | cli | 7.698 → 7.726 | within the bound | 129.9 → 129.4 | unresolved | — | — |",
        "| 100 | geometry | 200 → 230.5 | better | 1.2 → 1.1 | within the bound | 40.04 → 40.5 | within the bound |",
        "| x | search | 175.8 → 120 | worse beyond the bound | — | — | — | — |",
        "",
        "| labels | workload | ops_per_s drift | light_op_ms drift | peak_rss_mb drift |",
        "|---|---|---|---|---|",
        "",
        "| label | workload | count | parent → change | shift |",
        "|---|---|---|---|---|",
    ]


def test_noise_floor_compares_the_next_parent_with_the_change_for_consecutive_labels(tmp_path):
    write_bench(tmp_path, 26, {
        "geometry": {"ops_per_s": metric(150.0, 200.0, "better"), "light_op_ms": metric(1.3, 1.25, "better"),
                     "peak_rss_mb": metric(40.0, 40.0, "within the bound")},
        "cli": {"ops_per_s": metric(7.7, 7.8, "within the bound"), "peak_rss_mb": metric(36.0, 36.0, "within the bound")},
    })
    write_bench(tmp_path, 27, {
        "geometry": {"ops_per_s": metric(191.0, 192.0, "within the bound"),
                     "light_op_ms": metric(1.375, 1.3, "within the bound"),
                     "peak_rss_mb": metric(40.2, 40.0, "within the bound")},
        "cli": {"ops_per_s": metric(7.8, 7.9, "within the bound"), "light_op_ms": metric(129.0, 128.0, "unresolved")},
        "search": {"ops_per_s": metric(175.0, 176.0, "within the bound")},
    })
    # 29 has no 28 before it, and 27 no 28 after it: neither pair is the same code.
    write_bench(tmp_path, 29, {"geometry": {"ops_per_s": metric(100.0, 100.0, "within the bound")}})
    assert bench_trajectory.noise_floor(tmp_path) == [
        "| labels | workload | ops_per_s drift | light_op_ms drift | peak_rss_mb drift |",
        "|---|---|---|---|---|",
        "| 26 → 27 | geometry | -4.5% | +10.0% | +0.5% |",
        "| 26 → 27 | cli | +0.0% | — | — |",
        "| widest | geometry | -4.5% | +10.0% | +0.5% |",
        "| widest | cli | +0.0% | — | — |",
    ]


def test_widest_rows_keep_the_drift_of_largest_magnitude_with_its_sign(tmp_path):
    write_bench(tmp_path, 30, {"geometry": {"ops_per_s": metric(190.0, 200.0, "better"),
                                            "light_op_ms": metric(1.0, 1.0, "within the bound"),
                                            "peak_rss_mb": metric(40.0, 40.0, "within the bound")}})
    write_bench(tmp_path, 31, {"geometry": {"ops_per_s": metric(210.0, 100.0, "worse beyond the bound"),
                                            "light_op_ms": metric(0.97, 1.0, "within the bound"),
                                            "peak_rss_mb": metric(40.4, 40.0, "within the bound")},
                               "cli": {"ops_per_s": metric(7.8, 7.9, "within the bound")}})
    write_bench(tmp_path, 32, {"geometry": {"ops_per_s": metric(93.0, 93.0, "within the bound"),
                                            "light_op_ms": metric(1.02, 1.0, "within the bound"),
                                            "peak_rss_mb": metric(39.8, 40.0, "within the bound")},
                               "cli": {"ops_per_s": metric(7.9, 7.9, "within the bound"),
                                       "light_op_ms": metric(128.0, 128.0, "within the bound")}})
    assert bench_trajectory.noise_floor(tmp_path)[2:] == [
        "| 30 → 31 | geometry | +5.0% | -3.0% | +1.0% |",
        "| 31 → 32 | geometry | -7.0% | +2.0% | -0.5% |",
        "| 31 → 32 | cli | +0.0% | — | — |",
        "| widest | geometry | -7.0% | -3.0% | +1.0% |",
        "| widest | cli | +0.0% | — | — |",
    ]


def test_the_committed_files_each_give_a_row_per_workload():
    lines = bench_trajectory.table(ROOT)
    files = sorted(ROOT.glob("BENCH_*.json"))
    workloads = sum(len(json.loads(path.read_text())["workloads"]) for path in files)
    assert len(lines) == 2 + workloads


def test_the_committed_files_give_the_noise_floor_the_roadmap_quotes():
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.noise_floor(ROOT)[2:]]
    drift = {(labels, workload): rest for labels, workload, *rest in cells}
    assert drift["27 → 28", "geometry"][0] == "-4.3%"
    assert drift["27 → 28", "search"][1] == "-10.5%"
    assert drift["30 → 31", "geometry"][0] == "-7.1%"
    assert drift["31 → 32", "geometry"][2] == "-0.1%"


def test_the_committed_widest_rows_hold_the_largest_magnitude_of_each_column():
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.noise_floor(ROOT)[2:]]
    widest = {workload: rest for labels, workload, *rest in cells if labels == "widest"}
    pairs = [(workload, rest) for labels, workload, *rest in cells if labels != "widest"]
    assert list(widest) == list(dict.fromkeys(workload for workload, _ in pairs))
    for workload, row in widest.items():
        for column, value in enumerate(row):
            column_values = [rest[column] for name, rest in pairs if name == workload and rest[column] != "—"]
            assert value in column_values
            assert all(abs(float(value.rstrip("%"))) >= abs(float(other.rstrip("%"))) for other in column_values)


def test_count_shifts_list_each_count_that_moved_by_more_than_one_percent(tmp_path):
    ops = {"ops_per_s": metric(100.0, 100.0, "within the bound")}
    write_bench(tmp_path, 34, {"search": ops, "cli": ops}, {
        "search": {"bases.EjmParams.count": {"parent": 8864.0, "change": 0.0},
                   "network.trilocal_score.count": {"parent": 8864.0, "change": 8864.0},
                   "optimize.minimize.count": {"parent": 18.0, "change": 18.1},
                   "optimize.maximize.self_s": {"parent": 0.04, "change": 0.03}},
        "cli": {"qla.StateVector.count": {"parent": 0.0, "change": 4.0},
                "bases.n_qubit_ejm.count": {"parent": 3.0, "change": 3.0}},
    })
    write_bench(tmp_path, 9, {"geometry": ops}, {"geometry": {"bases.BasisFamily.matrix.count": {"parent": 7.0, "change": 14.0}}})
    assert bench_trajectory.count_shifts(tmp_path) == [
        "| label | workload | count | parent → change | shift |",
        "|---|---|---|---|---|",
        "| 9 | geometry | bases.BasisFamily.matrix.count | 7 → 14 | +100.0% |",
        "| 34 | search | bases.EjmParams.count | 8864 → 0 | -100.0% |",
        "| 34 | cli | qla.StateVector.count | 0 → 4 | — |",
    ]


def test_count_shifts_leave_out_a_shift_of_less_than_one_call_per_round(tmp_path):
    # 8.0 -> 8.5 is +6%, but half a call per round: where a traced run stopped in the mix.
    ops = {"ops_per_s": metric(100.0, 100.0, "within the bound")}
    write_bench(tmp_path, 7, {"network": ops}, {
        "network": {"network.trilocal_score.count": {"parent": 8.0, "change": 8.5},
                    "network.outcome_table.count": {"parent": 8.0, "change": 7.0}},
    })
    assert bench_trajectory.count_shifts(tmp_path)[2:] == [
        "| 7 | network | network.outcome_table.count | 8 → 7 | -12.5% |",
    ]


def test_the_committed_files_list_only_shifts_of_whole_calls():
    # BENCH_29 read optimize.minimize.count 18.18 -> 18.41 on a change that did not touch minimize.
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.count_shifts(ROOT)[2:]]
    assert not [cell for cell in cells if cell[0] == "29"]
    assert {cell[0] for cell in cells} >= {"26", "32", "33", "34"}


def test_the_committed_files_show_where_state_vectors_stopped_being_built():
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.count_shifts(ROOT)[2:]]
    shifts = {(label, workload, name): rest for label, workload, name, *rest in cells}
    assert shifts["33", "geometry", "qla.StateVector.count"] == ["516 → 0", "-100.0%"]
    assert shifts["33", "cli", "qla.StateVector.count"] == ["16 → 0", "-100.0%"]
    assert all(name.endswith(".count") for _, _, name in shifts)


def test_the_committed_files_show_a_cheaper_network_round_with_every_call_kept():
    # BENCH_35: each basis build got cheaper, none was dropped.
    network = json.loads((ROOT / "BENCH_35.json").read_text())["workloads"]["network"]
    assert network["end_to_end"]["ops_per_s"]["verdict"] == "better"
    counts = {"bases.n_qubit_ejm.count": 8.0, "network.StarScenario.count": 8.0,
              "network.outcome_table.count": 8.0, "network.trilocal_score.count": 4.0}
    for name, count in counts.items():
        assert network["per_layer"][name] == {"parent": count, "change": count}, name
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.count_shifts(ROOT)[2:]]
    assert [cell for cell in cells if cell[:2] == ["35", "network"]] == []


def test_the_committed_files_show_qla_dot_costs_no_workload_beyond_its_bounds():
    # BENCH_36: every report-bearing product goes through qla.dot, with the same
    # operands; no gain is claimed, and no call was added or dropped.
    workloads = json.loads((ROOT / "BENCH_36.json").read_text())["workloads"]
    assert sorted(workloads) == ["cli", "geometry", "network", "search"]
    for name, summary in workloads.items():
        verdicts = {metric: values["verdict"] for metric, values in summary["end_to_end"].items()}
        assert "worse beyond the bound" not in verdicts.values(), (name, verdicts)
        assert [summary["runs"][side]["failed"] for side in ("parent", "change")] == [0, 0], name
    counts = {("geometry", "qla.partial_trace.count"): 3584.0, ("geometry", "bases.n_qubit_ejm.count"): 7.0,
              ("network", "network.outcome_table.count"): 8.0}
    for (workload, name), count in counts.items():
        assert workloads[workload]["per_layer"][name] == {"parent": count, "change": count}, name
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.count_shifts(ROOT)[2:]]
    assert [cell for cell in cells if cell[0] == "36"] == []


def test_the_committed_files_show_the_fast_paths_went_at_no_cost_beyond_the_bounds():
    # BENCH_37: RowView as a plain Mapping, one BasisFamily constructor, one
    # check_domain branch; no gain is claimed, and no call was added or dropped.
    workloads = json.loads((ROOT / "BENCH_37.json").read_text())["workloads"]
    for name, summary in workloads.items():
        verdicts = {metric: values["verdict"] for metric, values in summary["end_to_end"].items()}
        assert "worse beyond the bound" not in verdicts.values(), (name, verdicts)
        assert [summary["runs"][side]["failed"] for side in ("parent", "change")] == [0, 0], name
    for workload, metric in [("network", "ops_per_s"), ("geometry", "ops_per_s"), ("geometry", "peak_rss_mb")]:
        assert workloads[workload]["end_to_end"][metric]["verdict"] in ("within the bound", "better"), (workload, metric)
    counts = {("geometry", "qla.partial_trace.count"): 3584.0, ("geometry", "bases.n_qubit_ejm.count"): 7.0,
              ("network", "bases.n_qubit_ejm.count"): 8.0, ("network", "network.outcome_table.count"): 8.0,
              ("search", "bases.EjmParams.count"): 0.0}
    for (workload, name), count in counts.items():
        assert workloads[workload]["per_layer"][name] == {"parent": count, "change": count}, name
    cells = [line.strip("| ").split(" | ") for line in bench_trajectory.count_shifts(ROOT)[2:]]
    assert [cell for cell in cells if cell[0] == "37"] == []
