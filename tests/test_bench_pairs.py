"""tools/bench_pairs.py summarizes canned result lines, with no benchmark run:
the parsed lines, the verdict per metric, the bounds of BENCHMARK.json, the
failed share and the traced metrics side by side; and main refuses to
overwrite a BENCH file."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CALIBRATION = "calibration: this host took 1.20x the reference time\n"


def result_line(ops, light=1.0, setup=0.1, rss=40.0, failed=0, attempted=100):
    metrics = {"ops_per_s": ops, "light_op_ms": light, "setup_s": setup, "peak_rss_mb": rss}
    units = {"ops_per_s": "1/s", "light_op_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def runs(parent, change, workload="geometry", **fixed):
    """Untraced runs of both sides from canned lines, pair k holding parent[k] and change[k] ops."""
    found = []
    for pair, values in enumerate(zip(parent, change)):
        for side, ops in zip(bench_pairs.SIDES, values):
            stdout = f"some progress\n{result_line(ops, **fixed)}\n"
            found.append({"workload": workload, "side": side, "pair": pair, "seed": 1 + pair, "trace": 0,
                          "result": bench_pairs.parse_run(stdout, "warning: noise\n" + CALIBRATION)})
    return found


def test_parse_run_reads_the_last_line_and_the_host_factor():
    result = bench_pairs.parse_run(f"x\n{result_line(150.0)}\n", CALIBRATION)
    assert result["metrics"]["ops_per_s"]["value"] == 150.0
    assert result["host_factor"] == 1.2
    assert bench_pairs.parse_run(result_line(1.0), "")["host_factor"] is None


def test_a_clear_gain_is_better_and_reads_the_benchmark_bounds():
    parent = [146.0, 150.0, 148.0, 152.0, 147.0, 149.0, 151.0, 145.0, 150.0, 148.0]
    change = [value * 1.2 for value in parent]
    summary = bench_pairs.summarize(runs(parent, change), BENCHMARK)["geometry"]["end_to_end"]
    ops = summary["ops_per_s"]
    assert (ops["verdict"], ops["pairs_won"], ops["pairs"]) == ("better", 10, 10)
    assert ops["parent_median"] == 148.5 and ops["change_median"] == pytest.approx(178.2)
    assert ops["parent_quartiles"] == [147.25, 150.0]
    assert ops["gain"] == pytest.approx(0.2)
    bounds = {spec["name"]: spec["bound"] for spec in BENCHMARK["end_to_end"]}
    assert {name: entry["bound"] for name, entry in summary.items()} == bounds
    nine = bench_pairs.summarize(runs(parent[:9], change[:9]), BENCHMARK)["geometry"]["end_to_end"]["ops_per_s"]
    assert (nine["pairs_won"], nine["verdict"]) == (9, "within the bound")  # too few pairs to claim
    # The other metrics did not move: no pair won, within the bound.
    assert summary["light_op_ms"]["verdict"] == "within the bound"
    assert summary["light_op_ms"]["pairs_won"] == 0


def test_a_loss_beyond_the_bound_is_worse():
    parent = [100.0, 101.0, 99.0, 100.0]
    ops = bench_pairs.summarize(runs(parent, [70.0] * 4), BENCHMARK)["geometry"]["end_to_end"]["ops_per_s"]
    assert ops["verdict"] == "worse beyond the bound"
    assert ops["gain"] == pytest.approx(-0.3)


def test_lower_is_better_for_times():
    parent, change = runs([100.0] * 10, [100.0] * 10, light=1.0), runs([100.0] * 10, [100.0] * 10, light=1.2)
    mixed = [run for run in parent if run["side"] == "parent"] + [run for run in change if run["side"] == "change"]
    light = bench_pairs.summarize(mixed, BENCHMARK)["geometry"]["end_to_end"]["light_op_ms"]
    assert light["verdict"] == "worse beyond the bound"
    assert light["gain"] == pytest.approx(-0.2)


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 100.0, 150.0, 200.0]
    ops = bench_pairs.summarize(runs(parent, [400.0, 400.0, 400.0, 150.0]), BENCHMARK)["geometry"]["end_to_end"]
    assert ops["ops_per_s"]["verdict"] == "unresolved"


def test_a_wide_spread_with_every_change_run_better_is_resolved():
    parent = [50.0, 100.0, 150.0, 200.0] * 2 + [120.0, 130.0]
    assert bench_pairs.verdict(parent, [201.0] * 10, "higher", 0.2)["verdict"] == "better"
    assert bench_pairs.verdict(parent[:4], [201.0] * 4, "higher", 0.2)["verdict"] == "within the bound"
    assert bench_pairs.verdict(parent, [49.0] * 10, "lower", 0.15)["verdict"] == "better"
    assert bench_pairs.verdict(parent, [201.0] * 9 + [199.0], "higher", 0.2)["verdict"] == "unresolved"


def test_tree_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    first = bench_pairs.tree_digest(tmp_path, ["a.py", "b.py"])
    assert first == bench_pairs.tree_digest(tmp_path, ["a.py", "b.py"])
    assert first != bench_pairs.tree_digest(tmp_path, ["b.py", "a.py"])
    (tmp_path / "b.py").write_text("y = 3\n")
    assert first != bench_pairs.tree_digest(tmp_path, ["a.py", "b.py"])


def test_a_gain_inside_the_parent_spread_is_within_the_bound():
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 103.0, 97.0, 101.0, 99.0]
    ops = bench_pairs.summarize(runs(parent, [p + 1.0 for p in parent]), BENCHMARK)["geometry"]["end_to_end"]
    assert (ops["ops_per_s"]["pairs_won"], ops["ops_per_s"]["verdict"]) == (10, "within the bound")


def test_failed_share_and_traced_metrics_per_side():
    found = runs([100.0, 100.0], [100.0, 100.0], workload="cli", failed=1, attempted=4)
    for side, value in zip(bench_pairs.SIDES, (0.048, 0.033)):
        result = {"correct": True, "attempted": 4, "failed": 0, "host_factor": 1.0,
                  "metrics": {"qla.partial_trace.self_s": {"value": value, "unit": "s"}}}
        found.append({"workload": "cli", "side": side, "pair": None, "seed": 1, "trace": 1, "result": result})
    summary = bench_pairs.summarize(found, BENCHMARK)["cli"]
    assert summary["runs"]["parent"]["failed_share"] == summary["runs"]["change"]["failed_share"] == 2 / 12
    assert summary["runs"]["change"]["incorrect_runs"] == 2
    assert summary["per_layer"] == {"qla.partial_trace.self_s": {"parent": 0.048, "change": 0.033}}


def test_unpaired_runs_are_refused():
    found = runs([100.0, 100.0], [100.0, 100.0])
    with pytest.raises(ValueError, match="different pairs"):
        bench_pairs.summarize(found[:-1], BENCHMARK)


def test_an_existing_bench_file_is_not_overwritten(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "BENCH_x.json").write_text("kept\n")

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess.run called with {args}")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    assert bench_pairs.main(["--label", "x"]) != 0
    assert (tmp_path / "BENCH_x.json").read_text() == "kept\n"
    assert capsys.readouterr().err == "error: BENCH_x.json exists; pick another --label\n"
