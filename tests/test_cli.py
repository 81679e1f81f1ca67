import json
import math

import pytest

from ejm.cli import CliError, export, main

HEADLINE = ["--z", "1", "--phi", "0.1781", "--theta", "1.5707963267948966",
            "--gamma", "0.7853981633974483"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_clean_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3",
                           "--z", "0.8", "--phi", "0.3", "--theta", "1.0", "--gamma", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "verify-report"
        assert report["gram_error"] < 1e-10
        assert report["completeness_error"] < 1e-10
        assert report["ok"] is True

    def test_exit_one_when_threshold_violated(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--tol", "1e-18")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestNetworkCommand:
    def test_defaults_show_headline_violation(self, capsys):
        code, out, _ = run(capsys, "network")
        assert code == 0
        report = json.loads(out)
        assert abs(report["S"] - 2.2968) < 5e-4
        assert report["violated"] is True
        assert report["method"] == "analytic"

    def test_brute_force_with_cross_check(self, capsys):
        code, out, _ = run(capsys, "network", "--method", "brute_force", "--cross-check")
        assert code == 0
        assert abs(json.loads(out)["S"] - 2.2968) < 5e-4


class TestTangleCommand:
    def test_three_qubit_values(self, capsys):
        code, out, _ = run(capsys, "tangle", "--n", "3",
                           "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4")
        assert code == 0
        report = json.loads(out)
        expected = math.sin(0.8) ** 2 * math.sin(1.0)
        assert abs(report["iso_value"] - expected) < 1e-12
        assert report["spread"] < 1e-9
        assert len(report["values"]) == 8

    def test_two_qubit_concurrence(self, capsys):
        code, out, _ = run(capsys, "tangle", "--n", "2",
                           "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4")
        assert code == 0
        report = json.loads(out)
        assert report["measure"] == "concurrence"
        assert report["spread"] < 1e-10


class TestReduceCommand:
    def test_symmetry_fields(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "3",
                           "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4")
        assert code == 0
        report = json.loads(out)
        assert report["parallelepiped_ok"] is True
        assert report["mirror_pairs_ok"] is True
        assert len(report["vectors"]) == 24
        total = [sum(entry["vector"][axis] for entry in report["vectors"]) for axis in range(3)]
        assert max(abs(t) for t in total) < 1e-9


class TestBasisCommand:
    def test_amplitudes_shape(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "2",
                           "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4")
        assert code == 0
        report = json.loads(out)
        assert len(report["states"]) == 4
        assert all(len(state["amplitudes"]) == 4 for state in report["states"])


class TestSweepCommand:
    def test_csv_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--vary", "phi", "--lo", "0", "--hi", "1.0",
                           "--points", "3", *HEADLINE[:2], "--gamma", "0.7853981633974483",
                           "--theta", "1.5707963267948966", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "value,S"
        assert len(lines) == 4

    def test_out_of_domain_z_names_flag(self, capsys):
        code, _, err = run(capsys, "sweep", "--vary", "phi", "--lo", "0",
                           "--hi", "3.14159265", "--points", "5", "--z", "0.57735",
                           "--gamma", "0.785398", "--theta", "1.570796")
        assert code == 2
        assert "--z" in err

    def test_points_above_cap_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "sweep", "--vary", "phi", "--lo", "0", "--hi", "1",
                             "--points", "1000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "cap" in err

    def test_csv_for_non_sweep_rejected(self, capsys):
        code, _, err = run(capsys, "network", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_violation_reproduction_files(self, capsys, tmp_path):
        # the three characteristic curves: z = 1 and 1/sqrt(2) violate, 1/sqrt(3) does not
        maxima = {}
        for tag, z in (("one", "1"), ("sqrt2", str(1 / math.sqrt(2))), ("sqrt3", str(1 / math.sqrt(3)))):
            path = tmp_path / f"curve_{tag}.csv"
            code, _, _ = run(capsys, "sweep", "--vary", "phi", "--lo", "0",
                             "--hi", str(math.pi), "--points", "200", "--z", z,
                             "--theta", "1.5707963267948966", "--gamma", "0.7853981633974483",
                             "--format", "csv", "--output", str(path))
            assert code == 0
            rows = path.read_text().strip().split("\n")[1:]
            assert len(rows) == 200
            maxima[tag] = max(float(row.split(",")[1]) for row in rows)
        assert maxima["one"] >= 2.29
        assert maxima["sqrt2"] > 2.0
        assert maxima["sqrt3"] <= 2.0 + 1e-9


class TestOptimizeCommand:
    def test_budget_20000_reaches_reported_maximum(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "20000")
        assert code == 0
        report = json.loads(out)
        assert abs(report["S"] - 2.2968) < 5e-4
        assert report["violated"] is True
        assert report["warning"] is False

    def test_bounds_flags(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "500",
                           "--z-min", str(1 / math.sqrt(3)), "--z-max", str(1 / math.sqrt(3)))
        assert code == 0
        assert json.loads(out)["S"] <= 2.0

    def test_bad_budget(self, capsys):
        code, _, err = run(capsys, "optimize", "--budget", "5")
        assert code == 2
        assert "--budget" in err

    def test_report_is_version_two_without_seed(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "300")
        assert code == 0
        report = json.loads(out)
        assert report["version"] == 2
        assert "seed" not in report

    def test_seed_flag_is_gone(self, capsys):
        code, out, _ = run(capsys, "optimize", "--seed", "0")
        assert code == 2
        assert out == ""

    def test_budget_above_cap_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "optimize", "--budget", "1000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert run(capsys, "explode")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "network", "--frobnicate")[0] == 2

    @pytest.mark.parametrize("command", ["verify", "reduce", "basis"])
    def test_size_cap_is_invalid_input(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "9")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "cap 8" in err

    def test_out_of_domain_phi(self, capsys):
        code, _, err = run(capsys, "network", "--phi", "4.0")
        assert code == 2
        assert "--phi" in err

    def test_degree_conversion(self, capsys):
        code_rad, out_rad, _ = run(capsys, "network", "--phi", str(math.degrees(0.1781)),
                                   "--theta", "90", "--gamma", "45", "--deg")
        code, out, _ = run(capsys, "network")
        assert code_rad == code == 0
        assert abs(json.loads(out_rad)["S"] - json.loads(out)["S"]) < 1e-12


class TestExport:
    def test_json_round_trip_is_bit_exact(self):
        report = {"schema": "demo", "version": 1, "value": 0.1 + 0.2, "S": 2.296810488828509}
        parsed = json.loads(export(report, "json"))
        assert parsed["value"] == report["value"]
        assert parsed["S"] == report["S"]

    def test_csv_requires_sweep_schema(self):
        with pytest.raises(CliError):
            export({"schema": "optimum"}, "csv")

    def test_csv_digits(self):
        report = {"schema": "sweep", "samples": [[0.5, 2.2968104]]}
        line = export(report, "csv").decode().strip().split("\n")[1]
        mantissa = line.split(",")[1].split("e")[0]
        assert len(mantissa.replace(".", "").replace("-", "")) >= 12


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "4", "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4"],
            ["network", "--method", "brute_force"],
            ["tangle", "--n", "3"],
            ["reduce", "--n", "3", "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4"],
            ["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", "7",
             "--z", "0.9", "--theta", "1.0", "--gamma", "0.4", "--format", "csv"],
            ["optimize", "--budget", "300"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "network")
        code2, out2, _ = run(capsys, "network", "--output", str(path))
        assert code == code2 == 0
        assert out2 == ""
        assert path.read_bytes().decode() == out
