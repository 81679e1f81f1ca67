import errno
import inspect
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ejm
from ejm import analysis, network
from ejm.bases import LIMITS, PARAM_NAMES, _DOMAIN_ATOL
from ejm.cli import SCHEMA_VERSION, export, main
from ejm.qla import BlochVector

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"
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

    @pytest.mark.parametrize("below, want", [(False, 0), (True, 1)])
    def test_error_equal_to_tol_passes(self, capsys, below, want):
        # An error fails only above its tolerance, as in every other contract.
        report = json.loads(run(capsys, "verify", "--n", "3")[1])
        worst = max(report["gram_error"], report["completeness_error"])
        assert worst > 0.0
        tol = math.nextafter(worst, 0) if below else worst
        code, out, _ = run(capsys, "verify", "--n", "3", f"--tol={tol!r}")
        assert (code, json.loads(out)["ok"]) == (want, not below)


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

    def test_failed_cross_check_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(network, "CROSS_CHECK_ATOL", 1e-18)
        code, out, err = run(capsys, "network", "--method", "brute_force", "--cross-check")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_slack_band_z_reports_unit_tangle(self, capsys, sign):
        # |z| = 1/sqrt(3) - _DOMAIN_ATOL/2 is inside the domain slack; at the
        # default theta = pi/2, gamma = pi/4 every state's three-tangle is 1.
        z = sign * (1.0 / math.sqrt(3.0) - 0.5 * _DOMAIN_ATOL)
        code, out, _ = run(capsys, "tangle", "--n", "3", f"--z={z!r}")
        assert code == 0
        report = json.loads(out)
        assert report["iso_value"] == 1.0
        assert [entry["value"] for entry in report["values"]] == [1.0] * 8

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

    def test_report_builds_only_the_vector_sum(self, capsys, monkeypatch):
        made = []

        def counting(*xyz):
            made.append(xyz)
            return BlochVector(*xyz)

        monkeypatch.setattr(analysis, "BlochVector", counting)
        code, out, _ = run(capsys, "reduce", "--n", "8")
        assert code == 0
        report = json.loads(out)
        assert len(report["vectors"]) == 2**8 * 8
        assert made == [tuple(report["vector_sum"])]  # the vectors are written from the array


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

    def test_varying_parameter_flag_is_checked(self, capsys):
        code, out, err = run(capsys, "sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--phi", "99")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --phi") and len(err.strip().splitlines()) == 1

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
        # The headline 2.2968 on the z = 1 slice, and the higher full-box peak off it.
        code, out, _ = run(capsys, "optimize", "--budget", "20000", "--z-min", "1", "--z-max", "1")
        assert code == 0
        report = json.loads(out)
        assert abs(report["S"] - 2.2968) < 5e-4
        assert report["violated"] is True
        assert report["warning"] is False
        code, out, _ = run(capsys, "optimize", "--budget", "20000")
        assert code == 0
        report = json.loads(out)
        assert report["S"] >= 2.31275
        assert abs(report["params"]["z"] - 0.98263) < 1e-3
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

    def test_report_is_version_four_without_seed(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "300")
        assert code == 0
        report = json.loads(out)
        assert report["version"] == 4
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

    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--n", n] for command in ("verify", "reduce", "basis") for n in ("1", "9")),
            *(["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", p] for p in ("1", "100001")),
            *(["optimize", "--budget", b] for b in ("99", "1000001")),
        ],
        ids=" ".join,
    )
    def test_size_error_names_its_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {argv[-2]} ")

    @pytest.mark.parametrize("value", ["-5e-15", "-9e-1", "-1E+0", "-.5e-3", "-1_0.0", "-inf", "-nan", "-0.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            *(["network", f"--{name}"] for name in PARAM_NAMES),
            ["verify", "--tol"],
            ["sweep", "--vary", "gamma", "--points", "3", "--hi", "0.5", "--lo"],
            ["sweep", "--vary", "z", "--points", "3", "--lo", "-1", "--hi"],
            *(["optimize", "--budget", "100", f"--{name}-{end}"] for name in PARAM_NAMES for end in ("min", "max")),
        ],
        ids=" ".join,
    )
    def test_negative_value_after_a_space_reads_as_its_equals_form(self, capsys, argv, value):
        *head, flag = argv
        assert run(capsys, *head, flag, value) == run(capsys, *head, f"{flag}={value}")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_positive_and_finite(self, capsys, tol):
        code, out, err = run(capsys, "verify", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --tol ")

    @pytest.mark.parametrize("target", ["missing/report.json", ""], ids=["missing-directory", "a-directory"])
    def test_unwritable_output_is_invalid_input(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "network", "--output", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --output ")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_unwritable_stdout_is_invalid_input(self, capsys, monkeypatch, failing):
        class FullStdout(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stand_in = FullStdout()
        setattr(stand_in, failing, stand_in.fail)
        monkeypatch.setattr(sys, "stdout", stand_in)
        code = main(["network"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: stdout cannot be written: ") and os.strerror(errno.ENOSPC) in err

    def test_missing_stdout_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as Python sets it when fd 1 is closed at start
        code = main(["network"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: stdout cannot be written: stdout is closed\n"

    def test_closed_stdout_in_a_child_is_invalid_input(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(["sh", "-c", '"$0" -m ejm network >&-', sys.executable],
                               env=env, capture_output=True, text=True)
        assert child.returncode == 2
        assert child.stderr == "error: stdout cannot be written: stdout is closed\n"

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

    def test_degree_flag_leaves_radian_defaults_alone(self, capsys):
        code_deg, out_deg, _ = run(capsys, "network", "--deg", "--phi", str(math.degrees(0.1781)))
        code, out, _ = run(capsys, "network")
        assert code_deg == code == 0
        params = json.loads(out_deg)["params"]
        assert params["theta"] == math.pi / 2
        assert params["gamma"] == math.pi / 4
        assert abs(json.loads(out_deg)["S"] - json.loads(out)["S"]) < 1e-12

    def test_degree_flag_leaves_default_box_alone(self, capsys):
        code_deg, out_deg, _ = run(capsys, "optimize", "--deg", "--budget", "100")
        code, out, _ = run(capsys, "optimize", "--budget", "100")
        assert code_deg == code == 0
        assert out_deg == out

    def test_degree_flag_leaves_sweep_defaults_alone(self, capsys):
        code, out, _ = run(capsys, "sweep", "--deg", "--vary", "phi", "--lo", "0", "--hi", "90", "--points", "3")
        assert code == 0
        report = json.loads(out)
        assert report["fixed"] == {"z": 1.0, "theta": math.pi / 2, "gamma": math.pi / 4}
        assert report["hi"] == math.pi / 2


class TestExport:
    def test_json_round_trip_is_bit_exact(self):
        report = {"schema": "demo", "version": 1, "value": 0.1 + 0.2, "S": 2.296810488828509}
        parsed = json.loads(export(report, "json"))
        assert parsed["value"] == report["value"]
        assert parsed["S"] == report["S"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)), max_size=4))
    @example([(-0.0, 0.0), (5e-324, -2.2250738085072009e-308), (sys.float_info.max, -sys.float_info.max)])
    @example([(0.5, 2.296810411748562)])
    def test_csv_round_trip_is_bit_exact(self, samples):
        lines = export({"schema": "sweep", "samples": samples}, "csv").decode().splitlines()
        assert lines[0] == "value,S" and len(lines) == len(samples) + 1
        parsed = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
        assert [struct.pack("<2d", *row) for row in parsed] == [struct.pack("<2d", *row) for row in samples]

    @pytest.mark.parametrize("fmt", ["CSV", "xml", "", "Json"])
    def test_unknown_format_is_refused(self, fmt):
        with pytest.raises(ValueError, match="unknown report format"):
            export({"schema": "sweep", "version": 1, "samples": []}, fmt)


# One invocation per subcommand: its schema and every top-level field but schema and version.
ENVELOPES = {
    "verify": (["--n", "2"], "verify-report", {"n", "params", "gram_error", "completeness_error", "tol", "ok"}),
    "tangle": (["--n", "3"], "entanglement-report", {"n", "measure", "params", "values", "spread", "iso_value"}),
    "reduce": (["--n", "2"], "symmetry-report", {"n", "params", "vectors", "radii", "vector_sum",
                                                "parallelepiped_ok", "mirror_pairs_ok", "degenerate"}),
    "basis": (["--n", "2"], "basis", {"n", "params", "states"}),
    "network": ([], "correlation-report", {"params", "I", "S", "violated", "method"}),
    "sweep": (["--vary", "phi", "--lo", "0", "--hi", "1", "--points", "3"], "sweep",
              {"varying", "lo", "hi", "points", "fixed", "samples"}),
    "optimize": (["--budget", "100"], "optimum", {"params", "S", "violated", "budget", "n_evaluations", "warning"}),
}


@pytest.mark.parametrize("command", ENVELOPES)
def test_report_envelope(capsys, command):
    flags, schema, fields = ENVELOPES[command]
    code, out, _ = run(capsys, command, *flags)
    report = json.loads(out)
    assert code == 0
    assert set(report) == fields | {"schema", "version"}
    assert report["schema"] == schema
    assert report["version"] == SCHEMA_VERSION


# Nested keys, which come from the library's dataclass field names: a params
# block, the label of each listed entry plus the entry's own keys, a sweep's held values.
PARAMS_KEYS = {"z", "phi", "theta", "gamma", "phi_z"}
LABEL_KEYS = {"i", "j", "l"}
ENTRY_KEYS = {"values": {"value"}, "vectors": {"qubit", "vector"}, "states": {"amplitudes"}}


@pytest.mark.parametrize("command", ENVELOPES)
def test_report_nested_keys(capsys, command):
    flags, _, fields = ENVELOPES[command]
    code, out, _ = run(capsys, command, *flags)
    report = json.loads(out)
    assert code == 0
    if "params" in fields:
        assert set(report["params"]) == PARAMS_KEYS
    for key in fields & set(ENTRY_KEYS):
        assert report[key] and all(set(entry) == LABEL_KEYS | ENTRY_KEYS[key] for entry in report[key])
    if command == "sweep":
        assert set(report["fixed"]) == {"z", "theta", "gamma"}


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


def readme_examples():
    """argv of each single-line `ejm ...` command in the README's sh blocks, its comment dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("ejm ") and not line.endswith("\\")]


def test_readme_examples_run(capsys):
    examples = readme_examples()
    assert len(examples) >= 6
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        json.loads(out)
    (library_example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(library_example, {})
    assert capsys.readouterr().out.startswith("2.29681")


def readme_calls():
    """(name, parameter names) of each backticked `name(args)` in the README, defaults dropped."""
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`", README.read_text())
    return [(name, [arg.split("=")[0].strip(" *") for arg in args.split(",") if arg.strip()]) for name, args in calls]


def test_readme_size_table_matches_limits():
    section = README.read_text().split("## Size limits")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)`[^|]*\| ([\d ]+) to ([\d ]+) \| `(\w+)` \|$", section, re.M)
    assert len(rows) == len(LIMITS)
    assert {name: (int(lo.replace(" ", "")), int(hi.replace(" ", ""))) for name, lo, hi, _ in rows} == LIMITS
    for *_, checker in rows:
        assert callable(getattr(ejm, checker, None)), checker


def readme_targets():
    """Parameter names of every function and non-exception class defined in ejm or tests/oracles.py,
    by bare and by module-qualified name (``bases.check_limit``), and of every public
    method of those classes by bare name, ``self`` dropped; no third-party name."""
    modules = [ejm, *(value for value in vars(ejm).values() if isinstance(value, ModuleType)), oracles]
    targets = {}
    for module in modules:
        prefix = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            is_class = inspect.isclass(value) and not issubclass(value, Exception)
            own = getattr(value, "__module__", "").partition(".")[0] in ("ejm", "oracles")
            if not (own and (inspect.isfunction(value) or is_class)):
                continue
            params = tuple(inspect.signature(value).parameters)
            for key in (name, f"{prefix}.{name}"):
                targets.setdefault(key, set()).add(params)
            if is_class:
                for attr, method in vars(value).items():
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        targets.setdefault(attr, set()).add(tuple(inspect.signature(method).parameters)[1:])
    return targets


def test_readme_signatures_match_the_code():
    targets = readme_targets()
    calls = readme_calls()
    assert len(calls) >= 6
    for name, params in calls:
        assert name in targets, f"`{name}(...)` names no function, class or method of ejm or tests/oracles.py"
        assert targets[name] == {tuple(params)}, name


def test_readme_signature_check_fails_on_unknown_and_third_party_names():
    targets = readme_targets()
    assert targets["matrix"] == {()} and targets["reference_bases"] == {("theta",)}
    for name in ("deleted_function", "array", "np.array", "math.sqrt", "dataclass", "cache"):
        assert name not in targets, name
