"""Tests of the benchmark's own code: every check rejects a perturbed output,
the tracer counts what it should, and a reduced pass of every workload runs.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import ejm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

POINT = checks.draw_geometry_point(random.Random(7))
MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bump(value: float, by: float = 1e-9) -> float:
    return value + by


# -- geometry ----------------------------------------------------------------


@pytest.fixture(scope="module", params=[3, 4])
def family_outputs(request):
    n = request.param
    family = ejm.n_qubit_ejm(ejm.EjmParams(*POINT), n)
    states = np.array([s.amplitudes for s in family.states.values()])
    return n, family, states, ejm.verify_orthonormal_complete(family), ejm.symmetry_report(family)


def test_geometry_checks_pass_on_program_output(family_outputs):
    n, family, states, ortho, report = family_outputs
    assert checks.orthonormality_problems(ortho.gram_error, ortho.completeness_error) == []
    assert checks.symmetry_problems(POINT, n, report) == []
    assert checks.bloch_problems(states, family.labels, n, report.vectors) == []


def test_orthonormality_check_rejects_errors(family_outputs):
    _, _, _, ortho, _ = family_outputs
    assert checks.orthonormality_problems(bump(ortho.gram_error), ortho.completeness_error)
    assert checks.orthonormality_problems(ortho.gram_error, bump(ortho.completeness_error))
    assert checks.orthonormality_problems(math.nan, ortho.completeness_error)


@pytest.mark.parametrize(
    "change",
    [
        lambda r: {"vector_sum": ejm.BlochVector(r.vector_sum.x, bump(r.vector_sum.y, 1e-6), r.vector_sum.z)},
        lambda r: {"mirror_pairs_ok": False},
        lambda r: {"parallelepiped_ok": False},
        lambda r: {"degenerate": True},
        lambda r: {"radii": (bump(r.radii[0], 1e-6),) + tuple(r.radii[1:])},
        lambda r: {"radii": tuple(r.radii) + (0.5,)},
    ],
)
def test_symmetry_check_rejects_each_perturbation(family_outputs, change):
    n, _, _, _, report = family_outputs
    assert checks.symmetry_problems(POINT, n, dataclasses.replace(report, **change(report)))


def test_bloch_check_rejects_a_moved_vector(family_outputs):
    n, family, states, _, report = family_outputs
    vectors = dict(report.vectors)
    key = (family.labels[-1], n)
    v = vectors[key]
    vectors[key] = ejm.BlochVector(v.x, v.y, bump(v.z))
    assert checks.bloch_problems(states, family.labels, n, vectors)


def test_tangle_check():
    family = ejm.n_qubit_ejm(ejm.EjmParams(*POINT), 3)
    tangles = [ejm.three_tangle(s) for s in family.states.values()]
    assert checks.tangle_problems(POINT, tangles) == []
    tangles[2] = bump(tangles[2])
    assert checks.tangle_problems(POINT, tangles)


def test_geometry_points_avoid_degenerate_sets():
    rng = random.Random(1)
    for _ in range(200):
        point = checks.draw_geometry_point(rng)
        block, tail = checks.reduction_radii(point)
        assert min(block, tail, abs(block - tail)) >= checks.GEOMETRY_MARGIN
        assert checks.INV_SQRT3 <= abs(point[0]) <= 1 - checks.GEOMETRY_MARGIN


# -- network -----------------------------------------------------------------


@pytest.fixture(scope="module")
def network_outputs():
    p = ejm.EjmParams(*workloads.HEADLINE)
    report = ejm.trilocal_score(p, method="brute_force", cross_check=True)
    scenario = ejm.StarScenario(p)
    table = ejm.outcome_table(scenario)
    analytic = [ejm.correlation_I_analytic(p, m) for m in range(1, 5)]
    bob = np.array([s.amplitudes for s in scenario.bob_basis.states.values()])
    return report, analytic, table, checks.born_table(bob)


def test_network_checks_pass_on_program_output(network_outputs):
    report, analytic, table, own = network_outputs
    assert checks.network_problems(report.I, analytic, table, own, report.S, headline=True) == []


def test_normalization_check(network_outputs):
    _, _, table, _ = network_outputs
    broken = table.copy()
    broken[0, 1, 0, 1, 1, 0, 3] += 1e-9
    assert any("miss 1" in p for p in checks.table_problems(broken))


def test_no_signalling_check(network_outputs):
    _, _, table, _ = network_outputs
    broken = table.copy()
    # Move mass between Alice 1's outputs only when Alice 2's input is 1:
    # every row still sums to 1, but Alice 1's marginal now signals.
    broken[:, 1, :, 0, :, :, :] += 1e-9
    broken[:, 1, :, 1, :, :, :] -= 1e-9
    problems = checks.table_problems(broken)
    assert problems and all("marginal" in p for p in problems)


def test_network_check_rejects_each_perturbation(network_outputs):
    report, analytic, table, own = network_outputs
    I = list(report.I)
    assert checks.network_problems([bump(I[0])] + I[1:], analytic, table, own, report.S, headline=False)
    moved = own.copy()
    moved[1, 0, 0, 0, 0, 0, 5] += 1e-9
    assert checks.network_problems(I, analytic, table, moved, report.S, headline=False)
    assert checks.network_problems(I, analytic, table, own, 2.2970, headline=True)


def test_reference_correlations_match_closed_forms():
    point = (0.8, -1.1, 0.4, 0.3)
    family = ejm.n_qubit_ejm(ejm.EjmParams(*point), 3)
    bob = np.array([s.amplitudes for s in family.states.values()])
    own = checks.correlations(checks.born_table(bob))
    np.testing.assert_allclose(own, checks.closed_form_I(*point), atol=1e-14)


# -- search ------------------------------------------------------------------


def test_sweep_checks():
    spec = ejm.SweepSpec("gamma", 0.0, math.pi / 2, 50, {"z": -0.7, "phi": 0.3, "theta": 1.0})
    samples = ejm.sweep(spec)
    args = ("gamma", 0.0, math.pi / 2, 50, dict(spec.fixed))
    assert checks.sweep_problems(samples, *args) == []
    moved = list(samples)
    moved[20] = (moved[20][0], bump(moved[20][1]))
    assert checks.sweep_problems(moved, *args)
    shifted = list(samples)
    shifted[20] = (bump(shifted[20][0]), shifted[20][1])
    assert checks.sweep_problems(shifted, *args)
    assert checks.sweep_problems(samples[:-1], *args)


def test_curve_check():
    assert checks.curve_problems(1.0, [1.9, 2.1], True) == []
    assert checks.curve_problems(1.0, [1.9, 2.0], True)
    assert checks.curve_problems(checks.INV_SQRT3, [1.9, 2.01], False)


def test_brute_force_check():
    point = (1.0, 0.4, 1.2, 0.5)
    brute_I, analytic_I = workloads.Search._brute_force(point)
    S = ejm.trilocal_score(ejm.EjmParams(*point)).S
    assert checks.brute_force_problems(S, brute_I, analytic_I) == []
    assert checks.brute_force_problems(bump(S), brute_I, analytic_I)
    assert checks.brute_force_problems(S, brute_I, [bump(analytic_I[0])] + analytic_I[1:])


def test_score_tolerance_is_tight_away_from_zero():
    assert checks.score_tolerance([0.1, 0.2, 0.1, 0.3]) < 2e-11
    assert checks.score_tolerance([0.0, 0.2, 0.1, 0.3]) > 1e-5


def test_optimum_and_grid_checks():
    box = checks.box_of({"z": 0.9})
    assert checks.optimum_problems((0.9, 0.0, 0.1, 0.1), box) == []
    assert checks.optimum_problems((0.91, 0.0, 0.1, 0.1), box)
    assert checks.optimum_problems((0.9, 0.0, 1.6, 0.1), box)
    top = checks.dense_grid_max(checks.box_of({"z": 1.0, "theta": math.pi / 2}))
    assert checks.below_grid_problems(top, top) == []
    assert checks.below_grid_problems(top - 1e-9, top)


# -- cli ---------------------------------------------------------------------


def test_report_comparison():
    expected = {"schema": "sweep", "S": 2.5, "n": 3, "ok": True, "v": [1.0, 2.0]}
    actual = json.loads(json.dumps({**expected, "extra": 1}))
    assert checks.mismatches(expected, actual) == []
    assert checks.mismatches(expected, {**actual, "S": math.nextafter(2.5, 3.0)})
    assert checks.mismatches(expected, {**actual, "schema": "optimum"})
    assert checks.mismatches(expected, {**actual, "n": 3.0})
    assert checks.mismatches(expected, {**actual, "ok": 1})
    assert checks.mismatches(expected, {**actual, "v": [1.0]})
    assert checks.mismatches(expected, {k: v for k, v in actual.items() if k != "S"})


def test_cli_expected_reports_match_in_process_output():
    cli = workloads.Cli(seed=4)
    cli.prepare()
    for command, argv in cli.mix.items():
        code, out, _ = workloads.run_in_process(argv)
        assert code == 0
        assert checks.mismatches(cli.expected[command], json.loads(out)) == [], command


# -- tracing and the harness -------------------------------------------------


def test_scipy_import_parser_counts_outermost_scipy_imports():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:        50 |        150 |   scipy",
            "import time:        20 |         20 |     scipy.linalg._x",
            "import time:        30 |        300 |   scipy.optimize",
            "import time:        10 |        460 | ejm.optimize",
            "import time:         5 |          5 | numpy.fft",
        ]
    )
    assert run.scipy_import_seconds(text) == pytest.approx(450e-6)


@pytest.mark.parametrize("name", ["geometry", "network", "search", "cli"])
@pytest.mark.parametrize("traced", [False, True])
def test_reduced_pass_of_every_workload(name, traced):
    tracer = tracing.Tracer() if traced else None
    workload = run.run_workload(name, seed=3, seconds=0, tracer=tracer)
    assert workload.rounds == run.MIN_ROUNDS
    assert workload.problems == []
    assert workload.attempted > 0
    # At most one operation per round fails: the known program fault.
    assert workload.failed <= workload.rounds
    for value, _ in workload.metrics().values():
        assert value > 0
    # Every workload prints every end-to-end metric of the manifest; run.py
    # adds set-up time and peak memory to the workload's own timings.
    end_to_end = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {n: u for n, (_, u) in workload.metrics().items()} | {"setup_s": "s", "peak_rss_mb": "MB"} == end_to_end
    if traced:
        layer = tracer.metrics(workload.rounds)
        assert set(layer) == set(tracing.METRICS) - {
            "cli.interpreter_s", "cli.import_s", "cli.import_scipy_s", "cli.modules_imported"
        }


def test_tracer_metrics_are_the_manifest_per_layer_metrics():
    assert tracing.METRICS == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


def test_tracer_counts_are_exact_per_round():
    tracer = tracing.Tracer()
    workload = run.run_workload("geometry", seed=5, seconds=0, tracer=tracer)
    layer = tracer.metrics(workload.rounds)
    assert layer["bases.n_qubit_ejm.count"] == 7
    sizes = range(2, 9)
    assert layer["qla.partial_trace.count"] == sum(2**n * n for n in sizes)
    assert layer["network.trilocal_score.count"] == 0
    assert layer["bases.n_qubit_ejm.n8.ms_p50"] > layer["bases.n_qubit_ejm.n3.ms_p50"] > 0
    # Uninstalling restores every original binding.
    assert ejm.analysis.partial_trace is ejm.qla.partial_trace
    assert ejm.network.n_qubit_ejm is ejm.bases.n_qubit_ejm


def test_tracer_splits_maximize_into_grid_and_refinement():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = ejm.maximize({"z": (1.0, 1.0), "theta": (math.pi / 2, math.pi / 2)}, budget=2000)
    finally:
        tracer.uninstall()
    layer = tracer.metrics(1)
    assert layer["optimize.maximize.evaluations"] == len(result.trace)
    assert layer["optimize.maximize.grid_evaluations"] == 81
    assert layer["network.trilocal_score.count"] == len(result.trace)
    assert layer["optimize.minimize.count"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "network", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
