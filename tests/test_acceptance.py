"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import math
from itertools import product

import numpy as np
import pytest

from ejm.analysis import (
    reduced_bloch_vectors,
    reduction_law,
    symmetry_report,
    three_tangle,
    verify_orthonormal_complete,
)
from ejm.bases import EjmParams, INV_SQRT3, n_qubit_ejm
from ejm.cli import main as cli_main
from ejm.network import (
    StarScenario,
    correlation_I_analytic,
    correlation_I_bruteforce,
    outcome_table,
    trilocal_score,
)
from ejm.optimize import SweepSpec, maximize, sweep
from ejm.qla import StateVector, partial_trace

from conftest import star_state, tilde_state
from oracles import reference_bases
from test_network import bob_state, no_signaling_deviation, tilde_000_expansion


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def grid_families(grid_params):
    return {
        n: [(params, n_qubit_ejm(params, n)) for params in grid_params]
        for n in (2, 3, 4, 5)
    }


@pytest.fixture(scope="module")
def grid_tables(grid_params):
    return [(params, outcome_table(StarScenario(params))) for params in grid_params]


@criterion(1, "orthonormality and completeness on the full grid, n = 2..5")
def test_criterion_01_orthonormal_complete(grid_families):
    for n, families in grid_families.items():
        for params, family in families:
            report = verify_orthonormal_complete(family)
            assert report.gram_error < 1e-9, (n, params)
            assert report.completeness_error < 1e-9, (n, params)


@criterion(2, "three-tangle law sin^2(2g) sin(t) on all 8 states, GHZ/W anchors")
def test_criterion_02_three_tangle(grid_families):
    ghz = StateVector(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
    w = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
    assert abs(three_tangle(ghz) - 1.0) < 1e-12
    assert three_tangle(w) < 1e-12
    for params, family in grid_families[3]:
        expected = math.sin(2 * params.gamma) ** 2 * math.sin(params.theta)
        for state in family.states.values():
            assert abs(three_tangle(state) - expected) < 1e-9, params


@criterion(3, "reduction closed forms, vanishing sums, odd-n special qubit")
def test_criterion_03_reductions(grid_families):
    # the law puts +-cos(2g) m_i on the odd-n final position, the block vectors on all others
    for n, bound in ((3, 1e-10), (4, 1e-10), (5, 1e-9)):
        for params, family in grid_families[n]:
            vectors = reduced_bloch_vectors(family).rows
            assert np.max(np.abs(vectors - reduction_law(params, n))) < bound, (n, params)
            assert np.linalg.norm(vectors.sum(axis=(0, 1))) < 1e-9, (n, params)


@criterion(4, "tetrahedron radii 1/sqrt(2) at t=0, g=pi/8; parallelepipeds on the grid")
def test_criterion_04_geometry(grid_params, grid_families):
    seen = set()
    for params in grid_params:
        key = (params.z, params.phi)
        if key in seen:
            continue
        seen.add(key)
        special = EjmParams(z=params.z, phi=params.phi, theta=0.0, gamma=math.pi / 8)
        report = symmetry_report(n_qubit_ejm(special, 3))
        assert len(report.radii) == 1, special
        assert abs(report.radii[0] - 1.0 / math.sqrt(2.0)) < 1e-10, special
    for n in (3, 4):
        for params, family in grid_families[n]:
            report = symmetry_report(family)
            assert report.parallelepiped_ok, (n, params)
            assert report.mirror_pairs_ok, (n, params)


@criterion(5, "swap overlaps 1/(2 sqrt(2)); conjugated-state amplitude expansion")
def test_criterion_05_entanglement_swapping(grid_params):
    coefficient = 1.0 / (2.0 * math.sqrt(2.0))
    star = star_state()
    for params in grid_params:
        for b1, b2, b3 in product((0, 1), repeat=3):
            psi = bob_state(params, b1, b2, b3)
            overlap = np.vdot(
                np.kron(tilde_state(psi).amplitudes, psi.amplitudes), star.amplitudes
            )
            assert abs(abs(overlap) - coefficient) < 1e-10, params
        got = tilde_state(bob_state(params, 0, 0, 0)).amplitudes
        assert np.max(np.abs(got - tilde_000_expansion(params))) < 1e-12, params


@criterion(6, "brute-force Born-rule correlations equal the closed forms")
def test_criterion_06_oracle_equivalence(grid_tables):
    for params, table in grid_tables:
        for m in range(1, 5):
            brute = correlation_I_bruteforce(table, m)
            analytic = correlation_I_analytic(params, m)
            assert abs(brute - analytic) < 1e-9, (params, m)


@criterion(7, "headline score 2.2968 and optimizer relocation of the maximum")
def test_criterion_07_headline():
    headline = EjmParams(z=1.0, phi=0.1781, theta=math.pi / 2, gamma=math.pi / 4)
    assert abs(trilocal_score(headline).S - 2.2968) < 5e-4
    mirrored = EjmParams(z=1.0, phi=1.3921, theta=math.pi / 2, gamma=math.pi / 4)
    assert abs(trilocal_score(mirrored).S - 2.2968) < 5e-4
    # The headline is the optimum on the z = 1 slice over the curves' phi range [0, pi].
    result = maximize({"z": (1.0, 1.0), "phi": (0.0, math.pi)}, budget=20000)
    assert result.S >= 2.2960
    assert min(abs(result.params.phi - 0.1781), abs(result.params.phi - 1.3921)) < 0.02
    # Off that slice the full box peaks higher.
    result = maximize(budget=20000)
    assert result.S >= 2.31275
    assert abs(result.params.z - 0.98263) < 1e-3


@criterion(8, "violation curve shapes for z = 1, 1/sqrt(2), 1/sqrt(3)")
def test_criterion_08_curve_shapes():
    fixed = {"theta": math.pi / 2, "gamma": math.pi / 4}
    maxima = {}
    for z in (1.0, 1.0 / math.sqrt(2.0), INV_SQRT3):
        spec = SweepSpec(varying="phi", lo=0.0, hi=math.pi, points=200,
                         fixed={"z": z, **fixed})
        maxima[z] = max(score for _, score in sweep(spec))
    assert maxima[1.0] > 2.0
    assert maxima[1.0 / math.sqrt(2.0)] > 2.0
    assert maxima[INV_SQRT3] <= 2.0 + 1e-9


@criterion(9, "reduction to the single-parameter family and the Bell limit")
def test_criterion_09_known_bases():
    for theta in (0.0, 0.4, 1.0, math.pi / 2):
        params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=theta, gamma=0.0)
        ours = n_qubit_ejm(params, 2).matrix()
        reference = reference_bases(theta).matrix()
        overlap = np.abs(ours.conj() @ reference.T)
        matches = overlap > 1.0 - 1e-10
        assert matches.sum(axis=0).tolist() == [1, 1, 1, 1], theta
        assert matches.sum(axis=1).tolist() == [1, 1, 1, 1], theta
    bell_limit = reference_bases(math.pi / 2)
    for state in bell_limit.states.values():
        for qubit in (1, 2):
            rho = partial_trace(state, qubit)
            assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-10


@criterion(10, "normalization and no-signaling on the grid; reproducible CLI")
def test_criterion_10_property_suite(grid_tables, capsys, tmp_path):
    for params, table in grid_tables:
        for x in product((0, 1), repeat=3):
            assert abs(table[x].sum() - 1.0) < 1e-10, (params, x)
        assert no_signaling_deviation(table) < 1e-10, params
    commands = [
        ["network"],
        ["verify", "--n", "4", "--z", "0.9", "--phi", "0.5", "--theta", "1.0", "--gamma", "0.4"],
        ["sweep", "--vary", "phi", "--lo", "0", "--hi", "1", "--points", "9",
         "--z", "0.9", "--theta", "1.0", "--gamma", "0.4", "--format", "csv"],
        ["optimize", "--budget", "300"],
    ]
    for argv in commands:
        first_path = tmp_path / "first.bin"
        second_path = tmp_path / "second.bin"
        assert cli_main(argv + ["--output", str(first_path)]) in (0, 1)
        assert cli_main(argv + ["--output", str(second_path)]) in (0, 1)
        capsys.readouterr()
        assert first_path.read_bytes() == second_path.read_bytes(), argv
