import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ejm.network
from ejm.bases import INV_SQRT3, BasisFamily, BasisLabel, EjmParams, n_qubit_ejm, three_qubit_ejm
from ejm.network import (
    ALICE_OBSERVABLES,
    CorrelationReport,
    PSI_PLUS,
    StarScenario,
    correlation_I_analytic,
    correlation_I_bruteforce,
    joint_probability,
    outcome_table,
    star_state,
    tilde_state,
    trilocal_score,
)
from ejm.qla import ContractError, Operator, StateVector, ket, partial_trace

OPTIMUM = EjmParams(z=1.0, phi=0.1781, theta=math.pi / 2, gamma=math.pi / 4)
GENERIC = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
NEGATIVE_Z = EjmParams(z=-0.75, phi=-2.3, theta=0.3, gamma=1.1)
# Complex Alice eigenvectors and source amplitudes make every complex
# conjugation in the outcome table observable; the defaults are real.
_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
COMPLEX_OBSERVABLES = [_SIGMA_Y, (np.array([[0, 1], [1, 0]]) + _SIGMA_Y) / math.sqrt(2)]
COMPLEX_PAIR = np.array([0, 1, 1j, 0]) / math.sqrt(2)

# Closed-form correlation values at the reported optimum, frozen from the
# expressions in correlation_I_analytic (brute force must agree below).
FROZEN_I_OPTIMUM = (
    -0.09620568527458428,
    0.20529820463834525,
    0.29033550533039487,
    -0.2017555311374244,
)


def oracle_probability(params, inputs, alice_outputs, bob_outputs, observables=None, pair=None):
    """Independent Born-rule evaluation with explicitly assembled 64-dim
    projectors, kept free of the library's fast path.  observables and pair
    default to the library's Alice observables and |psi+> source."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    if observables is None:
        observables = [(sx + sz) / math.sqrt(2), (sx - sz) / math.sqrt(2)]
    total = np.eye(1, dtype=complex)
    for x, a in zip(inputs, alice_outputs):
        projector = (eye + (-1.0) ** a * observables[x]) / 2.0
        total = np.kron(total, projector)
    label = 2 * bob_outputs[0] + bob_outputs[1], bob_outputs[2]
    psi_b = three_qubit_ejm(params, label[0], label[1]).amplitudes
    total = np.kron(total, np.outer(psi_b, psi_b.conj()))
    if pair is None:
        pair = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    six = np.kron(np.kron(pair, pair), pair)  # pair order A1 B1 A2 B2 A3 B3
    star = six.reshape([2] * 6).transpose([0, 2, 4, 1, 3, 5]).reshape(-1)
    return float(np.real(np.vdot(star, total @ star)))


def tilde_000_expansion(params):
    """Amplitudes of the conjugated-and-flipped first basis state written in
    the d+- / r+- coefficient form."""
    z, phi, theta, gamma, pz = params.z, params.phi, params.theta, params.gamma, params.phi_z
    prefactor = (1 + 1j * math.sqrt(max(3 * z * z - 1, 0.0))) / (2 * math.sqrt(3) * abs(z))
    d0p = (math.cos(gamma) * math.sqrt(1 + z) + math.sin(gamma) * math.sqrt(1 - z)) / math.sqrt(2)
    d0m = (math.cos(gamma) * math.sqrt(1 + z) - math.sin(gamma) * math.sqrt(1 - z)) / math.sqrt(2)
    d1p = (math.cos(gamma) * math.sqrt(1 - z) + math.sin(gamma) * math.sqrt(1 + z)) / math.sqrt(2)
    d1m = (math.cos(gamma) * math.sqrt(1 - z) - math.sin(gamma) * math.sqrt(1 + z)) / math.sqrt(2)
    rp = (1 + cmath.exp(-1j * theta)) / math.sqrt(2)
    rm = (1 - cmath.exp(-1j * theta)) / math.sqrt(2)
    e = cmath.exp
    return prefactor * np.array(
        [
            -d1p * e(-1j * (1.5 * phi - pz)),
            -d0m * e(-1j * (0.5 * phi - pz)),
            -d1m * rm * e(-1j * 0.5 * phi),
            -d0p * rm * e(1j * 0.5 * phi),
            -d1m * rp * e(-1j * 0.5 * phi),
            -d0p * rp * e(1j * 0.5 * phi),
            d1p * e(1j * (0.5 * phi - pz)),
            d0m * e(1j * (1.5 * phi - pz)),
        ]
    )


class TestTildeState:
    def test_real_state_is_index_reversal(self):
        amps = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=float)
        state = StateVector(amps / np.linalg.norm(amps))
        got = tilde_state(state)
        assert np.array_equal(got.amplitudes, state.amplitudes[::-1])

    @pytest.mark.parametrize("params", [GENERIC, OPTIMUM, EjmParams(0.85, -2.0, 0.8, 0.0)])
    def test_amplitude_expansion(self, params):
        got = tilde_state(three_qubit_ejm(params, 0, 0))
        assert np.max(np.abs(got.amplitudes - tilde_000_expansion(params))) < 1e-12

    def test_involution_bit_exact(self):
        state = three_qubit_ejm(GENERIC, 2, 1)
        twice = tilde_state(tilde_state(state))
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-15

    def test_qubit_count_check(self):
        with pytest.raises(ValueError, match="3-qubit"):
            tilde_state(ket("01"))


class TestStarState:
    def test_norm(self):
        star = star_state(StarScenario(GENERIC))
        assert abs(np.linalg.norm(star.amplitudes) - 1.0) < 1e-12

    def test_bob_marginal_is_maximally_mixed(self):
        star = star_state(StarScenario(GENERIC))
        rho = partial_trace(star, {4, 5, 6})
        assert np.max(np.abs(rho.entries - np.eye(8) / 8.0)) < 1e-12

    @pytest.mark.parametrize("params", [GENERIC, OPTIMUM])
    def test_swap_overlaps(self, params):
        star = star_state(StarScenario(params))
        coefficient = 1.0 / (2.0 * math.sqrt(2.0))
        for b1, b2, b3 in product((0, 1), repeat=3):
            psi = three_qubit_ejm(params, 2 * b1 + b2, b3)
            overlap = np.vdot(
                np.kron(tilde_state(psi).amplitudes, psi.amplitudes), star.amplitudes
            )
            assert abs(abs(overlap) - coefficient) < 1e-10


class TestScenarioValidation:
    def test_default_observables_are_dichotomic(self):
        for obs in ALICE_OBSERVABLES:
            values = np.linalg.eigvalsh(obs.entries)
            assert np.max(np.abs(values - np.array([-1.0, 1.0]))) < 1e-12

    def test_bad_observable_rejected(self):
        bad = Operator(np.array([[2, 0], [0, -1]], dtype=complex))
        with pytest.raises(ValueError, match="eigenvalues"):
            StarScenario(GENERIC, alice_observables=(bad, ALICE_OBSERVABLES[1]))

    def test_corrupted_bob_basis_rejected(self):
        family = n_qubit_ejm(GENERIC, 3)
        states = dict(family.states)
        states[BasisLabel(0, (), 0)] = ket("000")
        with pytest.raises(ValueError, match="orthonormal"):
            StarScenario(GENERIC, bob_basis=BasisFamily(3, GENERIC, states))

    def test_wrong_source_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            StarScenario(GENERIC, source_state=ket("000"))


class TestJointProbability:
    def test_matches_frozen_oracle_value(self):
        got = joint_probability(StarScenario(OPTIMUM), (0, 0, 0), (0, 0, 0), (0, 0, 0))
        assert abs(got - 0.02781307906816021) < 1e-12
        assert abs(got - oracle_probability(OPTIMUM, (0, 0, 0), (0, 0, 0), (0, 0, 0))) < 1e-12

    def test_matches_projector_oracle_generic(self):
        scenario = StarScenario(GENERIC)
        rng = np.random.default_rng(0)
        for _ in range(10):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=9))
            x, a, b = bits[:3], bits[3:6], bits[6:]
            assert abs(
                joint_probability(scenario, x, a, b) - oracle_probability(GENERIC, x, a, b)
            ) < 1e-12

    @pytest.mark.parametrize(
        "params, observables, pair",
        [(GENERIC, None, None), (NEGATIVE_Z, None, None), (NEGATIVE_Z, COMPLEX_OBSERVABLES, COMPLEX_PAIR)],
        ids=["generic", "negative_z", "complex"],
    )
    def test_whole_table_matches_projector_oracle(self, params, observables, pair):
        if observables is None:
            scenario = StarScenario(params)
        else:
            scenario = StarScenario(
                params,
                source_state=StateVector(pair),
                alice_observables=tuple(Operator(o) for o in observables),
            )
        table = outcome_table(scenario)
        assert table.shape == (2, 2, 2, 2, 2, 2, 8)
        for x, a, b in product(product((0, 1), repeat=3), repeat=3):
            expected = oracle_probability(params, x, a, b, observables, pair)
            assert abs(table[(*x, *a, 4 * b[0] + 2 * b[1] + b[2])] - expected) < 1e-12

    def test_normalization_per_input(self):
        table = outcome_table(StarScenario(GENERIC))
        for x in product((0, 1), repeat=3):
            assert abs(table[x].sum() - 1.0) < 1e-10

    def test_positivity(self):
        table = outcome_table(StarScenario(GENERIC))
        assert table.min() >= -1e-12

    def test_bit_validation(self):
        with pytest.raises(ValueError, match="bits"):
            joint_probability(StarScenario(GENERIC), (0, 0, 2), (0, 0, 0), (0, 0, 0))


class TestCorrelations:
    def test_brute_force_equals_analytic_generic(self):
        scenario = StarScenario(GENERIC)
        table = outcome_table(scenario)
        for m in range(1, 5):
            brute = correlation_I_bruteforce(scenario, m, table=table)
            assert abs(brute - correlation_I_analytic(GENERIC, m)) < 1e-9

    def test_gamma_zero_kills_first_two(self):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.0)
        scenario = StarScenario(params)
        table = outcome_table(scenario)
        for m in (1, 2):
            assert correlation_I_analytic(params, m) == 0.0
            assert abs(correlation_I_bruteforce(scenario, m, table=table)) < 1e-10

    def test_frozen_values_at_optimum(self):
        scenario = StarScenario(OPTIMUM)
        table = outcome_table(scenario)
        for m, frozen in zip(range(1, 5), FROZEN_I_OPTIMUM):
            assert abs(correlation_I_analytic(OPTIMUM, m) - frozen) < 1e-15
            assert abs(correlation_I_bruteforce(scenario, m, table=table) - frozen) < 1e-6

    def test_analytic_zero_structure(self):
        # phi = phi_z - pi/4 makes the last correlator vanish and the third maximal
        from ejm.bases import phi_z

        params = EjmParams(z=1.0, phi=phi_z(1.0) - math.pi / 4, theta=math.pi / 2, gamma=0.3)
        assert abs(correlation_I_analytic(params, 4)) < 1e-15
        assert abs(correlation_I_analytic(params, 3) - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        z=st.floats(INV_SQRT3, 1.0),
        negative=st.booleans(),
        phi=st.floats(-math.pi, math.pi),
        theta=st.floats(0.0, math.pi / 2),
        gamma=st.floats(0.0, math.pi / 2),
    )
    def test_brute_force_equals_analytic_over_domain(self, z, negative, phi, theta, gamma):
        params = EjmParams(z=-z if negative else z, phi=phi, theta=theta, gamma=gamma)
        scenario = StarScenario(params)
        table = outcome_table(scenario)
        for m in range(1, 5):
            brute = correlation_I_bruteforce(scenario, m, table=table)
            assert abs(brute - correlation_I_analytic(params, m)) < 1e-12

    def test_m_validation(self):
        with pytest.raises(ValueError):
            correlation_I_analytic(GENERIC, 5)
        with pytest.raises(ValueError):
            correlation_I_bruteforce(StarScenario(GENERIC), 0)


def single_expression_score(params):
    """Whole-score closed form written as one expression, independent of the
    per-correlator route."""
    z, phi, theta, gamma, pz = params.z, params.phi, params.theta, params.gamma, params.phi_z
    cube = lambda v: abs(v) ** (1.0 / 3.0)
    quarter = math.pi / 4
    return (abs(z) ** (1.0 / 3.0) / 2.0) * (
        cube(math.sin(2 * gamma) * math.cos(2 * (phi - pz)) * math.sin(phi + quarter))
        + cube(2.0 * math.sin(2 * gamma) * math.sin(phi + quarter))
        + cube(math.sqrt(2.0) * (1.0 + math.sin(theta)) * math.cos(phi - pz + quarter))
        + cube(math.sqrt(2.0) * (1.0 + math.sin(theta)) * math.sin(phi - pz + quarter))
    )


class TestTrilocalScore:
    def test_headline_value(self):
        report = trilocal_score(OPTIMUM)
        assert abs(report.S - 2.2968) < 5e-4
        assert report.violated

    def test_second_optimum(self):
        params = EjmParams(z=1.0, phi=1.3921, theta=math.pi / 2, gamma=math.pi / 4)
        assert abs(trilocal_score(params).S - 2.2968) < 5e-4

    def test_no_violation_at_minimal_z(self):
        for phi in np.linspace(0.0, math.pi, 200):
            params = EjmParams(z=1.0 / math.sqrt(3.0), phi=float(phi), theta=math.pi / 2, gamma=math.pi / 4)
            report = trilocal_score(params)
            assert report.S <= 2.0 + 1e-9
            assert not report.violated

    def test_matches_single_expression_form(self, small_grid):
        for params in small_grid:
            assert abs(trilocal_score(params).S - single_expression_score(params)) < 1e-12

    def test_brute_force_method(self):
        report = trilocal_score(GENERIC, method="brute_force")
        assert isinstance(report, CorrelationReport)
        assert report.method == "brute_force"
        assert abs(report.S - trilocal_score(GENERIC).S) < 1e-9

    def test_cross_check_passes(self):
        report = trilocal_score(OPTIMUM, cross_check=True)
        assert report.method == "analytic"

    def test_cross_check_detects_mismatch(self, monkeypatch):
        monkeypatch.setattr(ejm.network, "CROSS_CHECK_ATOL", 1e-18)
        with pytest.raises(ContractError, match="disagree"):
            trilocal_score(GENERIC, cross_check=True)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            trilocal_score(GENERIC, method="exact")


def no_signaling_deviation(table):
    """Largest change of any party's output marginal under other parties'
    inputs; zero for a non-signaling distribution."""
    worst = 0.0
    for party, output_axis in enumerate((3, 4, 5)):
        summed_axes = tuple(a for a in (3, 4, 5, 6) if a != output_axis)
        marginal = table.sum(axis=summed_axes)  # shape (2,2,2,2): x1,x2,x3,a
        own = np.moveaxis(marginal, party, 0)  # own input first
        for x_own in (0, 1):
            flat = own[x_own].reshape(4, 2)
            worst = max(worst, float(np.max(np.abs(flat - flat[0]))))
    bob = table.sum(axis=(3, 4, 5)).reshape(8, 8)
    worst = max(worst, float(np.max(np.abs(bob - bob[0]))))
    return worst


class TestNoSignaling:
    def test_marginals_input_independent(self):
        table = outcome_table(StarScenario(GENERIC))
        assert no_signaling_deviation(table) < 1e-10
