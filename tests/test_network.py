import cmath
import math
import re
from functools import reduce
from itertools import product
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import BOUNDARY, domain_params, ket, star_state, tilde_state
from oracles import transpose_trace
from hypothesis import strategies as st

import ejm.network
from ejm.bases import INV_SQRT3, BasisFamily, BasisLabel, EjmParams, n_qubit_ejm
from ejm.cli import main
from ejm.network import (
    ALICE_OBSERVABLES,
    CorrelationReport,
    StarScenario,
    correlation_I_analytic,
    correlation_I_bruteforce,
    cube_root_sum,
    outcome_table,
    trilocal_score,
)
from ejm.qla import ContractError, StateVector

OPTIMUM = EjmParams(z=1.0, phi=0.1781, theta=math.pi / 2, gamma=math.pi / 4)
GENERIC = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
NEGATIVE_Z = EjmParams(z=-0.75, phi=-2.3, theta=0.3, gamma=1.1)

# Closed-form correlation values at the reported optimum, frozen from the
# expressions in correlation_I_analytic (brute force must agree below).
FROZEN_I_OPTIMUM = (
    -0.09620568527458428,
    0.20529820463834525,
    0.29033550533039487,
    -0.2017555311374244,
)


def oracle_probability(params, inputs, alice_outputs, bob_outputs):
    """Independent Born-rule evaluation with explicitly assembled 64-dim
    projectors, kept free of the library's fast path."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    observables = [(sx + sz) / math.sqrt(2), (sx - sz) / math.sqrt(2)]
    total = np.eye(1, dtype=complex)
    for x, a in zip(inputs, alice_outputs):
        projector = (eye + (-1.0) ** a * observables[x]) / 2.0
        total = np.kron(total, projector)
    psi_b = bob_state(params, *bob_outputs).amplitudes
    total = np.kron(total, np.outer(psi_b, psi_b.conj()))
    star = star_state().amplitudes
    return float(np.real(np.vdot(star, total @ star)))


def bob_state(params, b1, b2, b3):
    """Bob's three-qubit basis state for raw output b1 b2 b3 (i = 2*b1 + b2, l = b3)."""
    return n_qubit_ejm(params, 3).states[BasisLabel(2 * b1 + b2, (), b3)]


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
        got = tilde_state(bob_state(params, 0, 0, 0))
        assert np.max(np.abs(got.amplitudes - tilde_000_expansion(params))) < 1e-12

    def test_involution_bit_exact(self):
        state = bob_state(GENERIC, 1, 0, 1)
        twice = tilde_state(tilde_state(state))
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-15


class TestStarState:
    def test_norm(self):
        star = star_state()
        assert abs(np.linalg.norm(star.amplitudes) - 1.0) < 1e-12

    def test_bob_marginal_is_maximally_mixed(self):
        star = star_state()
        rho = transpose_trace(star, (4, 5, 6))
        assert np.max(np.abs(rho - np.eye(8) / 8.0)) < 1e-12

    @pytest.mark.parametrize("params", [GENERIC, OPTIMUM])
    def test_swap_overlaps(self, params):
        star = star_state()
        coefficient = 1.0 / (2.0 * math.sqrt(2.0))
        for b1, b2, b3 in product((0, 1), repeat=3):
            psi = bob_state(params, b1, b2, b3)
            overlap = np.vdot(
                np.kron(tilde_state(psi).amplitudes, psi.amplitudes), star.amplitudes
            )
            assert abs(abs(overlap) - coefficient) < 1e-10

    def test_alice_star_is_the_projected_star_state(self):
        alice = ejm.network._ALICE
        star = star_state().amplitudes.reshape(2, 2, 2, 8)
        expected = np.einsum("pai,qbj,rck,ijkB->pqrabcB", alice, alice, alice, star)
        assert np.array_equal(ejm.network._ALICE_STAR, expected)


class TestScenarioValidation:
    def test_default_observables_are_dichotomic(self):
        for obs in ALICE_OBSERVABLES:
            values = np.linalg.eigvalsh(obs)
            assert np.max(np.abs(values - np.array([-1.0, 1.0]))) < 1e-12

    def test_corrupted_bob_basis_rejected(self, monkeypatch, capsys):
        def corrupted(params, n):
            family = n_qubit_ejm(params, n)
            rows = family.matrix().copy()
            rows[family.labels.index(BasisLabel(0, (), 0))] = ket("000").amplitudes
            return BasisFamily(rows)

        monkeypatch.setattr(ejm.network, "n_qubit_ejm", corrupted)
        with pytest.raises(ContractError, match="orthonormal"):
            StarScenario(GENERIC)
        assert main(["network", "--method", "brute_force"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_constants_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            ejm.network._ALICE_STAR[0, 0, 0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ejm.network._ALICE[0, 0, 0] = 1.0
        for target in (ejm.network.ALICE_OBSERVABLES, ejm.network.ALICE_OBSERVABLES[1]):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 1.0
        # A caller's write into one table must not reach a later one.
        scenario = StarScenario(GENERIC)
        before = outcome_table(scenario).copy()
        outcome_table(scenario)[...] = 0.0
        assert np.array_equal(outcome_table(scenario), before)


class TestJointProbability:
    def test_matches_frozen_oracle_value(self):
        got = outcome_table(StarScenario(OPTIMUM))[(0, 0, 0, 0, 0, 0, 0)]
        assert abs(got - 0.02781307906816021) < 1e-12
        assert abs(got - oracle_probability(OPTIMUM, (0, 0, 0), (0, 0, 0), (0, 0, 0))) < 1e-12

    def test_matches_projector_oracle_generic(self):
        table = outcome_table(StarScenario(GENERIC))
        rng = np.random.default_rng(0)
        for _ in range(10):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=9))
            x, a, b = bits[:3], bits[3:6], bits[6:]
            got = table[(*x, *a, 4 * b[0] + 2 * b[1] + b[2])]
            assert abs(got - oracle_probability(GENERIC, x, a, b)) < 1e-12

    @pytest.mark.parametrize("params", [GENERIC, NEGATIVE_Z], ids=["generic", "negative_z"])
    def test_whole_table_matches_projector_oracle(self, params):
        table = outcome_table(StarScenario(params))
        assert table.shape == (2, 2, 2, 2, 2, 2, 8)
        for x, a, b in product(product((0, 1), repeat=3), repeat=3):
            expected = oracle_probability(params, x, a, b)
            assert abs(table[(*x, *a, 4 * b[0] + 2 * b[1] + b[2])] - expected) < 1e-12

    def test_normalization_per_input(self):
        table = outcome_table(StarScenario(GENERIC))
        for x in product((0, 1), repeat=3):
            assert abs(table[x].sum() - 1.0) < 1e-10

    def test_positivity(self):
        table = outcome_table(StarScenario(GENERIC))
        assert table.min() >= -1e-12


class TestCorrelations:
    def test_brute_force_equals_analytic_generic(self):
        table = outcome_table(StarScenario(GENERIC))
        for m in range(1, 5):
            brute = correlation_I_bruteforce(table, m)
            assert abs(brute - correlation_I_analytic(GENERIC, m)) < 1e-9

    def test_gamma_zero_kills_first_two(self):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.0)
        table = outcome_table(StarScenario(params))
        for m in (1, 2):
            assert correlation_I_analytic(params, m) == 0.0
            assert abs(correlation_I_bruteforce(table, m)) < 1e-10

    def test_frozen_values_at_optimum(self):
        table = outcome_table(StarScenario(OPTIMUM))
        for m, frozen in zip(range(1, 5), FROZEN_I_OPTIMUM):
            assert abs(correlation_I_analytic(OPTIMUM, m) - frozen) < 1e-15
            assert abs(correlation_I_bruteforce(table, m) - frozen) < 1e-6

    def test_analytic_zero_structure(self):
        # phi = phi_z - pi/4 makes the last correlator vanish and the third maximal
        phi_z = EjmParams(z=1.0, phi=0.0, theta=0.0, gamma=0.0).phi_z
        params = EjmParams(z=1.0, phi=phi_z - math.pi / 4, theta=math.pi / 2, gamma=0.3)
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
        table = outcome_table(StarScenario(params))
        for m in range(1, 5):
            brute = correlation_I_bruteforce(table, m)
            assert abs(brute - correlation_I_analytic(params, m)) < 1e-12

    def test_m_validation(self):
        with pytest.raises(ValueError):
            correlation_I_analytic(GENERIC, 5)
        with pytest.raises(ValueError):
            correlation_I_bruteforce(outcome_table(StarScenario(GENERIC)), 0)

    @staticmethod
    def route(method):
        """I_m at GENERIC as a function of m, by the closed form or the outcome table."""
        if method == "analytic":
            return lambda m: correlation_I_analytic(GENERIC, m)
        table = outcome_table(StarScenario(GENERIC))
        return lambda m: correlation_I_bruteforce(table, m)

    @pytest.mark.parametrize("m", [True, False, 1.0, np.float64(2.0), "1", None, 0, 5])
    @pytest.mark.parametrize("method", ["analytic", "brute_force"])
    def test_m_must_be_an_integer_in_range(self, method, m):
        with pytest.raises(ValueError, match="must be 1..4"):
            self.route(method)(m)

    @pytest.mark.parametrize("method", ["analytic", "brute_force"])
    def test_numpy_integer_m_is_accepted(self, method):
        correlation = self.route(method)
        assert [correlation(np.int64(m)) for m in range(1, 5)] == [correlation(m) for m in range(1, 5)]

    @pytest.mark.parametrize("reshape", [
        lambda t: np.full(512, 1 / 512),
        lambda t: np.zeros((8, 64)),
        lambda t: t.reshape(8, 8, 8),
        lambda t: t.T,
        lambda t: t[..., :4],
        lambda t: t.tolist(),
    ], ids=["flat", "8x64", "8x8x8", "transposed", "half", "list"])
    def test_table_must_be_an_outcome_table_array(self, reshape):
        table = reshape(outcome_table(StarScenario(GENERIC)))
        message = f"outcome_table's shape (2, 2, 2, 2, 2, 2, 8), not {np.shape(table)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            correlation_I_bruteforce(table, 1)
        with pytest.raises(ValueError, match="must be 1..4"):
            correlation_I_bruteforce(table, 5)  # m is checked first


def bit_identity_points():
    """200 seeded domain points, half with negative z, then the domain's
    corners and edges (|z| = 1/sqrt(3) and 1, theta and gamma in {0, pi/2})."""
    rng = np.random.default_rng(28)
    drawn = [
        EjmParams(z=sign * rng.uniform(INV_SQRT3, 1.0), phi=rng.uniform(-math.pi, math.pi),
                  theta=rng.uniform(0.0, math.pi / 2), gamma=rng.uniform(0.0, math.pi / 2))
        for sign in (1.0, -1.0) for _ in range(100)
    ]
    return drawn + [EjmParams(*point) for point in BOUNDARY]


def test_outcome_tables_and_correlations_keep_their_bits():
    """The (64 x 8) outcome product and the (64 x 8) sign product give, byte
    for byte, what the batched forms over the 7-D star tensor and the
    (8, 8, 8) table give."""
    star, bob_signs = ejm.network._ALICE_STAR, ejm.network._BOB_SIGNS
    input_signs, alice_signs = ejm.network._INPUT_SIGNS, ejm.network._ALICE_SIGNS
    points = bit_identity_points()
    assert len(points) >= 200 and {p.z < 0 for p in points} == {True, False}
    for params in points:
        scenario = StarScenario(params)
        table = outcome_table(scenario)
        batched = np.abs(star @ scenario.bob_basis.matrix().conj().T) ** 2
        assert table.shape == batched.shape and table.tobytes() == batched.tobytes(), params
        for m in range(1, 5):
            correlators = table.reshape(8, 8, 8) @ bob_signs[m - 1]
            expected = float(input_signs[m - 1] @ correlators @ alice_signs) / 8.0
            assert correlation_I_bruteforce(table, m).hex() == expected.hex(), (params, m)


def test_sign_tables_keep_their_bytes():
    # Row m, column r = 4*r1 + 2*r2 + r3: the sign of correlator m at raw output,
    # input triple or Alice output triple r, written out rather than derived.
    bob = [[-1, 1, 1, -1, -1, 1, 1, -1], [1, -1, 1, -1, 1, -1, 1, -1],
           [-1, 1, -1, 1, 1, -1, 1, -1], [-1, 1, 1, -1, 1, -1, -1, 1]]
    inputs = [[1, 1, 1, 1, 1, 1, 1, 1], [1, 1, -1, -1, -1, -1, 1, 1],
              [1, -1, 1, -1, -1, 1, -1, 1], [1, -1, -1, 1, 1, -1, -1, 1]]
    alice = [1, -1, -1, 1, -1, 1, 1, -1]
    for table, literal in [(ejm.network._BOB_SIGNS, bob), (ejm.network._INPUT_SIGNS, inputs),
                           (ejm.network._ALICE_SIGNS, alice)]:
        expected = np.array(literal, dtype=np.float64)
        assert table.dtype == expected.dtype and table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()


def test_outcome_table_equals_the_matmul_form_byte_for_byte():
    # ndarray.dot against @ on the same (64 x 8)·(8 x 8) product: 50 seeded
    # points, half with negative z, and every BOUNDARY point.
    rng = np.random.default_rng(35)
    points = [
        EjmParams(z=sign * rng.uniform(INV_SQRT3, 1.0), phi=rng.uniform(-math.pi, math.pi),
                  theta=rng.uniform(0.0, math.pi / 2), gamma=rng.uniform(0.0, math.pi / 2))
        for sign in (1.0, -1.0) for _ in range(25)
    ] + [EjmParams(*point) for point in BOUNDARY]
    for params in points:
        scenario = StarScenario(params)
        matmul = np.abs(ejm.network._ALICE_STAR.reshape(64, 8) @ scenario.bob_basis.matrix().conj().T) ** 2
        assert outcome_table(scenario).tobytes() == matmul.tobytes(), params


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


# Any finite float, with exact zeros of both signs and subnormals drawn often.
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0, 5e-324, -1e-310, 1e-300))


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

    @settings(max_examples=200, deadline=None)
    @given(domain_params, st.data())
    def test_box_maximum_takes_theta_max_and_gamma_nearest_quarter_pi(self, params, data):
        # The lemma in _closed_form: I_1, I_2 scale with sin(2 gamma) and I_3, I_4
        # with 1 + sin(theta), so within any box containing params, moving theta
        # to the box maximum and gamma to the box value nearest pi/4 never lowers S.
        theta_hi = data.draw(st.floats(params.theta, math.pi / 2))
        gamma_lo = data.draw(st.floats(0.0, params.gamma))
        gamma_hi = data.draw(st.floats(params.gamma, math.pi / 2))
        gamma_star = min(max(math.pi / 4, gamma_lo), gamma_hi)
        best = EjmParams(z=params.z, phi=params.phi, theta=theta_hi, gamma=gamma_star)
        assert trilocal_score(best, cross_check=True).S >= trilocal_score(params).S

    @settings(max_examples=500, deadline=None)
    @given(st.lists(finite_floats, min_size=4, max_size=4))
    def test_cube_root_sum_adds_the_roots_left_to_right(self, values):
        # sum() before Python 3.12 adds the same way: start at 0, then each root in order.
        roots = [abs(v) ** (1 / 3) for v in values]
        assert cube_root_sum(values).hex() == reduce(add, roots, 0).hex()

    @pytest.mark.parametrize("method", ["analytic", "brute_force"])
    def test_full_box_value(self, method):
        # Off the z = 1 slice the score exceeds the headline 2.2968.
        params = EjmParams(z=0.98263, phi=1.29104, theta=math.pi / 2, gamma=math.pi / 4)
        assert trilocal_score(params, method=method).S >= 2.31275


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
