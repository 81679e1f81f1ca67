import math

import numpy as np
import pytest

import ejm.bases
from ejm.analysis import three_tangle, verify_orthonormal_complete
from ejm.bases import (
    BasisLabel,
    EjmParams,
    INV_SQRT3,
    ResourceLimitError,
    m_vector,
    n_qubit_ejm,
    phi_z,
    reference_bases,
    single_qubit_m,
    three_qubit_ejm,
    two_qubit_ejm,
)
from ejm.qla import PAULIS, bloch_vector, expectation, identity, partial_trace, tensor_product

PARAMS = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.5)


def inner(a, b):
    return np.vdot(a.amplitudes, b.amplitudes)


def kron_chain_rows(params, family):
    """Family rows from the per-label chains ((Phi_i (x) Phi_j1) (x) ...) (x) tail,
    mixed by cos(gamma) and (-1)^floor(i/2) sin(gamma); odd n swaps the
    |+-m_i> tails and flips the mixing sign for l = 1."""
    c, s = math.cos(params.gamma), math.sin(params.gamma)
    blocks = {p: [two_qubit_ejm(params, i, p).amplitudes for i in range(4)] for p in (False, True)}
    tails = {+1: [single_qubit_m(params, i, +1).amplitudes for i in range(4)],
             -1: [single_qubit_m(params, i, -1).amplitudes for i in range(4)]}
    chains = {}

    def chain(primed, idx):  # memoized on the prefix, so the association stays ((a b) c)
        if (primed, idx) not in chains:
            last = blocks[primed][idx[-1]]
            chains[primed, idx] = last if len(idx) == 1 else np.kron(chain(primed, idx[:-1]), last)
        return chains[primed, idx]

    rows = []
    for label in family.labels:
        idx = (label.i, *label.j)
        sgn = 1.0 if label.i < 2 else -1.0
        if family.n_qubits == 2:
            rows.append(chain(False, idx))
        elif label.l is None:
            rows.append(c * chain(False, idx) + sgn * s * chain(True, idx))
        elif label.l == 0:
            rows.append(c * np.kron(chain(False, idx), tails[+1][label.i])
                        + sgn * s * np.kron(chain(True, idx), tails[-1][label.i]))
        else:
            rows.append(c * np.kron(chain(False, idx), tails[-1][label.i])
                        - sgn * s * np.kron(chain(True, idx), tails[+1][label.i]))
    return np.array(rows)


class TestPhiZ:
    def test_z_one(self):
        assert abs(phi_z(1.0) - math.pi / 2) < 1e-15

    def test_boundary(self):
        # sqrt amplifies the 1-ulp rounding of 3z^2-1 at the domain edge, so
        # the exact zero is only reached to ~1e-8.
        assert abs(phi_z(INV_SQRT3)) < 1e-7

    def test_inverse_sqrt2(self):
        # real and imaginary parts both 1/sqrt(2), evaluated directly
        assert abs(phi_z(1.0 / math.sqrt(2.0)) - math.pi / 4) < 1e-12

    def test_range(self):
        for z in np.linspace(INV_SQRT3, 1.0, 17):
            assert 0.0 <= phi_z(float(z)) <= math.pi / 2

    def test_domain_error(self):
        with pytest.raises(ValueError, match="z="):
            phi_z(0.5)
        with pytest.raises(ValueError, match="z="):
            phi_z(1.01)


class TestEjmParams:
    def test_cached_phase_matches_recomputation(self):
        for z in (INV_SQRT3, 0.7, 0.9, 1.0):
            params = EjmParams(z=z, phi=0.1, theta=0.2, gamma=0.3)
            assert abs(params.phi_z - phi_z(z)) < 1e-14

    def test_negative_z_accepted(self):
        params = EjmParams(z=-0.8, phi=0.0, theta=0.0, gamma=0.0)
        assert params.phi_z == phi_z(-0.8) == phi_z(0.8)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(z=0.5, phi=0.0, theta=0.0, gamma=0.0), "z"),
            (dict(z=1.0, phi=4.0, theta=0.0, gamma=0.0), "phi"),
            (dict(z=1.0, phi=0.0, theta=2.0, gamma=0.0), "theta"),
            (dict(z=1.0, phi=0.0, theta=0.0, gamma=-0.2), "gamma"),
        ],
    )
    def test_domain_validation(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            EjmParams(**kwargs)


class TestSingleQubit:
    def test_reference_vertex(self):
        params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=0.0, gamma=0.0)
        state = single_qubit_m(params, 0, +1)
        got = np.array([expectation(state, s) for s in PAULIS])
        assert np.max(np.abs(got - np.full(3, INV_SQRT3))) < 1e-12

    def test_bloch_vector_formula(self, small_grid):
        for params in small_grid:
            for i in range(4):
                for sign in (+1, -1):
                    state = single_qubit_m(params, i, sign)
                    got = np.array([expectation(state, s) for s in PAULIS])
                    assert np.max(np.abs(got - sign * m_vector(params, i))) < 1e-12

    def test_north_pole_at_z_one(self):
        params = EjmParams(z=1.0, phi=0.6, theta=0.0, gamma=0.0)
        state = single_qubit_m(params, 0, +1)
        import cmath

        expected = np.array([cmath.exp(-1j * 0.3), 0.0])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_orthogonal_pairs(self, small_grid):
        for params in small_grid:
            for i in range(4):
                assert abs(inner(single_qubit_m(params, i, +1), single_qubit_m(params, i, -1))) < 1e-15

    def test_cross_vertex_inner_products(self, small_grid):
        # the mixed-vertex inner products that make the eight-state family close
        for params in small_grid:
            z = params.z
            for i, sign in ((0, -1.0), (1, +1.0)):
                m_a = single_qubit_m(params, i, +1)
                m_b = single_qubit_m(params, i + 2, +1)
                w_a = single_qubit_m(params, i, -1)
                w_b = single_qubit_m(params, i + 2, -1)
                assert abs(inner(w_a, w_b) - 1j * z) < 1e-12
                assert abs(inner(m_a, m_b) + 1j * z) < 1e-12
                cross = sign * 1j * math.sqrt(max(1 - z * z, 0.0))
                assert abs(inner(w_a, m_b) - cross) < 1e-12
                assert abs(inner(m_a, w_b) - cross) < 1e-12

    def test_index_validation(self):
        with pytest.raises(ValueError):
            single_qubit_m(PARAMS, 4)
        with pytest.raises(ValueError):
            single_qubit_m(PARAMS, 0, sign=0)


class TestTwoQubitFamily:
    def test_gram_identity(self, small_grid):
        for params in small_grid:
            v = np.vstack([two_qubit_ejm(params, i).amplitudes for i in range(4)])
            assert np.max(np.abs(v.conj() @ v.T - np.eye(4))) < 1e-10

    def test_primed_is_shifted_unprimed(self, small_grid):
        for params in small_grid:
            for i in range(4):
                primed = two_qubit_ejm(params, i, primed=True)
                shifted = two_qubit_ejm(params, (i + 2) % 4)
                assert abs(abs(inner(primed, shifted)) - 1.0) < 1e-12

    def test_block_reduction_identity(self, small_grid):
        for params in small_grid:
            scale = math.cos(params.theta) / math.sqrt(2.0)
            for i in range(4):
                state = two_qubit_ejm(params, i)
                delta = params.phi_i(i) - params.phi_z
                predicted = scale * np.array(
                    [math.cos(delta), math.sin(delta), (-1.0) ** i / math.sqrt(2.0)]
                )
                first = bloch_vector(partial_trace(state, {1})).as_array()
                second = bloch_vector(partial_trace(state, {2})).as_array()
                assert np.max(np.abs(first - predicted)) < 1e-12
                assert np.max(np.abs(second + predicted)) < 1e-12

    def test_reduces_to_single_parameter_family(self):
        # At azimuth phi_z + pi/4 the three-parameter states coincide with
        # the single-parameter family up to a relabelling: the match must be
        # a bijection with unit-modulus overlaps.
        for theta in (0.0, 0.7, math.pi / 2):
            params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=theta, gamma=0.0)
            ours = np.vstack([two_qubit_ejm(params, i).amplitudes for i in range(4)])
            reference = reference_bases("single_parameter", theta).matrix()
            overlap = np.abs(ours.conj() @ reference.T)
            matches = overlap > 1.0 - 1e-10
            assert matches.sum(axis=0).tolist() == [1, 1, 1, 1]
            assert matches.sum(axis=1).tolist() == [1, 1, 1, 1]

    def test_mixed_family_relation(self, small_grid):
        for params in small_grid:
            forward = np.zeros((4, 4), dtype=complex)
            backward = np.zeros((4, 4), dtype=complex)
            for j in range(4):
                plain = two_qubit_ejm(params, j).amplitudes
                primed = two_qubit_ejm(params, j, primed=True).amplitudes
                forward += np.outer(plain, primed.conj())
                backward += np.outer(primed, plain.conj())
            assert np.max(np.abs(forward - backward)) < 1e-12


class TestReferenceBases:
    def test_theta_zero_matches_parameter_free(self):
        free = reference_bases("parameter_free").matrix()
        single = reference_bases("single_parameter", 0.0).matrix()
        for i in range(4):
            assert abs(abs(np.vdot(free[i], single[i])) - 1.0) < 1e-12

    def test_theta_half_pi_is_maximally_entangled(self):
        family = reference_bases("single_parameter", math.pi / 2)
        for state in family.states.values():
            for qubit in (1, 2):
                rho = partial_trace(state, {qubit})
                assert np.max(np.abs(rho.entries - np.eye(2) / 2)) < 1e-10

    def test_parameter_free_iso_entangled(self):
        from ejm.analysis import concurrence

        values = [concurrence(s) for s in reference_bases("parameter_free").states.values()]
        assert max(values) - min(values) < 1e-10

    def test_orthonormal(self):
        for kind, theta in (("parameter_free", None), ("single_parameter", 1.2)):
            report = verify_orthonormal_complete(reference_bases(kind, theta))
            assert report.gram_error < 1e-10
            assert report.completeness_error < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError, match="theta"):
            reference_bases("single_parameter", 2.0)
        with pytest.raises(ValueError, match="theta"):
            reference_bases("single_parameter")
        with pytest.raises(ValueError, match="kind"):
            reference_bases("bell")


class TestThreeQubitFamily:
    def test_gamma_zero_is_product(self):
        params = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.0)
        for i in range(4):
            for k in (0, 1):
                state = three_qubit_ejm(params, i, k)
                expected = tensor_product(
                    two_qubit_ejm(params, i), single_qubit_m(params, i, +1 if k == 0 else -1)
                )
                assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-15
                assert three_tangle(state) < 1e-12

    def test_maximally_entangled_point(self):
        params = EjmParams(z=0.8, phi=0.3, theta=math.pi / 2, gamma=math.pi / 4)
        for i in range(4):
            for k in (0, 1):
                assert abs(three_tangle(three_qubit_ejm(params, i, k)) - 1.0) < 1e-9

    def test_tail_qubit_reduction(self, small_grid):
        for params in small_grid:
            scale = math.cos(2.0 * params.gamma)
            for i in range(4):
                for k in (0, 1):
                    state = three_qubit_ejm(params, i, k)
                    got = bloch_vector(partial_trace(state, {3})).as_array()
                    assert np.max(np.abs(got - (-1.0) ** k * scale * m_vector(params, i))) < 1e-10

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            three_qubit_ejm(PARAMS, 0, 2)


class TestNQubitFamily:
    def test_three_qubit_states_match_labelwise(self):
        family = n_qubit_ejm(PARAMS, 3)
        for label, state in family.states.items():
            direct = three_qubit_ejm(PARAMS, label.i, label.l)
            assert np.array_equal(state.amplitudes, direct.amplitudes)

    def test_two_qubit_family_has_no_gamma(self):
        low = n_qubit_ejm(EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.1), 2)
        high = n_qubit_ejm(EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=1.3), 2)
        assert np.array_equal(low.matrix(), high.matrix())

    def test_label_space_sizes(self):
        assert len(n_qubit_ejm(PARAMS, 2)) == 4
        assert len(n_qubit_ejm(PARAMS, 3)) == 8
        assert len(n_qubit_ejm(PARAMS, 4)) == 16
        assert len(n_qubit_ejm(PARAMS, 5)) == 32
        assert n_qubit_ejm(PARAMS, 5).labels[0] == BasisLabel(0, (0,), 0)

    def test_four_qubit_gram(self):
        v = n_qubit_ejm(PARAMS, 4).matrix()
        assert np.max(np.abs(v.conj() @ v.T - np.eye(16))) < 1e-10

    def test_five_qubit_completeness(self):
        v = n_qubit_ejm(PARAMS, 5).matrix()
        assert np.max(np.abs(v.T @ v.conj() - np.eye(32))) < 1e-9

    def test_orthonormal_complete_across_grid(self, grid_params):
        # Gram and completeness for every family size on the full grid.
        for n in (2, 3, 4, 5, 6):
            for params in grid_params:
                report = verify_orthonormal_complete(n_qubit_ejm(params, n))
                assert report.gram_error < 1e-10, (n, params)
                assert report.completeness_error < 1e-9, (n, params)

    def test_boundary_parameters_are_finite(self):
        for z in (INV_SQRT3, 1.0):
            params = EjmParams(z=z, phi=-2.0, theta=0.8, gamma=0.5)
            family = n_qubit_ejm(params, 3)
            matrix = family.matrix()
            assert np.all(np.isfinite(matrix.view(float)))
            norms = np.linalg.norm(matrix, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matrix_equals_per_label_kron_chain(self, n, grid_params, small_grid):
        # The Kronecker-built family against the label-wise definition, bit
        # for bit: the 3^4 grid up to n = 6, its 2^4 corners beyond; both
        # signs of z.
        grid = grid_params if n <= 6 else small_grid
        for params in grid + [EjmParams(-p.z, p.phi, p.theta, p.gamma) for p in grid]:
            family = n_qubit_ejm(params, n)
            assert np.array_equal(family.matrix(), kron_chain_rows(params, family)), params

    def test_size_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            n_qubit_ejm(PARAMS, 1)
        with pytest.raises(ResourceLimitError):
            n_qubit_ejm(PARAMS, 9)
        monkeypatch.setattr(ejm.bases, "MAX_QUBITS", 6)
        assert len(n_qubit_ejm(PARAMS, 6)) == 64

    def test_states_mapping_is_read_only(self):
        family = n_qubit_ejm(PARAMS, 2)
        with pytest.raises(TypeError):
            family.states[BasisLabel(0)] = None
