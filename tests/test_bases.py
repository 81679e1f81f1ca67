import cmath
import math
from itertools import product

import numpy as np
import pytest
from conftest import BOUNDARY, domain_params, expectation, primed_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_bases, vertex_formula_tables

import ejm.bases
from ejm.analysis import concurrence, reduction_law, three_tangle, verify_orthonormal_complete
from ejm.bases import BasisFamily, BasisLabel, EjmParams, INV_SQRT3, m_vector, n_qubit_ejm
from ejm.qla import PAULIS, StateVector, bloch_vector, partial_trace

PARAMS = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.5)
# Points BOUNDARY lacks: phi, theta or gamma at -0.0, and |z| inside the
# _DOMAIN_ATOL slack at 1 + 1e-14 and 1/sqrt(3) - 1e-14, where the tails'
# moduli sqrt((1 -+ z_i)/2) clamp to 0 and the gamma mix has a zero weight.
SIGNED_ZERO_AND_SLACK = [
    (sign * z, *angles)
    for z in (1.0, 1.0 + 1e-14, INV_SQRT3, INV_SQRT3 - 1e-14)
    for sign in (1.0, -1.0)
    for angles in ((-0.0, 0.7, 0.4), (0.3, -0.0, 0.4), (0.3, 0.7, -0.0), (-0.0, -0.0, -0.0), (math.pi, math.pi / 2, 0.0))
]


def phase(z):
    """The phase phi_z that EjmParams caches for z."""
    return EjmParams(z=z, phi=0.0, theta=0.0, gamma=0.0).phi_z


def kron_chain_rows(params, family):
    """Family rows from the per-label chains ((Phi_i (x) Phi_j1) (x) ...) (x) tail,
    mixed by cos(gamma) and (-1)^floor(i/2) sin(gamma); the primed chain is the
    chain at the shifted labels (i XOR 2, j1 XOR 2, ...), since Phi'_i = Phi_{i XOR 2}.
    Odd n swaps the |+-m_i> tails and flips the mixing sign for l = 1."""
    c, s = math.cos(params.gamma), math.sin(params.gamma)
    blocks = n_qubit_ejm(params, 2).matrix()
    pairs = vertex_formula_tables(params)[1]
    tails = {+1: [mp for mp, _ in pairs], -1: [mm for _, mm in pairs]}
    chains = {}

    def chain(idx):  # memoized on the prefix, so the association stays ((a b) c)
        if idx not in chains:
            last = blocks[idx[-1]]
            chains[idx] = last if len(idx) == 1 else np.kron(chain(idx[:-1]), last)
        return chains[idx]

    rows = []
    for label in family.labels:
        idx = (label.i, *label.j)
        shifted = tuple(j ^ 2 for j in idx)
        sgn = 1.0 if label.i < 2 else -1.0
        if family.n_qubits == 2:
            rows.append(chain(idx))
        elif label.l is None:
            rows.append(c * chain(idx) + sgn * s * chain(shifted))
        elif label.l == 0:
            rows.append(c * np.kron(chain(idx), tails[+1][label.i])
                        + sgn * s * np.kron(chain(shifted), tails[-1][label.i]))
        else:
            rows.append(c * np.kron(chain(idx), tails[-1][label.i])
                        - sgn * s * np.kron(chain(shifted), tails[+1][label.i]))
    return np.array(rows)


def assert_vertex_tables_match(params):
    """Phi equals vertex_formula_tables' byte for byte, so that the sign of
    every zero amplitude counts.  The chain tests read Phi from the builder
    and would not see it move; they read the |+-m_i> tails from the oracle."""
    assert n_qubit_ejm(params, 2).matrix().tobytes() == vertex_formula_tables(params)[0].tobytes(), params


class TestPhiZ:
    def test_z_one(self):
        assert abs(phase(1.0) - math.pi / 2) < 1e-15

    def test_boundary(self):
        # sqrt amplifies the 1-ulp rounding of 3z^2-1 at the domain edge, so
        # the exact zero is only reached to ~1e-8.
        assert abs(phase(INV_SQRT3)) < 1e-7

    def test_inverse_sqrt2(self):
        # real and imaginary parts both 1/sqrt(2), evaluated directly
        assert abs(phase(1.0 / math.sqrt(2.0)) - math.pi / 4) < 1e-12

    def test_range(self):
        for z in np.linspace(INV_SQRT3, 1.0, 17):
            assert 0.0 <= phase(float(z)) <= math.pi / 2

    def test_domain_error(self):
        with pytest.raises(ValueError, match="z="):
            phase(0.5)
        with pytest.raises(ValueError, match="z="):
            phase(1.01)


class TestEjmParams:
    def test_cached_phase_matches_recomputation(self):
        for z in (INV_SQRT3, 0.7, 0.9, 1.0):
            params = EjmParams(z=z, phi=0.1, theta=0.2, gamma=0.3)
            recomputed = cmath.phase(complex(math.sqrt(1.0 - z * z), math.sqrt(max(3.0 * z * z - 1.0, 0.0))))
            assert abs(params.phi_z - recomputed) < 1e-14

    def test_negative_z_accepted(self):
        params = EjmParams(z=-0.8, phi=0.0, theta=0.0, gamma=0.0)
        assert params.phi_z == phase(0.8)

    def test_checks_each_value_once(self, monkeypatch):
        checked = []
        original = ejm.bases.check_domain

        def counting(name, value):
            checked.append(name)
            return original(name, value)

        monkeypatch.setattr(ejm.bases, "check_domain", counting)
        params = EjmParams(z=-0.8, phi=0.3, theta=1.0, gamma=0.5)
        assert checked == ["z", "phi", "theta", "gamma"]
        assert params.phi_z == phase(0.8)

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


class TestVertexTables:
    @settings(max_examples=200, deadline=None)
    @given(domain_params)
    def test_vertex_tables_match_the_per_vertex_formulas_over_domain(self, params):
        assert_vertex_tables_match(params)

    def test_vertex_tables_match_the_per_vertex_formulas_on_boundary(self):
        for point in BOUNDARY:
            assert_vertex_tables_match(EjmParams(*point))


class TestSingleQubit:
    """The |+-m_i> tails, read from the oracle that the chain tests hold the
    odd-n builders to byte for byte."""

    def test_reference_vertex(self):
        params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=0.0, gamma=0.0)
        state = StateVector(vertex_formula_tables(params)[1][0][0])
        got = np.array([expectation(state, s) for s in PAULIS])
        assert np.max(np.abs(got - np.full(3, INV_SQRT3))) < 1e-12

    def test_bloch_vector_formula(self, small_grid):
        for params in small_grid:
            for i, pair in enumerate(vertex_formula_tables(params)[1]):
                for sign, amplitudes in zip((+1, -1), pair):
                    got = np.array([expectation(StateVector(amplitudes), s) for s in PAULIS])
                    assert np.max(np.abs(got - sign * m_vector(params, i))) < 1e-12

    def test_north_pole_at_z_one(self):
        params = EjmParams(z=1.0, phi=0.6, theta=0.0, gamma=0.0)
        m0 = vertex_formula_tables(params)[1][0][0]
        expected = np.array([cmath.exp(-1j * 0.3), 0.0])
        assert np.max(np.abs(m0 - expected)) < 1e-15

    def test_orthogonal_pairs(self, small_grid):
        for params in small_grid:
            for mp, mm in vertex_formula_tables(params)[1]:
                assert abs(np.vdot(mp, mm)) < 1e-15

    def test_cross_vertex_inner_products(self, small_grid):
        # the mixed-vertex inner products that make the eight-state family close
        for params in small_grid:
            z = params.z
            pairs = vertex_formula_tables(params)[1]
            for i, sign in ((0, -1.0), (1, +1.0)):
                (m_a, w_a), (m_b, w_b) = pairs[i], pairs[i + 2]
                assert abs(np.vdot(w_a, w_b) - 1j * z) < 1e-12
                assert abs(np.vdot(m_a, m_b) + 1j * z) < 1e-12
                cross = sign * 1j * math.sqrt(max(1 - z * z, 0.0))
                assert abs(np.vdot(w_a, m_b) - cross) < 1e-12
                assert abs(np.vdot(m_a, w_b) - cross) < 1e-12

    @pytest.mark.parametrize("i", [True, False, 1.0, np.float64(2.0), "1", -1, 4])
    def test_vertex_index_must_be_an_integer_in_range(self, i):
        with pytest.raises(ValueError, match="vertex index"):
            m_vector(PARAMS, i)

    def test_numpy_integer_indices_are_accepted(self):
        assert np.array_equal(m_vector(PARAMS, np.int64(3)), m_vector(PARAMS, 3))


class TestTwoQubitFamily:
    def test_gram_identity(self, small_grid):
        for params in small_grid:
            v = n_qubit_ejm(params, 2).matrix()
            assert np.max(np.abs(v.conj() @ v.T - np.eye(4))) < 1e-10

    def test_primed_is_shifted_unprimed(self, small_grid):
        for params in small_grid:
            rows = n_qubit_ejm(params, 2).matrix()
            primed = primed_rows(rows)
            for i in range(4):
                assert abs(abs(np.vdot(primed[i], rows[(i + 2) % 4])) - 1.0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(domain_params)
    def test_primed_rows_are_shifted_rows_over_domain(self, params):
        # Phi'_i = Phi_{(i+2) mod 4} to rounding, which lets the builders read
        # the primed family from Phi's rows; both signs of z.
        rows = n_qubit_ejm(params, 2).matrix()
        assert np.max(np.abs(primed_rows(rows) - rows[[2, 3, 0, 1]])) < 1e-15

    def test_block_reduction_identity(self, small_grid):
        for params in small_grid:
            law = reduction_law(params, 2)
            for row, state in enumerate(n_qubit_ejm(params, 2).states.values()):
                got = [bloch_vector(partial_trace(state, q)) for q in (1, 2)]
                assert np.max(np.abs(got - law[row])) < 1e-12

    def test_reduces_to_single_parameter_family(self):
        # At azimuth phi_z + pi/4 the three-parameter states coincide with
        # the single-parameter family up to a relabelling: the match must be
        # a bijection with unit-modulus overlaps.
        for theta in (0.0, 0.7, math.pi / 2):
            params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=theta, gamma=0.0)
            ours = n_qubit_ejm(params, 2).matrix()
            reference = reference_bases(theta).matrix()
            overlap = np.abs(ours.conj() @ reference.T)
            matches = overlap > 1.0 - 1e-10
            assert matches.sum(axis=0).tolist() == [1, 1, 1, 1]
            assert matches.sum(axis=1).tolist() == [1, 1, 1, 1]

    def test_mixed_family_relation(self, small_grid):
        for params in small_grid:
            forward = np.zeros((4, 4), dtype=complex)
            backward = np.zeros((4, 4), dtype=complex)
            rows = n_qubit_ejm(params, 2).matrix()
            for plain, primed in zip(rows, primed_rows(rows)):
                forward += np.outer(plain, primed.conj())
                backward += np.outer(primed, plain.conj())
            assert np.max(np.abs(forward - backward)) < 1e-12


class TestReferenceBases:
    def test_theta_half_pi_is_maximally_entangled(self):
        family = reference_bases(math.pi / 2)
        for state in family.states.values():
            for qubit in (1, 2):
                rho = partial_trace(state, qubit)
                assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10

    def test_parameter_free_iso_entangled(self):
        values = [concurrence(s) for s in reference_bases().states.values()]
        assert max(values) - min(values) < 1e-10

    def test_orthonormal(self):
        for theta in (0.0, 1.2):
            report = verify_orthonormal_complete(reference_bases(theta))
            assert report.gram_error < 1e-10
            assert report.completeness_error < 1e-10


class TestThreeQubitFamily:
    def test_gamma_zero_is_product(self):
        params = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.0)
        rows = n_qubit_ejm(params, 2).matrix()
        for label, state in n_qubit_ejm(params, 3).states.items():
            tail = vertex_formula_tables(params)[1][label.i][label.l]
            expected = np.kron(rows[label.i], tail)
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-15
            assert three_tangle(state) < 1e-12

    def test_maximally_entangled_point(self):
        params = EjmParams(z=0.8, phi=0.3, theta=math.pi / 2, gamma=math.pi / 4)
        for state in n_qubit_ejm(params, 3).states.values():
            assert abs(three_tangle(state) - 1.0) < 1e-9

    def test_tail_qubit_reduction(self, small_grid):
        for params in small_grid:
            law = reduction_law(params, 3)
            for row, state in enumerate(n_qubit_ejm(params, 3).states.values()):
                got = bloch_vector(partial_trace(state, 3))
                assert np.max(np.abs(got - law[row, 2])) < 1e-10

    def test_bit_validation(self):
        with pytest.raises(KeyError):
            n_qubit_ejm(PARAMS, 3).states[BasisLabel(0, (), 2)]


class TestNQubitFamily:
    @settings(max_examples=100, deadline=None)
    @given(domain_params)
    def test_three_qubit_states_match_labelwise(self, params):
        # The paper's three-qubit states, with Phi' written as Phi with the
        # |00> and |11> amplitudes negated (not as shifted rows of Phi).
        c, s = math.cos(params.gamma), math.sin(params.gamma)
        rows = n_qubit_ejm(params, 2).matrix()
        primed = primed_rows(rows)
        pairs = vertex_formula_tables(params)[1]
        for label, state in n_qubit_ejm(params, 3).states.items():
            i, sgn = label.i, (1.0 if label.i < 2 else -1.0)
            mp, mm = pairs[i]
            if label.l == 0:
                direct = c * np.kron(rows[i], mp) + sgn * s * np.kron(primed[i], mm)
            else:
                direct = c * np.kron(rows[i], mm) - sgn * s * np.kron(primed[i], mp)
            assert np.max(np.abs(state.amplitudes - direct)) < 1e-15, label

    def test_two_qubit_family_has_no_gamma(self):
        low = n_qubit_ejm(EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.1), 2)
        high = n_qubit_ejm(EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=1.3), 2)
        assert np.array_equal(low.matrix(), high.matrix())

    def test_label_space_sizes(self):
        for n in (2, 3, 4, 5):
            assert len(n_qubit_ejm(PARAMS, n).labels) == 2**n
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
            assert family.matrix().tobytes() == kron_chain_rows(params, family).tobytes(), params

    @settings(max_examples=150, deadline=None)
    @given(domain_params, st.integers(2, 6))
    def test_matrix_equals_per_label_kron_chain_over_domain(self, params, n):
        family = n_qubit_ejm(params, n)
        assert family.matrix().tobytes() == kron_chain_rows(params, family).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matrix_equals_per_label_kron_chain_on_boundary(self, n):
        # Bytes, not values, so that the sign of every zero amplitude counts.
        for point in BOUNDARY:
            params = EjmParams(*point)
            family = n_qubit_ejm(params, n)
            assert family.matrix().tobytes() == kron_chain_rows(params, family).tobytes(), point

    @pytest.mark.parametrize("n", range(2, 9))
    def test_signed_zeros_and_slack_bounds_keep_their_bytes(self, n):
        # Bytes, so that a zero amplitude whose sign flipped would show.
        for point in SIGNED_ZERO_AND_SLACK:
            params = EjmParams(*point)
            assert_vertex_tables_match(params)
            family = n_qubit_ejm(params, n)
            assert family.matrix().tobytes() == kron_chain_rows(params, family).tobytes(), point

    def test_size_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="at least 2"):
            n_qubit_ejm(PARAMS, 1)
        with pytest.raises(ValueError, match="exceeds the cap 8"):
            n_qubit_ejm(PARAMS, 9)
        monkeypatch.setattr(ejm.bases, "LIMITS", {**ejm.bases.LIMITS, "n": (2, 6)})
        assert n_qubit_ejm(PARAMS, 6).n_qubits == 6
        with pytest.raises(ValueError, match="exceeds the cap 6"):
            n_qubit_ejm(PARAMS, 7)

    @pytest.mark.parametrize("n", [np.int8(7), np.int8(8), np.uint8(8)], ids=repr)
    def test_one_byte_sizes_build_the_int_size_family(self, n):
        # Under NumPy 2, 2**n and 4**k keep a one-byte n's width and overflow
        # unless the size check hands back an int.
        family = n_qubit_ejm(PARAMS, n)
        assert family.n_qubits == n and family.matrix().tobytes() == n_qubit_ejm(PARAMS, int(n)).matrix().tobytes()

    def test_states_mapping_is_read_only(self):
        family = n_qubit_ejm(PARAMS, 2)
        with pytest.raises(TypeError):
            family.states[BasisLabel(0)] = None


class TestBasisFamilyContract:
    def test_wrong_shape_rejected(self):
        rows = n_qubit_ejm(PARAMS, 3).matrix()
        for bad in (rows[:4], rows[:, :4], rows[0], np.eye(2)):
            with pytest.raises(ValueError, match=r"not a 2\*\*n x 2\*\*n matrix with n >= 2"):
                BasisFamily(bad)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, np.nan, np.inf])
    def test_unnormalized_row_rejected(self, scale):
        # The whole matrix, and the row alone as a one-dimensional state.
        rows = n_qubit_ejm(PARAMS, 3).matrix().copy()
        rows[5] *= scale
        with pytest.raises(ValueError, match="not normalized"):
            BasisFamily(rows)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(rows[5])

    def test_matrix_is_stored_read_only(self):
        family = n_qubit_ejm(PARAMS, 4)
        matrix = family.matrix()
        assert family.matrix() is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_caller_array_is_copied(self):
        rows = np.eye(4, dtype=complex)
        family = BasisFamily(rows)
        assert not np.shares_memory(family.matrix(), rows)
        rows[0, 0] = 2.0
        assert family.matrix()[0, 0] == 1.0

    def test_builder_family_owns_the_matrix_it_built(self, monkeypatch):
        built, build = [], ejm.bases._family_matrix
        monkeypatch.setattr(ejm.bases, "_family_matrix", lambda params, n: built.append(build(params, n)) or built[-1])
        for n in range(2, 9):
            matrix = n_qubit_ejm(PARAMS, n).matrix()
            assert np.shares_memory(matrix, built[-1]), n
            assert matrix.dtype == np.complex128 and matrix.flags.c_contiguous and not matrix.flags.writeable, n

    def test_one_norm_check_per_family_on_both_paths(self, monkeypatch):
        checked, check = [], ejm.bases.check_normalized
        monkeypatch.setattr(ejm.bases, "check_normalized", lambda amps: checked.append(amps) or check(amps))
        for n in range(2, 9):
            family = n_qubit_ejm(PARAMS, n)
            assert len(checked) == 1 and checked.pop() is family.matrix(), n
            BasisFamily(family.matrix())
            assert len(checked) == 1 and checked.pop() is not family.matrix(), n

    @pytest.mark.parametrize("broken", ["shape", "norm"])
    def test_both_paths_refuse_a_bad_matrix_alike(self, monkeypatch, broken):
        rows = n_qubit_ejm(PARAMS, 3).matrix().copy()
        if broken == "shape":
            rows = rows[:4].copy()
        else:
            rows[5] *= 1.0 + 1e-9
        with pytest.raises(ValueError) as public:
            BasisFamily(rows)
        monkeypatch.setattr(ejm.bases, "_family_matrix", lambda params, n: rows)
        with pytest.raises(ValueError) as built:
            n_qubit_ejm(PARAMS, 3)
        assert str(built.value) == str(public.value)
        assert ("not a 2**n x 2**n matrix" if broken == "shape" else "not normalized") in str(public.value)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_states_are_the_matrix_rows_in_label_order(self, n):
        family = n_qubit_ejm(PARAMS, n)
        tail_bits = (0, 1) if n % 2 else (None,)
        expected = [BasisLabel(c[0], c[1:], l) for c in product(range(4), repeat=n // 2) for l in tail_bits]
        assert list(family.labels) == expected
        assert list(family.states) == expected and len(family.states) == 2**n
        for row, (label, state) in zip(family.matrix(), family.states.items()):
            assert np.array_equal(state.amplitudes, row), label
        assert np.array_equal(family.states[expected[-1]].amplitudes, family.matrix()[-1])

    def test_unknown_label_is_a_key_error(self):
        with pytest.raises(KeyError):
            n_qubit_ejm(PARAMS, 3).states[BasisLabel(0)]

    def test_builders_construct_no_state_vector(self, monkeypatch):
        # Rows are checked once, with the matrix: a read wraps its row through
        # checked_state, while StateVector(row) still copies and checks.
        made, checked = [], []
        maker, original = ejm.bases.checked_state, StateVector.__post_init__

        def counting_maker(row):
            made.append(row)
            return maker(row)

        def counting_check(self):
            checked.append(self)
            original(self)

        monkeypatch.setattr(ejm.bases, "checked_state", counting_maker)
        monkeypatch.setattr(StateVector, "__post_init__", counting_check)
        for n in range(2, 9):
            n_qubit_ejm(PARAMS, n)
        assert made == [] and checked == []
        family = n_qubit_ejm(PARAMS, 2)
        next(iter(family.states.values()))
        assert len(made) == 1 and checked == []
        StateVector(family.matrix()[0])
        assert len(made) == 1 and len(checked) == 1

    def test_membership_builds_no_state(self, monkeypatch):
        made = []
        maker = ejm.bases.checked_state
        monkeypatch.setattr(ejm.bases, "checked_state", lambda row: made.append(row) or maker(row))
        states = n_qubit_ejm(PARAMS, 3).states
        assert BasisLabel(1, (), 0) in states and BasisLabel(1) not in states
        assert states.get(BasisLabel(1)) is None and made == []
        with pytest.raises(KeyError):
            states[BasisLabel(1)]
        assert made == []

    @pytest.mark.parametrize("n", range(2, 9))
    def test_states_share_the_read_only_rows(self, n):
        family = n_qubit_ejm(PARAMS, n)
        for row, state in zip(family.matrix(), family.states.values()):
            assert not state.amplitudes.flags.writeable
            assert np.shares_memory(state.amplitudes, family.matrix())
            assert state.n_qubits == n and state.amplitudes.tobytes() == row.tobytes()
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shared_rows_reduce_as_the_checked_copies_bit_for_bit(self, n):
        # z < 0, |z| = 1/sqrt(3), theta = pi/2, gamma = 0 and phi = -0.0.
        points = [(-0.8, 0.3, 1.0, 0.5), (-INV_SQRT3, 2.0, 0.2, 1.1), (0.8, -1.3, math.pi / 2, 0.5),
                  (0.9, 0.3, 1.0, 0.0), (INV_SQRT3, -0.0, 0.7, 0.4)]
        qubits = range(1, n + 1)
        for point in points:
            family = n_qubit_ejm(EjmParams(*point), n)
            for row, state in zip(family.matrix(), family.states.values()):
                copy = StateVector(row)
                for q in qubits:
                    assert partial_trace(state, q).tobytes() == partial_trace(copy, q).tobytes(), (point, q)
                if n == 3:
                    assert three_tangle(state).hex() == three_tangle(copy).hex()
                if n == 2:
                    assert concurrence(state).hex() == concurrence(copy).hex()
