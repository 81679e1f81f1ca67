import cmath
import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import BOUNDARY, expectation, ket
from hypothesis import strategies as st
from oracles import transpose_trace, vertex_formula_tables

import ejm.analysis
from ejm.analysis import symmetry_report
from ejm.bases import BasisLabel, EjmParams, m_vector, n_qubit_ejm
from ejm.qla import (
    PAULI_Z,
    PAULIS,
    BlochVector,
    RowView,
    StateVector,
    bloch_vector,
    check_index,
    check_normalized,
    partial_trace,
    permute_qubits,
    tensor_product,
)

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps))


def state_strategy(n):
    dim = 2**n
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    return (
        st.lists(st.tuples(reals, reals), min_size=dim, max_size=dim)
        .map(lambda pairs: np.array([complex(re, im) for re, im in pairs]))
        .filter(lambda amps: np.linalg.norm(amps) > 1e-3)
        .map(lambda amps: StateVector(amps / np.linalg.norm(amps)))
    )


class TestCheckIndex:
    def test_returns_integers_within_the_closed_range_as_ints(self):
        for value in (1, 4, np.int64(2), np.int8(3), np.uint8(4), np.int64(1)):
            checked = check_index("m", value, 1, 4)
            assert checked == value and type(checked) is int

    @pytest.mark.parametrize("value", [0, 5, True, 1.0, "1", None], ids=repr)
    def test_rejects_other_values(self, value):
        with pytest.raises(ValueError, match=r"^m=.* must be 1\.\.4$"):
            check_index("m", value, 1, 4)


class TestStateVector:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_requires_normalization(self):
        for amps in ([1.0, 1.0], [1.0 + 1e-9, 0.0], [np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                StateVector(np.array(amps))

    def test_amplitudes_are_frozen(self):
        state = ket("0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestRowView:
    @staticmethod
    def counted_view():
        made = []
        rows = np.arange(12.0).reshape(4, 3)
        view = RowView(rows, {"c": 2, "a": 0, "d": 3}, lambda row: made.append(row) or row.sum())
        return view, made

    def test_membership_and_get_of_a_missing_key_build_nothing(self):
        # A missing key fails the index lookup before make runs; in and get
        # build a present key's value once each.
        view, made = self.counted_view()
        assert "b" not in view and "b" not in view.keys()
        assert view.get("b") is None and view.get("b", 7) == 7
        with pytest.raises(KeyError):
            view["b"]
        assert made == []
        assert "a" in view and len(made) == 1
        assert view.get("d") == 30.0 and len(made) == 2

    def test_values_and_items_walk_the_index_in_order_one_value_per_read(self):
        view, made = self.counted_view()
        values = iter(view.values())
        assert next(values) == 21.0 and len(made) == 1
        assert list(values) == [3.0, 30.0] and len(made) == 3
        assert list(view.items()) == [("c", 21.0), ("a", 3.0), ("d", 30.0)]
        assert list(view) == ["c", "a", "d"] and len(view.values()) == len(view.items()) == 3
        assert ("a", 3.0) in view.items() and ("b", 3.0) not in view.items() and 30.0 in view.values()

    def test_report_vector_missing_key_builds_no_bloch_vector(self, monkeypatch):
        vectors = symmetry_report(n_qubit_ejm(EjmParams(0.8, 0.3, 1.0, 0.5), 3)).vectors
        made = []
        monkeypatch.setattr(ejm.analysis, "BlochVector", lambda *xyz: made.append(xyz))
        missing = (BasisLabel(3, (), 1), 4)
        assert missing not in vectors and vectors.get(missing) is None
        with pytest.raises(KeyError):
            vectors[missing]
        assert made == []
        assert (BasisLabel(3, (), 1), 3) in vectors and len(made) == 1
        vectors[BasisLabel(3, (), 1), 3]
        assert len(made) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_states_and_report_vectors_read_alike_every_way(self, n):
        # in, get, values() and items() agree with [] in key order, and a key
        # the index lacks is missing from all of them.
        family = n_qubit_ejm(EjmParams(-0.8, 0.3, 1.0, 0.5), n)
        states, vectors = family.states, symmetry_report(family).vectors
        for view, missing, same in [
            (states, BasisLabel(4), lambda a, b: a.amplitudes.tobytes() == b.amplitudes.tobytes()),
            (vectors, (BasisLabel(0, (0,) * (n // 2 - 1), 0 if n % 2 else None), n + 1), lambda a, b: a == b),
        ]:
            keys = list(view)
            assert len(keys) == len(view) and list(view.keys()) == keys
            walked = zip(keys, view.values(), view.items(), strict=True)
            for key, value, (item_key, item_value) in walked:
                expected = view[key]
                assert item_key == key and same(value, expected) and same(item_value, expected)
                assert key in view and same(view.get(key), expected)
            assert missing not in view and view.get(missing) is None and view.get(missing, 7) == 7


class TestCheckNormalized:
    def test_names_the_first_state_that_misses(self):
        rows = n_qubit_ejm(EjmParams(0.9, 0.5, 1.0, 0.4), 3).matrix().copy()
        rows[2] *= 1.0 + 1e-9
        rows[5] *= 1.0 + 2e-6
        with pytest.raises(ValueError, match=r"\|norm - 1\| = 1\.000e-09$"):
            check_normalized(rows)

    def test_any_layout_and_dtype_is_read_as_complex_amplitudes(self):
        rows = n_qubit_ejm(EjmParams(0.9, 0.5, 1.0, 0.4), 3).matrix()
        spread = np.zeros((8, 16), dtype=complex)
        spread[:, ::2] = rows
        for good in (rows.T, np.asfortranarray(rows), spread[:, ::2], spread.T[::2], np.array([0.6, 0.8]),
                     np.array([0, 1]), np.array([[0, 1j]], dtype=np.complex64)):
            check_normalized(good)
        for bad in (rows[:, ::2], spread[:, 1::2], spread.T[1::2], np.array([1, 1])):
            with pytest.raises(ValueError, match="not normalized"):
                check_normalized(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.inf, np.nan)])
    def test_nan_and_inf_raise_without_a_warning(self, bad):
        state = np.array([bad, 0, 0, 0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for amplitudes in (state, np.stack([np.eye(4)[0], state, state])):
                with pytest.raises(ValueError, match="not normalized"):
                    check_normalized(amplitudes)


class TestTensorProduct:
    def test_basis_states(self):
        got = tensor_product(ket("0"), ket("1"))
        assert np.array_equal(got.amplitudes, [0, 1, 0, 0])

    def test_first_term_of_parameter_free_family(self):
        # Hand expansion of |m_0>|-m_0> on the reference tetrahedron vertex
        # (z = 1/sqrt(3), azimuth pi/4), written out amplitude by amplitude.
        s = INV_SQRT3
        e = cmath.exp(-1j * math.pi / 8)
        m0 = np.array([math.sqrt((1 + s) / 2) * e, math.sqrt((1 - s) / 2) * e.conjugate()])
        minus = np.array([math.sqrt((1 - s) / 2) * e, -math.sqrt((1 + s) / 2) * e.conjugate()])
        expected = np.array(
            [m0[0] * minus[0], m0[0] * minus[1], m0[1] * minus[0], m0[1] * minus[1]]
        )
        params = EjmParams(z=s, phi=math.pi / 4, theta=0.0, gamma=0.0)
        got = tensor_product(*map(StateVector, vertex_formula_tables(params)[1][0]))
        assert np.max(np.abs(got.amplitudes - expected)) < 1e-15

    def test_associative_bit_exact_on_dyadic_amplitudes(self):
        # Entries with power-of-two magnitudes multiply exactly, so the two
        # groupings must agree bit for bit.
        a = StateVector(np.array([0.5 + 0.5j, 0.5 - 0.5j]))
        b = StateVector(np.array([0.5, 0.5, 0.5, -0.5]))
        c = ket("1")
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.array_equal(left.amplitudes, right.amplitudes)

    def test_associative_on_generic_states(self):
        # Floating multiplication is not associative in the last bit, so
        # generic amplitudes are compared at machine precision instead.
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        pairs = vertex_formula_tables(params)[1]
        a = StateVector(pairs[0][0])
        b = n_qubit_ejm(params, 2).states[BasisLabel(1)]
        c = StateVector(pairs[2][1])
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-15


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(ket("01"), 1)
        assert np.max(np.abs(rho - np.array([[1, 0], [0, 0]]))) < 1e-15

    def test_maximally_entangled_marginal(self):
        bell = StateVector(np.array([0, 1, 1, 0]) / math.sqrt(2))
        rho = partial_trace(bell, 1)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-15

    def test_third_qubit_of_three_qubit_state(self):
        # Closed-form check: the tail qubit of the k=0 state points along
        # cos(2*gamma) * m_0 = 0.5 * m_0 at gamma = pi/6.
        params = EjmParams(z=0.8, phi=0.3, theta=math.pi / 3, gamma=math.pi / 6)
        rho = partial_trace(n_qubit_ejm(params, 3).states[BasisLabel(0, (), 0)], 3)
        got = bloch_vector(rho)
        assert np.max(np.abs(got - 0.5 * m_vector(params, 0))) < 1e-12

    def test_composition_over_complements(self):
        # tracing out qubit 2, then qubit 3 of the remainder, equals
        # tracing out {2, 3} at once
        rng = np.random.default_rng(7)
        state = random_state(rng, 3)
        two_step = transpose_trace(state, (1, 3)).reshape(2, 2, 2, 2)
        sequential = np.trace(two_step, axis1=1, axis2=3)
        direct = partial_trace(state, 1)
        assert np.max(np.abs(sequential - direct)) < 1e-13

    def test_density_matrix_contract(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            state = random_state(rng, n)
            for q in (1, n):
                rho = partial_trace(state, q)
                assert abs(np.trace(rho).real - 1.0) < 1e-12
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
                assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    @pytest.mark.parametrize("qubit", [0, 3, 1.0, 1.7, np.float64(1.0), True, "1", None, {1}, [1]], ids=repr)
    def test_other_indices_are_rejected(self, qubit):
        with pytest.raises(ValueError, match=r"^qubit=.* must be 1\.\.2$"):
            partial_trace(ket("01"), qubit)

    @pytest.mark.parametrize("qubit", [np.int8(9), np.uint8(9), np.int64(9), np.int8(1), np.uint8(1), np.int64(1)],
                             ids=repr)
    def test_numpy_integer_indices_give_the_int_bytes(self, qubit):
        # At n = 9, 2 ** 8 overflows a one-byte integer.
        state = random_state(np.random.default_rng(9), 9)
        assert partial_trace(state, qubit).tobytes() == partial_trace(state, int(qubit)).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bits_equal_the_full_transpose(self, n):
        # Every qubit of every state; bytes, so that the sign of every zero entry counts.
        rng = np.random.default_rng(n)
        points = BOUNDARY + [(z, 0.3, 1.0, 0.5) for z in (0.8, -0.8)]
        states = [StateVector(row) for point in points for row in n_qubit_ejm(EjmParams(*point), n).matrix()]
        states += [random_state(rng, n) for _ in range(16)]
        qubits = range(1, n + 1)
        got = b"".join(partial_trace(state, q).tobytes() for state in states for q in qubits)
        want = b"".join(transpose_trace(state, (q,)).tobytes() for state in states for q in qubits)
        assert got == want


class TestExpectation:
    def test_pauli_z_on_zero(self):
        assert expectation(ket("0"), PAULI_Z) == 1.0

    def test_tetrahedron_vertex_bloch_vector(self):
        params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=0.0, gamma=0.0)
        state = StateVector(vertex_formula_tables(params)[1][0][0])
        got = np.array([expectation(state, s) for s in PAULIS])
        assert np.max(np.abs(got - np.full(3, INV_SQRT3))) < 1e-12

    def test_two_qubit_block_z_component(self):
        # cos(theta)/2 = 0.25 at theta = pi/3, cross-checked by the first qubit's reduction.
        params = EjmParams(z=0.8, phi=0.3, theta=math.pi / 3, gamma=0.0)
        state = n_qubit_ejm(params, 2).states[BasisLabel(0)]
        obs = np.kron(PAULI_Z, np.eye(2))
        value = expectation(state, obs)
        assert abs(value - 0.25) < 1e-12
        reduced = bloch_vector(partial_trace(state, 1))[2]
        assert abs(value - reduced) < 1e-15


class TestPauliAlgebra:
    def test_products_exact(self):
        eye = np.eye(2)
        epsilon = {
            (0, 1): (1, 2),
            (1, 2): (1, 0),
            (2, 0): (1, 1),
            (1, 0): (-1, 2),
            (2, 1): (-1, 0),
            (0, 2): (-1, 1),
        }
        for a in range(3):
            for b in range(3):
                product = PAULIS[a] @ PAULIS[b]
                if a == b:
                    assert np.array_equal(product, eye)
                else:
                    sign, c = epsilon[(a, b)]
                    assert np.array_equal(product, 1j * sign * PAULIS[c])

    def test_constructor_contract(self):
        for s in PAULIS:
            assert np.array_equal(s, s.conj().T)
            assert np.array_equal(s @ s.conj().T, np.eye(2))
            assert np.trace(s) == 0

    def test_read_only(self):
        for target in (PAULIS, PAULI_Z):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 0.0


class TestPermuteQubits:
    def test_swap(self):
        assert np.array_equal(permute_qubits(ket("01"), (2, 1)).amplitudes, ket("10").amplitudes)

    def test_cycle(self):
        got = permute_qubits(ket("011"), (3, 1, 2))
        assert np.array_equal(got.amplitudes, ket("101").amplitudes)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_qubits(ket("01"), (1, 1))

    @pytest.mark.parametrize("order", [[True, 2], [2.0, 1], [np.float64(1.0), 2], ["1", "2"]])
    def test_non_integral_order_is_rejected(self, order):
        with pytest.raises(ValueError, match="permutation"):
            permute_qubits(ket("01"), order)

    def test_numpy_integer_order_is_accepted(self):
        got = permute_qubits(ket("01"), np.array([2, 1]))
        assert np.array_equal(got.amplitudes, ket("10").amplitudes)


class TestBlochVector:
    def test_norm_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_state(rng, 2)
            vec = bloch_vector(partial_trace(state, 1))
            assert np.linalg.norm(vec) <= 1.0 + 1e-10

    def test_dimension_check(self):
        for rho in (np.eye(4), np.eye(2)[0], np.zeros((3, 2, 4))):
            with pytest.raises(ValueError, match="2x2"):
                bloch_vector(rho)

    def test_matches_the_pauli_traces_bit_for_bit(self):
        # Random density matrices; diagonal ones whose off-diagonal entries have
        # every sign of a zero real and imaginary part; and the single-qubit
        # reductions of the n = 3 family at z = -1, phi = pi, theta = gamma = 0,
        # whose zeros take the signs of the BLAS kernel's sums.  The uint64
        # views make the sign of zero count.
        rng = np.random.default_rng(17)
        a = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        random = a @ a.conj().transpose(0, 2, 1)
        random /= np.trace(random, axis1=1, axis2=2)[:, None, None]
        zeros = np.array(list(product((0.0, -0.0), repeat=4))).reshape(-1, 2, 2)  # (Re, Im) of rho01, of rho10
        signed = np.zeros((2, len(zeros), 2, 2), dtype=complex)
        signed[..., 0, 0], signed[..., 1, 1] = [[1.0], [0.5]], [[0.0], [0.5]]
        signed.view(np.float64).reshape(*signed.shape, 2)[..., [0, 1], [1, 0], :] = zeros
        assert len(set(map(bytes, signed.reshape(-1, 4)))) == 2 * len(zeros)
        family = n_qubit_ejm(EjmParams(-1.0, math.pi, 0.0, 0.0), 3)
        degenerate = np.array([[partial_trace(state, q) for q in (1, 2, 3)] for state in family.states.values()])
        for rho in (random, signed, degenerate):
            expected = np.stack([np.trace(rho @ s, axis1=-2, axis2=-1).real for s in PAULIS], axis=-1)
            assert np.array_equal(bloch_vector(rho).view(np.uint64), expected.view(np.uint64))

    def test_named_triple(self):
        v = BlochVector(0.1, -0.2, 0.3)
        assert (v.x, v.y, v.z) == tuple(v) == (0.1, -0.2, 0.3)
        assert np.array(v).tolist() == list(v)
        with pytest.raises(AttributeError):
            v.x = 0.0


@settings(max_examples=25, deadline=None)
@given(state_strategy(2))
def test_tensor_product_preserves_norm(state):
    other = ket("0")
    assert abs(np.linalg.norm(tensor_product(state, other).amplitudes) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(state_strategy(3))
def test_partial_trace_has_unit_trace(state):
    for rho in (partial_trace(state, 1), partial_trace(state, 2), transpose_trace(state, (1, 3))):
        assert abs(np.trace(rho).real - 1.0) < 1e-12


_complexes = st.complex_numbers(
    allow_nan=False, allow_infinity=False, allow_subnormal=False, max_magnitude=1e3
)


@settings(max_examples=100, deadline=None)
@given(_complexes, _complexes, _complexes)
def test_complex_arithmetic_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    scale = max(1.0, abs(a) + abs(b) + abs(c))
    assert abs((a + b) + c - (a + (b + c))) <= 1e-12 * scale
    scale = max(1.0, abs(a) * abs(b) * abs(c))
    assert abs((a * b) * c - (a * (b * c))) <= 1e-12 * scale
    scale = max(1.0, abs(a) * (abs(b) + abs(c)))
    assert abs(a * (b + c) - (a * b + a * c)) <= 1e-12 * scale
    assert a.conjugate().conjugate() == a
    assert abs((a * a.conjugate()).real - abs(a) ** 2) <= 1e-12 * max(1.0, abs(a) ** 2)
