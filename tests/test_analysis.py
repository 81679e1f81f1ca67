import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import domain_params, ket
from hypothesis import given, settings
from hypothesis import strategies as st

import ejm.analysis
from ejm.analysis import (
    GEOMETRY_ATOL,
    _clusters,
    _is_rectangular_box,
    concurrence,
    reduced_bloch_vectors,
    reduction_law,
    symmetry_report,
    tangle_law,
    three_tangle,
    verify_orthonormal_complete,
)
from ejm.bases import (
    BasisFamily,
    BasisLabel,
    EjmParams,
    n_qubit_ejm,
)
from ejm.qla import BlochVector, StateVector, bloch_vector, partial_trace

GHZ = StateVector(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
W = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
UP = np.array([1.0, 0.0])


def random_unitary(rng):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestThreeTangle:
    def test_ghz(self):
        assert abs(three_tangle(GHZ) - 1.0) < 1e-12

    def test_w_state(self):
        assert three_tangle(W) < 1e-12

    def test_half_tangle_point(self):
        params = EjmParams(z=1.0, phi=0.1781, theta=math.pi / 2, gamma=math.pi / 8)
        assert abs(three_tangle(n_qubit_ejm(params, 3).states[BasisLabel(0, (), 0)]) - 0.5) < 1e-9

    def test_iso_entangled_law(self, grid_params):
        for params in grid_params:
            expected = tangle_law(params)
            for label, state in n_qubit_ejm(params, 3).states.items():
                tau = three_tangle(state)
                assert abs(tau - expected) < 1e-9, (params, label)

    @settings(max_examples=200, deadline=None)
    @given(domain_params)
    def test_iso_entangled_law_over_domain(self, params):
        expected = tangle_law(params)
        for state in n_qubit_ejm(params, 3).states.values():
            assert abs(three_tangle(state) - expected) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(42)
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        state = n_qubit_ejm(params, 3).states[BasisLabel(1, (), 0)]
        before = three_tangle(state)
        for _ in range(5):
            u = np.kron(np.kron(random_unitary(rng), random_unitary(rng)), random_unitary(rng))
            rotated = StateVector(u @ state.amplitudes)
            assert abs(three_tangle(rotated) - before) < 1e-9

    def test_qubit_count_check(self):
        with pytest.raises(ValueError, match="3-qubit"):
            three_tangle(ket("00"))


class TestConcurrence:
    def test_bell_state(self):
        bell = StateVector(np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert abs(concurrence(bell) - 1.0) < 1e-15

    def test_product_state(self):
        assert concurrence(ket("00")) == 0.0

    def test_iso_entangled_family(self, small_grid):
        for params in small_grid:
            values = [concurrence(state) for state in n_qubit_ejm(params, 2).states.values()]
            assert max(values) - min(values) < 1e-10

    def test_qubit_count_check(self):
        with pytest.raises(ValueError, match="2-qubit"):
            concurrence(ket("000"))


class TestReducedVectors:
    def test_three_qubit_closed_forms(self, grid_params):
        for params in grid_params:
            got = reduced_bloch_vectors(n_qubit_ejm(params, 3)).rows
            assert np.max(np.abs(got - reduction_law(params, 3))) < 1e-10, params

    def test_gamma_quarter_pi_collapses_block_tetrahedra(self):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=math.pi / 4)
        vectors = reduced_bloch_vectors(n_qubit_ejm(params, 3))
        axis = np.array([0.0, 0.0, math.cos(params.theta) / 2.0])
        for (label, qubit), vec in vectors.items():
            if qubit == 3:
                assert np.linalg.norm(np.array(vec)) < 1e-10
            else:
                direction = (-1.0) ** label.i * (1.0 if qubit == 1 else -1.0)
                assert np.max(np.abs(np.array(vec) - direction * axis)) < 1e-10

    def test_all_vectors_vanish_at_max_entanglement(self):
        params = EjmParams(z=0.9, phi=0.5, theta=math.pi / 2, gamma=math.pi / 4)
        vectors = reduced_bloch_vectors(n_qubit_ejm(params, 3))
        assert max(np.linalg.norm(np.array(v)) for v in vectors.values()) < 1e-10

    def test_even_family_block_pattern(self):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        got = reduced_bloch_vectors(n_qubit_ejm(params, 4)).rows
        assert np.max(np.abs(got - reduction_law(params, 4))) < 1e-10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_per_state_partial_trace(self, n, small_grid):
        for params in small_grid + [EjmParams(-p.z, p.phi, p.theta, p.gamma) for p in small_grid]:
            family = n_qubit_ejm(params, n)
            vectors = reduced_bloch_vectors(family)
            expected = {
                (label, q): bloch_vector(partial_trace(state, q))
                for label, state in family.states.items()
                for q in range(1, n + 1)
            }
            assert list(vectors) == list(expected)
            got = np.array(list(vectors.values()))
            want = np.array(list(expected.values()))
            assert np.array_equal(got, want), (n, params)

    def test_odd_family_special_position(self):
        # exactly one qubit carries the +-cos(2*gamma) m_i reductions
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        got = reduced_bloch_vectors(n_qubit_ejm(params, 5)).rows
        assert np.max(np.abs(got - reduction_law(params, 5))) < 1e-9


class TestReductionLaw:
    PARAMS = EjmParams(z=-0.9, phi=0.5, theta=1.0, gamma=0.4)

    @settings(max_examples=60, deadline=None)
    @given(domain_params, st.integers(2, 8))
    def test_matches_the_dense_reductions_over_the_domain(self, params, n):
        assert np.max(np.abs(reduced_bloch_vectors(n_qubit_ejm(params, n)).rows - reduction_law(params, n))) <= 1e-13

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_dense_reductions_at_a_point(self, n):
        law = reduction_law(self.PARAMS, n)
        assert law.shape == (2**n, n, 3) and not law.flags.writeable
        assert np.max(np.abs(reduced_bloch_vectors(n_qubit_ejm(self.PARAMS, n)).rows - law)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 9, 3.0, True])
    def test_checks_n_as_the_builder_does(self, n):
        with pytest.raises(ValueError) as built:
            n_qubit_ejm(self.PARAMS, n)
        with pytest.raises(ValueError, match=re.escape(str(built.value))):
            reduction_law(self.PARAMS, n)


class TestVectorView:
    """SymmetryReport.vectors and reduced_bloch_vectors are read-only views
    over the (states, qubits, 3) reduction array."""

    PARAMS = EjmParams(z=-0.9, phi=0.5, theta=1.0, gamma=0.4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_keys_in_family_order_and_values_bit_exact(self, n):
        family = n_qubit_ejm(self.PARAMS, n)
        want_keys = [(label, q) for label in family.labels for q in range(1, n + 1)]
        want = np.array([bloch_vector(partial_trace(state, q)) for state in family.states.values()
                         for q in range(1, n + 1)])
        for view in (symmetry_report(family).vectors, reduced_bloch_vectors(family)):
            assert list(view) == want_keys
            assert len(view) == len(want_keys)
            got = np.array([[v.x, v.y, v.z] for v in view.values()])
            assert np.array_equal(got, want)
            assert all(type(c) is float for v in view.values() for c in (v.x, v.y, v.z))

    def test_read_only(self):
        family = n_qubit_ejm(self.PARAMS, 3)
        for view in (symmetry_report(family).vectors, reduced_bloch_vectors(family)):
            key = next(iter(view))
            with pytest.raises(TypeError):
                view[key] = BlochVector(0.0, 0.0, 0.0)
            with pytest.raises(ValueError, match="read-only"):
                view.rows[0, 0, 0] = 0.0
            with pytest.raises(KeyError):
                view[(BasisLabel(0, (), 0), 4)]

    def test_one_view_class_for_states_and_vectors(self):
        family = n_qubit_ejm(self.PARAMS, 3)
        assert type(family.states) is type(symmetry_report(family).vectors)

    def test_report_builds_only_the_vector_sum(self, monkeypatch):
        family = n_qubit_ejm(self.PARAMS, 8)
        made = []

        def counting(*xyz):
            made.append(xyz)
            return BlochVector(*xyz)

        monkeypatch.setattr(ejm.analysis, "BlochVector", counting)
        report = symmetry_report(family)
        assert made == [(report.vector_sum.x, report.vector_sum.y, report.vector_sum.z)]
        assert len(list(report.vectors.values())) == 2**8 * 8
        assert len(made) == 1 + 2**8 * 8  # values are built on read

    def test_replace_vector_sum(self):
        report = symmetry_report(n_qubit_ejm(self.PARAMS, 3))
        moved = dataclasses.replace(report, vector_sum=BlochVector(1.0, 0.0, 0.0))
        assert moved.vector_sum == BlochVector(1.0, 0.0, 0.0)
        assert moved.vectors is report.vectors
        assert moved.radii == report.radii


class TestSymmetryReport:
    def test_vector_sum_vanishes(self, small_grid):
        for params in small_grid:
            for n in (3, 4, 5):
                report = symmetry_report(n_qubit_ejm(params, n))
                assert np.linalg.norm(np.array(report.vector_sum)) < 1e-9

    def test_equal_radii_at_theta_zero_gamma_eighth_pi(self):
        params = EjmParams(z=0.9, phi=0.5, theta=0.0, gamma=math.pi / 8)
        report = symmetry_report(n_qubit_ejm(params, 3))
        assert len(report.radii) == 1
        assert abs(report.radii[0] - 1.0 / math.sqrt(2.0)) < 1e-10

    def test_radii_coincide_on_matching_condition(self):
        # gamma = pi/6 forces cos(theta) = cos(2g) / ((1/2) sqrt(1+2cos^2 2g))
        gamma = math.pi / 6
        c2 = math.cos(2 * gamma)
        theta = math.acos(c2 / (0.5 * math.sqrt(1 + 2 * c2 * c2)))
        params = EjmParams(z=0.9, phi=0.5, theta=theta, gamma=gamma)
        report = symmetry_report(n_qubit_ejm(params, 3))
        assert len(report.radii) == 1

    def test_two_radius_classes_generically(self):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        report = symmetry_report(n_qubit_ejm(params, 3))
        block, tail = np.linalg.norm(reduction_law(params, 3)[0, 1:], axis=1)
        assert len(report.radii) == 2
        assert abs(sorted(report.radii)[0] - min(block, tail)) < 1e-10
        assert abs(sorted(report.radii)[1] - max(block, tail)) < 1e-10

    def test_parallelepiped_and_mirrors_generic(self, small_grid):
        for params in small_grid:
            for n in (3, 4):
                report = symmetry_report(n_qubit_ejm(params, n))
                assert report.parallelepiped_ok, (params, n)
                assert report.mirror_pairs_ok, (params, n)

    def test_degenerate_flag_on_collapsed_vertices(self):
        params = EjmParams(z=0.9, phi=0.5, theta=0.7, gamma=math.pi / 4)
        report = symmetry_report(n_qubit_ejm(params, 3))
        assert report.degenerate
        assert report.parallelepiped_ok

    def test_degenerate_flag_on_zero_radius(self):
        params = EjmParams(z=0.9, phi=0.5, theta=math.pi / 2, gamma=math.pi / 4)
        report = symmetry_report(n_qubit_ejm(params, 3))
        assert report.degenerate
        assert report.parallelepiped_ok
        assert report.radii[0] < 1e-10

    def test_mirror_pairing_skips_clusters_at_the_origin(self):
        # 1e-9 from theta = pi/2 the block vectors are about GEOMETRY_ATOL long,
        # so the clusters near the origin need not pair v with -v; they count
        # as the origin, and the pairing holds for every n.
        params = EjmParams(z=-0.9, phi=0.5, theta=math.pi / 2 - 1e-9, gamma=0.4)
        for n in range(2, 9):
            report = symmetry_report(n_qubit_ejm(params, n))
            assert (report.parallelepiped_ok, report.mirror_pairs_ok, report.degenerate) == (True, True, True), n

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(("rows", "flags"), [
        # qubit 1: sixteen points +-u_s, no box; qubits 2 and 3: the octet {+z, -z}
        (lambda kets: [(kets[s][0], UP, UP) for s in range(8)], (False, False, True)),
        # qubit 1: the eight points +-u_k of four random u_k, live but no box
        (lambda kets: [(kets[s // 2][0], UP, UP) for s in range(8)], (False, False, True)),
        # each qubit: the eight points +-u_k of its own four kets, so every position is live
        (lambda kets: [kets[s // 2] for s in range(8)], (False, False, False)),
    ], ids=["eight-kets-on-qubit-1", "four-kets-twice-on-qubit-1", "four-product-kets-twice"])
    def test_report_says_no_on_product_rows(self, rows, flags, seed):
        # BasisFamily checks only the row norms, so n = 3 product rows are valid input;
        # each ket appears without its orthogonal partner, so no vector has its mirror.
        rng = np.random.default_rng(seed)
        kets = [[random_unitary(rng)[:, 0] for _ in range(3)] for _ in range(8)]
        report = symmetry_report(BasisFamily([np.kron(np.kron(u, w), x) for u, w, x in rows(kets)]))
        assert (report.parallelepiped_ok, report.mirror_pairs_ok, report.degenerate) == flags

    @settings(max_examples=60, deadline=None)
    @given(domain_params, st.integers(2, 8))
    def test_octets_are_cubes_and_square_prisms(self, params, n):
        # The abstract's hexahedral symmetry: each position's +- octet is a box
        # whose squared half-sides are the eigenvalues of O^T O / 8.  It is a cube
        # at n = 2, a square prism with sides (|cos 2g|, |cos 2g|, 1) at block
        # positions, and one with sides (sqrt((1 - z^2)/2) twice, |z|) at the
        # odd-n tail, up to scale.
        c2g = abs(math.cos(2 * params.gamma))
        tail = math.sqrt((1 - params.z**2) / 2)
        vectors = reduced_bloch_vectors(n_qubit_ejm(params, n)).rows
        for qubit, at_position in enumerate(vectors.transpose(1, 0, 2), start=1):
            _, octet = _clusters(np.concatenate([at_position, -at_position]))
            if np.max(np.linalg.norm(octet, axis=1)) <= GEOMETRY_ATOL or len(octet) < 8:
                continue  # degenerate, as symmetry_report skips it
            if n == 2:
                sides = np.ones(3)
            elif n % 2 and qubit == n:
                sides = np.array([tail, tail, abs(params.z)])
            else:
                sides = np.array([c2g, c2g, 1.0])
            squares = np.linalg.eigvalsh(octet.T @ octet / 8)
            expected = np.sort(sides**2) * squares.sum() / np.sum(sides**2)
            assert np.max(np.abs(squares - expected)) < 1e-13, (n, qubit)

    @settings(max_examples=60, deadline=None)
    @given(domain_params, st.integers(2, 8))
    def test_symmetry_holds_over_the_domain(self, params, n):
        # Off the degenerate sets (theta = pi/2; gamma = pi/4 for n >= 3;
        # |z| = 1 for odd n) every octet is a box and the vectors pair up, and
        # the radii are the lengths of the reduction law, where they are apart.
        report = symmetry_report(n_qubit_ejm(params, n))
        distances = [abs(params.theta - math.pi / 2)]
        distances += [abs(params.gamma - math.pi / 4)] if n >= 3 else []
        distances += [1 - abs(params.z)] if n % 2 else []
        if min(distances) > 1e-6:
            assert (report.parallelepiped_ok, report.mirror_pairs_ok, report.degenerate) == (True, True, False)
        expected = sorted(set(np.linalg.norm(reduction_law(params, n)[0], axis=1).tolist()))
        if len(expected) == 1 or expected[1] - expected[0] > 1e-6:
            assert np.max(np.abs(np.subtract(report.radii, expected))) <= 1e-12, report.radii

    @settings(max_examples=30, deadline=None)
    @given(
        domain_params,
        st.one_of(
            st.tuples(st.just("theta"), st.integers(2, 8)),
            st.tuples(st.just("gamma"), st.integers(3, 8)),
            st.tuples(st.just("z"), st.sampled_from((3, 5, 7))),
        ),
    )
    def test_degenerate_sets_are_flagged(self, params, at):
        name, n = at
        value = {"theta": math.pi / 2, "gamma": math.pi / 4, "z": math.copysign(1.0, params.z)}[name]
        report = symmetry_report(n_qubit_ejm(dataclasses.replace(params, **{name: value}), n))
        assert (report.parallelepiped_ok, report.mirror_pairs_ok, report.degenerate) == (True, True, True)


class TestVerifyOrthonormalComplete:
    def test_clean_family(self):
        params = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.5)
        report = verify_orthonormal_complete(n_qubit_ejm(params, 3))
        assert report.gram_error < 1e-10
        assert report.completeness_error < 1e-10

    def test_four_qubit_family(self):
        params = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.5)
        report = verify_orthonormal_complete(n_qubit_ejm(params, 4))
        assert report.gram_error < 1e-9
        assert report.completeness_error < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(domain_params, st.integers(2, 8))
    def test_errors_equal_the_identity_subtraction(self, params, n):
        # The diagonal subtracted in place against I built and subtracted whole, bit for bit.
        family = n_qubit_ejm(params, n)
        v, eye = family.matrix(), np.eye(2**n)
        report = verify_orthonormal_complete(family)
        assert report.gram_error.hex() == float(np.max(np.abs(v.conj() @ v.T - eye))).hex()
        assert report.completeness_error.hex() == float(np.max(np.abs(v.T @ v.conj() - eye))).hex()

    def test_corrupted_family_detected(self):
        params = EjmParams(z=0.8, phi=0.3, theta=1.0, gamma=0.5)
        family = n_qubit_ejm(params, 3)
        rows = family.matrix().copy()
        rows[family.labels.index(BasisLabel(0, (), 0))] = ket("000").amplitudes
        corrupted = BasisFamily(rows)
        assert verify_orthonormal_complete(corrupted).gram_error >= 0.1


def random_frame(rng, lengths):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return [length * axis for length, axis in zip(lengths, q)]


def box_octet(rng, a, b, c):
    corners = np.array([s1 * a + s2 * b + s3 * c for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
    return corners[rng.permutation(8)]


class TestGeometryPredicates:
    def test_box_accepts_rectangular_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lengths = rng.uniform(0.01, 1.0, size=3)
            assert _is_rectangular_box(box_octet(rng, *random_frame(rng, lengths)))

    def test_box_accepts_long_edge_beyond_face_diagonal(self):
        # the longest edge exceeds the diagonal of the face spanned by the
        # other two, so a vertex's nearest neighbours do not span the box
        rng = np.random.default_rng(8)
        for _ in range(50):
            short = rng.uniform(0.01, 0.3, size=2)
            long = math.hypot(*short) * rng.uniform(1.1, 5.0)
            assert _is_rectangular_box(box_octet(rng, *random_frame(rng, (*short, long))))

    def test_box_rejects_sheared_octets(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b, c = random_frame(rng, rng.uniform(0.05, 1.0, size=3))
            sheared = b + rng.uniform(0.05, 0.5) * a
            assert not _is_rectangular_box(box_octet(rng, a, sheared, c))

    def test_box_rejects_non_parallelepipeds(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            u = rng.normal(size=(4, 3))
            assert not _is_rectangular_box(np.concatenate([u, -u])[rng.permutation(8)])
            assert not _is_rectangular_box(rng.normal(size=(8, 3)))

    def test_box_rejects_unequal_pairs_with_vanishing_sum(self):
        # w_0 + w_1 + w_2 + w_3 = 0, so only the one-length test rejects the octet +-w_k.
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.normal(size=(3, 3))
            w = np.concatenate([w, -w.sum(axis=0, keepdims=True)])
            assert np.ptp(np.linalg.norm(w, axis=1)) > 1e-3
            assert not _is_rectangular_box(np.concatenate([w, -w])[rng.permutation(8)])

    def test_box_tolerance_reaches_vertex_matching(self):
        # A vertex moved by 50 GEOMETRY_ATOL is seen, the same move scaled by
        # 1/100 is not: a + b - c or its antipode alone, which breaks the
        # antipodal pairing, or both along c, which keeps the pairs but
        # shortens the pair +-(a + b - c) by the move and leaves no signed sum
        # vanishing, so that both the length and the signed-sum tests see it.
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = random_frame(rng, rng.uniform(0.1, 0.5, size=3))
            octet = np.array([s1 * a + s2 * b + s3 * c for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
            step = rng.normal(size=3)
            for scale, accepted in ((50 * GEOMETRY_ATOL, False), (0.5 * GEOMETRY_ATOL, True)):
                first, second, pair = octet.copy(), octet.copy(), octet.copy()
                first[1] += scale * step / np.linalg.norm(step)
                second[6] += scale * step / np.linalg.norm(step)
                pair[1] += scale * c / np.linalg.norm(c)
                pair[6] -= scale * c / np.linalg.norm(c)
                for moved in (first, second, pair):
                    assert _is_rectangular_box(moved) == accepted, (scale, moved)

    def test_mirror_fails_when_one_vector_flips(self, monkeypatch):
        params = EjmParams(z=0.9, phi=0.5, theta=1.0, gamma=0.4)
        for n in range(2, 9):
            family = n_qubit_ejm(params, n)
            view = reduced_bloch_vectors(family)
            assert symmetry_report(family).mirror_pairs_ok
            count = len(view.rows) * n
            for index in (0, count // 2 + 1, count - 1):
                flipped = view.rows.copy()
                flipped.reshape(-1, 3)[index] *= -1
                flipped_view = dataclasses.replace(view, rows=flipped)
                monkeypatch.setattr(ejm.analysis, "reduced_bloch_vectors", lambda _, v=flipped_view: v)
                assert not symmetry_report(family).mirror_pairs_ok, (n, index)
                monkeypatch.undo()

    def test_clusters_follow_input_order_under_one_star_rule(self):
        near = 0.5 * GEOMETRY_ATOL
        points = np.array([[0, 0, 0], [1, 0, 0], [0, 0, near], [1 + near, 0, 0], [2, 0, 0], [0, near, 0]])
        labels, reps = _clusters(points)
        assert labels.tolist() == [0, 1, 0, 1, 2, 0]
        assert reps.tobytes() == points[[0, 1, 4]].tobytes()
        # Each cluster is its first point and all within GEOMETRY_ATOL of that
        # point, so a chain of steps of 0.6 GEOMETRY_ATOL splits into pairs,
        # where splitting the sorted values at gaps would keep one cluster.
        chain = (0.6 * GEOMETRY_ATOL * np.arange(9))[:, None]
        labels, reps = _clusters(chain)
        assert labels.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4]
        assert reps.tobytes() == chain[::2].tobytes()

    def test_stacked_octets_hold_together_as_they_hold_one_by_one(self):
        rng = np.random.default_rng(13)
        boxes = [box_octet(rng, *random_frame(rng, rng.uniform(0.05, 1.0, size=3))) for _ in range(6)]
        assert _is_rectangular_box(np.stack(boxes))
        assert _is_rectangular_box(np.empty((0, 8, 3)))
        a, b, c = random_frame(rng, rng.uniform(0.05, 1.0, size=3))
        u = rng.normal(size=(4, 3))
        for bad in (box_octet(rng, a, b + 0.3 * a, c), np.concatenate([u, -u]), rng.normal(size=(8, 3))):
            for at in (0, 3, 6):
                stack = np.stack([*boxes[:at], bad, *boxes[at:]])
                assert not _is_rectangular_box(stack), at


def row_wise_clusters(points):
    """The clustering rule as one max-norm reduction per pass over whole rows."""
    labels = np.full(len(points), -1)
    firsts = []
    while (left := labels < 0).any():
        first = int(np.argmax(left))
        near = left & (np.max(np.abs(points - points[first]), axis=1) <= GEOMETRY_ATOL)
        labels[near] = len(firsts)
        firsts.append(first)
    return labels, points[firsts]


def offset_cloud(rng, columns):
    """Points at 0 and at a few seeded sites, each also moved by 0.5, exactly
    1 and 1.5 GEOMETRY_ATOL along one coordinate or along all of them, in
    seeded order.  About 0 each offset is exact, so 1 GEOMETRY_ATOL lies on
    the boundary, and a move along one coordinate is seen only in its column."""
    sites = np.concatenate([np.zeros((1, columns)), rng.normal(size=(3, columns))])
    moves = [np.eye(columns)[j] for j in range(columns)] + [rng.choice((-1.0, 1.0), size=columns)]
    points = [site + scale * GEOMETRY_ATOL * move for site in sites for scale in (0.0, 0.5, 1.0, 1.5) for move in moves]
    return np.array(points)[rng.permutation(len(points))]


class TestClusters:
    def clouds(self):
        rng = np.random.default_rng(14)
        for columns in (3, 1):
            for _ in range(20):
                yield offset_cloud(rng, columns)
                # A seeded cloud on a grid of GEOMETRY_ATOL / 2 around a few sites.
                sites = rng.normal(size=(4, columns))
                steps = rng.integers(-3, 4, size=(60, columns)) * (0.5 * GEOMETRY_ATOL)
                yield sites[rng.integers(0, 4, size=60)] + steps
                yield rng.normal(size=(30, columns))
        vectors = reduced_bloch_vectors(n_qubit_ejm(EjmParams(0.9, 0.5, 1.0, 0.4), 5)).rows
        yield np.sort(np.linalg.norm(vectors, axis=2).ravel())[:, None]

    def test_columns_give_the_labels_and_representatives_of_whole_rows(self):
        for points in self.clouds():
            labels, reps = _clusters(points)
            expected_labels, expected_reps = row_wise_clusters(points)
            assert labels.tolist() == expected_labels.tolist()
            assert reps.tobytes() == expected_reps.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_and_inf_points_are_clusters_of_their_own(self, bad):
        # Such a point is within GEOMETRY_ATOL of no point, itself included
        # (inf - inf is NaN); unlabelled, it would keep the passes going for ever.
        points = np.array([[bad, 0, 0], [1, 0, 0], [0, bad, 0], [bad, 0, 0], [1, 0, 0]])
        labels, reps = _clusters(points)
        assert labels.tolist() == [0, 1, 2, 3, 1]
        assert reps.tobytes() == points[[0, 1, 2, 3]].tobytes()
        labels, reps = _clusters(np.array([[bad], [bad], [0.0]]))
        assert labels.tolist() == [0, 1, 2]
