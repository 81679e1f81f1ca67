"""Entanglement measures, single-qubit reductions, and geometric symmetry
checks (mirror tetrahedra, vanishing vector sums, rectangular parallelepipeds)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .bases import BasisFamily, BasisLabel, EjmParams
from .qla import PAULIS, BlochVector, ContractError, StateVector, partial_trace

# A three-tangle rounds to within 1e-15 of [0, 1]; an excess beyond this is a bug.
TANGLE_CLAMP_ATOL = 1e-12
# Reduction vectors are exact to 1e-15; symmetry_report takes closer points as equal.
GEOMETRY_ATOL = 1e-9
# Basis acceptance (verify --tol, Bob's basis): built families stay below 1e-14.
ORTHONORMAL_ATOL = 1e-9

_PAULI_STACK = np.array([s.entries for s in PAULIS])


def three_tangle(state: StateVector) -> float:
    """Residual tangle of a three-qubit pure state.

    Evaluates the degree-4 polynomial in the eight amplitudes (the modulus
    of Cayley's hyperdeterminant form): 0 for product and W-class states,
    1 for GHZ.  The result is clamped into [0, 1]; a clamp beyond 1e-12
    indicates a bug and raises ContractError.
    """
    if state.n_qubits != 3:
        raise ValueError(f"three_tangle needs a 3-qubit state, got {state.n_qubits} qubits")
    a000, a001, a010, a011, a100, a101, a110, a111 = state.amplitudes
    quartic = (
        (a000 * a111 - a001 * a110) ** 2
        + (a010 * a101 - a100 * a011) ** 2
        + 4 * (a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100)
        - 2 * (a000 * a111 + a001 * a110) * (a010 * a101 + a100 * a011)
    )
    tau = 4.0 * abs(quartic)
    if tau > 1.0 + TANGLE_CLAMP_ATOL:
        raise ContractError(f"three-tangle {tau!r} exceeds 1 beyond tolerance")
    return min(float(tau), 1.0)


def tangle_law(params: EjmParams) -> float:
    """Common three-tangle sin^2(2*gamma) sin(theta) shared by every
    three-qubit EJM basis state at the given parameters."""
    return math.sin(2.0 * params.gamma) ** 2 * math.sin(params.theta)


def concurrence(state: StateVector) -> float:
    """Pure-state concurrence 2|a00*a11 - a01*a10| of a two-qubit state."""
    if state.n_qubits != 2:
        raise ValueError(f"concurrence needs a 2-qubit state, got {state.n_qubits} qubits")
    a00, a01, a10, a11 = state.amplitudes
    return min(float(2.0 * abs(a00 * a11 - a01 * a10)), 1.0)


def m_prime_vector(params: EjmParams, i: int) -> np.ndarray:
    """Unit vector of the secondary tetrahedron traced out by the two-qubit
    block reductions: proportional to (sqrt(2) cos(2g) cos(phi_i - phi_z),
    sqrt(2) cos(2g) sin(phi_i - phi_z), (-1)^i)."""
    c2g = math.cos(2.0 * params.gamma)
    delta = params.phi_i(i) - params.phi_z
    vec = np.array(
        [
            math.sqrt(2.0) * c2g * math.cos(delta),
            math.sqrt(2.0) * c2g * math.sin(delta),
            (-1.0) ** i,
        ]
    )
    return vec / math.sqrt(1.0 + 2.0 * c2g * c2g)


def reduction_coefficients(params: EjmParams) -> tuple[float, float]:
    """Signed scale factors of the reduction vectors.

    Returns (block_scale, tail_scale): two-qubit-block positions reduce to
    +-block_scale * m', the odd extra qubit to +-tail_scale * m, where
    block_scale = (1/2) sqrt(1 + 2 cos^2(2g)) cos(theta) and
    tail_scale = cos(2g).
    """
    c2g = math.cos(2.0 * params.gamma)
    block = 0.5 * math.sqrt(1.0 + 2.0 * c2g * c2g) * math.cos(params.theta)
    return block, c2g


def _bloch_array(family: BasisFamily) -> np.ndarray:
    """Bloch vectors of every single-qubit reduction, shape (states, qubits, 3).

    Each 2x2 reduced density matrix comes from partial_trace on one state;
    the Pauli expectations tr(rho sigma) of all of them are then taken in one
    batched product, the same arithmetic as bloch_vector on each.
    """
    qubits = range(1, family.n_qubits + 1)
    rho = np.array(
        [[partial_trace(state, {q}).entries for q in qubits] for state in family.states.values()]
    )
    return np.trace(rho[:, :, None] @ _PAULI_STACK, axis1=-2, axis2=-1).real


def _vector_map(
    family: BasisFamily, vectors: np.ndarray
) -> dict[tuple[BasisLabel, int], BlochVector]:
    return {
        (label, qubit): BlochVector(*xyz)
        for label, row in zip(family.labels, vectors.tolist())
        for qubit, xyz in enumerate(row, start=1)
    }


def reduced_bloch_vectors(
    family: BasisFamily,
) -> dict[tuple[BasisLabel, int], BlochVector]:
    """Bloch vector of every single-qubit reduction, keyed by
    (basis label, 1-based qubit position)."""
    return _vector_map(family, _bloch_array(family))


@dataclass(frozen=True)
class OrthonormalityReport:
    """Worst-entry deviations of the Gram matrix and the completeness sum."""

    gram_error: float
    completeness_error: float


def verify_orthonormal_complete(family: BasisFamily) -> OrthonormalityReport:
    """Measure how far the family is from an orthonormal, complete basis.

    gram_error is max |<s|t> - delta_st|; completeness_error is the largest
    entry of |sum_s |s><s| - I|.  Both are reported, never asserted.
    """
    v = family.matrix()
    eye_states = np.eye(v.shape[0])
    eye_space = np.eye(v.shape[1])
    gram_error = float(np.max(np.abs(v.conj() @ v.T - eye_states)))
    completeness_error = float(np.max(np.abs(v.T @ v.conj() - eye_space)))
    return OrthonormalityReport(gram_error, completeness_error)


@dataclass(frozen=True)
class SymmetryReport:
    """Geometric summary of a family's single-qubit reductions."""

    vectors: Mapping[tuple[BasisLabel, int], BlochVector]
    radii: tuple[float, ...]
    vector_sum: BlochVector
    parallelepiped_ok: bool
    mirror_pairs_ok: bool
    degenerate: bool


def _cluster_magnitudes(values: np.ndarray, tol: float) -> tuple[float, ...]:
    ordered = np.sort(values)
    groups = np.split(ordered, np.flatnonzero(np.diff(ordered) > tol) + 1)
    return tuple(float(np.mean(g)) for g in groups)


def _clusters(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-norm clustering in input order, one pass per cluster.

    Each cluster is the first unclaimed point (its representative) and every
    unclaimed point within tol of it.  Returns the representatives and the
    cluster sizes.
    """
    left = np.ones(len(points), dtype=bool)
    firsts, sizes = [], []
    while left.any():
        first = int(np.argmax(left))
        near = left & (np.max(np.abs(points - points[first]), axis=1) <= tol)
        firsts.append(first)
        sizes.append(int(np.count_nonzero(near)))
        left &= ~near
    return points[firsts], np.array(sizes)


def _mirror_symmetric(points: np.ndarray, tol: float) -> bool:
    """True iff every cluster away from the origin has exactly one mirror
    cluster (near -v) of the same size, so the multiset pairs v with -v."""
    reps, sizes = _clusters(points, tol)
    for rep, size in zip(reps, sizes):
        mirror = np.max(np.abs(reps + rep), axis=1) <= tol
        if np.max(np.abs(rep)) > tol and sizes[mirror].tolist() != [size]:
            return False
    return True


# Signs of u_1, u_2, u_3 in a signed sum u_0 +- u_1 +- u_2 +- u_3.
_SIGNS = np.array([(1.0, *signs) for signs in product((1.0, -1.0), repeat=3)])


def _is_rectangular_box(points: np.ndarray, tol: float) -> bool:
    """True iff the eight points are the vertices +-a +-b +-c of a box with
    orthogonal, non-zero edges.

    The points must form four antipodal pairs +-u_k.  They are then such a
    box iff some signed sum w_0 + w_1 + w_2 + w_3 (w_k = +-u_k) vanishes and
    the edges w_0 + w_k (k = 1, 2, 3) from vertex w_0 to vertices -w_k are
    orthogonal and non-zero; the vertices are then +-w_0 and +-w_k.
    """
    if len(points) != 8:
        return False
    antipodal = np.max(np.abs(points[:, None] + points[None]), axis=2) <= tol
    if np.any(np.diag(antipodal)) or np.any(antipodal.sum(axis=1) != 1):
        return False
    u = points[np.arange(8) < np.argmax(antipodal, axis=1)]
    w = _SIGNS[:, :, None] * u
    vanishing = np.max(np.abs(w.sum(axis=1)), axis=1) <= tol
    edges = w[:, :1] + w[:, 1:]
    nonzero = np.all(np.linalg.norm(edges, axis=2) > tol, axis=1)
    gram = edges @ edges.transpose(0, 2, 1)
    orthogonal = np.all(np.abs(gram[:, (0, 0, 1), (1, 2, 2)]) <= tol, axis=1)
    return bool(np.any(vanishing & nonzero & orthogonal))


def symmetry_report(family: BasisFamily, *, tol: float = GEOMETRY_ATOL) -> SymmetryReport:
    """Collect the reduction vectors of a family and check its symmetry.

    Checks performed: the total vector sum (over every basis state and
    every qubit position), the distinct circumradii, mirror (+v/-v)
    pairing of the full vector multiset, and for each qubit position the
    rectangular-parallelepiped predicate on the eight points +-v formed
    by that position's reduction directions.  Positions whose vertex set
    collapses (radius below tol or coincident vertices) are flagged
    degenerate and skipped, leaving the predicate vacuously true.
    """
    vectors = _bloch_array(family)
    stack = vectors.reshape(-1, 3)
    vector_sum = BlochVector(*stack.sum(axis=0).tolist())
    radii = _cluster_magnitudes(np.linalg.norm(stack, axis=1), tol)
    mirror_ok = _mirror_symmetric(stack, tol)

    parallelepiped_ok = True
    degenerate = False
    for at_position in vectors.transpose(1, 0, 2):
        octet, _ = _clusters(np.concatenate([at_position, -at_position]), tol)
        if np.max(np.linalg.norm(octet, axis=1)) <= tol or len(octet) < 8:
            degenerate = True
            continue
        if not _is_rectangular_box(octet, tol):
            parallelepiped_ok = False
    return SymmetryReport(
        vectors=_vector_map(family, vectors),
        radii=radii,
        vector_sum=vector_sum,
        parallelepiped_ok=parallelepiped_ok,
        mirror_pairs_ok=mirror_ok,
        degenerate=degenerate,
    )
