"""Entanglement measures, single-qubit reductions, and geometric symmetry
checks (mirror tetrahedra, vanishing vector sums, rectangular parallelepipeds)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .bases import _SIGNS, BasisFamily, BasisLabel, EjmParams, _labels, _vertices, check_limit, m_vector
from .qla import NORM_ATOL, BlochVector, ContractError, RowView, StateVector, bloch_vector, dot, partial_trace

# The three-tangle is quartic in the amplitudes, so a norm off by up to NORM_ATOL
# moves it by up to 4 * NORM_ATOL, plus rounding; an excess beyond this is a bug.
TANGLE_CLAMP_ATOL = 5 * NORM_ATOL
# Reduction vectors are exact to 1e-15; symmetry_report takes closer points as equal.
GEOMETRY_ATOL = 1e-9
# Basis acceptance (verify --tol, Bob's basis): built families stay below 1e-14.
ORTHONORMAL_ATOL = 1e-9


def three_tangle(state: StateVector) -> float:
    """Residual tangle of a three-qubit pure state.

    Evaluates the degree-4 polynomial in the eight amplitudes (the modulus
    of Cayley's hyperdeterminant form): 0 for product and W-class states,
    1 for GHZ.  The result is clamped into [0, 1]; a clamp beyond
    TANGLE_CLAMP_ATOL indicates a bug and raises ContractError.
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


def reduction_law(params: EjmParams, n: int) -> np.ndarray:
    """Bloch vector of every single-qubit reduction of the n-qubit family, in
    closed form: a read-only (2**n, n, 3) array, rows in label order.

    Qubits 2b+1 and 2b+2 of block b reduce to +v_k and -v_k, with vertex k = i
    for b = 0 and j_b for later blocks, and
    v_k = (cos(theta)/2) (sqrt(2) c cos d_k, sqrt(2) c sin d_k, (-1)^k),
    d_k = phi_k - phi_z, c = cos(2 gamma) (c = 1 at n = 2, which has no gamma).
    For odd n the tail qubit reduces to (-1)^l c m_i.  The plain and primed
    chains mix in a reduction only through the overlaps of the other factors,
    and those vanish: Phi'_j = Phi_{j XOR 2} is orthogonal to Phi_j, and |-m_i>
    to |m_i>.
    """
    n = check_limit("n", n)
    c = 1.0 if n == 2 else math.cos(2.0 * params.gamma)
    d = np.array([phi_k for _, phi_k in _vertices(params)]) - params.phi_z
    xy = math.sqrt(2.0) * c
    v = 0.5 * math.cos(params.theta) * np.stack([xy * np.cos(d), xy * np.sin(d), _SIGNS], axis=1)
    labels = _labels(n)
    vertices = np.array([(label.i, *label.j) for label in labels])
    law = np.stack([v, -v], axis=1)[vertices].reshape(len(vertices), -1, 3)
    if n % 2:
        m = c * np.array([m_vector(params, i) for i in range(4)])
        tails = np.stack([m, -m], axis=1)[vertices[:, 0], [label.l for label in labels]]
        law = np.concatenate([law, tails[:, None]], axis=1)
    law.setflags(write=False)
    return law


@cache
def _vector_index(n: int) -> Mapping[tuple[BasisLabel, int], tuple[int, int]]:
    """(label, 1-based qubit) -> (row, qubit - 1), by label in family order, then qubit."""
    return MappingProxyType(
        {(label, q): (row, q - 1) for label, row in _labels(n).items() for q in range(1, n + 1)}
    )


def reduced_bloch_vectors(family: BasisFamily) -> RowView[tuple[BasisLabel, int], BlochVector]:
    """Bloch vector of every single-qubit reduction, keyed by (basis label,
    1-based qubit position): a read-only view over one (states, qubits, 3)
    array that builds each vector on read.

    Each 2x2 reduced density matrix comes from partial_trace on one of the
    family's states; one bloch_vector call then takes the vectors of the
    whole stack.
    """
    qubits = range(1, family.n_qubits + 1)
    rho = np.array([[partial_trace(state, q) for q in qubits] for state in family.states.values()])
    vectors = bloch_vector(rho)
    vectors.setflags(write=False)
    return RowView(vectors, _vector_index(family.n_qubits), lambda xyz: BlochVector(*xyz.tolist()))


@dataclass(frozen=True)
class OrthonormalityReport:
    """Worst-entry deviations of the Gram matrix and the completeness sum."""

    gram_error: float
    completeness_error: float


def verify_orthonormal_complete(family: BasisFamily) -> OrthonormalityReport:
    """Measure how far the family is from an orthonormal, complete basis.

    gram_error is max |<s|t> - delta_st|; completeness_error is the largest
    entry of |sum_s |s><s| - I|.  Both are reported, never asserted; I is
    subtracted from each product's diagonal in place.
    """
    v = family.matrix()
    gram, completeness = dot(v.conj(), v.T), dot(v.T, v.conj())
    gram.reshape(-1)[:: len(v) + 1] -= 1.0
    completeness.reshape(-1)[:: len(v) + 1] -= 1.0
    return OrthonormalityReport(float(np.abs(gram).max()), float(np.abs(completeness).max()))


@dataclass(frozen=True)
class SymmetryReport:
    """Geometric summary of a family's single-qubit reductions."""

    vectors: Mapping[tuple[BasisLabel, int], BlochVector]
    radii: tuple[float, ...]
    vector_sum: BlochVector
    parallelepiped_ok: bool
    mirror_pairs_ok: bool
    degenerate: bool


def _clusters(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-norm clustering in input order, one pass per cluster.

    Each cluster is the first unlabelled point (its representative) and every
    unlabelled point within GEOMETRY_ATOL of it, tested one coordinate column
    at a time.  A point with a NaN or inf coordinate is within GEOMETRY_ATOL
    of no point, itself included (inf - inf is NaN), and is a cluster of its
    own.  Returns each point's cluster index and the representatives.
    """
    columns = np.ascontiguousarray(points.T)
    labels = np.full(len(points), -1)
    firsts = []
    with np.errstate(invalid="ignore"):
        while (near := labels < 0).any():
            first = int(np.argmax(near))
            for column in columns:
                near &= np.abs(column - column[first]) <= GEOMETRY_ATOL
            near[first] = True
            labels[near] = len(firsts)
            firsts.append(first)
    return labels, points[firsts]


# Signs of u_1, u_2, u_3 in a signed sum u_0 +- u_1 +- u_2 +- u_3.
_SUM_SIGNS = np.array([(1.0, *signs) for signs in product((1.0, -1.0), repeat=3)])


def _is_rectangular_box(points: np.ndarray) -> bool:
    """True iff the eight points, or each octet of a stack of shape
    (..., 8, 3), are the vertices +-a +-b +-c of a box with orthogonal,
    non-zero edges; an empty stack holds vacuously.

    The points must form four antipodal pairs +-u_k.  They are then such a
    box iff the u_k have one length r and some signed sum w_0 + w_1 + w_2 +
    w_3 (w_k = +-u_k) vanishes: a tetrahedron whose centroid is its
    circumcentre is isosceles.  With l the fourth index,
    |w_0 + w_j + w_k|^2 = |w_l|^2 gives w_0.w_j + w_0.w_k + w_j.w_k = -r^2,
    so (w_0 + w_j).(w_0 + w_k) = 0: the edges from vertex w_0 to the
    vertices -w_j are orthogonal, and the vertices are +-w_k.  The edges are
    non-zero, as the pairing rules out w_j = -w_0.  Conversely the corners
    +-a +-b +-c have one length, and a + b + c, a - b - c, -a + b - c and
    -a - b + c sum to zero.
    """
    antipodal = np.max(np.abs(points[..., :, None, :] + points[..., None, :, :]), axis=-1) <= GEOMETRY_ATOL
    if np.any(np.diagonal(antipodal, axis1=-2, axis2=-1)) or np.any(antipodal.sum(axis=-1) != 1):
        return False
    u = points[np.arange(8) < np.argmax(antipodal, axis=-1)].reshape(*points.shape[:-2], 4, 3)
    one_length = np.ptp(np.linalg.norm(u, axis=-1), axis=-1) <= GEOMETRY_ATOL
    vanishing = np.max(np.abs(_SUM_SIGNS @ u), axis=-1) <= GEOMETRY_ATOL
    return bool(np.all(one_length & np.any(vanishing, axis=-1)))


def symmetry_report(family: BasisFamily) -> SymmetryReport:
    """Collect the reduction vectors of a family and check its symmetry.

    Checks performed: the total vector sum (over every basis state and
    every qubit position), the distinct circumradii, mirror (+v/-v)
    pairing of the full vector multiset, and for each qubit position the
    rectangular-parallelepiped predicate on the eight points +-v formed
    by that position's reduction directions.  Positions whose vertex set
    collapses (radius below GEOMETRY_ATOL or coincident vertices) are
    flagged degenerate and skipped; the predicate must hold at every other,
    live, position, and holds vacuously when none is live.

    Points count as equal under one rule, _clusters, applied twice: to the
    sorted norms, whose clusters give the radii as their means, and to the
    vectors with their negations.  The mirror pairing holds when every
    cluster away from the origin holds as many vectors as negated vectors;
    a position's octet is the representatives of the clusters its +-v hit.
    """
    view = reduced_bloch_vectors(family)
    vectors = view.rows
    stack = vectors.reshape(-1, 3)
    vector_sum = BlochVector(*stack.sum(axis=0).tolist())
    norms = np.sort(np.linalg.norm(stack, axis=1))
    labels, _ = _clusters(norms[:, None])
    radii = tuple(float(np.mean(g)) for g in np.split(norms, np.flatnonzero(np.diff(labels)) + 1))

    labels, reps = _clusters(np.concatenate([stack, -stack]))
    signed = labels.reshape(2, *vectors.shape[:2])  # (sign, state, position)
    plus, minus = (np.bincount(half.ravel(), minlength=len(reps)) for half in signed)
    mirror_ok = bool(np.all((plus == minus) | (np.max(np.abs(reps), axis=1) <= GEOMETRY_ATOL)))

    positions = np.arange(vectors.shape[1])
    hit = np.zeros((len(positions), len(reps)), dtype=bool)  # (position, cluster): the position's octet
    hit[positions, signed] = True
    sizes = hit.sum(axis=1)
    radius = np.max(np.where(hit, np.linalg.norm(reps, axis=1), -np.inf), axis=1)
    live = (sizes >= 8) & ~(radius <= GEOMETRY_ATOL)
    octets = reps[hit[live].nonzero()[1]]
    return SymmetryReport(
        vectors=view,
        radii=radii,
        vector_sum=vector_sum,
        parallelepiped_ok=bool(np.all(sizes[live] == 8)) and _is_rectangular_box(octets.reshape(-1, 8, 3)),
        mirror_pairs_ok=mirror_ok,
        degenerate=not live.all(),
    )
