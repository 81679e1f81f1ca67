"""Trilocal star network: three singlet-class sources feed three dichotomic
Alices and a central Bob who measures a fixed three-qubit EJM basis.

The four correlation quantities I_1..I_4 are available both from a full
Born-rule evaluation of the joint outcome distribution (brute force) and
from closed-form expressions in the basis parameters; the trilocal bound
sum_m |I_m|^(1/3) <= 2 turns their cube roots into a violation score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .analysis import ORTHONORMAL_ATOL, verify_orthonormal_complete
from .bases import BasisFamily, EjmParams, n_qubit_ejm
from .qla import PAULI_X, PAULI_Z, ContractError, check_index

# Analytic and brute-force I_m agree to 1e-15 over the domain; a larger gap is a bug.
CROSS_CHECK_ATOL = 1e-9
# Every trilocal model satisfies sum_m |I_m|^(1/3) <= 2, so a larger score is a violation.
TRILOCAL_BOUND = 2.0

# Alice's two dichotomic observables (X + Z)/sqrt(2) and (X - Z)/sqrt(2), one read-only array.
ALICE_OBSERVABLES = np.array([PAULI_X + PAULI_Z, PAULI_X - PAULI_Z]) / math.sqrt(2.0)
ALICE_OBSERVABLES.setflags(write=False)


# Bits (r1, r2, r3) of each index r = 4*r1 + 2*r2 + r3, one row per r.
_BITS = np.array(list(product((0, 1), repeat=3)))


def _signs(masks, flips=0) -> np.ndarray:
    """Row m holds (-1)^(parity(r & masks[m]) XOR flips[m]) for r = 0..7."""
    return (-1.0) ** ((np.array(masks) @ _BITS.T + np.reshape(flips, (-1, 1))) % 2)


# Processed bit b^m = parity(b & mask) XOR flip of Bob's raw output b = b1 b2 b3,
# as the sign (-1)^(b^m) per output; one row per correlator m.
_BOB_SIGNS = _signs(((0, 1, 1), (0, 0, 1), (1, 0, 1), (1, 1, 1)), (1, 0, 1, 1))
# Input-sign exponents g_m(x1,x2,x3) = dot(mask, x), as (-1)^g_m per input triple.
_G_MASKS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_INPUT_SIGNS = _signs(_G_MASKS)
# (-1)^(a1+a2+a3) per Alice output triple.
_ALICE_SIGNS = _signs(((1, 1, 1),))[0]


# Amplitude matrix of each source's (|01> + |10>)/sqrt(2): row the Alice qubit, column the Bob qubit.
_SOURCE = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
# _ALICE[x, a] is the conjugated eigenvector of Alice's input x for output a
# (eigenvalue (-1)^a); _ALICE_STAR is the six-qubit star state projected onto
# all three Alices, indexed [x1, x2, x3, a1, a2, a3, Bob's three-qubit index].
_ALICE = np.array([np.linalg.eigh(o)[1][:, ::-1].T for o in ALICE_OBSERVABLES]).conj()
_ALICE_STAR = np.einsum(
    "pai,qbj,rck,il,jm,kn->pqrabclmn", _ALICE, _ALICE, _ALICE, _SOURCE, _SOURCE, _SOURCE
).reshape(2, 2, 2, 2, 2, 2, 8)
_ALICE.setflags(write=False)
_ALICE_STAR.setflags(write=False)
# Shape of outcome_table's distribution: three inputs, three Alice outputs, Bob's raw output.
_TABLE_SHAPE = _ALICE_STAR.shape


@dataclass(frozen=True, eq=False)
class StarScenario:
    """The paper's star network with Bob's basis at ``params``.

    All three sources emit (|01> + |10>)/sqrt(2) and the Alices measure
    ALICE_OBSERVABLES; Bob projects onto the three-qubit EJM family at
    ``params`` labelled in raw-output order b1 b2 b3 (i = 2*b1 + b2, l = b3).
    """

    params: EjmParams
    bob_basis: BasisFamily = field(init=False)

    def __post_init__(self) -> None:
        bob_basis = n_qubit_ejm(self.params, 3)
        report = verify_orthonormal_complete(bob_basis)
        worst = max(report.gram_error, report.completeness_error)
        if worst > ORTHONORMAL_ATOL:
            raise ContractError(f"bob_basis is not orthonormal/complete: worst error {worst:.3e}")
        object.__setattr__(self, "bob_basis", bob_basis)


def outcome_table(scenario: StarScenario) -> np.ndarray:
    """Full joint distribution P[x1,x2,x3,a1,a2,a3,b] over raw outcomes,
    shape (2,2,2,2,2,2,8): one (64 x 8)·(8 x 8) product of the constant
    projected star tensor, flattened over its Alice indices, and Bob's
    conjugated basis rows, through ndarray.dot as in correlation_I_bruteforce."""
    amplitudes = _ALICE_STAR.reshape(64, 8).dot(scenario.bob_basis.matrix().conj().T)
    return (np.abs(amplitudes) ** 2).reshape(_TABLE_SHAPE)


def correlation_I_bruteforce(table: np.ndarray, m: int) -> float:
    """Correlation quantity I_m from the joint outcome distribution
    ``table`` (as returned by outcome_table).

    Averages the signed correlator <A1 A2 A3 B^m> over the eight input
    triples with the input-dependent sign (-1)^g_m.  Raises ValueError
    unless table is an array of outcome_table's shape.
    """
    check_index("m", m, 1, 4)
    if not isinstance(table, np.ndarray) or table.shape != _TABLE_SHAPE:
        raise ValueError(f"table must be an array of outcome_table's shape {_TABLE_SHAPE}, not {np.shape(table)}")
    # ndarray.dot calls the same BLAS kernels as @ without its ufunc dispatch: the same bits, at less cost.
    correlators = table.reshape(64, 8).dot(_BOB_SIGNS[m - 1]).reshape(8, 8)
    return float(_INPUT_SIGNS[m - 1].dot(correlators).dot(_ALICE_SIGNS)) / 8.0


def closed_form(z, phi, phi_z, theta, gamma, sin, cos):
    """Closed-form (I_1, I_2, I_3, I_4) at (z, phi, theta, gamma), with phi_z
    the phase of z, computed with the given sin and cos.

    With math.sin and math.cos it scores one point; with np.sin and np.cos
    any of the values may be an array, and each I_m is evaluated elementwise
    by the same operations in the same order.

    I_1 and I_2 share the factor z sin(2 gamma), and I_3 and I_4 share
    z (1 + sin(theta)); gamma and theta enter nowhere else.  Since
    |x|^(1/3) increases with |x|, on any box in (z, phi, theta, gamma)
    the score S peaks at theta = the box maximum and gamma = the box value
    nearest pi/4, for every (z, phi).
    """
    quarter = math.pi / 4
    shift = phi - phi_z
    block = z * sin(2 * gamma)
    tail = z * (1.0 + sin(theta))
    rise = sin(phi + quarter)
    return (
        block * cos(2 * shift) * rise / 8.0,
        block * rise / 4.0,
        tail * cos(shift + quarter) / (4.0 * math.sqrt(2.0)),
        tail * sin(shift + quarter) / (4.0 * math.sqrt(2.0)),
    )


def _closed_form(params: EjmParams) -> tuple[float, float, float, float]:
    """Closed-form (I_1, I_2, I_3, I_4) at params."""
    return closed_form(params.z, params.phi, params.phi_z, params.theta, params.gamma, math.sin, math.cos)


def cube_root_sum(values) -> float:
    """The trilocal score S = sum_m |I_m|^(1/3) of one point's I_1..I_4, as Python floats,
    added left to right (sum() before Python 3.12, which compensates, gives the same bits)."""
    i1, i2, i3, i4 = values
    third = 1.0 / 3.0
    return abs(i1) ** third + abs(i2) ** third + abs(i3) ** third + abs(i4) ** third


def correlation_I_analytic(params: EjmParams, m: int) -> float:
    """Closed-form I_m in the basis parameters."""
    check_index("m", m, 1, 4)
    return _closed_form(params)[m - 1]


def _born_rule(params: EjmParams) -> tuple[float, float, float, float]:
    """(I_1, I_2, I_3, I_4) from the Born-rule outcome table at params."""
    table = outcome_table(StarScenario(params))
    return tuple(correlation_I_bruteforce(table, m) for m in range(1, 5))


@dataclass(frozen=True)
class CorrelationReport:
    """The four correlation quantities, the trilocal score, and the verdict."""

    I: tuple[float, float, float, float]
    S: float
    violated: bool
    method: str


def trilocal_score(
    params: EjmParams,
    *,
    method: str = "analytic",
    cross_check: bool = False,
) -> CorrelationReport:
    """Trilocal score S = sum_m |I_m|^(1/3) and whether it exceeds 2.

    method selects the I_m evaluation route ("analytic" or "brute_force");
    cross_check computes both and raises ContractError if they disagree
    beyond CROSS_CHECK_ATOL.
    """
    if method not in ("analytic", "brute_force"):
        raise ValueError(f"unknown method {method!r}")
    analytic = method == "analytic"
    values = _closed_form(params) if analytic else _born_rule(params)
    if cross_check:
        other = _born_rule(params) if analytic else _closed_form(params)
        worst = max(abs(a - b) for a, b in zip(values, other))
        if worst > CROSS_CHECK_ATOL:
            raise ContractError(f"analytic and brute-force correlations disagree by {worst:.3e}")
    score = cube_root_sum(values)
    return CorrelationReport(values, score, score > TRILOCAL_BOUND, method)  # keywords cost 0.3 µs a call
