"""Trilocal star network: three singlet-class sources feed three dichotomic
Alices and a central Bob who measures a fixed three-qubit EJM basis.

The four correlation quantities I_1..I_4 are available both from a full
Born-rule evaluation of the joint outcome distribution (brute force) and
from closed-form expressions in the basis parameters; the trilocal bound
sum_m |I_m|^(1/3) <= 2 turns their cube roots into a violation score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .analysis import ORTHONORMAL_ATOL, verify_orthonormal_complete
from .bases import BasisFamily, EjmParams, n_qubit_ejm
from .qla import (
    ContractError,
    HERMITIAN_ATOL,
    Operator,
    PAULI_X,
    PAULI_Z,
    StateVector,
    permute_qubits,
    tensor_product,
)

# A 2x2 eigh is exact to 1e-16; an eigenvalue further from +-1 is another observable.
EIGENVALUE_ATOL = 1e-10
# Analytic and brute-force I_m agree to 1e-15 over the domain; a larger gap is a bug.
CROSS_CHECK_ATOL = 1e-9

PSI_PLUS = StateVector(np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0))

ALICE_OBSERVABLES = (
    Operator((PAULI_X.entries + PAULI_Z.entries) / math.sqrt(2.0)),
    Operator((PAULI_X.entries - PAULI_Z.entries) / math.sqrt(2.0)),
)


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


@dataclass(frozen=True, eq=False)
class StarScenario:
    """One fully specified network instance.

    Defaults: all three sources emit (|01>+|10>)/sqrt(2), the Alices
    measure (sigma_x +- sigma_z)/sqrt(2), and Bob projects onto the
    three-qubit EJM family at ``params`` labelled in raw-output order
    b1 b2 b3 (i = 2*b1 + b2, k = b3).
    """

    params: EjmParams
    source_state: StateVector = PSI_PLUS
    alice_observables: tuple[Operator, Operator] = ALICE_OBSERVABLES
    bob_basis: BasisFamily | None = None

    def __post_init__(self) -> None:
        if self.source_state.n_qubits != 2:
            raise ValueError("source_state must be a two-qubit state")
        if len(self.alice_observables) != 2:
            raise ValueError("need exactly two Alice observables (one per input)")
        for obs in self.alice_observables:
            _dichotomic_eigenvectors(obs)
        if self.bob_basis is None:
            object.__setattr__(self, "bob_basis", n_qubit_ejm(self.params, 3))
        if self.bob_basis.n_qubits != 3 or len(self.bob_basis) != 8:
            raise ValueError("bob_basis must hold eight three-qubit states")
        report = verify_orthonormal_complete(self.bob_basis)
        worst = max(report.gram_error, report.completeness_error)
        if worst > ORTHONORMAL_ATOL:
            raise ValueError(f"bob_basis is not orthonormal/complete: worst error {worst:.3e}")


def _dichotomic_eigenvectors(obs: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a qubit +-1-valued observable; returns the
    eigenvectors for output 0 (eigenvalue +1) and output 1 (eigenvalue -1)."""
    if obs.dim != 2:
        raise ValueError("Alice observables act on a single qubit")
    deviation = float(np.max(np.abs(obs.entries - obs.entries.conj().T)))
    if deviation > HERMITIAN_ATOL:
        raise ValueError(f"observable is not Hermitian: deviation {deviation:.3e}")
    values, vectors = np.linalg.eigh(obs.entries)
    if np.max(np.abs(values - np.array([-1.0, 1.0]))) > EIGENVALUE_ATOL:
        raise ValueError(f"observable eigenvalues {values!r} are not +-1")
    return vectors[:, 1], vectors[:, 0]


def tilde_state(state: StateVector) -> StateVector:
    """Conjugate every amplitude, then flip all three qubits.

    In the big-endian index convention the bit flip is an index reversal,
    so the result is conj(amplitudes)[::-1].
    """
    if state.n_qubits != 3:
        raise ValueError(f"tilde_state needs a 3-qubit state, got {state.n_qubits} qubits")
    return StateVector(np.conj(state.amplitudes)[::-1])


def star_state(scenario: StarScenario) -> StateVector:
    """Six-qubit source state in qubit order A1 A2 A3 B1 B2 B3."""
    src = scenario.source_state
    triple = tensor_product(tensor_product(src, src), src)
    return permute_qubits(triple, (1, 3, 5, 2, 4, 6))


def joint_probability(
    scenario: StarScenario,
    inputs: tuple[int, int, int],
    alice_outputs: tuple[int, int, int],
    bob_outputs: tuple[int, int, int],
) -> float:
    """Born-rule probability of one raw outcome pattern.

    inputs are the Alice settings x1 x2 x3, alice_outputs the bits a1 a2 a3
    (output a corresponds to eigenvalue (-1)^a), bob_outputs the raw EJM
    label b1 b2 b3.  Read from ``outcome_table``.
    """
    for bit in (*inputs, *alice_outputs, *bob_outputs):
        if bit not in (0, 1):
            raise ValueError("all inputs and outputs must be bits")
    b_index = bob_outputs[0] * 4 + bob_outputs[1] * 2 + bob_outputs[2]
    return float(outcome_table(scenario)[(*inputs, *alice_outputs, b_index)])


def outcome_table(scenario: StarScenario) -> np.ndarray:
    """Full joint distribution P[x1,x2,x3,a1,a2,a3,b] over raw outcomes,
    shape (2,2,2,2,2,2,8).

    alice[x, a] holds the conjugated eigenvector of Alice's input x for
    output a; projecting the star state onto all three Alices is one
    contraction, and onto Bob's basis rows one product after it.
    """
    alice = np.array([_dichotomic_eigenvectors(obs) for obs in scenario.alice_observables]).conj()
    star = star_state(scenario).amplitudes.reshape(2, 2, 2, 8)
    bob = scenario.bob_basis.matrix()
    amps = np.einsum("pai,qbj,rck,ijkB->pqrabcB", alice, alice, alice, star) @ bob.conj().T
    return np.abs(amps) ** 2


def correlation_I_bruteforce(
    scenario: StarScenario, m: int, *, table: np.ndarray | None = None
) -> float:
    """Correlation quantity I_m from the joint outcome distribution.

    Averages the signed correlator <A1 A2 A3 B^m> over the eight input
    triples with the input-dependent sign (-1)^g_m.
    """
    if m not in (1, 2, 3, 4):
        raise ValueError(f"m={m!r} must be 1..4")
    if table is None:
        table = outcome_table(scenario)
    correlators = table.reshape(8, 8, 8) @ _BOB_SIGNS[m - 1]
    return float(_INPUT_SIGNS[m - 1] @ correlators @ _ALICE_SIGNS) / 8.0


def correlation_I_analytic(params: EjmParams, m: int) -> float:
    """Closed-form I_m in the basis parameters."""
    if m not in (1, 2, 3, 4):
        raise ValueError(f"m={m!r} must be 1..4")
    z, phi, theta, gamma = params.z, params.phi, params.theta, params.gamma
    pz = params.phi_z
    quarter = math.pi / 4
    if m == 1:
        return z * math.sin(2 * gamma) * math.cos(2 * (phi - pz)) * math.sin(phi + quarter) / 8.0
    if m == 2:
        return z * math.sin(2 * gamma) * math.sin(phi + quarter) / 4.0
    if m == 3:
        return z * (1.0 + math.sin(theta)) * math.cos(phi - pz + quarter) / (4.0 * math.sqrt(2.0))
    return z * (1.0 + math.sin(theta)) * math.sin(phi - pz + quarter) / (4.0 * math.sqrt(2.0))


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
    analytic = None
    brute = None
    if method == "analytic" or cross_check:
        analytic = tuple(correlation_I_analytic(params, m) for m in range(1, 5))
    if method == "brute_force" or cross_check:
        scenario = StarScenario(params)
        table = outcome_table(scenario)
        brute = tuple(
            correlation_I_bruteforce(scenario, m, table=table) for m in range(1, 5)
        )
    if cross_check:
        worst = max(abs(a - b) for a, b in zip(analytic, brute))
        if worst > CROSS_CHECK_ATOL:
            raise ContractError(
                f"analytic and brute-force correlations disagree by {worst:.3e}"
            )
    values = analytic if method == "analytic" else brute
    score = float(sum(abs(v) ** (1.0 / 3.0) for v in values))
    return CorrelationReport(I=tuple(values), S=score, violated=score > 2.0, method=method)
