"""Dense complex linear algebra for few-qubit states and operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Built states are normalized to 1e-15; a norm further from 1 is a wrong construction.
NORM_ATOL = 1e-12
# Largest |A - A^dagger| entry or imaginary expectation that is still rounding.
HERMITIAN_ATOL = 1e-10


class ContractError(RuntimeError):
    """A numeric contract was violated (result outside certified bounds)."""


def _qubit_count(size: int, what: str) -> int:
    n = int(size).bit_length() - 1
    if size <= 0 or 2**n != size:
        raise ValueError(f"{what} size {size} is not a power of two")
    return n


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_qubits`` qubits.

    Index convention is big-endian: the basis label j1 j2 ... jn maps to
    index sum(j_k * 2**(n-k)), so qubit 1 is the leftmost tensor factor
    and the most significant bit.  Amplitudes must be normalized to one
    within 1e-12 and are frozen after construction.
    """

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional sequence")
        n = _qubit_count(amps.size, "state")
        if n < 1:
            raise ValueError("a state needs at least one qubit")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix acting on a 2**n dimensional state space."""

    entries: np.ndarray = field(repr=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator entries must form a square matrix")
        _qubit_count(mat.shape[0], "operator")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dim", mat.shape[0])


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectation triple of a single-qubit state."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


PAULI_X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = Operator(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def ket(bits: str) -> StateVector:
    """Computational basis state from its bit string, e.g. ket("01")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def tensor_product(a, b):
    """Kronecker product of two states or two operators.

    Mixing kinds is rejected; the result follows the big-endian index
    convention (the left operand supplies the most significant bits).
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.entries, b.entries))
    raise TypeError(
        f"tensor_product needs two states or two operators, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def permute_qubits(state: StateVector, order: Sequence[int]) -> StateVector:
    """Reorder tensor factors: qubit p of the result is qubit order[p-1]
    of the input (1-based)."""
    n = state.n_qubits
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{n}")
    tensor = state.amplitudes.reshape([2] * n)
    return StateVector(tensor.transpose([q - 1 for q in order]).reshape(-1))


def partial_trace(state: StateVector, keep: Iterable[int]) -> Operator:
    """Reduced density matrix on the kept qubits.

    Parameters
    ----------
    state : StateVector
        Pure state to reduce.
    keep : iterable of int
        1-based qubit indices to keep; the traced-out qubits are the
        complement.  Kept qubits preserve their relative order.
    """
    kept = sorted({int(q) for q in keep})
    if not kept:
        raise ValueError("keep must contain at least one qubit index")
    if kept[0] < 1 or kept[-1] > state.n_qubits:
        raise ValueError(f"keep {kept!r} out of range for {state.n_qubits} qubits")
    axes = [q - 1 for q in kept]
    rest = [a for a in range(state.n_qubits) if a not in axes]
    psi = state.amplitudes.reshape([2] * state.n_qubits)
    psi = psi.transpose(axes + rest).reshape(2 ** len(axes), -1)
    return Operator(psi @ psi.conj().T)


def expectation(state: StateVector, obs: Operator) -> float:
    """Expectation value <state|obs|state> of a Hermitian observable."""
    if obs.dim != state.dim:
        raise ValueError(f"dimension mismatch: state dim {state.dim}, operator dim {obs.dim}")
    deviation = float(np.max(np.abs(obs.entries - obs.entries.conj().T)))
    if deviation > HERMITIAN_ATOL:
        raise ContractError(f"observable is not Hermitian: max deviation {deviation:.3e}")
    raw = np.vdot(state.amplitudes, obs.entries @ state.amplitudes)
    if abs(raw.imag) > HERMITIAN_ATOL:
        raise ContractError(f"expectation has imaginary residue {raw.imag:.3e}")
    return float(raw.real)


def conjugate_amplitudes(state: StateVector) -> StateVector:
    """State with every amplitude complex-conjugated."""
    return StateVector(np.conj(state.amplitudes))


def bloch_vector(rho: Operator) -> BlochVector:
    """Bloch vector of a single-qubit density matrix."""
    if rho.dim != 2:
        raise ValueError(f"bloch_vector needs a 2x2 density matrix, got dim {rho.dim}")
    return BlochVector(*(float(np.trace(rho.entries @ s.entries).real) for s in PAULIS))
