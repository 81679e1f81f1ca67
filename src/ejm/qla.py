"""Dense complex linear algebra for few-qubit states; operators are plain arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ItemsView, Iterator, Mapping, NamedTuple, Sequence, TypeVar, ValuesView

import numpy as np

# Built states are normalized to 1e-15; a norm further from 1 is a wrong construction.
NORM_ATOL = 1e-12


class ContractError(RuntimeError):
    """A numeric contract was violated (result outside certified bounds)."""


def is_integer(value: Any) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_index(name: str, value: Any, lo: int, hi: int) -> int:
    """Return value as an int, or raise ValueError unless it is an integer
    (is_integer) in lo..hi.  A numpy integer would keep its own width in
    arithmetic such as 2 ** (n - value)."""
    if not (is_integer(value) and lo <= value <= hi):
        raise ValueError(f"{name}={value!r} must be {lo}..{hi}")
    return int(value)


def check_normalized(amplitudes: np.ndarray) -> None:
    """Raise ValueError, naming the first, if a state along the last axis misses norm 1
    by more than NORM_ATOL.  Each norm is one real dot product over the state's
    (re, im) pairs, read as float64 from a contiguous complex copy when the input
    is not one already."""
    flat = np.ascontiguousarray(amplitudes, dtype=np.complex128).view(np.float64)
    deviation = abs(np.sqrt(np.vecdot(flat, flat)) - 1.0)
    if not deviation.max() <= NORM_ATOL:  # NaN fails too
        first = deviation.flat[np.argmax(~(deviation <= NORM_ATOL))]
        raise ValueError(f"state is not normalized: |norm - 1| = {first:.3e}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_qubits`` qubits.

    Index convention is big-endian: the basis label j1 j2 ... jn maps to
    index sum(j_k * 2**(n-k)), so qubit 1 is the leftmost tensor factor
    and the most significant bit.  Amplitudes must be normalized to one
    within 1e-12 and are frozen after construction: StateVector(amplitudes)
    copies and checks them; checked_state wraps a row that is checked already.
    """

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional sequence")
        n = amps.size.bit_length() - 1
        if 2**n != amps.size:  # size 0 gives n = -1
            raise ValueError(f"state size {amps.size} is not a power of two")
        if n < 1:
            raise ValueError("a state needs at least one qubit")
        check_normalized(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)


def checked_state(row: np.ndarray) -> StateVector:
    """StateVector of a row that StateVector's checks already passed: a
    read-only one-dimensional complex array of normalized amplitudes and
    power-of-two size, such as a row of a BasisFamily.  The state shares the
    row's memory; nothing is copied or checked again."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "amplitudes", row)
    object.__setattr__(state, "n_qubits", row.size.bit_length() - 1)
    return state


class BlochVector(NamedTuple):
    """Pauli expectation triple of a single-qubit state."""

    x: float
    y: float
    z: float


K = TypeVar("K")
V = TypeVar("V")


@dataclass(frozen=True, eq=False, repr=False)
class RowView(Mapping[K, V]):
    """Read-only key -> make(rows[index[key]]) view of an array; each value is
    built when it is read and not kept.  Keys run in index order; values()
    and items() walk index in that order, and membership reads index alone."""

    rows: np.ndarray
    index: Mapping[K, Any]
    make: Callable[[np.ndarray], V]

    def __getitem__(self, key: K) -> V:
        return self.make(self.rows[self.index[key]])

    def __iter__(self) -> Iterator[K]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: object) -> bool:
        return key in self.index

    def values(self) -> ValuesView[V]:
        return _RowValues(self)

    def items(self) -> ItemsView[K, V]:
        return _RowItems(self)


class _RowValues(ValuesView):
    def __iter__(self) -> Iterator:
        view = self._mapping
        return (view.make(view.rows[row]) for row in view.index.values())


class _RowItems(ItemsView):
    def __iter__(self) -> Iterator:
        view = self._mapping
        return ((key, view.make(view.rows[row])) for key, row in view.index.items())


# sigma_x, sigma_y, sigma_z stacked as one read-only (3, 2, 2) array; network reads sigma_x and sigma_z.
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
PAULIS.setflags(write=False)
PAULI_X, PAULI_Z = PAULIS[::2]


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states; the left operand supplies the most
    significant bits (big-endian index convention)."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def permute_qubits(state: StateVector, order: Sequence[int]) -> StateVector:
    """Reorder tensor factors: qubit p of the result is qubit order[p-1]
    of the input (1-based)."""
    n = state.n_qubits
    if not all(is_integer(q) for q in order) or sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{n}")
    tensor = state.amplitudes.reshape([2] * n)
    return StateVector(tensor.transpose([q - 1 for q in order]).reshape(-1))


def partial_trace(state: StateVector, qubit: int) -> np.ndarray:
    """Reduced density matrix of one qubit, a 2 x 2 array.

    Parameters
    ----------
    state : StateVector
        Pure state to reduce.
    qubit : int
        1-based index of the kept qubit; every other qubit is traced out.

    A three-axis view (before, kept, after) with its first two axes swapped
    gives the kept qubit's rows, and ndarray.dot their Gram matrix.
    """
    n = state.n_qubits
    q = check_index("qubit", qubit, 1, n)
    psi = state.amplitudes.reshape(2 ** (q - 1), 2, 2 ** (n - q)).swapaxes(0, 1).reshape(2, -1)
    return psi.dot(psi.conj().T)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors tr(rho sigma) of single-qubit density matrices: shape
    (..., 2, 2) in, (..., 3) out, read from the entries that each trace
    keeps: x = Re rho01 + Re rho10, y = Im rho10 - Im rho01, z = Re rho00 - Re rho11.
    Adding 0.0 turns -0.0 into +0.0, so each component keeps the bits of
    the trace of the complex product with PAULIS."""
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"bloch_vector needs 2x2 density matrices, got shape {rho.shape}")
    (r00, r01), (r10, r11) = np.moveaxis(rho, (-2, -1), (0, 1))
    return np.stack([r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real], axis=-1) + 0.0
