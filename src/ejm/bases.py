"""Constructors for the symmetric joint-measurement basis families.

Every family is a point of the three-parameter family on one tetrahedron,
vertex i at height (-1)^i z and azimuth phi + i pi/2.  The parameter-free
EJM (theta = 0) and the single-parameter family that runs from it to the
Bell measurement (theta = pi/2) are its two-qubit points at |z| = 1/sqrt(3),
phi = phi_z + pi/4, up to the order and phases of the states.  The n-qubit
families are built from one table, the two-qubit family Phi; its primed
partner, Phi with the |00> and |11> amplitudes negated, is
Phi'_i = Phi_{i XOR 2}.  Odd n adds the single-qubit pair |m_i> / |-m_i> of
each vertex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .qla import RowView, StateVector, check_index, check_normalized, checked_state, is_integer, shown

INV_SQRT3 = 1.0 / math.sqrt(3.0)
PARAM_NAMES = ("z", "phi", "theta", "gamma")
# Closed bounds of each parameter.  The z entry bounds |z|: every family is
# defined for either sign of z.
DOMAIN: Mapping[str, tuple[float, float]] = MappingProxyType({
    "z": (INV_SQRT3, 1.0),
    "phi": (-math.pi, math.pi),
    "theta": (0.0, math.pi / 2),
    "gamma": (0.0, math.pi / 2),
})
# Slack at each bound for values that round onto it (degrees, decimal 1/sqrt(3)); not clamped.
# n = 8 families built 1.45e-13 below |z| = 1/sqrt(3) already fail the norm
# check, so the slack stays an order of magnitude inside what builders tolerate.
_DOMAIN_ATOL = 1e-14
# Closed bounds of each size, checked before anything is allocated.
LIMITS: Mapping[str, tuple[int, int]] = MappingProxyType({
    # n_qubit_ejm: a 1 MiB matrix at n = 8; each qubit more quadruples memory and time.
    "n": (2, 8),
    # sweep: 100 000 points (phi spaced by 6e-5) take 0.75-0.9 s end to end, 0.5 s of it JSON export (CSV 0.2-0.3 s).
    "points": (2, 100_000),
    # maximize keeps a trace entry per evaluation: 250 000 grid cells took 0.1 GB and 1.5-2.2 s, so a million 0.4 GB and 6-9 s.
    "budget": (100, 1_000_000),
})

# Tetrahedron vertex i lies at height _SIGNS[i] z and azimuth phi + _TURNS[i].
_SIGNS = (1.0, -1.0, 1.0, -1.0)
_TURNS = (0.0, math.pi / 2, math.pi, -math.pi / 2)
# (-1)^floor(i/2) per vertex i, the sign of the primed chain's sin(gamma) weight in _family_matrix.
_GAMMA_SIGNS = np.array([1.0, 1.0, -1.0, -1.0]).reshape(4, 1, 1, 1, 1)
_GAMMA_SIGNS.setflags(write=False)


def check_domain(name: str, value: float) -> float:
    """Return value as a float, or raise ValueError if it is not a real number
    (an int, float or numpy integer or float, not a bool) or lies outside
    DOMAIN[name] (|value| for z) by more than _DOMAIN_ATOL."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}={shown(value)} must be a real number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond float range lies outside every domain
        raise _outside(name, value) from None
    lo, hi = DOMAIN[name]
    checked = abs(value) if name == "z" else value
    if not (lo - _DOMAIN_ATOL <= checked <= hi + _DOMAIN_ATOL):
        raise _outside(name, value)
    return value


def _outside(name: str, value: float) -> ValueError:
    lo, hi = DOMAIN[name]
    bounded = "|z|" if name == "z" else name
    return ValueError(f"{name}={shown(value)} outside {lo:.12g} <= {bounded} <= {hi:.12g}")


def check_limit(name: str, value: int) -> int:
    """Return value as an int, or raise ValueError if it is not an integer or lies outside LIMITS[name]."""
    lo, hi = LIMITS[name]
    if not is_integer(value):
        raise ValueError(f"{name}={shown(value)} must be an integer")
    if value < lo:
        raise ValueError(f"{name}={shown(value)} must be at least {lo}")
    if value > hi:
        raise ValueError(f"{name}={shown(value)} exceeds the cap {hi}")
    return int(value)


def _phi_z(z: float) -> float:
    """Auxiliary phase arg[(sqrt(1-z^2) + i*sqrt(3z^2-1)) / (sqrt(2)|z|)] of a z
    already checked against DOMAIN.

    Always lies in [0, pi/2]; the positive real denominator does not
    affect the argument.
    """
    re = math.sqrt(max(1.0 - z * z, 0.0))
    im = math.sqrt(max(3.0 * z * z - 1.0, 0.0))
    return math.atan2(im, re)


@dataclass(frozen=True)
class EjmParams:
    """Parameter point (z, phi, theta, gamma) shared by all basis families.

    Each value is checked against DOMAIN: 1/sqrt(3) <= |z| <= 1, phi in
    [-pi, pi], theta and gamma in [0, pi/2].  The derived phase phi_z is
    computed once at construction and cached as a field.
    """

    z: float
    phi: float
    theta: float
    gamma: float
    phi_z: float = field(init=False)

    def __post_init__(self) -> None:
        z = check_domain("z", self.z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phi", check_domain("phi", self.phi))
        object.__setattr__(self, "theta", check_domain("theta", self.theta))
        object.__setattr__(self, "gamma", check_domain("gamma", self.gamma))
        object.__setattr__(self, "phi_z", _phi_z(z))


def _checked_params(z: float, phi: float, theta: float, gamma: float, phi_z: float) -> EjmParams:
    """EjmParams of values check_domain already accepted: Python floats
    inside a box whose bounds it checked, with phi_z = _phi_z(z).  Sets the
    fields in __post_init__'s order, so the instance shares its class's
    attribute keys; nothing is checked or computed again."""
    params = object.__new__(EjmParams)
    object.__setattr__(params, "z", z)
    object.__setattr__(params, "phi", phi)
    object.__setattr__(params, "theta", theta)
    object.__setattr__(params, "gamma", gamma)
    object.__setattr__(params, "phi_z", phi_z)
    return params


def _vertices(params: EjmParams) -> list[tuple[float, float]]:
    """Height z_i and azimuth phi_i of the four tetrahedron vertices i = 0..3."""
    return [(sign * params.z, params.phi + turn) for sign, turn in zip(_SIGNS, _TURNS)]


@dataclass(frozen=True)
class BasisLabel:
    """Index of one basis state: leading index i, optional block indices
    j, and the extra bit l present only for odd qubit numbers."""

    i: int
    j: tuple[int, ...] = ()
    l: Optional[int] = None


@cache
def _labels(n: int) -> Mapping[BasisLabel, int]:
    """Row of each n-qubit label: (i, j1, ..., jk) lexicographic, odd-n bit l fastest."""
    tail_bits = (0, 1) if n % 2 else (None,)
    combos = product(product(range(4), repeat=n // 2), tail_bits)
    return MappingProxyType({BasisLabel(c[0], c[1:], l): row for row, (c, l) in enumerate(combos)})


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """Ordered orthonormal family: a read-only 2**n x 2**n matrix, one normalized row per label, fixing n_qubits.

    BasisFamily(amplitudes) checks and keeps a copy; the norm check runs
    once, on the whole matrix.  Each value of states is a StateVector that
    shares its read-only row (checked_state).
    """

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        n = amps.size.bit_length() // 2  # a 2**n x 2**n matrix has 4**n entries
        if n < 2 or amps.shape != (2**n,) * 2:
            raise ValueError(f"amplitudes of shape {amps.shape} are not a 2**n x 2**n matrix with n >= 2")
        check_normalized(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)

    @property
    def labels(self) -> tuple[BasisLabel, ...]:
        return tuple(_labels(self.n_qubits))

    @property
    def states(self) -> Mapping[BasisLabel, StateVector]:
        return RowView(self.amplitudes, _labels(self.n_qubits), checked_state)

    def matrix(self) -> np.ndarray:
        """Amplitudes, one row per label in label order (the stored array)."""
        return self.amplitudes


def m_vector(params: EjmParams, i: int) -> np.ndarray:
    """Bloch vector (sqrt(1-z_i^2) cos phi_i, sqrt(1-z_i^2) sin phi_i, z_i)."""
    check_index("vertex index i", i, 0, 3)
    zi, ph = _vertices(params)[i]
    r = math.sqrt(max(1.0 - zi * zi, 0.0))
    return np.array([r * math.cos(ph), r * math.sin(ph), zi])


def _vertex_tables(params: EjmParams) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the four vertices (z_i, phi_i) = (_SIGNS[i] z, phi + _TURNS[i]).

    Returns the three-parameter two-qubit EJM table Phi, row i holding
    |Phi_i>, and the single-qubit pairs as a (vertex i, l, amplitude)
    table: |m_i> (l = 0) and |-m_i> (l = 1), whose Bloch vectors are
    (z_i, phi_i) and its antipode.  The theta weights and the tails' moduli
    a, b depend on the vertex only through its parity, so they are taken
    once per parity.
    """
    z = params.z
    rad = math.sqrt(max(3.0 * z * z - 1.0, 0.0))
    prefactor = (1.0 - 1j * rad) / (2.0 * math.sqrt(3.0) * abs(z))
    e_theta = cmath.exp(1j * params.theta)
    weights = [
        (-(parity + e_theta) / math.sqrt(2.0), -(parity - e_theta) / math.sqrt(2.0),
         math.sqrt(max(1.0 + parity * z, 0.0) / 2.0), math.sqrt(max(1.0 - parity * z, 0.0) / 2.0))
        for parity in _SIGNS[:2]
    ]
    entries, pairs = [], []
    for turn, (mid01, mid10, a, b) in zip(_TURNS, weights * 2):
        phi_i = params.phi + turn
        delta = phi_i - params.phi_z
        entries += (cmath.exp(-1j * delta), mid01, mid10, -cmath.exp(1j * delta))
        half = 0.5 * phi_i
        lo = cmath.exp(-1j * half)
        hi = cmath.exp(1j * half)
        pairs += (a * lo, b * hi, b * lo, -a * hi)
    return prefactor * np.array(entries).reshape(4, 4), np.array(pairs).reshape(4, 2, 2)


def _family_matrix(params: EjmParams, n: int) -> np.ndarray:
    """Amplitudes of the whole n-qubit family, one row per basis label.

    Rows run over (i, j1, ..., jk) lexicographically, with the odd-n bit l
    fastest.  One matrix Kronecker power of the 4x4 table Phi (row i holds
    |Phi_i>) gives every chain ((Phi_i (x) Phi_j1) (x) ...) at row i j1 ... in
    base 4; as Phi'_i = Phi_{i XOR 2}, the primed chain is the row with the high
    bit of each base-4 digit flipped.  Both are viewed as (vertex i, chain row,
    l, chain column, tail amplitude) arrays and mixed by broadcasting, in place,
    as cos(g) Phi... + (-1)^floor(i/2) sin(g) Phi'...; odd n first multiplies in
    the (i, l) tail table, |m_i> (l = 0) or |-m_i> (l = 1) on the plain term
    and the other on the primed one, and subtracts the primed term for l = 1.
    The products are taken in the order of the per-label chain, so each
    amplitude equals it bit for bit.
    """
    phi, tails = _vertex_tables(params)
    if n == 2:
        return phi
    k = n // 2
    chains = reduce(np.kron, [phi] * k)
    shape = (4, -1, 1, 4**k, 1)
    plain = chains.reshape(shape)
    # Reversing the axis of each digit's high bit flips that bit.  A reversed axis
    # cannot merge into shape, so the reshape copies: primed never aliases plain.
    flip_high_bits = (slice(None, None, -1), slice(None)) * k
    primed = chains.reshape((2, 2) * k + (-1,))[flip_high_bits].reshape(shape)
    if n % 2:
        tails = tails.reshape(4, 1, 2, 1, 2)
        plain, primed = plain * tails, primed * tails[:, :, ::-1]
    plain *= math.cos(params.gamma)
    primed *= _GAMMA_SIGNS * math.sin(params.gamma)
    plain[:, :, :1] += primed[:, :, :1]
    plain[:, :, 1:] -= primed[:, :, 1:]  # l = 1, odd n only
    return plain.reshape(2**n, 2**n)


def n_qubit_ejm(params: EjmParams, n: int) -> BasisFamily:
    """Full 2**n state EJM family on n qubits.

    Even n chains two-qubit blocks Phi_i Phi_j1 ... Phi_jk (k = n/2 - 1)
    against their primed partners; odd n appends the single-qubit |+-m_i>
    pair and an extra bit l (k = (n-1)/2 - 1).  n=2 returns the plain
    three-parameter family; gamma only enters for n >= 3 where a primed
    mixing partner exists.
    """
    return BasisFamily(_family_matrix(params, check_limit("n", n)))
