"""Constructors for the symmetric joint-measurement basis families.

Single-qubit tetrahedron states |m_i> / |-m_i>, the two-qubit elegant
joint measurement (EJM) in its parameter-free, single-parameter and
three-parameter forms, the primed partner family, and the three- and
n-qubit generalizations built from them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .qla import StateVector

INV_SQRT3 = 1.0 / math.sqrt(3.0)
_DOMAIN_ATOL = 1e-12

# Azimuths and z-heights whose Bloch vectors are the fixed tetrahedron
# (1,1,1)/sqrt(3), (1,-1,-1)/sqrt(3), (-1,1,-1)/sqrt(3), (-1,-1,1)/sqrt(3)
# used by the two reference (parameter-free / single-parameter) families.
_REFERENCE_PHI = (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4)
_REFERENCE_Z = (INV_SQRT3, -INV_SQRT3, -INV_SQRT3, INV_SQRT3)


class ResourceLimitError(RuntimeError):
    """Requested construction exceeds the configured size cap."""


def _check_z(z: float) -> None:
    if not (INV_SQRT3 - _DOMAIN_ATOL <= abs(z) <= 1.0 + _DOMAIN_ATOL):
        raise ValueError(f"z={z!r} outside domain 1/sqrt(3) <= |z| <= 1")


def phi_z(z: float) -> float:
    """Auxiliary phase arg[(sqrt(1-z^2) + i*sqrt(3z^2-1)) / (sqrt(2)|z|)].

    Always lies in [0, pi/2]; the positive real denominator does not
    affect the argument.
    """
    _check_z(z)
    re = math.sqrt(max(1.0 - z * z, 0.0))
    im = math.sqrt(max(3.0 * z * z - 1.0, 0.0))
    return math.atan2(im, re)


@dataclass(frozen=True)
class EjmParams:
    """Parameter point (z, phi, theta, gamma) shared by all basis families.

    Domains: 1/sqrt(3) <= |z| <= 1, phi in [-pi, pi], theta in [0, pi/2],
    gamma in [0, pi/2].  The derived phase phi_z is computed once at
    construction and cached as a field.
    """

    z: float
    phi: float
    theta: float
    gamma: float
    phi_z: float = field(init=False)

    def __post_init__(self) -> None:
        z = float(self.z)
        _check_z(z)
        object.__setattr__(self, "z", z)
        for name, lo, hi in (
            ("phi", -math.pi, math.pi),
            ("theta", 0.0, math.pi / 2),
            ("gamma", 0.0, math.pi / 2),
        ):
            value = float(getattr(self, name))
            if not (lo - _DOMAIN_ATOL <= value <= hi + _DOMAIN_ATOL):
                raise ValueError(f"{name}={value!r} outside [{lo:.12g}, {hi:.12g}]")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "phi_z", phi_z(z))

    def phi_i(self, i: int) -> float:
        """Azimuth of vertex i: phi, phi+pi/2, phi+pi, phi-pi/2."""
        return self.phi + (0.0, math.pi / 2, math.pi, -math.pi / 2)[i]

    def z_i(self, i: int) -> float:
        """Height of vertex i: alternating +z, -z, +z, -z."""
        return self.z if i % 2 == 0 else -self.z


@dataclass(frozen=True)
class BasisLabel:
    """Index of one basis state: leading index i, optional block indices
    j, and the extra bit l present only for odd qubit numbers."""

    i: int
    j: tuple[int, ...] = ()
    l: Optional[int] = None


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """Ordered orthonormal family of same-size multi-qubit states."""

    n_qubits: int
    params: EjmParams
    states: Mapping[BasisLabel, StateVector]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))

    @property
    def labels(self) -> tuple[BasisLabel, ...]:
        return tuple(self.states)

    def matrix(self) -> np.ndarray:
        """Amplitudes stacked row-wise in label order."""
        return np.vstack([s.amplitudes for s in self.states.values()])

    def __len__(self) -> int:
        return len(self.states)


def _check_i(i: int) -> None:
    if i not in (0, 1, 2, 3):
        raise ValueError(f"vertex index i={i!r} must be 0..3")


def _check_bit(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name}={value!r} must be 0 or 1")


def _single_amps(params: EjmParams, i: int, sign: int) -> np.ndarray:
    zi = params.z_i(i)
    half = 0.5 * params.phi_i(i)
    lo = cmath.exp(-1j * half)
    hi = cmath.exp(1j * half)
    a = math.sqrt(max(1.0 + zi, 0.0) / 2.0)
    b = math.sqrt(max(1.0 - zi, 0.0) / 2.0)
    if sign > 0:
        return np.array([a * lo, b * hi])
    return np.array([b * lo, -a * hi])


def single_qubit_m(params: EjmParams, i: int, sign: int = +1) -> StateVector:
    """Tetrahedron-vertex qubit state |m_i> (sign=+1) or the orthogonal
    |-m_i> (sign=-1), with Bloch vector sign * m_vector(params, i)."""
    _check_i(i)
    if sign not in (1, -1):
        raise ValueError(f"sign={sign!r} must be +1 or -1")
    return StateVector(_single_amps(params, i, sign))


def m_vector(params: EjmParams, i: int) -> np.ndarray:
    """Bloch vector (sqrt(1-z_i^2) cos phi_i, sqrt(1-z_i^2) sin phi_i, z_i)."""
    _check_i(i)
    zi = params.z_i(i)
    r = math.sqrt(max(1.0 - zi * zi, 0.0))
    ph = params.phi_i(i)
    return np.array([r * math.cos(ph), r * math.sin(ph), zi])


def _two_qubit_amps(params: EjmParams, i: int, primed: bool) -> np.ndarray:
    z = params.z
    rad = math.sqrt(max(3.0 * z * z - 1.0, 0.0))
    prefactor = (1.0 - 1j * rad) / (2.0 * math.sqrt(3.0) * abs(z))
    delta = params.phi_i(i) - params.phi_z
    e_minus = cmath.exp(-1j * delta)
    e_plus = cmath.exp(1j * delta)
    e_theta = cmath.exp(1j * params.theta)
    parity = 1.0 if i % 2 == 0 else -1.0
    mid01 = -(parity + e_theta) / math.sqrt(2.0)
    mid10 = -(parity - e_theta) / math.sqrt(2.0)
    outer = -1.0 if primed else 1.0
    return prefactor * np.array([outer * e_minus, mid01, mid10, -outer * e_plus])


def two_qubit_ejm(params: EjmParams, i: int, primed: bool = False) -> StateVector:
    """Three-parameter two-qubit EJM state.

    The unprimed family is orthonormal; the primed family flips the sign
    of the |00> and |11> amplitudes and coincides with the unprimed family
    at shifted index, |Phi'_i> = |Phi_{(i+2) mod 4}>.
    """
    _check_i(i)
    return StateVector(_two_qubit_amps(params, i, primed))


def _reference_amps(i: int, sign: int) -> np.ndarray:
    zi = _REFERENCE_Z[i]
    half = 0.5 * _REFERENCE_PHI[i]
    lo = cmath.exp(-1j * half)
    hi = cmath.exp(1j * half)
    a = math.sqrt((1.0 + zi) / 2.0)
    b = math.sqrt((1.0 - zi) / 2.0)
    if sign > 0:
        return np.array([a * lo, b * hi])
    return np.array([b * lo, -a * hi])


def reference_bases(kind: str, theta: Optional[float] = None) -> BasisFamily:
    """Two-qubit reference families on the fixed (1,+-1,+-1)/sqrt(3) tetrahedron.

    kind="parameter_free" builds the weights (sqrt(3)+1, sqrt(3)-1);
    kind="single_parameter" replaces 1 by exp(i*theta), interpolating
    between the parameter-free family (theta=0) and the Bell-state
    measurement (theta=pi/2).
    """
    if kind == "parameter_free":
        if theta is not None:
            raise ValueError("parameter_free takes no theta")
        t = 0.0
    elif kind == "single_parameter":
        if theta is None:
            raise ValueError("single_parameter requires theta")
        t = float(theta)
        if not (-_DOMAIN_ATOL <= t <= math.pi / 2 + _DOMAIN_ATOL):
            raise ValueError(f"theta={t!r} outside [0, {math.pi / 2:.12g}]")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    e_theta = cmath.exp(1j * t)
    s3 = math.sqrt(3.0)
    states: dict[BasisLabel, StateVector] = {}
    for i in range(4):
        fwd = np.kron(_reference_amps(i, +1), _reference_amps(i, -1))
        rev = np.kron(_reference_amps(i, -1), _reference_amps(i, +1))
        amps = ((s3 + e_theta) * fwd + (s3 - e_theta) * rev) / (2.0 * math.sqrt(2.0))
        states[BasisLabel(i)] = StateVector(amps)
    params = EjmParams(z=INV_SQRT3, phi=math.pi / 4, theta=t, gamma=0.0)
    return BasisFamily(2, params, states)


def _family_matrix(params: EjmParams, n: int) -> np.ndarray:
    """Amplitudes of the whole n-qubit family, one row per basis label.

    Rows run over (i, j1, ..., jk) lexicographically, with the odd-n bit l
    fastest.  Matrix Kronecker powers of the 4x4 tables Phi and Phi' (row i
    holds |Phi_i>) give every chain ((Phi_i (x) Phi_j1) (x) ...) at once.
    Their four row blocks, one per leading index i, are mixed as
    cos(g) Phi... + (-1)^floor(i/2) sin(g) Phi'...; odd n first appends
    |m_i>, |-m_i> (l = 0) or |-m_i>, |m_i> (l = 1) to the two terms and
    flips the mixing sign for l = 1.  The products are taken in the order
    of the per-label chain, so each amplitude equals it bit for bit.
    """
    phi = np.array([_two_qubit_amps(params, i, False) for i in range(4)])
    if n == 2:
        return phi
    phip = np.array([_two_qubit_amps(params, i, True) for i in range(4)])
    plain = reduce(np.kron, [phi] * (n // 2)).reshape(4, -1, 4 ** (n // 2))
    primed = reduce(np.kron, [phip] * (n // 2)).reshape(plain.shape)
    c, s = math.cos(params.gamma), math.sin(params.gamma)
    blocks = []
    for i in range(4):
        mixed = s if i < 2 else -s
        if n % 2 == 0:
            blocks.append(c * plain[i] + mixed * primed[i])
            continue
        mp, mm = _single_amps(params, i, +1), _single_amps(params, i, -1)
        kp, km = plain[i][:, None, :, None], primed[i][:, None, :, None]
        l0 = c * (kp * mp) + mixed * (km * mm)
        l1 = c * (kp * mm) - mixed * (km * mp)
        blocks.append(np.concatenate([l0, l1], axis=1).reshape(-1, 2 * plain.shape[2]))
    return np.concatenate(blocks)


def three_qubit_ejm(params: EjmParams, i: int, k: int) -> StateVector:
    """Three-qubit EJM state mixing |Phi_i>|m_i> with |Phi'_i>|-m_i>.

    k=0 gives cos(gamma)|Phi_i>|m_i> + (-1)^floor(i/2) sin(gamma)|Phi'_i>|-m_i>,
    k=1 the partner with |+-m_i> swapped and the mixing sign flipped.
    """
    _check_i(i)
    _check_bit(k, "k")
    return StateVector(_family_matrix(params, 3)[2 * i + k])


def n_qubit_ejm(params: EjmParams, n: int, *, max_qubits: int = 8) -> BasisFamily:
    """Full 2**n state EJM family on n qubits.

    Even n chains two-qubit blocks Phi_i Phi_j1 ... Phi_jk (k = n/2 - 1)
    against their primed partners; odd n appends the single-qubit |+-m_i>
    pair and an extra bit l (k = (n-1)/2 - 1).  n=2 returns the plain
    three-parameter family; gamma only enters for n >= 3 where a primed
    mixing partner exists.
    """
    if n < 2:
        raise ValueError(f"n={n!r} must be at least 2")
    if n > max_qubits:
        raise ResourceLimitError(f"n={n} exceeds the configured cap {max_qubits}")
    tail_bits = (0, 1) if n % 2 else (None,)
    labels = [BasisLabel(c[0], c[1:], l) for c in product(range(4), repeat=n // 2) for l in tail_bits]
    states = {label: StateVector(row) for label, row in zip(labels, _family_matrix(params, n))}
    return BasisFamily(n, params, states)
