"""Independent oracles for the basis builders, written from the paper's
formulas one vertex at a time, and a partial trace over any kept qubits.

They read only public names of ``ejm`` (test_imports checks this), so a
builder whose private tables move cannot carry its oracle along with it.
"""

import cmath
import math

import numpy as np

from ejm.bases import INV_SQRT3, BasisFamily

# Azimuths and z-heights whose Bloch vectors are the fixed tetrahedron
# (1,1,1)/sqrt(3), (1,-1,-1)/sqrt(3), (-1,1,-1)/sqrt(3), (-1,-1,1)/sqrt(3)
# of the reference family.
REFERENCE_PHI = (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4)
REFERENCE_Z = (INV_SQRT3, -INV_SQRT3, -INV_SQRT3, INV_SQRT3)


def qubit_pair(z, phi):
    """(|m>, |-m>) for the Bloch vector at height z and azimuth phi."""
    lo, hi = cmath.exp(-1j * (0.5 * phi)), cmath.exp(1j * (0.5 * phi))
    a = math.sqrt(max(1.0 + z, 0.0) / 2.0)
    b = math.sqrt(max(1.0 - z, 0.0) / 2.0)
    return np.array([a * lo, b * hi]), np.array([b * lo, -a * hi])


def vertex_formula_tables(params):
    """Phi and the (|m_i>, |-m_i>) rows from the paper's formulas, one vertex
    at a time: vertex i sits at height (-1)^i z and azimuth phi + i pi/2,
    written phi - pi/2 for i = 3."""
    z = params.z
    rad = math.sqrt(max(3.0 * z * z - 1.0, 0.0))
    prefactor = (1.0 - 1j * rad) / (2.0 * math.sqrt(3.0) * abs(z))
    e_theta = cmath.exp(1j * params.theta)
    phi_rows, pairs = [], []
    for i, turn in enumerate((0.0, math.pi / 2, math.pi, -math.pi / 2)):
        parity = 1.0 if i % 2 == 0 else -1.0
        z_i, phi_i = parity * z, params.phi + turn
        delta = phi_i - params.phi_z
        mid01 = -(parity + e_theta) / math.sqrt(2.0)
        mid10 = -(parity - e_theta) / math.sqrt(2.0)
        phi_rows.append(prefactor * np.array([cmath.exp(-1j * delta), mid01, mid10, -cmath.exp(1j * delta)]))
        pairs.append(qubit_pair(z_i, phi_i))
    return np.array(phi_rows), pairs


def reference_bases(theta=0.0):
    """Two-qubit reference family on the fixed (1,+-1,+-1)/sqrt(3) tetrahedron.

    The weights (sqrt(3) + exp(i*theta), sqrt(3) - exp(i*theta)) interpolate
    between the parameter-free family (theta=0) and the Bell-state
    measurement (theta=pi/2).
    """
    e_theta = cmath.exp(1j * theta)
    s3 = math.sqrt(3.0)
    rows = []
    for zi, phi in zip(REFERENCE_Z, REFERENCE_PHI):
        mp, mm = qubit_pair(zi, phi)
        rows.append(((s3 + e_theta) * np.kron(mp, mm) + (s3 - e_theta) * np.kron(mm, mp)) / (2.0 * math.sqrt(2.0)))
    return BasisFamily(np.array(rows))


def transpose_trace(state, kept):
    """Reduced density matrix on the sorted kept qubits (1-based), any number
    of them: a transpose of all n axes, then the product with @."""
    axes = [q - 1 for q in kept]
    rest = [a for a in range(state.n_qubits) if a not in axes]
    psi = state.amplitudes.reshape([2] * state.n_qubits).transpose(axes + rest).reshape(2 ** len(axes), -1)
    return psi @ psi.conj().T
