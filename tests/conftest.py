import math
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from ejm.bases import DOMAIN, INV_SQRT3, PARAM_NAMES, EjmParams
from ejm.qla import StateVector

GRID_Z = (1.0 / math.sqrt(3.0), 0.85, 1.0)
GRID_PHI = (-2.0, 0.3, 2.5)
GRID_THETA = (0.0, 0.8, math.pi / 2)
GRID_GAMMA = (0.0, 0.5, math.pi / 2)
# The domain's corners and edges, where amplitudes vanish: (z, phi, theta, gamma).
BOUNDARY = list(product((1.0, -1.0, INV_SQRT3, -INV_SQRT3), (0.0, math.pi, -math.pi),
                        (0.0, math.pi / 2), (0.0, math.pi / 4, math.pi / 2)))


def ket(bits):
    """Computational basis state from its big-endian bit string, e.g. ket("01")."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps)


def expectation(state, obs):
    """<state|obs|state> of a Hermitian observable by plain matrix arithmetic."""
    return float(np.vdot(state.amplitudes, obs @ state.amplitudes).real)


def tilde_state(state):
    """Conjugate every amplitude, then flip every qubit (an index reversal)."""
    return StateVector(np.conj(state.amplitudes)[::-1])


def primed_rows(rows):
    """The primed two-qubit family Phi' as the paper writes it: the n = 2 rows
    of Phi with the |00> and |11> amplitudes negated."""
    primed = rows.copy()
    primed[:, [0, 3]] = -rows[:, [0, 3]]
    return primed


def star_state():
    """Six-qubit star state in qubit order A1 A2 A3 B1 B2 B3: the Kronecker
    product of three (|01> + |10>)/sqrt(2) pairs A_k B_k, reordered."""
    pair = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    six = np.kron(np.kron(pair, pair), pair)  # pair order A1 B1 A2 B2 A3 B3
    return StateVector(six.reshape([2] * 6).transpose([0, 2, 4, 1, 3, 5]).reshape(-1))


def _signed(z, negative, phi, theta, gamma):
    return EjmParams(z=-z if negative else z, phi=phi, theta=theta, gamma=gamma)


# Points drawn over the whole parameter domain, either sign of z.
domain_params = st.builds(
    _signed,
    st.floats(*DOMAIN["z"]),
    st.booleans(),
    *(st.floats(*DOMAIN[name]) for name in PARAM_NAMES[1:]),
)


def make_grid():
    return [
        EjmParams(z=z, phi=phi, theta=theta, gamma=gamma)
        for z in GRID_Z
        for phi in GRID_PHI
        for theta in GRID_THETA
        for gamma in GRID_GAMMA
    ]


@pytest.fixture(scope="session")
def grid_params():
    """The 3^4 parameter grid used across the verification suites."""
    return make_grid()


@pytest.fixture(scope="session")
def small_grid():
    """A 2^4 corner subgrid for the cheaper module-level checks."""
    return [
        EjmParams(z=z, phi=phi, theta=theta, gamma=gamma)
        for z in (GRID_Z[0], GRID_Z[2])
        for phi in (GRID_PHI[0], GRID_PHI[2])
        for theta in (GRID_THETA[1], GRID_THETA[2])
        for gamma in (GRID_GAMMA[1], GRID_GAMMA[2])
    ]
