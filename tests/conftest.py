import math

import numpy as np
import pytest
from hypothesis import strategies as st

from ejm.bases import DOMAIN, PARAM_NAMES, EjmParams
from ejm.qla import StateVector

GRID_Z = (1.0 / math.sqrt(3.0), 0.85, 1.0)
GRID_PHI = (-2.0, 0.3, 2.5)
GRID_THETA = (0.0, 0.8, math.pi / 2)
GRID_GAMMA = (0.0, 0.5, math.pi / 2)


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
