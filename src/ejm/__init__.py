"""Symmetric joint-measurement bases on 1-n qubits and the trilocal star network."""

from .analysis import (
    OrthonormalityReport,
    SymmetryReport,
    concurrence,
    reduced_bloch_vectors,
    reduction_law,
    symmetry_report,
    tangle_law,
    three_tangle,
    verify_orthonormal_complete,
)
from .bases import BasisFamily, BasisLabel, EjmParams, m_vector, n_qubit_ejm
from .network import (
    CorrelationReport,
    StarScenario,
    correlation_I_analytic,
    correlation_I_bruteforce,
    outcome_table,
    trilocal_score,
)
from .optimize import OptimumResult, SweepSpec, maximize, sweep
from .qla import (
    BlochVector,
    ContractError,
    StateVector,
    bloch_vector,
    partial_trace,
    permute_qubits,
    tensor_product,
)

__version__ = "0.1.0"
