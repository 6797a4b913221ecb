"""Entanglement swapping on chains of filtered entangled bonds.

Exact per-outcome chain operators, probabilities and concurrences for qubit
valence-bond chains with non-identical diagonal filters, the probability ×
entanglement trade-off law, transfer-map evaluation for long chains, a
Weyl-Heisenberg qudit generalization, and a brute-force state-vector oracle
used to cross-check everything.
"""

__version__ = "0.1.0"

from .filters import (
    PLAIN,
    VBS,
    FilterOp,
    make_filter,
    random_filter,
)
from .linalg import EnumerationBudgetError, StateVector
from .qubit import (
    OutcomeRecord,
    SwapChain,
    TradeoffReport,
    bell_state,
    enumerate_outcomes,
    log_p_sum_transfer,
    p_sum_transfer,
    sample_outcomes,
    scan_log_constants,
    tradeoff_constant,
)
from .qudit import (
    QuditChain,
    enumerate_qudit_outcomes,
    gen_pauli,
)
from .vbs import (
    CrossCheckReport,
    build_vbs_state,
    cross_check,
    measure_all_outcomes,
    symmetric_projector,
)

__all__ = [
    "__version__",
    "PLAIN",
    "VBS",
    "CrossCheckReport",
    "EnumerationBudgetError",
    "FilterOp",
    "OutcomeRecord",
    "QuditChain",
    "StateVector",
    "SwapChain",
    "TradeoffReport",
    "bell_state",
    "build_vbs_state",
    "cross_check",
    "enumerate_outcomes",
    "enumerate_qudit_outcomes",
    "gen_pauli",
    "log_p_sum_transfer",
    "make_filter",
    "measure_all_outcomes",
    "p_sum_transfer",
    "random_filter",
    "sample_outcomes",
    "scan_log_constants",
    "symmetric_projector",
    "tradeoff_constant",
]
