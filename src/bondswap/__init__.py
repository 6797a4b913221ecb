"""Entanglement swapping on chains of filtered entangled bonds.

Exact per-outcome final states, probabilities and concurrences for qubit
valence-bond chains with non-identical diagonal filters, the probability ×
entanglement trade-off law, transfer-map evaluation for long chains, a
Weyl-Heisenberg qudit generalization, and a brute-force state-vector oracle
used to cross-check everything.
"""

__version__ = "0.1.0"

from .filters import (
    PLAIN,
    VBS,
    Bond,
    FilterOp,
    bond_concurrence,
    bond_state,
    make_filter,
    random_filter,
)
from .linalg import (
    EnumerationBudgetError,
    StateVector,
    determinant,
    fidelity_up_to_phase,
    partial_trace,
    state_from_operator,
)
from .qubit import (
    OutcomeRecord,
    SwapChain,
    TradeoffReport,
    bell_state,
    chain_operator,
    enumerate_outcomes,
    final_state,
    log_p_sum_transfer,
    log_tradeoff_constant,
    outcome_weight,
    p_sum_transfer,
    pauli,
    sample_outcomes,
    scan_log_constants,
    tradeoff_constant,
)
from .qudit import (
    QuditChain,
    WeylOp,
    enumerate_qudit_outcomes,
    gen_concurrence,
    gen_pauli,
    qudit_bell,
    qudit_chain_operator,
)
from .vbs import (
    CrossCheckReport,
    build_vbs_state,
    cross_check,
    measure_all_outcomes,
    measure_internal_sites,
    symmetric_projector,
)

__all__ = [
    "__version__",
    "PLAIN",
    "VBS",
    "Bond",
    "CrossCheckReport",
    "EnumerationBudgetError",
    "FilterOp",
    "OutcomeRecord",
    "QuditChain",
    "StateVector",
    "SwapChain",
    "TradeoffReport",
    "WeylOp",
    "bell_state",
    "bond_concurrence",
    "bond_state",
    "build_vbs_state",
    "chain_operator",
    "cross_check",
    "determinant",
    "enumerate_outcomes",
    "enumerate_qudit_outcomes",
    "fidelity_up_to_phase",
    "final_state",
    "gen_concurrence",
    "gen_pauli",
    "log_p_sum_transfer",
    "log_tradeoff_constant",
    "make_filter",
    "measure_all_outcomes",
    "measure_internal_sites",
    "outcome_weight",
    "p_sum_transfer",
    "partial_trace",
    "pauli",
    "qudit_bell",
    "qudit_chain_operator",
    "random_filter",
    "sample_outcomes",
    "scan_log_constants",
    "state_from_operator",
    "symmetric_projector",
    "tradeoff_constant",
]
