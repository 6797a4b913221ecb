"""The package's public surface: adding or dropping a name is a deliberate edit."""

import bondswap

PUBLIC = [
    "__version__",
    "PLAIN",
    "QUDIT",
    "VBS",
    "CrossCheckReport",
    "EnumerationBudgetError",
    "FilterOp",
    "OutcomeRecord",
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


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert bondswap.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(bondswap, name) is not None, name
