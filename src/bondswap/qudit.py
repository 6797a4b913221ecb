"""The qudit table under its own name: a qudit chain is ``SwapChain(filters, QUDIT)``,
whose mode, the D² Weyl-Bell outcomes, lives in qubit.py with the other modes."""

from __future__ import annotations

from .qubit import SwapChain, TradeoffReport, enumerate_outcomes


def enumerate_qudit_outcomes(chain: SwapChain) -> TradeoffReport:
    """Exact table over all D^(2N) Weyl-Bell outcomes: enumerate_outcomes, as a function
    of its own so that a tracer tells the two names apart.

    Record indices are (m, n) pairs per node, ordered by the little-endian base-D²
    integer with per-node digit m·D + n.  Weights are (1/D)Tr(M M†) and sum to
    D^(2N): the basis is complete, so nothing is projected out as in vbs mode.
    """
    return enumerate_outcomes(chain)
