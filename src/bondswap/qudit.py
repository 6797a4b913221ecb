"""Swapping chains of D-dimensional bonds measured in Weyl-Heisenberg Bell bases.

The generalized Pauli group is built from the shift X|j⟩ = |j+1 mod D⟩ and
clock Z|j⟩ = ω^j|j⟩ with ω = exp(2πi/D); U_mn = X^m Z^n.  The D² Bell states
(I ⊗ U_mn)|Φ+⟩ form a complete orthonormal basis, so unlike the symmetric-
subspace (vbs) qubit chain nothing is projected out and the outcome weights
sum to exactly D^(2N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .filters import FilterOp, _Chain
from .qubit import TradeoffReport, _Mode, _table, check_budget

#: Largest qudit outcome table enumerate_qudit_outcomes will materialize, in
#: rows.  Its largest table, D = 6 with N = 4, peaks at about 1.5 GB in a CLI
#: swap; up to D = 8 (the CLI's digit alphabet) none it admits needs more.
QUDIT_ENUMERATION_BUDGET = 36 ** 4


def omega_power(dim: int, k: int) -> complex:
    """exp(2πi·k/dim), exact at the quarter-circle angles.

    Returning exact ±1/±i where possible keeps D = 2 tables bit-identical to
    the qubit Pauli construction.
    """
    k = int(k) % int(dim)
    if (4 * k) % dim == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * k) // dim % 4]
    return complex(np.exp(2j * np.pi * k / dim))


def gen_pauli(dim: int, m: int, n: int) -> np.ndarray:
    """U_mn = X^m Z^n, read-only, with entries ω^(j·n) at positions ((j+m) mod D, j)."""
    d = int(dim)
    if d < 2:
        raise ValueError("dim must be >= 2")
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"Weyl indices must lie in 0..{d - 1}, got ({m}, {n})")
    mat = np.zeros((d, d), dtype=complex)
    for j in range(d):
        mat[(j + m) % d, j] = omega_power(d, j * n)
    mat.flags.writeable = False
    return mat


@cache
def _weyl_mode(dim: int) -> _Mode:
    """The D² Weyl-Bell outcomes: digit m·D + n applies U_mn, labelled (m, n), its own class."""
    labels = tuple(divmod(digit, dim) for digit in range(dim * dim))
    ops = tuple(gen_pauli(dim, m, n) for m, n in labels)
    return _Mode(dim, range(dim * dim), ops, labels, tuple(range(dim * dim)))


@dataclass(frozen=True, eq=False)
class QuditChain(_Chain):
    """N+1 D-dimensional filtered bonds with N measured internal nodes."""

    dim: int
    filters: tuple[FilterOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        self._store(self.dim)


def check_qudit_table_budget(dim: int, n_nodes: int) -> None:
    """enumerate_qudit_outcomes's budget check, from the dimension and node count alone."""
    check_budget(dim ** 2, n_nodes, dim, QUDIT_ENUMERATION_BUDGET)


def enumerate_qudit_outcomes(chain: QuditChain) -> TradeoffReport:
    """Exact table over all D^(2N) Weyl-Bell outcomes.

    Record indices are (m, n) pairs per node; ordering follows the
    little-endian base-D² integer with per-node digit m·D + n.  Weights are
    (1/D)Tr(M M†) and sum to D^(2N); prob = weight / P_sum, and
    prob × concurrence equals Π_k C_k / P_sum on every non-singular
    record (the trade-off constant of the report).
    """
    check_qudit_table_budget(chain.dim, chain.n_nodes)
    return _table(chain, _weyl_mode(chain.dim))
