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
    """The D² Weyl-Bell outcomes: digit m·D + n applies U_mn, labelled (m, n), in
    shift class m, whose D members share their moduli with X^m.  A table reads the
    classes alone; U_mn is built only when an operator is read."""
    digits = range(dim * dim)
    return _Mode(dim, digits, tuple(d // dim for d in digits),
                 lambda d: gen_pauli(dim, *divmod(d, dim)), tuple(divmod(d, dim) for d in digits))


@dataclass(frozen=True, eq=False)
class QuditChain(_Chain):
    """N+1 D-dimensional filtered bonds with N measured internal nodes."""

    dim: int
    filters: tuple[FilterOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        self._store(self.dim)


def enumerate_qudit_outcomes(chain: QuditChain) -> TradeoffReport:
    """Exact table over all D^(2N) Weyl-Bell outcomes.

    Record indices are (m, n) pairs per node; ordering follows the
    little-endian base-D² integer with per-node digit m·D + n.  Weights are
    (1/D)Tr(M M†) and sum to D^(2N); prob = weight / P_sum, and
    prob × concurrence equals Π_k C_k / P_sum on every non-singular
    record (the trade-off constant of the report).  The table is reduced over
    the D^N shift-class products, and each row shares its class's values.
    """
    check_budget(chain.dim ** 2, chain.n_nodes)
    return _table(chain, _weyl_mode(chain.dim))
