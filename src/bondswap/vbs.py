"""Brute-force oracle: filtered valence-bond chains as explicit state vectors.

The chain with N internal spin-1 sites is laid out on 2N+2 virtual qubits:

    qubit 0 | qubits 1,2 | qubits 3,4 | ... | qubits 2N-1,2N | qubit 2N+1

Bond j (j = 0..N) entangles qubit 2j with qubit 2j+1 as α_j|01⟩ − β_j|10⟩;
each internal site k (k = 1..N) owns the virtual pair (2k−1, 2k) and is
projected onto its symmetric (spin-1) subspace.  Measuring every internal
pair in the symmetric Bell basis then reproduces — by construction rather
than by operator algebra — the per-outcome probabilities and end-pair states
of the swap chain, which is exactly what cross_check compares.  All 3^N
joint outcomes come out of one contraction pass over the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .filters import VBS
from .linalg import StateVector
from .qubit import SwapChain, bell_state, digit_table, enumerate_outcomes

_ROOT2 = np.sqrt(2.0)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _ROOT2

#: Largest oracle chain: 2·8+2 = 18 qubits, 262144 amplitudes.
MAX_ORACLE_NODES = 8

# ⟨φ_i| of the symmetric Bell outcomes i = 1, 2, 3, one row each
_BELL_BRAS = np.array([bell_state(VBS, i).amplitudes for i in (1, 2, 3)]).conj()
_BELL_BRAS.flags.writeable = False


def symmetric_projector() -> np.ndarray:
    """Rank-3 projector onto the symmetric two-qubit subspace (I − |s⟩⟨s|)."""
    return np.eye(4, dtype=complex) - np.outer(_SINGLET, _SINGLET.conj())


# the projector's |01⟩, |10⟩ block (0.5000000000000001, 0.4999999999999999); rows 0 and 3
# are unit rows, so build_vbs_state updates only these two amplitudes of each internal pair
_SYM_BLOCK = symmetric_projector()[1:3, 1:3]


def _check_oracle_bonds(n_bonds: int) -> None:
    if not 2 <= n_bonds <= MAX_ORACLE_NODES + 1:
        raise ValueError(f"oracle supports 2..{MAX_ORACLE_NODES + 1} bonds, got {n_bonds}")


def build_vbs_state(filters) -> StateVector:
    """Normalized chain state: bond product, symmetrized on every site.

    ``filters`` holds the N+1 bond filters, N = len − 1 in 1..8.  Bond j is
    (λ0|01⟩ − λ1|10⟩)/√2 on qubits (2j, 2j+1); the symmetric projector then
    acts on every internal pair.
    """
    return _chain_state(filters)[1]


def _chain_state(filters) -> tuple[SwapChain, StateVector]:
    """The vbs chain of ``filters`` and its build_vbs_state."""
    filts = tuple(filters)
    _check_oracle_bonds(len(filts))
    chain = SwapChain(filts, VBS)
    n_internal = chain.n_nodes
    bonds = np.zeros((len(filts), 4), dtype=complex)
    bonds[:, 1:3] = chain.diags / _ROOT2
    np.negative(bonds[:, 2], out=bonds[:, 2])
    psi = bonds[0]
    for bond in bonds[1:]:
        psi = np.multiply.outer(psi, bond).ravel()  # np.kron's products, without its overhead
    # the block's imaginary parts are 0: it scales real and imaginary parts alike
    (p11, p12), (p21, p22) = _SYM_BLOCK.real.tolist()
    for k in range(1, n_internal + 1):
        pair = psi.view(float).reshape(2 ** (2 * k - 1), 4, -1)
        x1, x2 = pair[:, 1], pair[:, 2]
        pair[:, 1], pair[:, 2] = p11 * x1 + p12 * x2, p21 * x1 + p22 * x2
    norm = _norm(psi)
    if norm == 0.0:
        raise ValueError("chain state vanished (incompatible singular filters)")
    psi /= norm  # finite: no |entry| exceeds the norm by more than rounding
    return chain, StateVector._adopt((2,) * (2 * n_internal + 2), psi)


def _norm(psi: np.ndarray) -> float:
    """np.linalg.norm(psi) by its own two dots of the real views, without its checks."""
    return np.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))


@lru_cache(maxsize=MAX_ORACLE_NODES)  # per N = 1..8, each at most 3^8·8 B = 51 kB
def _oracle_digits(n: int) -> np.ndarray:  # enumerate_outcomes' row digits, read-only
    digits = digit_table(3, n, 1)
    digits.flags.writeable = False
    return digits


def _internal_count(state: StateVector) -> int:
    """N of a normalized 2N+2 qubit chain state; raises on anything else."""
    n_qubits = len(state.dims)
    if any(d != 2 for d in state.dims) or n_qubits < 4 or n_qubits % 2:
        raise ValueError(f"expected a 2N+2 qubit chain state, got dims {state.dims}")
    if not state.is_normalized(1e-9):
        raise ValueError("the oracle expects a normalized chain state")
    return (n_qubits - 2) // 2


def _peel_pairs(amps: np.ndarray, bras) -> np.ndarray:
    """End-pair amplitudes left after projecting out internal pairs 1..N.

    ``bras[k-1]`` is an (r_k, 4) stack of conjugated basis rows for pair k.
    Each step contracts the leftmost remaining pair against all its rows and
    puts the new row index in front, so the result has shape (Π r_k, 2, 2)
    with pair 1 the least significant digit, as in enumerate_outcomes.
    """
    batch = amps.reshape(1, -1)
    for bra in bras:
        # (pair k; outcomes so far, qubit 0, pairs k+1.. and qubit 2N+1): np.tensordot's operands
        pairs_first = batch.reshape(len(batch), 2, 4, -1).transpose(2, 0, 1, 3).reshape(4, -1)
        batch = np.dot(bra, pairs_first).reshape(-1, batch.shape[1] // 4)
    return batch.reshape(-1, 2, 2)


def _abs_sq(z: np.ndarray) -> np.ndarray:
    # re² + im² rounds less than abs(z)**2, which goes through hypot
    return z.real ** 2 + z.imag ** 2


def measure_all_outcomes(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Born weights and end-pair amplitudes of every joint outcome at once.

    Row b belongs to the outcome whose indices are the little-endian base-3
    digits of b plus one (node 1 least significant), the row order of
    enumerate_outcomes.  ``ends[b]`` holds the unnormalized amplitudes of
    qubits (0, 2N+1) and ``weights[b]`` their squared norm.
    """
    n_internal = _internal_count(state)
    ends = _peel_pairs(state.amplitudes, (_BELL_BRAS,) * n_internal)
    return _abs_sq(ends).sum(axis=(1, 2)), ends


# kept for bench/spans.py, which wraps it: no caller in the package
def measure_internal_sites(state: StateVector, indices) -> tuple[float, StateVector | None]:
    """Project every internal pair onto its symmetric Bell outcome.

    ``indices`` picks outcome i_k ∈ {1, 2, 3} for site k.  Returns the Born
    probability of the joint outcome and the normalized end-pair state
    (qubit 0 first), or None for a zero-weight outcome.
    """
    n_internal = _internal_count(state)
    idx = tuple(int(i) for i in indices)
    if len(idx) != n_internal:
        raise ValueError(f"expected {n_internal} outcome indices, got {len(idx)}")
    if any(i not in (1, 2, 3) for i in idx):
        raise ValueError("vbs outcome indices must lie in {1, 2, 3}")
    ends = _peel_pairs(state.amplitudes, [_BELL_BRAS[i - 1 : i] for i in idx])
    weight = float(_abs_sq(ends).sum())
    if weight == 0.0:
        return 0.0, None
    return weight, StateVector((2, 2), ends[0] / np.sqrt(weight))


@dataclass(frozen=True, eq=False)
class OutcomeComparison:
    """Oracle vs swap-chain numbers for one outcome."""

    indices: tuple[int, ...]
    oracle_weight: float
    chain_prob: float
    weight_dev: float
    fidelity: float


@dataclass(frozen=True, eq=False)
class CrossCheckReport:
    """Outcome-by-outcome agreement between oracle and chain, as columns."""

    digits: np.ndarray
    oracle_weight: np.ndarray
    chain_prob: np.ndarray
    weight_dev: np.ndarray
    fidelity: np.ndarray
    worst_weight_dev: float
    worst_fidelity: float
    tolerance: float
    passed: bool

    @cached_property
    def comparisons(self) -> list[OutcomeComparison]:
        """One comparison per outcome, built on first read."""
        columns = (self.oracle_weight, self.chain_prob, self.weight_dev, self.fidelity)
        return [OutcomeComparison(tuple(idx), *rest) for idx, *rest in
                zip(self.digits.tolist(), *(col.tolist() for col in columns))]


def cross_check(filters, tolerance: float = 1e-9) -> CrossCheckReport:
    """Compare every outcome of the state-vector oracle with the swap chain.

    The oracle's Born probabilities are matched against enumerate_outcomes
    probs, and each end-pair state against the chain-operator state
    (I ⊗ M)|Φ+⟩, both normalized.  It reads no concurrence, so the table's
    concurrence stage never runs.  Mismatches are reported, never raised.
    """
    chain, state = _chain_state(filters)  # one chain: its filters are rescaled in one pass
    # _chain_state normalizes: peeled without measure_all_outcomes' checks
    ends = _peel_pairs(state.amplitudes, (_BELL_BRAS,) * chain.n_nodes)
    weights = _abs_sq(ends).sum(axis=(1, 2))
    report = enumerate_outcomes(chain)
    # amplitude on |j⟩⊗|k⟩ is M[k, j], as in state_from_operator
    pred = report.final_ops.transpose(0, 2, 1).reshape(-1, 4)
    prob = report.prob
    oracle_zero, chain_zero = weights == 0.0, prob == 0.0
    # |⟨end|pred⟩|² / (‖end‖²‖pred‖²), with end normalized first so that tiny
    # weights cannot underflow the product of the two norms; a zero norm divides
    # by 1 instead, and its row is 1 where both routes give weight 0, else 0
    unit_end = ends.reshape(-1, 4) / np.sqrt(weights + oracle_zero)[:, None]
    overlap = _abs_sq(np.sum(unit_end.conj() * pred, axis=1))
    fid = np.minimum(overlap / (_abs_sq(pred).sum(axis=1) + chain_zero), 1.0)
    fid = np.where(oracle_zero | chain_zero, oracle_zero & chain_zero, fid)
    dev = np.abs(weights - prob)
    worst_dev, worst_fid, tol = float(dev.max()), float(fid.min()), float(tolerance)
    # the digits of enumerate_outcomes' rows, without the lock of report.digits' first read
    return CrossCheckReport(_oracle_digits(chain.n_nodes), weights, prob, dev, fid, worst_dev,
                            worst_fid, tol, passed=worst_dev <= tol and worst_fid >= 1.0 - tol)
