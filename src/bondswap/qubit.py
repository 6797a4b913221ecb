"""Entanglement swapping along a chain of filtered qubit bonds.

A chain of N+1 bonds carries N internal nodes, each measured in a Bell basis.
In ``plain`` mode the bonds are (I ⊗ T_j)|Φ+⟩ and the measurement runs over
the full four-element Bell basis (I ⊗ σ_i)|Φ+⟩, i = 0..3 with σ_0 = I,
σ_1 = σx, σ_2 = σz, σ_3 = σx·σz.  In ``vbs`` mode the bonds are singlet-like
(I ⊗ σ3 T_j)|Φ+⟩ and only the three symmetric outcomes (σ3 ⊗ σ_i)|Φ+⟩,
i = 1..3, survive the on-site symmetric projection, so the outcome weights do
not sum to one until divided by P_sum.

Every outcome leaves the two end nodes in (I ⊗ M)|Φ+⟩ with M the ordered
chain operator; weight, probability and concurrence all come from M.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .filters import PLAIN, VBS, FilterOp, _Chain
from .linalg import (
    EnumerationBudgetError,
    StateVector,
    batched_determinant,
    batched_products,
    det_concurrence,
)

_ID = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_ID, _SX, _SZ, _SX @ _SZ)
for _p in PAULI:
    _p.flags.writeable = False

_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

#: Largest outcome table enumerate_outcomes will materialize, in rows.  It
#: admits vbs N <= 13 and plain N <= 10; a JSON CLI swap of those peaks at
#: about 0.21 GB and 0.15 GB of resident memory.
ENUMERATION_BUDGET = 3 ** 13

# Peak resident bytes per row of a CLI swap or sample, an upper fit to the
# largest admitted tables: 60-67 B/row for a qubit swap and 89-99 for a sample,
# set by its count arrays, and 294-1686 for qudit D = 3-8, by each D×D operator.
_ROW_BYTES = 150
_ROW_BYTES_PER_OP_ENTRY = 32


@dataclass(frozen=True, eq=False)
class _Mode:
    """A measurement mode as data: outcome ``digits[j]`` applies the node
    operator ``ops[j]``, is recorded as ``labels[digits[j]]`` and lies in class
    ``classes[j]``; ``end`` (σ3 for vbs, else None) multiplies every chain
    operator from the left.  Products over one string of classes differ only
    by signs, so they share weight, |det| and concurrence bit for bit.  Qubit
    class 0 keeps |0⟩, |1⟩ (I, σz) and class 1 swaps them (σx, σ3)."""

    dim: int
    digits: range
    ops: tuple[np.ndarray, ...]
    labels: tuple
    classes: tuple[int, ...]
    end: np.ndarray | None = None

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """Outcomes per class, each a power of two; for qubits (k, s), so that
        Σ_i σ_i diag(p, r) σ_i = diag(k·p + s·r, s·p + k·r) over all outcomes."""
        sizes = tuple(map(self.classes.count, range(max(self.classes) + 1)))
        assert all(m & (m - 1) == 0 for m in sizes), f"class sizes {sizes}"
        return sizes

    @cached_property
    def class_ops(self) -> tuple[np.ndarray, ...]:
        """One representative node operator per class: its first outcome's."""
        return tuple(self.ops[self.classes.index(c)] for c in range(len(self.class_sizes)))


_MODES = {
    VBS: _Mode(2, range(1, 4), PAULI[1:], tuple(range(4)), (1, 0, 1), PAULI[3]),
    PLAIN: _Mode(2, range(0, 4), PAULI, tuple(range(4)), (0, 1, 0, 1)),
}


def _mode(name: str) -> _Mode:
    if name not in _MODES:
        raise ValueError(f"unknown mode {name!r}")
    return _MODES[name]


def bell_state(mode: str, i: int) -> StateVector:
    """Measurement basis state for one internal node.

    plain: (I ⊗ σ_i)|Φ+⟩ for i = 0..3 (complete orthonormal basis).
    vbs:   (σ3 ⊗ σ_i)|Φ+⟩ for i = 1..3 (orthonormal basis of the symmetric
           two-qubit subspace; i = 0 would give the singlet, which the
           on-site projection removes).
    """
    m = _mode(mode)
    if i not in m.digits:
        raise ValueError(f"{mode}-mode Bell index must be in {list(m.digits)}, got {i}")
    amps = np.kron(_ID if m.end is None else m.end, PAULI[i]) @ _PHI_PLUS
    return StateVector((2, 2), amps)


@dataclass(frozen=True, eq=False)
class SwapChain(_Chain):
    """N+1 filtered qubit bonds in a row, measured at the N internal nodes."""

    filters: tuple[FilterOp, ...]
    mode: str = VBS

    def __post_init__(self):
        self._store(2)
        _mode(self.mode)

    @property
    def outcome_indices(self) -> range:
        return _MODES[self.mode].digits


# kept for bench/spans.py, whose counters read len(report.records) on traced runs
@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One Bell-outcome row of an enumeration table."""

    indices: tuple[int, ...]
    weight: float
    prob: float
    final_op: np.ndarray
    concurrence: float


@dataclass(frozen=True, eq=False)
class TradeoffReport:
    """Outcome table held per class, plus the outcome-independent prob × C.

    Row b belongs to the outcome whose per-node digits are ``digits[b]``
    (little-endian, node 1 first; the digit the CLI prints) and shares the
    values of class ``class_index[b]`` (see _table) bit for bit; ``weight``,
    ``prob`` and ``concurrence`` gather them on each read.  ``final_ops``
    multiplies out every row's operator of ``chain`` on each read, and
    ``records``, the per-row view, labels a digit with ``mode.labels``.
    """

    constant: float
    p_sum: float
    max_residual: float
    digits: np.ndarray
    class_index: np.ndarray
    class_weight: np.ndarray
    class_prob: np.ndarray
    class_concurrence: np.ndarray
    chain: _Chain
    mode: _Mode
    weight = property(lambda self: self.class_weight[self.class_index])
    prob = property(lambda self: self.class_prob[self.class_index])
    concurrence = property(lambda self: self.class_concurrence[self.class_index])

    @property
    def final_ops(self) -> np.ndarray:
        """(rows, D, D) chain operators in row order, by the full route."""
        return _operators(self.chain, [self.mode.ops] * self.chain.n_nodes, self.mode.end)

    @cached_property  # kept for bench/spans.py, whose counters read len(records)
    def records(self) -> list[OutcomeRecord]:
        label = self.mode.labels.__getitem__
        columns = (self.digits.tolist(), self.weight.tolist(), self.prob.tolist(),
                   self.final_ops, self.concurrence.tolist())
        return [OutcomeRecord(tuple(map(label, row)), *rest) for row, *rest in zip(*columns)]


def digit_table(base: int, n: int, offset: int = 0) -> np.ndarray:
    """(base^n, n) little-endian digits of 0..base^n − 1, each plus ``offset``."""
    b = np.arange(base ** n)
    digits = np.empty((b.size, n), dtype=np.min_scalar_type(base - 1 + offset))
    for k in range(n):
        b, digits[:, k] = np.divmod(b, base)
    digits += offset
    return digits


def row_index(digits: np.ndarray, base: int, offset: int = 0) -> np.ndarray:
    """Row Σ_k (d_k − offset)·base^k of each digit string in digit_table, by
    Horner's rule over the columns, so only one int64 vector is held."""
    rows = np.zeros(len(digits), dtype=np.int64)
    for col in digits.T[::-1]:  # most significant node first
        rows *= base
        rows += col
    rows -= offset * (base ** digits.shape[1] - 1) // (base - 1)
    return rows


def _approx(log10_x: float) -> str:
    """10**log10_x to three significant digits, also beyond the float range."""
    if log10_x < 300:
        return f"{10 ** log10_x:.3g}"
    exp = math.floor(log10_x)
    return f"{10 ** (log10_x - exp):.2f}e+{exp}"


def check_budget(base: int, n: int, dim: int, budget: int, hint: str = "") -> None:
    """Refuse a base^n-row table of D×D operators above ``budget`` rows.

    Runs before anything is allocated; the error gives the row count and the
    estimated peak memory of a CLI run that renders the table.
    """
    # past its bit length, base^n > 2^n > budget: never build a huge base ** n
    if n <= budget.bit_length() and base ** n <= budget:
        return
    log10_rows = n * math.log10(base)
    row_bytes = _ROW_BYTES + _ROW_BYTES_PER_OP_ENTRY * dim * dim
    log10_gb = log10_rows + math.log10(row_bytes) - 9
    raise EnumerationBudgetError(
        f"{base}^{n} = {_approx(log10_rows)} outcome rows (about "
        f"{_approx(log10_gb)} GB at {row_bytes} B/row) exceed the enumeration "
        f"budget of {budget} rows{hint}"
    )


def check_table_budget(mode: str, n_nodes: int) -> None:
    """enumerate_outcomes's budget check, from the mode and node count alone."""
    check_budget(len(_mode(mode).digits), n_nodes, 2, ENUMERATION_BUDGET,
                 "; use sample_outcomes or p_sum_transfer instead")


# kept for bench/spans.py, which wraps it: no caller in the package
def chain_operator(chain: SwapChain, indices) -> np.ndarray:
    """Ordered operator for one outcome: [σ3·]T_N σ_{i_N} ··· σ_{i_1} T_0."""
    mode = _MODES[chain.mode]
    idx = [int(i) for i in indices]
    for i in idx:
        if i not in mode.digits:
            raise ValueError(f"outcome index {i} invalid for mode {chain.mode!r}")
    return _operators(chain, [[mode.ops[i - mode.digits.start]] for i in idx], mode.end)[0]


def bond_concurrences(chain: _Chain) -> list[float]:
    """Per-bond entanglement C_j = D·|det T_j|^(2/D) / Tr(T_j T_j†) of every bond
    of a qubit or qudit chain (2|αβ| for qubits; 0 for a singular filter): |det|
    and Σ|λ|² in one pass over the diagonals, then Python's ``**`` per bond
    (np.power can round differently)."""
    mags = np.abs(chain.diags)
    dim = mags.shape[1]
    return [
        0.0 if a == 0.0 else min(1.0, det_concurrence(a, s, dim))
        for a, s in zip(np.prod(mags, axis=1).tolist(), np.sum(mags ** 2, axis=1).tolist())
    ]


def _operators(chain: _Chain, node_ops, end=None) -> np.ndarray:
    """[end·]T_N U_N ··· U_1 T_0 for every choice of each U_k from the stack
    ``node_ops[k - 1]``, in digit-table order (node 1 least significant)."""
    if len(node_ops) != chain.n_nodes:
        raise ValueError(f"expected {chain.n_nodes} outcome labels, got {len(node_ops)}")
    mats = [f.matrix for f in chain.filters]
    if end is not None:  # a signed permutation (σ3): exact in the last factor
        mats[-1] = end @ mats[-1]
    layers = [[m @ u for u in ops] for m, ops in zip(mats[1:], node_ops)]
    return batched_products(mats[0], layers)


def _table(chain: _Chain, mode: _Mode) -> TradeoffReport:
    """Every outcome of ``chain`` measured in ``mode``, in digit-table order.

    weight = Tr(M M†)/dim, |det M| and concurrence are reduced once per class
    string, over the products of mode.class_ops; a row's class index Σ_k
    class(d_k)·C^k takes the smallest unsigned dtype.  prob = weight / P_sum;
    max_residual is the worst deviation of prob × concurrence from Π_j C_j / P_sum.
    """
    batch = _operators(chain, [mode.class_ops] * chain.n_nodes, mode.end)
    hs_sq = (np.abs(batch) ** 2).sum(axis=(1, 2))
    weights = hs_sq / mode.dim
    index = np.zeros(1, dtype=np.min_scalar_type(len(weights) - 1))
    classes, n_classes = np.array(mode.classes, index.dtype), len(mode.class_ops)
    for k in range(chain.n_nodes):
        index = (classes[:, None] * n_classes ** k + index).ravel()
    # w·(rows of its class) is exact (a power of two): fsum over all rows
    p_sum = math.fsum((weights * np.bincount(index, minlength=len(weights))).tolist())
    probs = weights / p_sum
    abs_dets = np.abs(batched_determinant(batch))
    conc = np.zeros(len(batch))
    nz = hs_sq > 0.0
    conc[nz] = np.minimum(1.0, det_concurrence(abs_dets[nz], hs_sq[nz], mode.dim))
    bond_cs = bond_concurrences(chain)
    constant = 0.0 if any(c == 0.0 for c in bond_cs) else math.prod(bond_cs) / p_sum
    max_residual = float(np.max(np.abs(probs[nz] * conc[nz] - constant), initial=0.0))
    digits = digit_table(len(mode.digits), chain.n_nodes, mode.digits.start)
    return TradeoffReport(constant, p_sum, max_residual, digits, index, weights, probs, conc,
                          chain, mode)


def enumerate_outcomes(chain: SwapChain) -> TradeoffReport:
    """Exact table of every Bell outcome of the chain.

    Records are ordered by the little-endian base-3 (vbs) or base-4 (plain)
    outcome integer.  prob = weight / P_sum, so probabilities always sum to
    one; the report constant Π_j C_j / P_sum equals prob × concurrence on
    every non-zero-weight record, and max_residual is the worst deviation.
    """
    check_table_budget(chain.mode, chain.n_nodes)
    return _table(chain, _MODES[chain.mode])


def _transfer(mode: _Mode, mags):
    """Run the transfer map in the diagonal sector, one bond at a time.

    Diagonal filters keep ρ diagonal under ρ → Σ_i T σ_i ρ σ_i† T†, so only
    the two diagonal entries (p, r) evolve.  ``mags`` holds (|λ_0|², |λ_1|²)
    per bond.  Yields (p, r, log_shift) after bond 0 and after every later
    bond, where the true entries are (p, r)·exp(log_shift); the shift stays
    0 until the entries threaten to leave the float range.
    """
    k, s = map(float, mode.class_sizes)
    bonds = iter(mags)
    p, r = next(bonds)
    shift = 0.0
    yield p, r, shift
    for a, b in bonds:
        p, r = a * (k * p + s * r), b * (s * p + k * r)
        tot = p + r
        if tot > 1e280 or (0.0 < tot < 1e-280):
            p /= tot
            r /= tot
            shift += math.log(tot)
        yield p, r, shift


def _transfer_diag(chain: SwapChain) -> tuple[float, float, float]:
    """(p, r, log_shift) of the transfer map over the whole chain."""
    for state in _transfer(_MODES[chain.mode], (np.abs(chain.diags) ** 2).tolist()):
        pass
    return state


def p_sum_transfer(chain: SwapChain) -> float:
    """Σ of all outcome weights via the transfer map, without enumeration.

    Equals the enumerated P_sum (iterating ρ → Σ_i T_k σ_i ρ σ_i† T_k† from
    ρ = T_0 T_0† and taking Tr/2); inf once P_sum leaves the float range —
    use log_p_sum_transfer there.
    """
    p, r, shift = _transfer_diag(chain)
    if shift == 0.0:
        return 0.5 * (p + r)
    try:
        return math.exp(shift + math.log(0.5 * (p + r)))
    except OverflowError:
        return math.inf


def log_p_sum_transfer(chain: SwapChain) -> float:
    """log P_sum, safe for chains far beyond float range."""
    p, r, shift = _transfer_diag(chain)
    return shift + math.log(0.5 * (p + r))


def tradeoff_constant(chain: SwapChain) -> float:
    """Π_j C_j / P_sum — the outcome-independent value of prob × concurrence."""
    cs = bond_concurrences(chain)
    if any(c == 0.0 for c in cs):
        return 0.0
    p, r, shift = _transfer_diag(chain)
    if shift == 0.0:
        return math.prod(cs) / (0.5 * (p + r))
    log_val = math.fsum(math.log(c) for c in cs) - shift - math.log(0.5 * (p + r))
    return math.exp(log_val)


def scan_log_constants(filt: FilterOp, n_max: int, mode: str = VBS) -> np.ndarray:
    """log tradeoff_constant of identical-filter chains for N = 1..n_max.

    One incremental transfer pass, so the whole scan costs O(n_max).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    one = SwapChain((filt,), mode)  # checks the filter's dim and the mode
    steps = _transfer(_MODES[mode], (np.abs(one.diags) ** 2).tolist() * (n_max + 1))
    c = bond_concurrences(one)[0]
    if c == 0.0:
        return np.full(n_max, -math.inf)
    next(steps)  # the lone first bond, N = 0
    log_p_sums = [shift + math.log(0.5 * (p + r)) for p, r, shift in steps]
    return np.arange(2, n_max + 2) * math.log(c) - np.array(log_p_sums)


def _draw(chain: SwapChain, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, N) uint8 outcome digits, a row per draw as in digit_table,
    by sequential sampling: suffix transfer vectors are precomputed right to
    left, then each node's digit is drawn from its conditional given the
    prefix, so no outcome table is ever materialized.  Fixed seed, same draws."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = chain.n_nodes
    mode = _MODES[chain.mode]
    k, s = mode.class_sizes
    mags = (np.abs(chain.diags) ** 2).tolist()

    # suffix[j] = diagonal of the adjoint map applied to I over nodes j+1..N,
    # normalized per step (only ratios matter for the conditionals)
    suffix = [(1.0, 1.0)] * (n + 1)
    for j in range(n, 0, -1):
        (a, b), (g0, g1) = mags[j], suffix[j]
        h0, h1 = a * g0, b * g1
        g0, g1 = k * h0 + s * h1, s * h0 + k * h1
        suffix[j - 1] = (g0 / (g0 + g1), g1 / (g0 + g1))

    # outcome c is drawn when t passes the weight n_keep·w_keep + n_swap·w_swap
    # of the outcomes before it, with the counts as exact integers
    swaps = np.array(mode.classes, dtype=bool)
    before = [(c - sum(mode.classes[:c]), sum(mode.classes[:c])) for c in range(1, len(swaps))]
    v = np.tile(np.array(mags[0])[:, None], n_samples)   # (2, n_samples)
    draws = np.empty((n_samples, n), dtype=np.uint8)
    for j in range(1, n + 1):
        (a, b), (g0, g1) = mags[j], suffix[j]
        w_keep = a * v[0] * g0 + b * v[1] * g1   # I / σz outcomes
        w_swap = a * v[1] * g0 + b * v[0] * g1   # σx / σ3 outcomes
        t = rng.random(n_samples) * (k * w_keep + s * w_swap)
        c = sum(t >= nk * w_keep + ns * w_swap for nk, ns in before)
        draws[:, j - 1] = mode.digits.start + c
        v = np.where(swaps[c], v[::-1], v)
        v[0] *= a
        v[1] *= b
        v /= v[0] + v[1]
    return draws


def sample_outcomes(chain: SwapChain, n_samples: int, seed: int = 42) -> dict:
    """Draw from the exact distribution (as _draw): each drawn index tuple and its count."""
    draws, n = _draw(chain, n_samples, seed), chain.n_nodes
    if n == 0:
        return {(): int(n_samples)}
    # one n-byte string per draw: np.unique sorts these bytewise, which is the
    # row order np.unique(draws, axis=0) gives, at a fraction of its cost
    uniq, cnt = np.unique(draws.view(f"V{n}").ravel(), return_counts=True)
    return dict(zip(struct.Struct(f"{n}B").iter_unpack(uniq), cnt.tolist()))
