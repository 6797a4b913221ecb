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
from .linalg import EnumerationBudgetError, StateVector, batched_products

_ID = np.eye(2, dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_ID, _SX, _SZ, _SX @ _SZ)
for _p in PAULI:
    _p.flags.writeable = False

_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

#: Largest outcome table any mode will materialize, in rows: 6^8 = 36^4.  It
#: admits vbs N <= 13, plain N <= 10 and qudit D = 2..8 up to N = 10, 6, 5, 4,
#: 4, 3, 3; a CLI swap of the largest (qudit D = 6, N = 4) peaks at about 80 MiB.
ENUMERATION_BUDGET = 6 ** 8

# Peak resident bytes per row of a CLI swap or sample, an upper fit to the tables
# of 10^6 rows and more in every mode: 50-67 B/row with the interpreter's 31 MiB,
# 31-40 B/row above it.  No row holds an operator, so one figure serves every D.
_ROW_BYTES = 70


@dataclass(frozen=True, eq=False)
class _Mode:
    """A measurement mode as data: outcome ``digits[j]`` applies the node
    operator ``ops[j]`` and is recorded as ``labels[digits[j]]``; ``end`` (σ3
    for vbs, else None) multiplies every chain operator from the left.  Each
    node operator is a shift times a diagonal, and its class is the shift:
    products over one string of classes differ only by phases, so they share
    weight, |det| and concurrence, which _table computes once per class string."""

    dim: int
    digits: range
    ops: tuple[np.ndarray, ...]
    labels: tuple
    end: np.ndarray | None = None

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """Each outcome's class: its operator's shift, the row of the nonzero entry
        in column 0.  σx and σ3 (class 1) swap |0⟩, |1⟩; U_mn lies in class m."""
        return tuple(int(np.flatnonzero(u[:, 0])[0]) for u in self.ops)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """Outcomes per class; for qubits (k, s), so that
        Σ_i σ_i diag(p, r) σ_i = diag(k·p + s·r, s·p + k·r) over all outcomes."""
        return tuple(map(self.classes.count, range(max(self.classes) + 1)))


_MODES = {
    VBS: _Mode(2, range(1, 4), PAULI[1:], tuple(range(4)), PAULI[3]),
    PLAIN: _Mode(2, range(0, 4), PAULI, tuple(range(4))),
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
    """Outcome table held per class, the bond concurrences and the outcome-independent prob × C.

    Row b belongs to the outcome whose per-node digits are ``digits[b]``
    (little-endian, node 1 first; the digit the CLI prints) and takes the
    values of its shift class ``class_index[b]`` (see _table); ``weight``,
    ``prob`` and ``concurrence`` gather them on each read.  ``class_trace`` holds
    each class's Tr(M M†) exactly, as _traces gives it.  The first read of any concurrence,
    ``constant`` or ``max_residual`` runs _concurrences once, from the chain's
    diagonals and ``class_trace``; no operator is formed.
    ``final_ops`` multiplies out every row's own operator on each read, and
    ``records``, the per-row view, labels a digit with ``mode.labels``.
    """

    p_sum: float
    digits: np.ndarray
    class_index: np.ndarray
    class_weight: np.ndarray
    class_prob: np.ndarray
    class_trace: tuple
    chain: _Chain
    mode: _Mode
    weight = property(lambda self: self.class_weight[self.class_index])
    prob = property(lambda self: self.class_prob[self.class_index])
    concurrence = property(lambda self: self.class_concurrence[self.class_index])
    _stage = cached_property(lambda self: _concurrences(self))
    class_concurrence = property(lambda self: self._stage[0])
    bond_concurrences = property(lambda self: self._stage[1])
    constant = property(lambda self: self._stage[2])
    max_residual = property(lambda self: self._stage[3])

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


def budget_error(count: str, log10_count: float, unit: str, unit_bytes: int, name: str,
                 budget: int, hint: str = "") -> EnumerationBudgetError:
    """Refusal of ``count`` (10**log10_count units) with the memory they need."""
    log10_gb = log10_count + math.log10(unit_bytes) - 9
    return EnumerationBudgetError(
        f"{count} {unit}s (about {_approx(log10_gb)} GB at {unit_bytes} B/{unit}) "
        f"exceed the {name} budget of {budget} {unit}s{hint}")


def check_budget(base: int, n: int, hint: str = "") -> None:
    """Refuse a base^n-row outcome table above ENUMERATION_BUDGET rows, the one
    row budget of every mode.

    Runs before anything is allocated; the error gives the row count and the
    estimated peak memory of a CLI run that renders the table.
    """
    # past its bit length, base^n > 2^n > budget: never build a huge base ** n
    if n <= ENUMERATION_BUDGET.bit_length() and base ** n <= ENUMERATION_BUDGET:
        return
    log10_rows = n * math.log10(base)
    raise budget_error(f"{base}^{n} = {_approx(log10_rows)} outcome", log10_rows, "row",
                       _ROW_BYTES, "enumeration", ENUMERATION_BUDGET, hint)


def check_table_budget(mode: str, n_nodes: int) -> None:
    """enumerate_outcomes's budget check, from the mode and node count alone."""
    check_budget(len(_mode(mode).digits), n_nodes,
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


def _squares(diags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|λ|² = re² + im² of each entry exactly: (ints, low), an object array of Python
    ints and each bond's power of two, |λ|² = int·2^(2·low), low the least exponent of
    the 53-bit integers that the bond's parts are."""
    m, e = np.frexp(diags.view(float).reshape(*diags.shape, 2))
    e -= 53
    low = e.min(axis=(1, 2))
    ints = np.ldexp(m, 53).astype(np.int64).astype(object) << (e - low[:, None, None]).astype(object)
    return (ints * ints).sum(axis=2), low


def _root(x: int, dim: int) -> tuple[int, int]:
    """(r, b), r = ⌊x^(1/D)·2^b⌋ of at least 120 bits (0 for x = 0), by Newton's method
    on ints from just above a float estimate: r / y then rounds as x^(1/D)·2^b / y."""
    if not x:
        return 0, 0
    b = max(0, 121 - x.bit_length() // dim)
    x <<= dim * b
    s = max(0, x.bit_length() // dim - 60)
    r = (int(math.exp(math.log(x) / dim - s * math.log(2)) * (1 + 2 ** -30)) + 2) << s
    while (z := ((dim - 1) * r + x // r ** (dim - 1)) // dim) < r:
        r = z
    return r, b


def bond_concurrences(chain: _Chain) -> list[float]:
    """Per-bond entanglement C_j = D·|det T_j|^(2/D) / Tr(T_j T_j†) of every bond of a
    qubit or qudit chain (2|αβ| for qubits; 0 for a singular filter): D·G / Σ|λ|² of
    each bond alone, G its _root of Π|λ|², rounded once."""
    squares, dim = _squares(chain.diags)[0].tolist(), chain.diags.shape[1]
    return [min(1.0, dim * r / (sum(row) << b))
            for row, (r, b) in zip(squares, (_root(math.prod(row), dim) for row in squares))]


def _operators(chain: _Chain, node_ops, end=None) -> np.ndarray:
    """[end·]T_N U_N ··· U_1 T_0 for every choice of each U_k from the stack
    ``node_ops[k - 1]``, in digit-table order (node 1 least significant)."""
    if len(node_ops) != chain.n_nodes:
        raise ValueError(f"expected {chain.n_nodes} outcome labels, got {len(node_ops)}")
    mats = np.zeros(chain.diags.shape + chain.diags.shape[1:], dtype=complex)
    mats.reshape(len(mats), -1)[:, :: mats.shape[2] + 1] = chain.diags  # each bond's diagonal
    if end is not None:  # a signed permutation (σ3): exact in the last factor
        mats[-1] = end @ mats[-1]
    layers = [m @ np.array(ops) for m, ops in zip(mats[1:], node_ops)]
    return batched_products(mats[0], layers)


def _traces(diags: np.ndarray, n_classes: int) -> tuple[np.ndarray, int]:
    """Tr(M M†) of every class string exactly, as (ints, shift), Tr = int·2^-shift,
    node 1 least significant.

    M is monomial: Tr(M M†) sums over r the product Π_k |λ_k|² along the path row
    r takes back through the class shifts.  From bond N down, v ← roll(v, −c)·|λ_k|²
    for every class c at once by one gather, the new node least significant, over
    _squares' ints: every path carries the same power of two, Π_k 2^(2·low_k).
    """
    squares, low = _squares(diags)
    dim = squares.shape[1]
    gather = (np.arange(n_classes)[:, None] + np.arange(dim)) % dim  # class c: s takes s + c
    v = squares[-1:]
    for row in squares[-2::-1]:
        v = (v[:, gather] * row).reshape(-1, dim)
    return v.sum(axis=1), -2 * int(low.sum())


def _table(chain: _Chain, mode: _Mode) -> TradeoffReport:
    """Every outcome of ``chain`` measured in ``mode``, in digit-table order.

    Tr(M M†) is reduced once per class string by _traces, exactly, and the report
    keeps it for _concurrences; a row's class index Σ_k class(d_k)·C^k takes the
    smallest unsigned dtype.  weight = Tr/D, P_sum = Σ over rows of the weights and
    prob = weight / P_sum are each the exact value rounded once (Python's int
    division).
    """
    n_classes, dim = len(mode.class_sizes), mode.dim
    traces, shift = _traces(chain.diags, n_classes)
    index = np.zeros(1, dtype=np.min_scalar_type(len(traces) - 1))
    classes = np.array(mode.classes, index.dtype)
    for k in range(chain.n_nodes):
        index = (classes[:, None] * n_classes ** k + index).ravel()
    total = int(traces @ np.bincount(index, minlength=len(traces)).astype(object))
    weights = (traces / (dim << shift)).astype(float)
    digits = digit_table(len(mode.digits), chain.n_nodes, mode.digits.start)
    return TradeoffReport(total / (dim << shift), digits, index, weights,
                          (traces / total).astype(float), traces, chain, mode)


def _concurrences(report: TradeoffReport) -> tuple[np.ndarray, list[float], float, float]:
    """A report's class concurrences, bond concurrences, constant Π_j C_j / P_sum and
    max_residual, the worst |prob × C − constant|.  Every M is monomial, so |det M|^(2/D)
    is G = (Π_k Π_i |λ_k,i|²)^(1/D) in every class: C = min(1, D·G / Tr(M M†)), G by
    _root over _squares' ints, which carry Tr's power of two, so C is rounded once."""
    chain, dim, traces = report.chain, report.mode.dim, report.class_trace
    r, b = _root(math.prod(_squares(chain.diags)[0].ravel().tolist()), dim)
    conc = (np.minimum(1.0, (dim * r / (traces << b)).astype(float)) if r
            else np.zeros(len(traces)))
    bond_cs = bond_concurrences(chain)
    constant = 0.0 if any(c == 0.0 for c in bond_cs) else math.prod(bond_cs) / report.p_sum
    max_residual = float(np.max(np.abs(report.class_prob * conc - constant), initial=0.0))
    return conc, bond_cs, constant, max_residual


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


def _transfer_concurrences(chain: SwapChain) -> list[float]:
    """C_j = 2|λ_0||λ_1| / (|λ_0|² + |λ_1|²) of every qubit bond in floats, from the
    moduli the transfer map squares: no square of a product underflows."""
    mods = np.abs(chain.diags)
    return (2.0 * mods[:, 0] * mods[:, 1] / (mods * mods).sum(axis=1)).tolist()


def tradeoff_constant(chain: SwapChain) -> float:
    """Π_j C_j / P_sum — the outcome-independent value of prob × concurrence."""
    cs = _transfer_concurrences(chain)
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
    c = _transfer_concurrences(one)[0]
    if c == 0.0:
        return np.full(n_max, -math.inf)
    next(steps)  # the lone first bond, N = 0
    log_p_sums = [shift + math.log(0.5 * (p + r)) for p, r, shift in steps]
    return np.arange(2, n_max + 2) * math.log(c) - np.array(log_p_sums)


def _draw(chain: SwapChain, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, N) uint8 outcome digits, a row per draw as in digit_table (the
    transposed view of a node-major buffer), by sequential sampling: suffix transfer
    vectors are precomputed right to left, then each node's digit is drawn from its
    conditional given the prefix.  Fixed seed, the draws of tests/reference.py."""
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

    # outcome c is drawn when t passes the weight n_keep·w_keep + n_swap·w_swap of the
    # outcomes before it, with the counts as exact integers; the odd digits (σx, σ3) swap
    cl = mode.classes
    before = [(c - sum(cl[:c]), sum(cl[:c])) for c in range(1, len(cl))]
    v = np.tile(np.array(mags[0])[:, None], n_samples)   # (2, n_samples)
    p, (w_keep, w_swap), (t, tmp) = bufs = np.empty((3, 2, n_samples))
    spare = np.empty(n_samples)
    v_bits, p_bits, mask = v.view(np.uint64), p.view(np.uint64), t.view(np.uint64)
    ge = np.empty(n_samples, dtype=np.uint8)
    # node-major: contiguous writes, and one transposed copy costs less than strided ones
    draws = np.full((n, n_samples), mode.digits.start, dtype=np.uint8)

    def weigh(ck, cs):  # ck·w_keep + cs·w_swap into tmp, rounded as the reference's
        return np.add(np.multiply(w_keep, ck, out=tmp), np.multiply(w_swap, cs, out=spare), out=tmp)

    # each node's (a, b) and (g0, g1) as columns, its floats rounded as the reference's
    for row, ab, g in zip(draws, np.array(mags)[1:, :, None], np.array(suffix)[1:, :, None]):
        np.multiply(v[::-1], ab, out=p)   # p = (a·v1, b·v0)
        v *= ab
        np.add(*np.multiply(v, g, out=bufs[2]), out=w_keep)   # I / σz outcomes
        np.add(*np.multiply(p, g, out=bufs[2]), out=w_swap)   # σx / σ3 outcomes
        np.multiply(weigh(k, s), rng.random(out=t), out=t)
        for nk, ns in before:
            row += np.greater_equal(t, weigh(nk, ns), out=ge.view(bool)).view(np.uint8)
        np.negative(np.bitwise_and(row, 1, out=ge), mask, dtype=np.uint64)  # all ones: v takes p
        v_bits ^= np.bitwise_and(np.bitwise_xor(v_bits, p_bits, out=p_bits), mask, out=p_bits)
        v /= np.add(*v, out=tmp)
    return draws.T


def sample_outcomes(chain: SwapChain, n_samples: int, seed: int = 42) -> dict:
    """Draw from the exact distribution (as _draw): each drawn index tuple and its count."""
    draws, n = _draw(chain, n_samples, seed), chain.n_nodes
    if n == 0:
        return {(): int(n_samples)}
    # one n-byte string per draw: np.unique sorts these bytewise, which is the
    # row order np.unique(draws, axis=0) gives, at a fraction of its cost
    uniq, cnt = np.unique(np.ascontiguousarray(draws).view(f"V{n}").ravel(), return_counts=True)
    return dict(zip(struct.Struct(f"{n}B").iter_unpack(uniq), cnt.tolist()))
