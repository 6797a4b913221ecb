"""Entanglement swapping along a chain of filtered bonds, in every mode.

A chain of N+1 bonds carries N internal nodes, each measured in a Bell basis.
In ``plain`` mode the bonds are (I ⊗ T_j)|Φ+⟩ and the measurement runs over
the full four-element Bell basis (I ⊗ σ_i)|Φ+⟩, i = 0..3 with σ_0 = I,
σ_1 = σx, σ_2 = σz, σ_3 = σx·σz.  In ``vbs`` mode the bonds are singlet-like
(I ⊗ σ3 T_j)|Φ+⟩ and only the three symmetric outcomes (σ3 ⊗ σ_i)|Φ+⟩,
i = 1..3, survive the on-site symmetric projection, so the outcome weights do
not sum to one until divided by P_sum.  In ``qudit`` mode the bonds are
D-dimensional and each node is measured in the D² Weyl-Bell states
(I ⊗ X^m Z^n)|Φ+⟩; only the outcome table serves it.

Every outcome leaves the two end nodes in (I ⊗ M)|Φ+⟩ with M the ordered
chain operator; weight, probability and concurrence all come from M.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .filters import PLAIN, QUDIT, VBS, FilterOp, _rows
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
#: 4, 3, 3; a CLI swap of vbs N = 13 peaks at about 40 MiB, qudit D = 6, N = 4 at 36.
ENUMERATION_BUDGET = 6 ** 8

# Peak resident bytes per row of a CLI swap or sample, an upper fit to the tables
# of 10^6 rows and more in every mode: 23-49 B/row with the interpreter's 31 MiB,
# 3-19 B/row above it (sample's most).  No row holds an operator: one figure, any D.
_ROW_BYTES = 70


@dataclass(frozen=True, eq=False)
class _Mode:
    """A measurement mode as data: outcome ``digits[j]`` lies in shift class
    ``classes[j]``, applies the node operator ``op(digits[j])`` and is recorded as
    ``label(digits[j])``; ``end`` (σ3 for vbs, else None) multiplies every chain
    operator from the left.  Each node operator is X^c times a diagonal, c its class:
    products over one string of classes differ only by phases, so they share weight,
    |det| and concurrence, which enumerate_outcomes computes once per class string."""

    dim: int
    digits: range
    classes: tuple[int, ...]
    op: Callable[[int], np.ndarray]
    label: Callable[[int], object]
    end: np.ndarray | None = None
    # outcomes per class; qubits' (k, s) give Σ_i σ_i diag(p, r) σ_i = diag(kp + sr, sp + kr)
    class_sizes = cached_property(lambda self: tuple(np.bincount(self.classes).tolist()))

    @cached_property
    def ops(self) -> np.ndarray:
        """Every node operator in one read-only (digits, D, D) stack, made on first
        read: only final_ops and records read them."""
        ops = np.array(list(map(self.op, self.digits)))
        ops.setflags(write=False)
        return ops


_MODES = {
    # σx and σ3, the odd digits, swap |0⟩ and |1⟩: class 1
    VBS: _Mode(2, range(1, 4), (1, 0, 1), PAULI.__getitem__, int, PAULI[3]),
    PLAIN: _Mode(2, range(0, 4), (0, 1, 0, 1), PAULI.__getitem__, int),
}


def omega_power(dim: int, k: int) -> complex:
    """exp(2πi·k/dim), exactly ±1 or ±i at the quarter-circle angles: so D = 2 tables
    keep the bits of the qubit Pauli construction."""
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
    """The D² Weyl-Bell outcomes of the qudit mode: digit m·D + n applies U_mn = X^m Z^n
    (shift X|j⟩ = |j+1 mod D⟩, clock Z|j⟩ = ω^j|j⟩, ω = exp(2πi/D)), labelled (m, n), in
    shift class m, whose D members share their moduli with X^m.  A table reads the
    classes alone, D² references to D ints; U_mn and (m, n) are made only when read."""
    return _Mode(dim, range(dim * dim), tuple(m for m in range(dim) for _ in range(dim)),
                 lambda d: gen_pauli(dim, *divmod(d, dim)), lambda d: divmod(d, dim))


def _mode(name: str) -> _Mode:
    """A qubit mode's record: the Bell states, transfer map, sampler and scan serve
    vbs and plain only; a qudit chain's record is its ``record``, for its dim."""
    if name == QUDIT:
        raise ValueError("this route is qubit-only (mode vbs or plain), got mode 'qudit'; "
                         "enumerate_outcomes tabulates qudit chains")
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
class SwapChain:
    """N+1 filtered bonds in a row, measured at the N internal nodes in ``mode``: vbs or
    plain on qubits, or qudit (Weyl-Bell, complete: the weights sum to D^(2N)) on bonds
    of the first filter's dim.  Every bond is a FilterOp of that dim, and ``diags``
    holds their diagonals as one read-only (N+1, dim) array."""

    filters: tuple[FilterOp, ...]
    mode: str = VBS
    dim = property(lambda self: self.diags.shape[1])
    n_nodes = property(lambda self: len(self.filters) - 1, doc="Measured nodes: bonds minus one.")
    # the mode as data; a qudit chain's is made for its dim on first read
    record = property(lambda self: _weyl_mode(self.dim) if self.mode == QUDIT
                      else _MODES[self.mode])

    def __post_init__(self):
        filts = tuple(self.filters)
        if not filts:
            raise ValueError("a chain needs at least one bond")
        if self.mode != QUDIT:  # before any filter is rescaled
            _mode(self.mode)
        first = filts[0]
        dim = first.dim if self.mode == QUDIT and isinstance(first, FilterOp) else 2
        # one filter repeated: checked by identity, FilterOp's own __eq__, with no hashing
        one = first is filts[-1] and isinstance(first, FilterOp) and (first,) * len(filts) == filts
        bonds = filts[:1] if one else filts
        if any(not isinstance(f, FilterOp) or f.dim != dim for f in bonds):
            raise ValueError(f"all chain filters must be FilterOps of dim {dim}")
        diags = _rows(bonds)
        if len(bonds) < len(filts):  # one filter repeated: its row for every bond
            diags = np.repeat(diags, len(filts), axis=0)
        diags.flags.writeable = False
        object.__setattr__(self, "filters", filts)
        object.__setattr__(self, "diags", diags)


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

    Row b belongs to the outcome whose per-node digits are ``digits[b]`` (little-endian,
    node 1 first; the digit the CLI prints), a digit_table made on first read, which no CLI
    table does, and takes the values of its shift class ``class_index[b]``;
    ``weight``, ``prob`` and ``concurrence`` gather them on each read.  ``class_trace`` holds
    each class's Tr(M M†) exactly, as _traces gives it, and ``squares`` the chain's
    |λ|² as _squares' ints.  The first read of any concurrence, ``constant`` or
    ``max_residual`` runs _concurrences once, from these two; no operator is formed.
    ``final_ops`` multiplies out every row's own operator on each read, and
    ``records``, the per-row view, labels a digit with ``mode.label``; ``mode`` is the
    chain's record.
    """

    p_sum: float
    class_index: np.ndarray
    class_weight: np.ndarray
    class_prob: np.ndarray
    class_trace: np.ndarray
    squares: np.ndarray
    chain: SwapChain
    mode = property(lambda self: self.chain.record)
    digits = cached_property(lambda self: digit_table(
        len(self.mode.digits), self.chain.n_nodes, self.mode.digits.start))
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
        label = self.mode.label
        columns = (self.digits.tolist(), self.weight.tolist(), self.prob.tolist(),
                   self.final_ops, self.concurrence.tolist())
        return [OutcomeRecord(tuple(map(label, row)), *rest) for row, *rest in zip(*columns)]


def digit_table(base: int, n: int, offset: int = 0) -> np.ndarray:
    """(base^n, n) little-endian digits of 0..base^n − 1, each plus ``offset``, in the
    smallest unsigned dtype.  Row a·base^(k+1) + d·base^k + c holds d + offset at node
    k, so node k's column, read as (base^(n−1−k), base, base^k), takes the base digit
    values by one broadcast assignment in place: nothing but the table is allocated."""
    digits = np.empty((base ** n, n), dtype=np.min_scalar_type(base - 1 + offset))
    values = np.arange(offset, base + offset, dtype=digits.dtype)[:, None]
    for k in range(n):
        digits.reshape(base ** (n - 1 - k), base, base ** k, n)[..., k] = values
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
    mantissa, carry = f"{10 ** (log10_x - exp):.2e}".split("e")  # 9.995 and up: 1.00e+01
    return f"{mantissa}e+{exp + int(carry)}"


def budget_error(count: str, log10_count: float, unit: str, unit_bytes: int, name: str,
                 budget: int, hint: str = "") -> EnumerationBudgetError:
    """Refusal of ``count`` (10**log10_count units) with the memory they need."""
    log10_gb = log10_count + math.log10(unit_bytes) - 9
    return EnumerationBudgetError(
        f"{count} {unit}s (about {_approx(log10_gb)} GB at {unit_bytes} B/{unit}) "
        f"exceed the {name} budget of {budget} {unit}s{hint}")


def check_table_budget(mode: str, n_nodes: int, dim: int = 2) -> None:
    """Refuse an outcome table above ENUMERATION_BUDGET rows, the one row budget of every
    mode, from the mode, node count and dim alone: D² rows a node in qudit mode, which the
    table-free routes named in the error do not serve.

    Runs before anything is allocated; the error gives the row count and the
    estimated peak memory of a CLI run that renders the table.
    """
    base = dim * dim if mode == QUDIT else len(_mode(mode).digits)
    # past its bit length, base^n > 2^n > budget: never build a huge base ** n
    if n_nodes <= ENUMERATION_BUDGET.bit_length() and base ** n_nodes <= ENUMERATION_BUDGET:
        return
    hint = "" if mode == QUDIT else "; use sample_outcomes or p_sum_transfer instead"
    log10_rows = n_nodes * math.log10(base)
    raise budget_error(f"{base}^{n_nodes} = {_approx(log10_rows)} outcome", log10_rows, "row",
                       _ROW_BYTES, "enumeration", ENUMERATION_BUDGET, hint)


# kept for bench/spans.py, which wraps it: no caller in the package
def chain_operator(chain: SwapChain, indices) -> np.ndarray:
    """Ordered operator for one outcome: [σ3·]T_N U_{i_N} ··· U_{i_1} T_0."""
    mode = chain.record
    idx = [int(i) for i in indices]
    for i in idx:
        if i not in mode.digits:
            raise ValueError(f"outcome index {i} invalid for mode {chain.mode!r}")
    return _operators(chain, [[mode.op(i)] for i in idx], mode.end)[0]


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
    """(r, b), r = ⌊x^(1/D)·2^b⌋ of at least 120 bits (0 for x = 0), by math.isqrt for D = 2,
    else by Newton's method on ints from above a float estimate: r / y rounds as x^(1/D)·2^b / y."""
    if not x:
        return 0, 0
    b = max(0, 121 - x.bit_length() // dim)
    x <<= dim * b
    if dim == 2:
        return math.isqrt(x), b
    s = max(0, x.bit_length() // dim - 60)
    r = (int(math.exp(math.log(x) / dim - s * math.log(2)) * (1 + 2 ** -30)) + 2) << s
    while (z := ((dim - 1) * r + x // r ** (dim - 1)) // dim) < r:
        r = z
    return r, b


def bond_concurrences(chain: SwapChain, squares: np.ndarray | None = None) -> list[float]:
    """Per-bond entanglement C_j = D·|det T_j|^(2/D) / Tr(T_j T_j†) of every bond of a
    chain in any mode (2|αβ| for qubits; 0 for a singular filter): D·G / Σ|λ|² of
    each bond alone, G its _root of Π|λ|², rounded once; ``squares``, if given, are
    _squares' ints of the chain's diagonals."""
    squares = (_squares(chain.diags)[0] if squares is None else squares).tolist()
    return [min(1.0, len(row) * r / (sum(row) << b))
            for row, (r, b) in zip(squares, (_root(math.prod(row), len(row)) for row in squares))]


def _operators(chain: SwapChain, node_ops, end=None) -> np.ndarray:
    """[end·]T_N U_N ··· U_1 T_0 for every choice of each U_k from the stack
    ``node_ops[k - 1]``, in digit-table order (node 1 least significant)."""
    if len(node_ops) != chain.n_nodes:
        raise ValueError(f"expected {chain.n_nodes} outcome labels, got {len(node_ops)}")
    mats = np.zeros(chain.diags.shape + chain.diags.shape[1:], dtype=complex)
    mats.reshape(len(mats), -1)[:, :: mats.shape[2] + 1] = chain.diags  # each bond's diagonal
    if end is not None:  # a signed permutation (σ3): exact in the last factor
        mats[-1] = end @ mats[-1]
    layers = [m @ np.asarray(ops) for m, ops in zip(mats[1:], node_ops)]
    return batched_products(mats[0], layers)


def _traces(squares: np.ndarray, n_classes: int) -> np.ndarray:
    """Tr(M M†) of every class string exactly, node 1 least significant, from the
    chain's _squares ints: every path carries the same power of two, Π_k 2^(2·low_k).

    M is monomial: Tr(M M†) sums over r the product Π_k |λ_k|² along the path row
    r takes back through the class shifts.  From bond N down, v ← roll(v, −c)·|λ_k|²
    for every class c at once by one gather, the new node least significant.
    """
    dim = squares.shape[1]
    gather = (np.arange(n_classes)[:, None] + np.arange(dim)) % dim  # class c: s takes s + c
    v = squares[-1:]
    for row in squares[-2::-1]:
        v = (v[:, gather] * row).reshape(-1, dim)
    return v.sum(axis=1)


# tables of at most _SHAPE_ROWS rows share their shape: 32 shapes, at most 43 kB each (vbs N = 9)
_SHAPE_ROWS = 1 << 15


@lru_cache(maxsize=32)
def _shape(mode: _Mode, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only class index of an N-node table's rows and row count of each class string."""
    index = np.zeros(1, dtype=np.min_scalar_type(len(mode.class_sizes) ** n - 1))
    classes, counts = np.array(mode.classes, index.dtype), np.ones(1, np.int64)
    for _ in range(n):  # node k: C^k class strings so far, each with a count
        index = (classes[:, None] * len(counts) + index).ravel()
        counts = np.multiply.outer(mode.class_sizes, counts).ravel()
    index.flags.writeable = counts.flags.writeable = False
    return index, counts


def _concurrences(report: TradeoffReport) -> tuple[np.ndarray, list[float], float, float]:
    """A report's class concurrences, bond concurrences, constant Π_j C_j / P_sum and
    max_residual, the worst |prob × C − constant|.  Every M is monomial, so |det M|^(2/D)
    is G = (Π_k Π_i |λ_k,i|²)^(1/D) in every class: C = min(1, D·G / Tr(M M†)), G by
    _root over _squares' ints, which carry Tr's power of two, so C is rounded once."""
    chain, dim, traces = report.chain, report.mode.dim, report.class_trace
    r, b = _root(math.prod(report.squares.ravel().tolist()), dim)
    conc = (np.minimum(1.0, (dim * r / (traces << b)).astype(float)) if r
            else np.zeros(len(traces)))
    bond_cs = bond_concurrences(chain, report.squares)
    constant = 0.0 if any(c == 0.0 for c in bond_cs) else math.prod(bond_cs) / report.p_sum
    max_residual = float(np.max(np.abs(report.class_prob * conc - constant), initial=0.0))
    return conc, bond_cs, constant, max_residual


def enumerate_outcomes(chain: SwapChain) -> TradeoffReport:
    """Exact table of every Bell outcome of the chain, in any mode.

    Records are ordered by the little-endian base-3 (vbs), base-4 (plain) or
    base-D² (qudit, per-node digit m·D + n) outcome integer.  prob = weight / P_sum,
    so probabilities always sum to one; the report constant Π_j C_j / P_sum equals
    prob × concurrence on every non-zero-weight record, and max_residual is the worst
    deviation.  The budget is checked before a qudit chain's mode record is made.

    The chain's |λ|² are squared once, and Tr(M M†) is reduced once per class string
    by _traces, exactly; the report keeps both for _concurrences.  A row's class
    index Σ_k class(d_k)·C^k takes the smallest unsigned dtype (_shape).  weight = Tr/D,
    P_sum = Σ over rows of the weights and prob = weight / P_sum are each the exact
    value rounded once (Python's int division).
    """
    check_table_budget(chain.mode, chain.n_nodes, chain.dim)
    mode = chain.record
    squares, low = _squares(chain.diags)
    traces, shift = _traces(squares, len(mode.class_sizes)), -2 * int(low.sum())
    shape = _shape if len(mode.digits) ** chain.n_nodes <= _SHAPE_ROWS else _shape.__wrapped__
    index, counts = shape(mode, chain.n_nodes)
    total = sum(t * c for t, c in zip(traces.tolist(), counts.tolist()))
    weights = (traces / (mode.dim << shift)).astype(float)
    return TradeoffReport(total / (mode.dim << shift), index, weights,
                          (traces / total).astype(float), traces, squares, chain)


def _transfer(chain: SwapChain) -> tuple[float, float]:
    """(P, log_shift), P_sum = P·exp(log_shift), by the transfer map over a qubit chain.

    Diagonal filters keep ρ diagonal under ρ → Σ_i T σ_i ρ σ_i† T†, so only the two
    diagonal entries (p, r) evolve, from bond 0's (|λ_0|², |λ_1|²), the rows of
    np.abs(chain.diags) ** 2, to P = (p + r)/2 after the last bond.  The shift stays 0
    until they threaten to leave the float range.
    """
    k, s = map(float, _mode(chain.mode).class_sizes)
    squares = np.abs(chain.diags) ** 2
    (p, r), shift = squares[0].tolist(), 0.0
    for a, b in zip(*squares[1:].T.tolist()):
        p, r = a * (k * p + s * r), b * (s * p + k * r)
        tot = p + r
        if tot > 1e280 or (0.0 < tot < 1e-280):
            p /= tot
            r /= tot
            shift += math.log(tot)
    return 0.5 * (p + r), shift


def p_sum_transfer(chain: SwapChain) -> float:
    """Σ of all outcome weights via the transfer map, without enumeration.

    Equals the enumerated P_sum (iterating ρ → Σ_i T_k σ_i ρ σ_i† T_k† from
    ρ = T_0 T_0† and taking Tr/2); inf once P_sum leaves the float range —
    use log_p_sum_transfer there.
    """
    p_sum, shift = _transfer(chain)
    if shift == 0.0:
        return p_sum
    try:
        return math.exp(shift + math.log(p_sum))
    except OverflowError:
        return math.inf


def log_p_sum_transfer(chain: SwapChain) -> float:
    """log P_sum, safe for chains far beyond float range."""
    p_sum, shift = _transfer(chain)
    return shift + math.log(p_sum)


def _transfer_concurrences(mods: np.ndarray) -> list[float]:
    """C_j = 2|λ_0||λ_1| / (|λ_0|² + |λ_1|²) of every qubit bond in floats, from a chain's
    moduli |λ|, which the transfer map squares: no square of a product underflows."""
    return (2.0 * mods[:, 0] * mods[:, 1] / (mods * mods).sum(axis=1)).tolist()


def tradeoff_constant(chain: SwapChain) -> float:
    """Π_j C_j / P_sum — the outcome-independent value of prob × concurrence."""
    p_sum, shift = _transfer(chain)
    cs = _transfer_concurrences(np.abs(chain.diags))
    if any(c == 0.0 for c in cs):
        return 0.0
    if shift == 0.0:
        return math.prod(cs) / p_sum
    return math.exp(math.fsum(math.log(c) for c in cs) - shift - math.log(p_sum))


def _two_sum(x, y):
    """(x + y rounded, its rounding error), both exact: Knuth's branch-free TwoSum."""
    total = x + y
    back = total - x
    return total, (x - (total - back)) + (y - back)


def _ln(x):
    """ln x of a positive Decimal to 40 digits: math.log gives only a first estimate y (as in
    _root); e = x·exp(−y) − 1 has |e| < 1e-12, so ln x = y + e − e²/2 + e³/3 to 1e-47."""
    y = type(x)(math.log(float(x.scaleb(-x.adjusted()))) + x.adjusted() * math.log(10.0))
    e = x * (-y).exp() - 1
    return y + e - e * e / 2 + e * e * e / 3


def _line(n_max: int, s_hi: float, s_lo: float, c_hi: float, c_lo: float):
    """(total, low) of N·s_hi + c_hi by _two_sum for N = 1..n_max (N·s_hi exact), with
    N·s_lo + c_lo added to its error: in place, in total and in one (4, n_max) block."""
    total, (x, low, back, tv) = np.arange(1.0, n_max + 1), np.empty((4, n_max))
    np.add(np.multiply(total, s_lo, out=low), c_lo, out=low)
    np.subtract(np.add(np.multiply(total, s_hi, out=x), c_hi, out=total), x, out=back)
    x -= np.subtract(total, back, out=tv)
    return total, np.add(low, np.add(x, np.subtract(c_hi, back, out=back), out=x), out=low)


def scan_log_constants(filt: FilterOp, n_max: int, mode: str = VBS) -> np.ndarray:
    """log tradeoff_constant of identical-filter chains for N = 1..n_max, in closed form.

    With the bond's (a, b) = |λ|², P_sum(N) = ½·1ᵀA^N v₀ for A = diag(a, b)·[[k, s], [s, k]]
    and v₀ = (a, b).  A's eigenvalues ρ₊ > |ρ₋| give r = ρ₋/ρ₊, w± = 1ᵀ(A − ρ∓)v₀ and
    q = −w₋/w₊: log K(N) = N·S + C₀ − log1p(q·r^N), S = log c − log ρ₊ and
    C₀ = log c − log(w₊ / (2(ρ₊ − ρ₋))), taken to 40 digits once with q·r and r (each log by
    _ln: a float estimate, corrected by one exp).  Every N then costs a few float + − ×: _line's
    N·S + C₀, log1p's series while |q·r^N| > 2⁻⁶⁶.  So each entry is the value for the float
    (a, b) and c within about half an ulp.
    """
    from decimal import Decimal, localcontext

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not isinstance(filt, FilterOp) or filt.dim != 2:
        raise ValueError("all chain filters must be FilterOps of dim 2")
    k, s = _mode(mode).class_sizes
    mods = np.abs(filt.diag)[None]  # c and (a, b) as _transfer and tradeoff_constant take them
    (a, b), c = (mods ** 2)[0].tolist(), _transfer_concurrences(mods)[0]
    if c == 0.0:
        return np.full(n_max, -math.inf)
    with localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(a), Decimal(b)
        rho = (k * (a + b) + (k * k * (a - b) ** 2 + 4 * s * s * a * b).sqrt()) / 2
        r = a * b * (k * k - s * s) / rho / rho  # ρ₋/ρ₊ from the roots' product: no cancellation
        av, tr = k * (a * a + b * b) + 2 * s * a * b, a + b  # 1ᵀA v₀ and 1ᵀv₀
        w_p, qw = av - r * rho * tr, (rho * tr - av) * r  # w₊, and −w₋·r for q·r
        slope, c0 = _ln(Decimal(c) / rho), _ln(2 * Decimal(c) * rho * (1 - r) / w_p)
        big = float(slope) * (2.0 ** n_max.bit_length() + 1)  # Veltkamp's split
        s_hi, c_hi = big - (big - float(slope)), float(c0)
        s_lo, c_lo, qr, r = map(float, (slope - Decimal(s_hi), c0 - Decimal(c_hi), qw / w_p, r))
    total, low = _line(n_max, s_hi, s_lo, c_hi, c_lo)
    # −log1p(−y) = y + y²(1/2 + y/3 + … + y⁸/10) for y = −q·r^N: |r| <= 1/3 in vbs and r = 0 in
    # plain, so |q·r| < 0.006, every later y is below 2^-66 by N = 38, the remainder < 2^-84
    tops, lows, y, m = total[:64].tolist(), low[:64].tolist(), -qr, 0
    while m < len(tops) and abs(y) > 2.0 ** -66:
        tops[m], err = _two_sum(tops[m], y)
        lows[m] += err + y * y * (0.5 + y * (1 / 3 + y * (0.25 + y * (0.2 + y * (1 / 6 + y * (
            1 / 7 + y * (0.125 + y * (1 / 9 + y * 0.1))))))))
        m, y = m + 1, y * r
    total[:m], low[:m] = tops[:m], lows[:m]
    return np.add(total, low, out=total)


def _draw(chain: SwapChain, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, N) uint8 outcome digits, a row per draw as in digit_table (the
    transposed view of a node-major buffer), by sequential sampling: suffix transfer
    vectors are precomputed right to left, then each node's digit is drawn from its
    conditional given the prefix.  Fixed seed, the draws of tests/reference.py."""
    mode = _mode(chain.mode)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = chain.n_nodes
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
