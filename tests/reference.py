"""Independent per-bond and per-state routes that the tests compare the package against."""

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

import numpy as np


def bond_concurrence(f) -> float:
    """Entanglement D·|det T|^(2/D) / Tr(T T†) of one filter's bond, one bond at a
    time: 2|αβ| for qubits, 0 for a singular filter, 1 iff all |λ_j| are equal."""
    abs_det = float(np.prod(np.abs(f.diag)))
    if abs_det == 0.0:
        return 0.0
    ssq = float(np.sum(np.abs(f.diag) ** 2))
    return min(1.0, f.dim * abs_det ** (2.0 / f.dim) / ssq)


def digit_table_reference(base: int, n: int, offset: int = 0) -> np.ndarray:
    """``qubit.digit_table`` by the construction it replaced: a row counter divided
    by the base once per node, ``np.divmod``'s remainder the node's digit."""
    b = np.arange(base ** n)
    digits = np.empty((b.size, n), dtype=np.min_scalar_type(base - 1 + offset))
    for k in range(n):
        b, digits[:, k] = np.divmod(b, base)
    digits += offset
    return digits


def index_strings_reference(digits: np.ndarray, head: str, tail: str) -> list[str]:
    """One string per row of a digit table, as the CLI rendered whole tables before
    it printed the index from the table's shape: ``head``, node k's digit as
    character k of ``cli._DIGITS``, then ``tail``, of at least one character in all."""
    from bondswap.cli import _DIGITS

    h, n = len(head), digits.shape[1]
    # the code points of a row, filled in place, read as one numpy U<width> string each
    codes = np.empty((len(digits), h + n + len(tail)), dtype=np.uint32)
    codes[:] = list(map(ord, head + "0" * n + tail))
    codes[:, h : h + n] = np.array(list(map(ord, _DIGITS)), dtype=np.uint32)[digits]
    return codes.view(f"U{codes.shape[1]}").ravel().tolist()


def verify_suite_reference(seed: int) -> list[list]:
    """CLI ``verify``'s default suite as first written: one ``random_filter`` call per
    bond from one generator, two chains each of 1, 2 and 3 internal nodes."""
    from bondswap.filters import random_filter

    rng = np.random.default_rng(seed)
    return [[random_filter(rng, 2) for _ in range(n + 1)] for n in (1, 1, 2, 2, 3, 3)]


def unit_state(state):
    """``state`` divided by its norm; the zero state has none and is refused."""
    n = state.norm()
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return type(state)(state.dims, state.amplitudes / n)


def reduced_density(state, keep: int) -> np.ndarray:
    """Reduced density matrix of party ``keep`` (0 or 1) of a two-party pure state."""
    amps = state.amplitudes.reshape(state.dims)
    if keep:
        amps = amps.T
    return amps @ amps.conj().T


def draw_reference(chain, n_samples: int, seed: int) -> np.ndarray:
    """The sequential sampler one numpy expression at a time, as ``qubit._draw``
    was first written: (n_samples, N) uint8 digits that ``_draw`` must equal bit
    for bit.  Suffix transfer vectors are precomputed right to left, then each
    node's digit is drawn from its conditional given the prefix."""
    from bondswap.qubit import _MODES

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


def vbs_state_reference(filters) -> np.ndarray:
    """The oracle's chain amplitudes as ``vbs.build_vbs_state`` was first written:
    a zeroed bond vector per filter, multiplied out by ``np.outer``, then the
    4×4 symmetric projector on every internal pair by ``np.einsum``.  The package
    must equal these bit for bit, up to the signs of zeros."""
    from bondswap.vbs import symmetric_projector

    psi = np.ones(1, dtype=complex)
    for f in filters:
        bond = np.zeros(4, dtype=complex)
        bond[1] = f.diag[0] / np.sqrt(2.0)
        bond[2] = -f.diag[1] / np.sqrt(2.0)
        psi = np.outer(psi, bond).ravel()
    proj = symmetric_projector()
    for k in range(1, len(filters)):
        block = psi.reshape(2 ** (2 * k - 1), 4, -1)
        psi = np.einsum("pq,aqb->apb", proj, block).reshape(-1)
    return psi / np.linalg.norm(psi)


def peel_pairs_reference(amps: np.ndarray, bras) -> np.ndarray:
    """``vbs._peel_pairs`` by ``np.tensordot``, as first written: the pair-k
    rows ``bras[k-1]`` contracted against the leftmost remaining pair."""
    batch = amps.reshape(1, -1)
    for bra in bras:
        block = batch.reshape(len(batch), 2, 4, -1)
        batch = np.tensordot(bra, block, axes=([1], [2])).reshape(-1, 2 * block.shape[3])
    return batch.reshape(-1, 2, 2)


def full_route_columns(report):
    """weight, prob, concurrence, p_sum, constant and max_residual reduced
    from every row's own operator (``report.final_ops``), with fsum over every
    row: the table route that multiplies out each outcome on its own, with its
    own determinant concurrence D·|det M|^(2/D) / Tr(M M†) and bond_concurrence.
    Where |det M| is no positive normal float it has lost bits (or LU met a zero
    pivot), so this route has no concurrence there: such a row reads NaN, and
    max_residual is taken over the other rows."""
    from bondswap.linalg import batched_determinant

    dim = report.mode.dim
    batch = report.final_ops
    hs_sq = (np.abs(batch) ** 2).sum(axis=(1, 2))
    weights = hs_sq / dim
    p_sum = math.fsum(weights.tolist())
    probs = weights / p_sum
    abs_dets = np.abs(batched_determinant(batch))
    conc = np.zeros(len(batch))
    nz = hs_sq > 0.0
    ok = nz & (abs_dets >= sys.float_info.min)
    conc[ok] = np.minimum(1.0, dim * abs_dets[ok] ** (2.0 / dim) / hs_sq[ok])
    conc[nz & ~ok] = np.nan
    cs = [bond_concurrence(f) for f in report.chain.filters]
    constant = 0.0 if any(c == 0.0 for c in cs) else math.prod(cs) / p_sum
    max_residual = float(np.max(np.abs(probs[ok] * conc[ok] - constant), initial=0.0))
    return weights, probs, conc, p_sum, constant, max_residual


# the shift of each qubit node operator σ_i (i = 0..3: I, σx, σz, σx·σz): 1 iff it holds σx
PAULI_SHIFTS = np.array([0, 1, 0, 1])


def digit_shifts(digits: np.ndarray, dim: int, weyl: bool = False) -> np.ndarray:
    """Each node's shift for a table's digits: σ_i's for a qubit chain (vbs and
    plain digits name the Pauli), m for the Weyl digit m·D + n of U_mn = X^m Z^n
    (a qudit chain, ``weyl`` or D > 2)."""
    return digits // dim if weyl or dim > 2 else PAULI_SHIFTS[digits]


def exact_monomial_table(chain, shifts: np.ndarray):
    """Exact weights, as Fractions, of the monomial chain operators
    M = [end·]T_N U_N ··· U_1 T_0: (the distinct weights, each row's index
    into them, the common |det M|²).

    Row r's node k applies U_k, which sends |j⟩ to a unimodular multiple of
    |j + shifts[r, k] mod D⟩, so column j of M has the squared modulus
    Π_k |λ_k(j + m_1 + ··· + m_k)|² with |λ|² = re² + im² of the stored
    diagonal, exactly.  The weight Tr(M M†)/D is the mean of these over j, a
    function of the row's shifts alone, and |det M|² = Π_k Π_i |λ_k,i|² for
    every row."""
    totals, denominator, index, det_sq = _exact_paths(chain, shifts)
    return [Fraction(t, denominator) for t in totals], index, det_sq


def _exact_paths(chain, shifts: np.ndarray):
    """exact_monomial_table's weights as integers over one common denominator:
    (numerators, denominator, index, |det M|²)."""
    mags = [[Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in row]
            for row in chain.diags.tolist()]
    dim, n = len(mags[0]), shifts.shape[1]
    # every denominator is a power of two: scaled to integers, paths multiply exactly
    scale = max(m.denominator for row in mags for m in row)
    ints = [[m.numerator * (scale // m.denominator) for m in row] for row in mags]
    keys, index = np.unique(shifts.astype(np.int64) @ dim ** np.arange(n), return_inverse=True)
    totals = []
    for row in ([key // dim ** k % dim for k in range(n)] for key in keys.tolist()):
        total = 0
        for j in range(dim):
            w = ints[0][j]
            for m, lam in zip(row, ints[1:]):
                j = (j + m) % dim
                w *= lam[j]
            total += w
        totals.append(total)
    det_sq = math.prod(math.prod(row) for row in mags)
    return totals, dim * scale ** len(ints), index.ravel(), det_sq


def _decimal(p: int, q: int) -> Decimal:
    """p/q (ints, q > 0) as a Decimal of the context's precision, from the leading
    256 bits of each and an exact power of two (relative error below 2^-250)."""
    a, b = max(p.bit_length() - 256, 0), max(q.bit_length() - 256, 0)
    return Decimal(p >> a) / Decimal(q >> b) * Decimal(2) ** (a - b)


def decimal_concurrences(weights, det_sq: Fraction, dim: int, prec: int = 50) -> list[Decimal]:
    """D·|det M|^(2/D) / Tr(M M†) = (|det M|²)^(1/D) / weight for each weight (a
    Fraction or a (numerator, denominator) pair of ints), at most 1 and 0 for a
    zero weight, as ``prec``-digit Decimals."""
    with localcontext() as ctx:
        ctx.prec = prec
        def dec(f):
            return _decimal(*f) if isinstance(f, tuple) else _decimal(f.numerator, f.denominator)
        root = (dec(det_sq).ln() / dim).exp() if det_sq else Decimal(0)
        return [min(Decimal(1), root / w) if w else Decimal(0) for w in map(dec, weights)]


def exact_columns(report, prec: int = 50):
    """Exact weight and prob, as (numerator, denominator) pairs of ints, and
    ``prec``-digit concurrence of each distinct shift string of ``report``'s rows,
    and each row's index into them: (weights, probs, concurrences, index)."""
    dim = report.mode.dim
    weyl = report.chain.mode == "qudit"  # D = 2 included
    totals, denominator, index, det_sq = _exact_paths(report.chain,
                                                      digit_shifts(report.digits, dim, weyl))
    p_sum = sum(t * m for t, m in zip(totals, np.bincount(index).tolist()))
    weights = [(t, denominator) for t in totals]
    probs = [(t, p_sum) for t in totals]
    return weights, probs, decimal_concurrences(weights, det_sq, dim, prec), index


# The table kernel computes every Tr(M M†) and P_sum exactly, in integers, and
# rounds weight, prob and p_sum once; a concurrence's root is taken to 120 bits
# first.  Each lies within half an ulp of its exact value: the margin covers that
# truncation and ulp_errors' own rounding.
ROUNDED_ONCE = 0.5 + 1e-9


def ulp_errors(got: np.ndarray, exact: list, index: np.ndarray) -> np.ndarray:
    """|got[r] − exact[index[r]]| per row r in units in the last place of the
    float nearest the exact value (a Fraction, a (numerator, denominator) pair of
    ints, or a Decimal).  Taken as (got − nearest)/ulp, exact in floats while got
    lies within a factor two of it, plus the nearest float's own offset from the
    exact value."""
    near, ulp, offset = np.empty((3, len(exact)))
    with localcontext() as ctx:
        ctx.prec = 50
        for k, e in enumerate(exact):
            if isinstance(e, Decimal):
                near[k] = f = float(e)
                ulp[k] = u = math.ulp(f)
                offset[k] = float((Decimal(f) - e) / Decimal(u))
                continue
            p, q = e if isinstance(e, tuple) else (e.numerator, e.denominator)
            near[k] = f = p / q  # correctly rounded
            ulp[k] = u = math.ulp(f)
            (a, b), (c, d) = f.as_integer_ratio(), u.as_integer_ratio()
            offset[k] = (a * q - p * b) * d / (b * q * c)  # (f − p/q)/u, rounded once
    return np.abs((np.asarray(got) - near[index]) / ulp[index] + offset[index])


def decimal_scan(squares, c: float, sizes, ns, prec: int = 60) -> list[Decimal]:
    """(N+1)·ln c − ln P_N for each N of the increasing ``ns``, as ``prec``-digit Decimals:
    P_N = ½·(p + r) once the identical-bond recursion (p, r) ← (a·(k·p + s·r), b·(s·p + k·r))
    has run N times from (a, b) = ``squares``, the floats the scan reads, with (k, s) = ``sizes``.

    (p, r) is renormalized after each step by an exact power of ten, whose exponents add
    up.  A gap between two requested N is crossed by squaring the step's 2×2 matrix, in
    Decimal's widest exponent range, so an N far out costs about log2 of its gap in
    matrix products."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = prec, MAX_EMAX, MIN_EMIN
        (a, b), (k, s) = map(Decimal, squares), sizes
        v, shift, done, out = (a, b), 0, 0, []
        log_c, ln10 = Decimal(c).ln(), Decimal(10).ln()
        for n in ns:
            gap, step = n - done, ((a * k, a * s), (b * s, b * k))
            while gap:  # v ← step^gap·v, one bit of the gap at a time
                if gap & 1:
                    v = (step[0][0] * v[0] + step[0][1] * v[1],
                         step[1][0] * v[0] + step[1][1] * v[1])
                    e = max(x.adjusted() for x in v)
                    v, shift = (v[0].scaleb(-e), v[1].scaleb(-e)), shift + e
                (p, q), (u, w) = step
                step = ((p * p + q * u, p * q + q * w), (u * p + w * u, u * q + w * w))
                gap >>= 1
            done = n
            out.append((n + 1) * log_c - ((v[0] + v[1]) / 2).ln() - shift * ln10)
    return out
