"""Diagonal bond filters: normalization convention, bond states, concurrence."""

import copy
import dataclasses
import math
import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from reference import reduced_density

from bondswap import filters
from bondswap.filters import PLAIN, QUDIT, VBS, FilterOp, make_filter, random_filter
from bondswap.linalg import state_from_operator
from bondswap.qubit import (
    SwapChain,
    bell_state,
    bond_concurrences,
    chain_operator,
    check_table_budget,
    scan_log_constants,
)
from bondswap.qudit import enumerate_qudit_outcomes
from bondswap.vbs import build_vbs_state


class TestMakeFilter:
    def test_balanced_qubit_filter_is_identity(self):
        f = make_filter([1.0, 1.0])
        assert np.allclose(f.diag, [1.0, 1.0], atol=1e-15)
        assert f.scale == pytest.approx(1.0)

    def test_two_one_filter_rescales_to_sqrt_two_fifths(self):
        f = make_filter([2.0, 1.0])
        s = math.sqrt(2.0 / 5.0)
        assert np.allclose(f.diag, [2.0 * s, s], atol=1e-15)
        # scale restores the caller's numbers
        assert np.allclose(f.scale * f.diag, [2.0, 1.0], atol=1e-15)

    def test_qutrit_filter_with_a_zero(self):
        f = make_filter([1.0, 1.0, 0.0])
        s = math.sqrt(3.0 / 2.0)
        assert np.allclose(f.diag, [s, s, 0.0], atol=1e-15)

    def test_normalization_sum_rule(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            f = make_filter(raw)
            assert np.sum(np.abs(f.diag) ** 2) == pytest.approx(d, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            make_filter([1.0])
        with pytest.raises(ValueError):
            make_filter([0.0, 0.0])
        with pytest.raises(ValueError, match="all-zero"):
            make_filter([0.0, -0.0, 0j])
        with pytest.raises(ValueError):
            make_filter([1.0, np.nan])

    @pytest.mark.parametrize(
        "raw",
        [[1e-200, 1e-200], [1e-170, 1e-170], [1e200, 1e200], [1e160, 1], [1e-160, 0]],
    )
    def test_sum_of_squares_outside_the_normal_range(self, raw):
        # Σ|λ|² underflows to 0, is subnormal or overflows to inf for these
        f = make_filter(raw)
        FilterOp(f.dim, f.diag, f.scale)  # the second check accepts it
        back = f.scale * f.diag
        for got, want in zip(back, raw):
            assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("raw, like", [([1e-320, 0], [1, 0]), ([5e-324, 5e-324], [1, 1])])
    def test_subnormal_entries(self, raw, like):
        assert np.array_equal(make_filter(raw).diag, make_filter(like).diag)

    def test_entry_whose_modulus_overflows(self):
        # both parts are finite, |λ| = 2.1e308 is not
        f = make_filter([1.5e308 + 1.5e308j, 1])
        assert f.diag[0] == 1 + 1j and f.scale == 1.5e308

    def test_tiny_balanced_filter_is_the_identity_filter(self):
        f = make_filter([1e-200, 1e-200])
        assert np.array_equal(f.diag, make_filter([1, 1]).diag)
        assert f.scale == 1e-200

    def test_filterop_requires_normalized_diag(self):
        with pytest.raises(ValueError):
            FilterOp(2, np.array([2.0, 1.0], dtype=complex), 1.0)

    def test_matrix_is_diagonal(self):
        f = make_filter([2.0, 1.0j])
        m = f.matrix
        assert np.allclose(np.diag(np.diag(m)), m)
        assert np.allclose(np.diag(m), f.diag)


def make_filter_reference(diag) -> FilterOp:
    """make_filter as it was before it deferred and checked once: check and rescale
    one row at once, then build the FilterOp through __post_init__, which checks again."""
    entries = np.asarray(list(diag), dtype=complex).reshape(-1)
    if entries.size < 2:
        raise ValueError("a filter needs at least two diagonal entries")
    if not np.isfinite(entries).all():
        raise ValueError("filter diagonal must be finite")
    with np.errstate(over="ignore"):
        ssq = float(np.sum(np.abs(entries) ** 2))
    peak = 1.0
    if not sys.float_info.min <= ssq < math.inf:
        parts = entries.view(float)
        peak = float(np.max(np.abs(parts)))
        if peak == 0.0:
            raise ValueError("all-zero filter diagonal has no bond state")
        entries = (parts / peak).view(complex)
        ssq = float(np.sum(np.abs(entries) ** 2))
    scale = float(np.sqrt(ssq / entries.size))
    return FilterOp(dim=entries.size, diag=entries / scale, scale=peak * scale)


def bit_identical(got: FilterOp, want: FilterOp) -> bool:
    return (
        got.dim == want.dim
        and got.diag.dtype == want.diag.dtype
        and got.diag.tobytes() == want.diag.tobytes()
        and float.hex(got.scale) == float.hex(want.scale)
        and not got.diag.flags.writeable
    )


def assert_same_result(raw, kind=lambda raw: raw):
    """make_filter returns the bits of make_filter_reference, or its error, each given
    its own ``kind(raw)``."""
    try:
        want = make_filter_reference(kind(raw))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            make_filter(kind(raw))
    else:
        assert bit_identical(make_filter(kind(raw)), want)


OUT_OF_RANGE = [[1e-200, 1e-200], [1e-170, 1e-170], [1e200, 1e200], [1e160, 1], [1e-160, 0],
                [1e-320, 0], [5e-324, 5e-324], [1.5e308 + 1.5e308j, 1], [1e-150, 1], [1e150, 1]]
SIGNED_ZEROS = [[-0.0, 1], [1, -0.0j], [complex(-0.0, -0.0), 2], [0.0, -1], [1, 0]]


def _real(raw) -> np.ndarray:
    return np.array(raw, dtype=complex).real


def _float32(raw) -> np.ndarray:
    with np.errstate(over="ignore"):  # 1e200 is inf in float32, and 1e-200 is 0
        return _real(raw).astype(np.float32)


# every kind of input make_filter reads, each made from one edge row: a row's values,
# its real parts in a narrower or integer dtype, or the same values in another layout
INPUT_KINDS = {
    "list": list,
    "tuple": tuple,
    "array": np.array,
    "iter": iter,
    "float32": _float32,
    # above 2^53, where int64 -> float64 rounds: ±(2^62 + 2^53 + 1), ±(2^62 + 2^54 + 1), ...
    "int64": lambda raw: np.sign(_real(raw)).astype(np.int64)
    * (2 ** 62 + 2 ** np.arange(53, 53 + len(raw), dtype=np.int64) + 1),
    "bool": lambda raw: np.array(raw, dtype=complex) != 0,
    "object": lambda raw: np.array(raw, dtype=object),
    "column": lambda raw: np.array(raw, dtype=complex)[:, None],
    "reversed": lambda raw: np.array(raw[::-1], dtype=complex)[::-1],
    "numpy-scalars": lambda raw: list(np.array(raw, dtype=complex)),
}


def corpus(name: str, dim: int) -> list:
    """The raw rows of one TestMakeFilterBits corpus at ``dim``, in its order."""
    if name == "edge":  # qubit rows only
        return [np.array(raw, dtype=complex) for raw in OUT_OF_RANGE + SIGNED_ZEROS] * (dim == 2)
    if name == "random":  # the rng fixture's stream
        rng = np.random.default_rng(20260814)
        raws = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(200)]
        return [entries for raw in raws for entries in (raw, raw.real)]
    if name == "log-uniform":
        rng = np.random.default_rng(dim)
        mags = 10.0 ** rng.uniform(-160, 160, (60, dim))
        raws = mags * np.exp(2j * np.pi * rng.random((60, dim)))
        return [entries for raw in raws for entries in (raw, raw.real)]
    if name == "square-overflow":
        # m·m first overflows above √DBL_MAX; a sum can overflow below it
        rng = np.random.default_rng(100 + dim)
        edge = math.sqrt(sys.float_info.max)
        steps = [edge * (1 + k * sys.float_info.epsilon) for k in range(-3, 4)]
        steps += [edge / math.sqrt(n) for n in range(2, dim + 1)]
        rows = []
        for _ in range(40):
            raw = rng.choice(steps, dim) * np.exp(2j * np.pi * rng.random(dim))
            raw[rng.random(dim) < 0.3] = rng.uniform(0.5, 2.0)
            rows += [raw, np.abs(raw)]
        return rows
    assert name == "subnormal"  # moduli about 1e-160 give Σ|λ|² below the normal range, or 0
    rng = np.random.default_rng(200 + dim)
    return list(10.0 ** rng.uniform(-170, -154, (60, dim)) * rng.choice([1, -1, 1j], (60, dim)))


CORPORA = ["edge", "random", "log-uniform", "square-overflow", "subnormal"]
# every corpus at qubit and qudit dims 2..8; edge rows are qubit rows
ONE_CHAIN_CASES = [(name, dim) for name in CORPORA for dim in range(2, 9) if corpus(name, dim)]


def one_chain_matches(name: str, dim: int) -> bool:
    """Whether the rows of corpus ``name`` at ``dim``, new filters of one chain (a vbs
    SwapChain for qubits, else a qudit one), get make_filter_reference's bits: in the
    chain's diags and in every filter."""
    rows = corpus(name, dim)
    filts = tuple(make_filter(raw) for raw in rows)
    chain = SwapChain(filts, VBS if dim == 2 else QUDIT)
    want = [make_filter_reference(raw) for raw in rows]
    return (chain.diags.tobytes() == b"".join(w.diag.tobytes() for w in want)
            and all(bit_identical(f, w) for f, w in zip(filts, want)))


def one_pass_mismatches() -> tuple:
    """Every corpus and qubit or qudit dim whose one-chain rows differ from the reference's."""
    return tuple(f"{name} {dim}" for name, dim in ONE_CHAIN_CASES
                 if not one_chain_matches(name, dim))


def count_normalized_rows(monkeypatch) -> list:
    """The row count of every later _normalize call, in order."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return normalize(rows)

    normalize = filters._normalize
    monkeypatch.setattr(filters, "_normalize", counted)
    return calls


class TestMakeFilterBits:
    """make_filter, rescaled alone, returns the bits of the reference."""

    @pytest.mark.parametrize("raw", OUT_OF_RANGE + SIGNED_ZEROS, ids=repr)
    @pytest.mark.parametrize("kind", INPUT_KINDS.values(), ids=INPUT_KINDS)
    def test_edge_inputs(self, raw, kind):
        assert_same_result(raw, kind)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_random_inputs(self, dim):
        for raw in corpus("random", dim)[::2]:  # the complex rows
            for entries in (raw, raw.real, raw.tolist(), tuple(raw.real.tolist())):
                assert bit_identical(make_filter(entries), make_filter_reference(entries))
            gen = (z for z in raw)
            assert bit_identical(make_filter(gen), make_filter_reference(raw))

    @pytest.mark.parametrize(
        "raw", [[1.0], [], [0.0, -0.0], [1.0, np.nan], [np.inf, 1.0], [np.nan, np.inf]]
    )
    def test_same_errors(self, raw):
        with pytest.raises(ValueError) as want:
            make_filter_reference(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            make_filter(raw)

    # Σ|λ|² is added left to right below 8 terms and by numpy's pairwise sum from 8
    # on; sizes 2..16 pin both (as test_random_inputs does for normal rows)
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_log_uniform_moduli(self, dim):
        for raw in corpus("log-uniform", dim):
            assert_same_result(raw)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_moduli_either_side_of_the_square_overflow(self, dim):
        for raw in corpus("square-overflow", dim):
            assert_same_result(raw)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_subnormal_sums_of_squares(self, dim):
        for raw in corpus("subnormal", dim):
            assert_same_result(raw)

    def test_strided_input_outside_the_normal_range(self):
        # a column of a complex array: make_filter reads it as the same diagonal
        raw = np.array([[1e-200, 0], [1e-200, 0]], dtype=complex)[:, 0]
        assert bit_identical(make_filter(raw), make_filter_reference(raw))

    def test_direct_filterop_keeps_its_check(self):
        with pytest.raises(ValueError, match="not bond-normalized"):
            FilterOp(2, np.array([1.0, 0.5], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            FilterOp(2, np.array([np.nan, 1.0], dtype=complex))

    def test_direct_filterop_holds_its_own_diagonal(self):
        raw = np.array([1.0, 1.0], dtype=complex)
        f = FilterOp(2, raw)
        raw[0] = 5.0
        assert f.diag.tolist() == [1.0, 1.0] and raw.flags.writeable

    @pytest.mark.parametrize("dim", [2, 8, 9])
    def test_direct_filterop_with_an_overflowing_square(self, dim):
        # Σ|λ|² is inf: the error, and no overflow warning before it
        diag = np.array([1e200] + [1.0] * (dim - 1), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not bond-normalized"):
                FilterOp(dim, diag)


class TestOnePassBits:
    """A chain rescales its new filters in one _normalize pass, with the bits each
    gets alone: proven on every TestMakeFilterBits corpus, rows of mixed range side
    by side."""

    @pytest.mark.parametrize("name, dim", ONE_CHAIN_CASES)
    def test_corpus_as_one_chain(self, name, dim, monkeypatch):
        calls = count_normalized_rows(monkeypatch)
        assert one_chain_matches(name, dim)
        assert calls == [len(corpus(name, dim))]

    def test_mixed_chain(self, monkeypatch):
        # one filter read before it joins, one never read, one repeated
        raws = corpus("log-uniform", 3)[:3]
        read, never, repeated = (make_filter(raw) for raw in raws)
        assert bit_identical(read, make_filter_reference(raws[0]))
        calls = count_normalized_rows(monkeypatch)
        chain = SwapChain((repeated, read, repeated, never, repeated), QUDIT)
        assert calls == [4]  # a row at each place of the repeated filter
        want = [make_filter_reference(raws[i]).diag for i in (2, 0, 2, 1, 2)]
        assert chain.diags.tobytes() == b"".join(row.tobytes() for row in want)
        assert bit_identical(never, make_filter_reference(raws[1]))
        assert bit_identical(repeated, make_filter_reference(raws[2]))

    def test_filter_shared_by_two_chains_has_one_row(self, monkeypatch):
        shared, first, second = (make_filter(raw) for raw in ([2, 1j], [1e200, 1], [1, 1]))
        calls = count_normalized_rows(monkeypatch)
        a = SwapChain((shared, first), VBS)
        b = SwapChain((second, shared, shared), PLAIN)
        assert calls == [2, 1]  # shared is rescaled once, with the first chain
        assert a.diags[0].tobytes() == b.diags[1].tobytes() == b.diags[2].tobytes()
        assert bit_identical(shared, make_filter_reference([2, 1j]))
        assert np.shares_memory(shared.diag, a.diags)


class TestDeferredFilter:
    """make_filter only checks and copies; the filter is rescaled on first need."""

    def test_make_filter_defers_the_rescaling(self):
        f = make_filter([2, 1j])
        assert set(vars(f)) == {"dim", "_raw"}
        assert f.dim == 2
        f.scale  # the first read of diag or scale rescales
        assert set(vars(f)) == {"dim", "diag", "scale"}  # the raw row is gone
        assert bit_identical(f, make_filter_reference([2, 1j]))

    def test_reading_diag_rescales_and_reading_dim_does_not(self):
        raw = [1e-170, 3j]
        f = make_filter(raw)
        for _ in range(2):
            assert f.dim == 2
            assert set(vars(f)) == {"dim", "_raw"}
        diag = f.diag  # through FilterOp.diag's descriptor: rescaled alone, the same bits
        assert set(vars(f)) == {"dim", "diag", "scale"}
        assert diag is f.diag
        assert bit_identical(f, make_filter_reference(raw))

    def test_chain_drops_the_raw_rows(self):
        filts = (make_filter([2, 1]), make_filter([1, 3j]))
        SwapChain(filts, VBS)
        assert all(set(vars(f)) == {"dim", "diag", "scale"} for f in filts)

    def test_input_is_copied(self):
        raw = np.array([2.0, 1.0j])
        f = make_filter(raw)
        raw[0] = 7.0
        assert bit_identical(f, make_filter_reference([2.0, 1.0j]))

    @pytest.mark.parametrize("use", [
        repr, copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f)),
        lambda f: dataclasses.replace(f),
    ], ids=["repr", "copy", "deepcopy", "pickle", "replace"])
    def test_protocols_before_the_rescaling(self, use):
        want = make_filter_reference([1e-170, 3j])
        f = make_filter([1e-170, 3j])
        out = use(f)
        if isinstance(out, str):
            assert out == repr(want)
        else:
            assert bit_identical(out, want)
        assert bit_identical(f, want)

    def test_missing_attributes_still_raise(self):
        f = make_filter([1, 1])
        with pytest.raises(AttributeError, match="'FilterOp' object has no attribute 'phase'"):
            f.phase
        assert not hasattr(f, "phase") and "diag" not in vars(f)

    def test_repeated_filter_is_one_row(self, monkeypatch):
        f = make_filter([0.3, 1 - 2j])
        calls = count_normalized_rows(monkeypatch)
        chain = SwapChain((f,) * 20001, VBS)
        assert calls == [1]
        assert chain.diags.shape == (20001, 2) and not chain.diags.flags.writeable
        assert (chain.diags == f.diag).all()

    def test_threads_share_new_filters(self):
        # chains built at once in many threads from the same new filters: each filter
        # is rescaled once, every chain holds the reference rows, and no thread fails
        raws = corpus("log-uniform", 2)[:8]
        want = b"".join(make_filter_reference(raw).diag.tobytes() for raw in raws)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                filts = tuple(make_filter(raw) for raw in raws)
                results = []
                threads = [threading.Thread(target=lambda: results.append(
                    SwapChain(filts, VBS).diags.tobytes())) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [want] * len(threads)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("repeat", [True, False], ids=["one filter", "mixed"])
    def test_unknown_mode_is_refused_before_the_rescaling(self, repeat):
        f = make_filter([2, 1])
        bonds = (f, f, f) if repeat else (f, make_filter([1, 3j]), f)
        with pytest.raises(ValueError, match="^unknown mode 'twisted'$"):
            SwapChain(bonds, "twisted")
        assert all("_raw" in vars(b) for b in bonds)

    def test_chain_refuses_an_unhashable_bond(self):
        with pytest.raises(ValueError, match="all chain filters must be FilterOps of dim 2"):
            SwapChain(([1, 1], make_filter([1, 1])), VBS)

    @pytest.mark.parametrize("bond", [[1, 1], np.ones(2), "ab"], ids=["list", "array", "str"])
    def test_foreign_bond_between_one_filter(self, bond):
        # the first bond is also the last, so the chain checks for one filter repeated
        # first: by identity, so the foreign bond gets the usual error, not its own
        f = make_filter([2, 1])
        with pytest.raises(ValueError, match="^all chain filters must be FilterOps of dim 2$"):
            SwapChain((f, bond, f), VBS)

    def test_foreign_bond_is_never_compared(self):
        calls = []

        class Spy:
            def __eq__(self, other):
                calls.append(other)
                return NotImplemented

            __hash__ = object.__hash__

        f = make_filter([2, 1])
        for bonds in ((f, Spy(), f), (f, f, Spy(), f)):
            with pytest.raises(ValueError, match="FilterOps of dim 2"):
                SwapChain(bonds, PLAIN)
        assert calls == []
        assert (f == np.ones(2)) is False and f == f and f != make_filter([2, 1])

    def test_one_filter_repeated_is_not_hashed(self):
        class Unhashed(FilterOp):
            def __hash__(self):
                raise AssertionError("a bond was hashed")

        f = make_filter([0.3, 1 - 2j])
        object.__setattr__(f, "__class__", Unhashed)
        chain = SwapChain((f,) * 101, VBS)
        assert chain.diags.shape == (101, 2) and (chain.diags == f.diag).all()


def bond_state(f, convention=PLAIN):
    """(I ⊗ M)|Φ+⟩ for the operator M of a chain of one bond and no measured
    node: M = T, or σ3·T in the vbs convention.  Not renormalized."""
    if f.dim == 2:
        m = chain_operator(SwapChain((f,), convention), ())
    else:
        m = enumerate_qudit_outcomes(SwapChain((f,), QUDIT)).final_ops[0]
    return state_from_operator(m, f.dim)


class TestBondState:
    def test_plain_identity_bond_is_phi_plus(self):
        psi = bond_state(make_filter([1, 1]), PLAIN)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_vbs_two_one_bond_by_hand(self):
        # sigma3·diag(2s, s) maps the pair onto (2|01> - |10>)/sqrt(5)
        f = make_filter([2, 1])
        psi = bond_state(f, VBS)
        expect = np.array([0, 2, -1, 0]) / np.sqrt(5)
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)
        # the oracle's bond (λ0|01⟩ − λ1|10⟩)/√2 is the same state
        oracle_bond = np.array([0, f.diag[0], -f.diag[1], 0]) / np.sqrt(2)
        assert np.allclose(psi.amplitudes, oracle_bond, atol=1e-12)

    def test_singular_plain_qutrit_bond_is_product(self):
        psi = bond_state(make_filter([1, 0, 0]), PLAIN)
        expect = np.zeros(9)
        expect[0] = 1.0
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_normalized_for_random_bonds(self, rng):
        # Σ|λ|² = dim makes every bond state normalized without rescaling
        for _ in range(50):
            d = int(rng.integers(2, 6))
            f = random_filter(rng, dim=d)
            for convention in (PLAIN, VBS) if d == 2 else (PLAIN,):
                psi = bond_state(f, convention)
                assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def one_bond_concurrence(f) -> float:
    """bond_concurrences of the one-bond chain of ``f``."""
    return bond_concurrences(SwapChain((f,), QUDIT))[0]


class TestBondConcurrence:
    def test_identity_bond_is_maximal(self):
        assert one_bond_concurrence(make_filter([1, 1])) == pytest.approx(1.0)

    def test_two_one_bond(self):
        # 2|ab| with (a, b) = (2, 1)/sqrt(5) -> 4/5
        c = one_bond_concurrence(make_filter([2, 1]))
        assert c == pytest.approx(0.8, abs=1e-15)

    def test_singular_bond_carries_none(self):
        assert one_bond_concurrence(make_filter([1, 0])) == 0.0

    @pytest.mark.parametrize("convention", [PLAIN, VBS])
    def test_matches_reduced_density_route(self, rng, convention):
        # independent route: C = 2*sqrt(det rho_A) for the pure bond state
        # (I ⊗ T)|Φ+⟩, or (I ⊗ σ3 T)|Φ+⟩ in the vbs convention
        end = np.array([[0, -1], [1, 0]]) if convention == VBS else np.eye(2)
        for _ in range(100):
            f = make_filter(rng.uniform(0.1, 1.0, 2) * np.exp(2j * np.pi * rng.random(2)))
            rho = reduced_density(state_from_operator(end @ f.matrix, 2), 0)
            want = 2.0 * math.sqrt(max(np.linalg.det(rho).real, 0.0))
            assert one_bond_concurrence(f) == pytest.approx(want, abs=1e-12)

    def test_range_and_maximality(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            c = one_bond_concurrence(random_filter(rng, dim=d))
            assert 0.0 <= c <= 1.0
        # all magnitudes equal -> maximal, regardless of phases
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        assert one_bond_concurrence(make_filter(phases)) == pytest.approx(
            1.0, abs=1e-10
        )
        # any magnitude imbalance strictly lowers it
        c = one_bond_concurrence(make_filter([1.0, 1.0, 0.9]))
        assert c < 1.0 - 1e-4


class TestBondValidation:
    def test_vbs_requires_qubits(self):
        f = make_filter([1, 1, 1])
        with pytest.raises(ValueError):
            SwapChain((f,), VBS)
        with pytest.raises(ValueError, match="FilterOps of dim 2"):
            build_vbs_state((f, f))
        with pytest.raises(ValueError, match="FilterOps of dim 2"):
            scan_log_constants(f, 2, VBS)

    def test_unknown_convention(self):
        f = make_filter([1, 1])
        with pytest.raises(ValueError):
            SwapChain((f,), "twisted")
        with pytest.raises(ValueError, match="unknown mode 'twisted'"):
            bell_state("twisted", 1)
        with pytest.raises(ValueError, match="unknown mode 'twisted'"):
            scan_log_constants(f, 2, "twisted")
        with pytest.raises(ValueError, match="unknown mode 'twisted'"):
            check_table_budget("twisted", 1)

    @pytest.mark.parametrize("build, message", [
        (lambda: FilterOp(3, np.ones(2)), "need a diagonal of length dim >= 2, got 2"),
    ])
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_random_filter_is_normalized_and_regular(self, rng):
        for _ in range(30):
            f = random_filter(rng, dim=3)
            assert np.sum(np.abs(f.diag) ** 2) == pytest.approx(3.0, rel=1e-12)
            assert np.min(np.abs(f.diag)) > 0.0
