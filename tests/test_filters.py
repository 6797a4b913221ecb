"""Diagonal bond filters: normalization convention, bond states, concurrence."""

import math
import re
import sys

import numpy as np
import pytest

from reference import reduced_density

from bondswap.filters import PLAIN, VBS, FilterOp, make_filter, random_filter
from bondswap.linalg import state_from_operator
from bondswap.qubit import (
    SwapChain,
    bell_state,
    bond_concurrences,
    chain_operator,
    check_table_budget,
    scan_log_constants,
)
from bondswap.qudit import QuditChain, enumerate_qudit_outcomes
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


def two_check_make_filter(diag) -> FilterOp:
    """make_filter as it was before it checked once: check and normalize,
    then build the FilterOp through __post_init__, which checks again."""
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


OUT_OF_RANGE = [[1e-200, 1e-200], [1e-170, 1e-170], [1e200, 1e200], [1e160, 1], [1e-160, 0],
                [1e-320, 0], [5e-324, 5e-324], [1.5e308 + 1.5e308j, 1], [1e-150, 1], [1e150, 1]]
SIGNED_ZEROS = [[-0.0, 1], [1, -0.0j], [complex(-0.0, -0.0), 2], [0.0, -1], [1, 0]]


class TestMakeFilterBits:
    """make_filter checks once and still returns the bits of the two-check code."""

    @pytest.mark.parametrize("raw", OUT_OF_RANGE + SIGNED_ZEROS, ids=repr)
    @pytest.mark.parametrize("kind", [list, tuple, np.array, iter])
    def test_edge_inputs(self, raw, kind):
        assert bit_identical(make_filter(kind(raw)), two_check_make_filter(kind(raw)))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_inputs(self, rng, dim):
        for _ in range(200):
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for entries in (raw, raw.real, raw.tolist(), tuple(raw.real.tolist())):
                assert bit_identical(make_filter(entries), two_check_make_filter(entries))
            gen = (z for z in raw)
            assert bit_identical(make_filter(gen), two_check_make_filter(raw))

    @pytest.mark.parametrize(
        "raw", [[1.0], [], [0.0, -0.0], [1.0, np.nan], [np.inf, 1.0], [np.nan, np.inf]]
    )
    def test_same_errors(self, raw):
        with pytest.raises(ValueError) as want:
            two_check_make_filter(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            make_filter(raw)

    def test_direct_filterop_keeps_its_check(self):
        with pytest.raises(ValueError, match="not bond-normalized"):
            FilterOp(2, np.array([1.0, 0.5], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            FilterOp(2, np.array([np.nan, 1.0], dtype=complex))


def bond_state(f, convention=PLAIN):
    """(I ⊗ M)|Φ+⟩ for the operator M of a chain of one bond and no measured
    node: M = T, or σ3·T in the vbs convention.  Not renormalized."""
    if f.dim == 2:
        m = chain_operator(SwapChain((f,), convention), ())
    else:
        m = enumerate_qudit_outcomes(QuditChain(f.dim, (f,))).final_ops[0]
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
    return bond_concurrences(QuditChain(f.dim, (f,)))[0]


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
            f = random_filter(rng, dim=2, lo=0.1)
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
        with pytest.raises(ValueError, match="qubit"):
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

    def test_random_filter_is_normalized_and_regular(self, rng):
        for _ in range(30):
            f = random_filter(rng, dim=3)
            assert np.sum(np.abs(f.diag) ** 2) == pytest.approx(3.0, rel=1e-12)
            assert np.min(np.abs(f.diag)) > 0.0
