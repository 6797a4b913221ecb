"""Low-level linear algebra: kron, states, batched products and determinants, fidelity."""

import re

import numpy as np
import pytest

from conftest import kron, random_complex_matrix, random_unitary
from reference import reduced_density, unit_state

from bondswap.linalg import (
    StateVector,
    batched_determinant,
    batched_products,
    fidelity_up_to_phase,
    state_from_operator,
)


def kron_by_hand(a, b):
    """Index-loop tensor product, the oracle for the vectorised version."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_matches_index_loop_oracle(self, rng):
        a = random_complex_matrix(rng, 2)
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.allclose(kron(a, b), kron_by_hand(a, b), atol=1e-12)

    def test_associative(self, rng):
        for _ in range(20):
            a = random_complex_matrix(rng, 2)
            b = random_complex_matrix(rng, 3)
            c = random_complex_matrix(rng, 2)
            lhs = kron(kron(a, b), c)
            rhs = kron(a, kron(b, c))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_identity_factor(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = kron(np.eye(1), m)
        assert np.allclose(out, m)


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), np.zeros(3, dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector((2,), np.array([np.inf, 0.0], dtype=complex))

    def test_norm_and_normalized(self):
        psi = StateVector((2,), np.array([3.0, 4.0], dtype=complex))
        assert psi.norm() == pytest.approx(5.0)
        unit = unit_state(psi)
        assert unit.is_normalized(1e-12)
        assert np.allclose(unit.amplitudes, [0.6, 0.8])

    @pytest.mark.parametrize("build, message", [
        (lambda: state_from_operator(np.ones(2), 2), "expected a 2-D matrix, got shape (2,)"),
        (lambda: state_from_operator([[1.0, np.nan], [0.0, 1.0]], 2),
         "matrix entries must be finite"),
        (lambda: StateVector((0,), []), "invalid subsystem dimensions (0,)"),
    ])
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_amplitudes_read_only(self):
        psi = StateVector((2,), np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0


class TestStateFromOperator:
    def test_identity_gives_maximally_entangled_pair(self):
        psi = state_from_operator(np.eye(2), 2)
        expect = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_sigma_x_gives_triplet(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        psi = state_from_operator(sx, 2)
        expect = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_norm_square_is_hs_norm_over_dim(self, rng):
        for d in (2, 3, 4):
            m = random_complex_matrix(rng, d)
            psi = state_from_operator(m, d)
            hs = np.sum(np.abs(m) ** 2)
            assert psi.norm() ** 2 == pytest.approx(hs / d, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reduced_densities_follow_operator(self, rng, d):
        # keep=[0] must give M^T conj(M) / tr, keep=[1] gives M M† / tr
        for _ in range(12):
            m = random_complex_matrix(rng, d)
            psi = unit_state(state_from_operator(m, d))
            tr = np.trace(m @ m.conj().T).real
            first = reduced_density(psi, 0)
            second = reduced_density(psi, 1)
            assert np.allclose(first, m.T @ m.conj() / tr, atol=1e-12)
            assert np.allclose(second, m @ m.conj().T / tr, atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            state_from_operator(np.eye(3), 2)


class TestBatchedHelpers:
    def test_products_match_sequential_loop(self, rng):
        seed = random_complex_matrix(rng, 2)
        layers = [
            np.stack([random_complex_matrix(rng, 2) for _ in range(3)])
            for _ in range(2)
        ]
        out = batched_products(seed, layers)
        assert out.shape == (9, 2, 2)
        # digit order: the earliest layer varies fastest (little-endian)
        for code in range(9):
            i1, i2 = code % 3, code // 3
            want = layers[1][i2] @ layers[0][i1] @ seed
            assert np.allclose(out[code], want, atol=1e-12), code

    def test_batched_determinant_matches_scalar(self, rng):
        mats = np.stack([random_complex_matrix(rng, 2) for _ in range(5)])
        dets = batched_determinant(mats)
        for k in range(5):
            assert dets[k] == pytest.approx(np.linalg.det(mats[k]), rel=1e-12)


class TestDeterminant:
    """batched_determinant, the determinant every outcome table reduces with."""

    def test_two_by_two_closed_form(self, rng):
        mats = np.stack([random_complex_matrix(rng, 2) for _ in range(6)])
        want = [m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in mats]
        assert batched_determinant(mats) == pytest.approx(want, rel=1e-14)

    def test_permutation_sign_oracle_for_cyclic_shift(self):
        # det of a cyclic shift on d letters is the sign of the permutation,
        # i.e. (-1)**(d - 1), and its square has det 1: exact hand answers.
        for d in range(2, 7):
            shift = np.zeros((d, d))
            for j in range(d):
                shift[(j + 1) % d, j] = 1.0
            got = batched_determinant(np.stack([shift, shift @ shift]))
            assert got == pytest.approx([(-1.0) ** (d - 1), 1.0], abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_multiplicative(self, rng, d):
        a = np.stack([random_complex_matrix(rng, d) for _ in range(4)])
        b = np.stack([random_complex_matrix(rng, d) for _ in range(4)])
        want = batched_determinant(a) * batched_determinant(b)
        assert batched_determinant(a @ b) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_singular_first_factor_gives_exact_zeros(self, rng, d):
        # a dead level zeroes a column of every product exactly, so a singular
        # outcome's |det| is 0.0 and its concurrence exactly 0
        first = np.diag([1.0] + [0.0] * (d - 1))
        layers = [np.stack([random_complex_matrix(rng, d) for _ in range(3)])] * 2
        dets = batched_determinant(batched_products(first, layers))
        assert dets.shape == (9,) and np.all(dets == 0.0)


class TestFidelity:
    def test_phase_invariance(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        a = StateVector((2, 2), amps)
        b = StateVector((2, 2), np.exp(0.7j) * amps)
        assert fidelity_up_to_phase(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = StateVector((2,), np.array([1.0, 0.0], dtype=complex))
        b = StateVector((2,), np.array([0.0, 1.0], dtype=complex))
        assert fidelity_up_to_phase(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dims_must_match(self):
        a = StateVector((2,), np.array([1.0, 0.0], dtype=complex))
        b = StateVector((4,), np.array([1.0, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            fidelity_up_to_phase(a, b)
