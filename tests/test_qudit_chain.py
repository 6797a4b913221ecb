"""Weyl shift-clock operators and qudit swap chains of arbitrary dimension."""

import cmath
import itertools
import math

import numpy as np
import pytest

from bondswap.filters import PLAIN, Bond, bond_concurrence, bond_state, make_filter, random_filter
from bondswap.linalg import EnumerationBudgetError, determinant, state_from_operator
from bondswap.qubit import SwapChain, bell_state, enumerate_outcomes
from bondswap.qudit import (
    QUDIT_ENUMERATION_BUDGET,
    QuditChain,
    enumerate_qudit_outcomes,
    gen_concurrence,
    gen_pauli,
    omega_power,
    qudit_bell,
    qudit_chain_operator,
)


def permutation_sign(perm):
    """Sign via inversion count; oracle for shift-matrix determinants."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


class TestOmegaPower:
    def test_quarter_circle_values_are_exact(self):
        assert omega_power(2, 0) == 1
        assert omega_power(2, 1) == -1
        assert omega_power(4, 1) == 1j
        assert omega_power(4, 2) == -1
        assert omega_power(4, 3) == -1j
        assert omega_power(4, 5) == 1j

    def test_generic_values_match_cmath(self):
        for d in (3, 5, 7):
            for k in range(2 * d):
                want = cmath.exp(2j * cmath.pi * k / d)
                assert omega_power(d, k) == pytest.approx(want, abs=1e-14)


class TestWeylOperators:
    def test_qutrit_shift_and_clock_by_hand(self):
        x = gen_pauli(3, 1, 0)
        z = gen_pauli(3, 0, 1)
        assert np.allclose(x.matrix, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        w = omega_power(3, 1)
        assert np.allclose(z.matrix, np.diag([1, w, w**2]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary(self, d):
        for m in range(d):
            for n in range(d):
                u = gen_pauli(d, m, n).matrix
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_commutation_phase(self, d):
        # Z X = omega X Z, checked by direct multiplication
        x = gen_pauli(d, 1, 0).matrix
        z = gen_pauli(d, 0, 1).matrix
        assert np.allclose(z @ x, omega_power(d, 1) * (x @ z), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_determinant_against_permutation_sign(self, d):
        # det(X^m Z^n) factorizes: the shift part contributes the sign of
        # the cyclic permutation, the clock part a pure phase.
        for m in range(d):
            for n in range(d):
                u = gen_pauli(d, m, n).matrix
                perm = [(j + m) % d for j in range(d)]
                clock_det = omega_power(d, n * (d * (d - 1) // 2))
                want = permutation_sign(perm) * clock_det
                got = determinant(u)
                assert got == pytest.approx(want, abs=1e-12)
                assert abs(got) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hilbert_schmidt_orthogonality(self, d):
        ops = [gen_pauli(d, m, n).matrix for m in range(d) for n in range(d)]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                inner = np.trace(a.conj().T @ b) / d
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            gen_pauli(1, 0, 0)
        with pytest.raises(ValueError):
            gen_pauli(3, 3, 0)
        with pytest.raises(ValueError):
            gen_pauli(3, 0, -1)


class TestQuditBells:
    @pytest.mark.parametrize("d", [2, 3])
    def test_family_is_orthonormal(self, d):
        vecs = np.stack(
            [qudit_bell(d, m, n).amplitudes for m in range(d) for n in range(d)]
        )
        gram = vecs.conj() @ vecs.T
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)

    def test_qubit_limit_reproduces_pauli_family(self):
        # (m, n) -> X^m Z^n lines up with the I, X, Z, XZ labelling
        pairs = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
        for (m, n), i in pairs.items():
            got = qudit_bell(2, m, n).amplitudes
            want = bell_state(PLAIN, i).amplitudes
            assert np.array_equal(got, want)


class TestQuditChainOperator:
    def test_zero_nodes_is_the_bare_filter(self):
        f = make_filter([1, 1, 1])
        chain = QuditChain(3, (f,))
        assert np.allclose(qudit_chain_operator(chain, ()), f.matrix)

    def test_determinant_factorizes(self, rng):
        filters = tuple(random_filter(rng, dim=3) for _ in range(3))
        chain = QuditChain(3, filters)
        m = qudit_chain_operator(chain, ((1, 2), (2, 0)))
        want = math.prod(abs(determinant(f.matrix)) for f in filters)
        assert abs(determinant(m)) == pytest.approx(want, rel=1e-10)

    def test_outcome_validation(self):
        f = make_filter([1, 1, 1])
        chain = QuditChain(3, (f, f))
        with pytest.raises(ValueError):
            qudit_chain_operator(chain, ())
        with pytest.raises(ValueError):
            qudit_chain_operator(chain, ((3, 0),))
        with pytest.raises(ValueError):
            qudit_chain_operator(chain, ((0, -1),))
        # m·D + n is a valid digit (4 and 2), the labels are not
        with pytest.raises(ValueError):
            qudit_chain_operator(chain, ((0, 4),))
        with pytest.raises(ValueError):
            qudit_chain_operator(chain, ((1, -1),))


class TestGenConcurrence:
    def test_identity_is_maximal(self):
        for d in (2, 3, 5):
            assert gen_concurrence(np.eye(d), d) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_limit_matches_two_det_over_trace(self, rng):
        for _ in range(50):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            want = 2.0 * abs(np.linalg.det(m)) / np.trace(m @ m.conj().T).real
            assert gen_concurrence(m, 2) == pytest.approx(min(want, 1.0), rel=1e-12)

    def test_scale_invariant(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert gen_concurrence(3.7 * m, 4) == pytest.approx(
            gen_concurrence(m, 4), rel=1e-12
        )

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            gen_concurrence(np.zeros((3, 3)), 3)


class TestEnumerateQuditOutcomes:
    def test_maximal_qutrit_single_swap(self):
        f = make_filter([1, 1, 1])
        report = enumerate_qudit_outcomes(QuditChain(3, (f, f)))
        assert len(report.records) == 9
        assert report.p_sum == pytest.approx(9.0, rel=1e-12)
        for rec in report.records:
            assert rec.prob == pytest.approx(1.0 / 9.0, abs=1e-12)
            assert rec.concurrence == pytest.approx(1.0, abs=1e-12)
        # record order follows the m*D + n digit, least-significant node first
        assert report.records[1].indices == ((0, 1),)
        assert report.records[3].indices == ((1, 0),)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_probabilities_sum_to_one(self, rng, d):
        filters = tuple(random_filter(rng, dim=d) for _ in range(3))
        report = enumerate_qudit_outcomes(QuditChain(d, filters))
        assert sum(r.prob for r in report.records) == pytest.approx(1.0, abs=1e-12)
        assert report.p_sum == pytest.approx(float(d) ** 4, rel=1e-9)

    def test_tradeoff_product_per_outcome(self, rng):
        # weight * C^e must equal the product of bond entanglements, and
        # prob * C^e the same number divided by the weight sum
        for d in (2, 3, 4):
            filters = tuple(random_filter(rng, dim=d) for _ in range(3))
            chain = QuditChain(d, filters)
            cprod = math.prod(bond_concurrence(Bond(f, PLAIN)) for f in filters)
            report = enumerate_qudit_outcomes(chain)
            for rec in report.records:
                assert rec.weight * rec.concurrence == pytest.approx(cprod, rel=1e-9)
                assert rec.prob * rec.concurrence == pytest.approx(
                    report.constant, rel=1e-9
                )

    def test_qubit_chain_is_the_two_level_special_case(self, rng):
        # same filters, same numbers, bit for bit
        filters = tuple(random_filter(rng, dim=2) for _ in range(3))
        qudit = enumerate_qudit_outcomes(QuditChain(2, filters))
        qubit = enumerate_outcomes(SwapChain(filters, PLAIN))
        digit_of = {0: 0, 1: 2, 2: 1, 3: 3}  # sigma label -> m*2+n
        for code, qrec in enumerate(qubit.records):
            digits = [digit_of[i] for i in qrec.indices]
            qd_code = sum(dig * 4**k for k, dig in enumerate(digits))
            drec = qudit.records[qd_code]
            assert drec.weight == qrec.weight
            assert drec.prob == qrec.prob
            assert drec.concurrence == qrec.concurrence
        assert qudit.constant == qubit.constant

    def test_budget_guard(self):
        f = make_filter([1] * 5)
        chain = QuditChain(5, (f,) * 7)  # 25**6 outcomes
        assert 25**6 > QUDIT_ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError):
            enumerate_qudit_outcomes(chain)


class TestStateVectorOracle:
    """Independent check: build the six-qudit pure state for a two-node
    qutrit chain, project the middle pairs onto Bell vectors with einsum,
    and compare Born probabilities and end-pair states with the table."""

    def project_middles(self, filters, bells, d):
        tensor = bond_state(Bond(filters[0], PLAIN)).amplitudes
        for f in filters[1:]:
            tensor = np.kron(tensor, bond_state(Bond(f, PLAIN)).amplitudes)
        t = tensor.reshape((d,) * 6)
        v1 = bells[0].conj().reshape(d, d)
        v2 = bells[1].conj().reshape(d, d)
        t = np.einsum("ab,xabycd->xycd", v1, t)
        t = np.einsum("yc,xycd->xd", v2, t)
        return t.reshape(-1)

    def test_two_swap_qutrit_chain(self, rng):
        d = 3
        filters = tuple(random_filter(rng, dim=d) for _ in range(3))
        chain = QuditChain(d, filters)
        report = enumerate_qudit_outcomes(chain)
        by_idx = {rec.indices: rec for rec in report.records}
        checked = 0
        for (m1, n1), (m2, n2) in itertools.product(
            itertools.product(range(d), repeat=2), repeat=2
        ):
            # recording (m, n) corresponds to finding the pair in the
            # Bell state with the clock label reversed
            bells = (
                qudit_bell(d, m1, (-n1) % d).amplitudes,
                qudit_bell(d, m2, (-n2) % d).amplitudes,
            )
            left = self.project_middles(filters, bells, d)
            born = float(np.sum(np.abs(left) ** 2))
            rec = by_idx[((m1, n1), (m2, n2))]
            assert born == pytest.approx(rec.prob, abs=1e-10)
            # end-pair state must match the operator route up to phase
            op_state = state_from_operator(
                qudit_chain_operator(chain, rec.indices), d
            )
            overlap = abs(
                np.vdot(
                    op_state.amplitudes / np.linalg.norm(op_state.amplitudes),
                    left / np.linalg.norm(left),
                )
            )
            assert overlap == pytest.approx(1.0, abs=1e-10)
            checked += 1
        assert checked == 81


class TestQuditChainValidation:
    def test_needs_a_bond(self):
        with pytest.raises(ValueError):
            QuditChain(3, ())

    def test_dimension_must_match_filters(self):
        with pytest.raises(ValueError):
            QuditChain(3, (make_filter([1, 1]), make_filter([1, 1])))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            QuditChain(3, (make_filter([1, 1, 1]), make_filter([1, 1])))
