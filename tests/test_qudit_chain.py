"""Weyl shift-clock operators and qudit swap chains of arbitrary dimension."""

import cmath
import functools
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from reference import (
    ROUNDED_ONCE,
    bond_concurrence,
    decimal_concurrences,
    digit_shifts,
    exact_columns,
    exact_monomial_table,
    full_route_columns,
    ulp_errors,
)

from bondswap.filters import PLAIN, VBS, make_filter, random_filter
from bondswap.linalg import EnumerationBudgetError, state_from_operator
from bondswap.qubit import (
    ENUMERATION_BUDGET,
    SwapChain,
    bell_state,
    bond_concurrences,
    check_budget,
    check_table_budget,
    enumerate_outcomes,
    row_index,
)
from bondswap.qudit import (
    QuditChain,
    enumerate_qudit_outcomes,
    gen_pauli,
    omega_power,
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
        assert np.allclose(x, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        w = omega_power(3, 1)
        assert np.allclose(z, np.diag([1, w, w**2]))
        assert not x.flags.writeable

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary(self, d):
        for m in range(d):
            for n in range(d):
                u = gen_pauli(d, m, n)
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_commutation_phase(self, d):
        # Z X = omega X Z, checked by direct multiplication
        x = gen_pauli(d, 1, 0)
        z = gen_pauli(d, 0, 1)
        assert np.allclose(z @ x, omega_power(d, 1) * (x @ z), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_determinant_against_permutation_sign(self, d):
        # det(X^m Z^n) factorizes: the shift part contributes the sign of
        # the cyclic permutation, the clock part a pure phase.
        for m in range(d):
            for n in range(d):
                u = gen_pauli(d, m, n)
                perm = [(j + m) % d for j in range(d)]
                clock_det = omega_power(d, n * (d * (d - 1) // 2))
                want = permutation_sign(perm) * clock_det
                got = np.linalg.det(u)
                assert got == pytest.approx(want, abs=1e-12)
                assert abs(got) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hilbert_schmidt_orthogonality(self, d):
        ops = [gen_pauli(d, m, n) for m in range(d) for n in range(d)]
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


def qudit_bell(d, m, n):
    """Bell basis state (I ⊗ U_mn)|Φ+⟩."""
    return state_from_operator(gen_pauli(d, m, n), d)


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
        assert np.allclose(enumerate_qudit_outcomes(chain).final_ops, [f.matrix])

    def test_determinant_factorizes(self, rng):
        filters = tuple(random_filter(rng, dim=3) for _ in range(3))
        chain = QuditChain(3, filters)
        ops = enumerate_qudit_outcomes(chain).final_ops
        want = math.prod(abs(np.linalg.det(f.matrix)) for f in filters)
        assert np.allclose(abs(np.linalg.det(ops)), want, rtol=1e-10, atol=0)


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
            cprod = math.prod(bond_concurrence(f) for f in filters)
            report = enumerate_qudit_outcomes(chain)
            for rec in report.records:
                assert rec.weight * rec.concurrence == pytest.approx(cprod, rel=1e-9)
                assert rec.prob * rec.concurrence == pytest.approx(
                    report.constant, rel=1e-9
                )

    def test_qubit_chain_is_the_two_level_special_case(self):
        # same filters, same numbers, bit for bit: complex, signed and
        # near-singular bonds; the Weyl digit of σ_i is (0, 2, 1, 3)[i]
        for seed in range(12):
            rng = np.random.default_rng(seed)
            filters = []
            for k in range(seed % 7 + 1):
                f = random_filter(rng, 2) if k % 2 == 0 else make_filter(rng.uniform(0.35, 1.0, 2))
                diag = f.diag
                diag = diag * rng.choice([-1, 1], 2)
                if k % 3 == 2:
                    diag[k % 2] *= 10.0 ** -rng.uniform(0, 150)
                filters.append(make_filter(diag))
            plain = enumerate_outcomes(SwapChain(tuple(filters), PLAIN))
            qudit = enumerate_qudit_outcomes(QuditChain(2, tuple(filters)))
            rows = row_index(np.array([0, 2, 1, 3], np.uint8)[plain.digits], 4)
            for name in ("weight", "prob", "concurrence"):
                want, got = getattr(plain, name), getattr(qudit, name)[rows]
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
            for name in ("p_sum", "constant"):
                assert getattr(qudit, name).hex() == getattr(plain, name).hex(), name

    def test_singular_filters_give_zero_concurrence(self):
        # g·X^m Z^n·g with g = diag(√3, 0, 0) survives only for m = 0, as
        # diag(3ω^0, 0, 0): weight 3, prob 1/3 and |det| = 0; the other six
        # outcomes have zero weight and get concurrence 0 without a 0/0
        g = make_filter([1, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = enumerate_qudit_outcomes(QuditChain(3, (g, g)))
            records = report.records  # the concurrence stage runs on this first read
        for rec in records:
            (m, _n), = rec.indices
            assert rec.weight == pytest.approx(3.0 if m == 0 else 0.0, abs=1e-12)
            assert rec.prob == pytest.approx(1 / 3 if m == 0 else 0.0, abs=1e-12)
            assert rec.concurrence == 0.0
        assert report.constant == 0.0 and report.max_residual == 0.0

    def test_budget_from_the_dimension_alone(self):
        check_budget(6 ** 2, 4)  # 36^4 rows: the budget itself
        with pytest.raises(EnumerationBudgetError, match=r"^36\^5 = "):
            check_budget(6 ** 2, 5)
        with pytest.raises(EnumerationBudgetError, match=r"^4\^1000000 = "):
            check_budget(2 ** 2, 10**6)

    def test_budget_guard(self):
        f = make_filter([1] * 5)
        chain = QuditChain(5, (f,) * 7)  # 25**6 outcomes
        assert 25**6 > ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError):
            enumerate_qudit_outcomes(chain)

    def test_largest_admitted_node_counts(self):
        # one row budget admits vbs N <= 13, plain N <= 10 and qudit D = 2..8 up
        # to N = 10, 6, 5, 4, 4, 3, 3: exactly the tables two budgets admitted
        largest = {VBS: 13, PLAIN: 10, 2: 10, 3: 6, 4: 5, 5: 4, 6: 4, 7: 3, 8: 3}
        for mode, n in largest.items():
            check = (functools.partial(check_budget, mode ** 2) if isinstance(mode, int)
                     else functools.partial(check_table_budget, mode))
            check(n)
            with pytest.raises(EnumerationBudgetError, match=f"\\^{n + 1} = "):
                check(n + 1)

    def test_table_memory_per_row(self):
        # 390625 rows over 625 shift-class products: about 31 B/row at the peak,
        # where multiplying out every row's 5×5 operator took 608 B/row
        rng = np.random.default_rng(4)
        chain = QuditChain(5, tuple(random_filter(rng, 5) for _ in range(5)))
        tracemalloc.start()
        try:
            report = enumerate_qudit_outcomes(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.digits) == 5 ** 8
        assert peak <= 64 * len(report.digits)


class TestStateVectorOracle:
    """Independent check: build the six-qudit pure state for a two-node
    qutrit chain, project the middle pairs onto Bell vectors with einsum,
    and compare Born probabilities and end-pair states with the table."""

    def project_middles(self, filters, bells, d):
        tensor = state_from_operator(filters[0].matrix, d).amplitudes
        for f in filters[1:]:
            tensor = np.kron(tensor, state_from_operator(f.matrix, d).amplitudes)
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
            op_state = state_from_operator(rec.final_op, d)
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


# (mode, N) cells of at most 10^4 rows, a qudit mode named by its D
EXACT_CELLS = [(mode, n) for mode, n_max in ((VBS, 6), (PLAIN, 5), (3, 4), (4, 3), (5, 2),
                                             (6, 2), (7, 2), (8, 2))
               for n in range(1, n_max + 1)]
QUDIT_CELLS = [cell for cell in EXACT_CELLS if cell[0] not in (VBS, PLAIN)]
EXACT_CHAINS = 6  # random complex chains per cell
QUANTITIES = ["weight", "prob", "concurrence"]


@functools.cache
def ulp_error_table() -> dict:
    """(mode, N) -> {quantity: (kernel errors, full-route errors)} and, under
    "clock_free", the rows the class values were taken from before the kernel: the
    ulp errors of weight, prob and concurrence on every row of EXACT_CHAINS random
    complex chains, against exact rationals (weight, prob) and 50-digit Decimals
    (concurrence).  The full route multiplies out each row's own operator."""
    rng = np.random.default_rng(1717)
    table = {}
    for mode, n in EXACT_CELLS:
        d = 2 if mode in (VBS, PLAIN) else mode
        filters = tuple(random_filter(rng, d) for _ in range(EXACT_CHAINS * (n + 1)))
        cell = {name: ([], []) for name in QUANTITIES}
        clock_free = []
        for chain_filters in (filters[k :: EXACT_CHAINS] for k in range(EXACT_CHAINS)):
            report = (enumerate_outcomes(SwapChain(chain_filters, mode)) if d == 2
                      else enumerate_qudit_outcomes(QuditChain(d, chain_filters)))
            *exact, index = exact_columns(report)
            full = full_route_columns(report)
            for (name, (kernel, by_row)), want, row_route in zip(cell.items(), exact, full):
                kernel.append(ulp_errors(getattr(report, name), want, index))
                by_row.append(ulp_errors(row_route, want, index))
            # a qubit class's rows were all its values (they differ by signs only); a
            # qudit class took the row with n = 0 at every node
            clock_free.append(np.all(report.digits % d == 0, axis=1) if d > 2
                              else np.ones(len(index), bool))
        table[mode, n] = {name: tuple(map(np.concatenate, pair)) for name, pair in cell.items()}
        table[mode, n]["clock_free"] = np.concatenate(clock_free)
    return table


def pooled(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The kernel and full-route errors of ``name`` over every qudit cell."""
    return tuple(map(np.concatenate, zip(*(ulp_error_table()[c][name] for c in QUDIT_CELLS))))


class TestExactReference:
    """The table kernel is judged in ulps against exact arithmetic.  It computes
    every Tr(M M†) and P_sum in integers and rounds each value once, so every row
    lies within half an ulp (ROUNDED_ONCE), and no other float can be nearer: on
    every row, in every cell, the kernel is no further from the exact value than
    multiplying out the row's own operator (the full route), nor than the rows
    the class values were taken from before (the full route's clock-free rows,
    whose weight and concurrence those class values equalled bit for bit)."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_class_values_are_no_further_than_the_clock_free_rows(self, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2):
            report = enumerate_qudit_outcomes(
                QuditChain(dim, tuple(random_filter(rng, dim) for _ in range(n + 1))))
            clock_free = np.all(report.digits % dim == 0, axis=1)
            *exact, index = exact_columns(report)
            full = full_route_columns(report)
            for name, want, row_route in zip(QUANTITIES, exact, full):
                kernel = ulp_errors(getattr(report, name), want, index)[clock_free]
                by_row = ulp_errors(row_route, want, index)[clock_free]
                assert np.max(kernel) <= ROUNDED_ONCE and np.all(kernel <= by_row), name

    @pytest.mark.parametrize("mode, n", EXACT_CELLS)
    def test_worst_and_mean_error_per_cell(self, mode, n):
        cell = ulp_error_table()[mode, n]
        live = cell["clock_free"]
        for name in QUANTITIES:
            kernel, by_row = cell[name]
            assert np.max(kernel) <= ROUNDED_ONCE, name
            assert np.all(kernel <= by_row), name
            for mine, theirs in ((kernel, by_row), (kernel[live], by_row[live])):
                assert np.max(mine) <= np.max(theirs), name
                assert np.mean(mine) <= np.mean(theirs), name

    @pytest.mark.parametrize("name", QUANTITIES)
    def test_worst_error_over_the_qudit_cells(self, name):
        kernel, by_row = pooled(name)
        assert np.max(kernel) <= np.max(by_row)

    @pytest.mark.parametrize("name", QUANTITIES)
    def test_mean_error_over_the_qudit_cells(self, name):
        kernel, by_row = pooled(name)
        assert np.mean(kernel) <= np.mean(by_row)

    def test_reference_agrees_with_a_hand_computed_chain(self):
        # qutrit, one node applying X Z^n: column j of M picks λ0(j), then
        # λ1(j + 1), so the weight is the mean of |λ0(j)|²·|λ1(j + 1)|² over j
        f0, f1 = make_filter([1, 2j, 3]), make_filter([0.5, 1, -2])
        a, b = ([Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in f.diag] for f in (f0, f1))
        weights, index, det_sq = exact_monomial_table(QuditChain(3, (f0, f1)),
                                                      np.array([[1], [0], [1]]))
        assert weights == [(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) / 3,
                           (a[0] * b[1] + a[1] * b[2] + a[2] * b[0]) / 3]
        assert index.tolist() == [1, 0, 1]
        assert det_sq == math.prod(a) * math.prod(b)
        report = enumerate_qudit_outcomes(QuditChain(3, (f0, f1)))
        assert report.weight[0] == pytest.approx(float(weights[0]), rel=1e-15)
        assert report.weight[3] == pytest.approx(float(weights[1]), rel=1e-15)


class TestConcurrenceBelowTheNormalRange:
    """Where Π|λ|², |det| or a class's Tr(M M†) leaves the normal float range, the
    kernel still holds them exactly, in integers.  Bond and class concurrences
    are then 60-digit values rounded once where |det| itself is subnormal, loses
    7·10¹⁰ ulps, or underflows to 0 (and LU's determinant to NaN), and where the
    class's weight is subnormal or 0.0."""

    @staticmethod
    def exact(weights, det_sq, dim):
        return decimal_concurrences(weights, det_sq, dim, prec=60)

    @pytest.mark.parametrize("dim, t", [(3, 1e-155), (3, 1e-160), (3, 1e-170),
                                        (5, 1e-120), (8, 1e-50)])
    def test_bond(self, dim, t):
        f = make_filter([1.0] + [t] * (dim - 1))
        mags = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in f.diag.tolist()]
        want = self.exact([sum(mags) / dim], math.prod(mags), dim)
        got = bond_concurrences(QuditChain(dim, (f, f)))
        assert np.max(ulp_errors(got, want, np.zeros(2, dtype=int))) <= ROUNDED_ONCE

    def test_bond_of_many_entries(self):
        # the product of 2048 squares and its 2048th root, in integers
        f = make_filter([1.0] * 2048)
        assert bond_concurrences(QuditChain(2048, (f, f))) == [1.0, 1.0]

    @pytest.mark.parametrize("dim, t", [(3, 1e-100), (5, 1e-60), (8, 1e-30)])
    def test_classes(self, dim, t):
        f = make_filter([1.0] + [t] * (dim - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = enumerate_qudit_outcomes(QuditChain(dim, (f, f)))
            conc = report.concurrence  # the concurrence stage runs on this first read
        weights, index, det_sq = exact_monomial_table(report.chain,
                                                      digit_shifts(report.digits, dim))
        want = self.exact(weights, det_sq, dim)
        assert np.max(ulp_errors(conc, want, index)) <= ROUNDED_ONCE
        assert 0.0 < report.max_residual <= 1e-12 * report.constant

    def test_classes_whose_root_underflows(self):
        # swap --mode qudit --dim 3 --identical 1,1e-100,1e-100 --bonds 3: Π|λ|^(2/3)
        # is about 2.7e-399, yet a class concurrence is 3.0e-200, and 18 rows of
        # weight about 9e-400 (0.0 in floats) have a concurrence of exactly 1.0.
        # Only the class whose true value is 3e-400, and the constant, read 0.0
        f = make_filter([1.0, 1e-100, 1e-100])
        report = enumerate_qudit_outcomes(QuditChain(3, (f, f, f)))
        weights, index, det_sq = exact_monomial_table(report.chain,
                                                      digit_shifts(report.digits, 3))
        errors = ulp_errors(report.concurrence, self.exact(weights, det_sq, 3), index)
        assert np.max(errors) <= ROUNDED_ONCE
        assert np.count_nonzero(report.concurrence[report.weight == 0.0] == 1.0) == 18
        assert np.count_nonzero(report.concurrence) == 72 and report.constant == 0.0

    @pytest.mark.parametrize("mode, diag, n_bonds", [
        pytest.param(mode, diag, n, id=f"{mode}-{diag[-1]:g}")
        for mode, diag, n in ((VBS, [1, 1e-160], 3), (PLAIN, [1, 1e-160], 3),
                              (VBS, [1, 1e-155], 3), (PLAIN, [1, 1e-155], 3),
                              (3, [1, 1e-155, 1e-155], 2))])
    def test_classes_whose_weight_is_subnormal(self, mode, diag, n_bonds):
        # a class's Tr(M M†) below the normal range kept only its leading bits in
        # floats, and its concurrence lost the rest: 7·10¹⁰ ulps at 1e-160, 11.75
        # at 1e-155 (qubits) and 14.35 at the qudit 1e-155 (2.0/3 taken as 2/3)
        filters = (make_filter(diag),) * n_bonds
        report = (enumerate_qudit_outcomes(QuditChain(mode, filters)) if mode == 3
                  else enumerate_outcomes(SwapChain(filters, mode)))
        dim = report.mode.dim
        weights, index, det_sq = exact_monomial_table(report.chain,
                                                      digit_shifts(report.digits, dim))
        live = np.array([bool(weights[i]) for i in index])
        assert (report.weight[live] < sys.float_info.min).any()
        errors = ulp_errors(report.concurrence[live], self.exact(weights, det_sq, dim), index[live])
        assert np.max(errors) <= ROUNDED_ONCE
