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

from bondswap import qubit
from bondswap.filters import PLAIN, QUDIT, VBS, make_filter, random_filter
from bondswap.linalg import EnumerationBudgetError, state_from_operator
from bondswap.qubit import (
    ENUMERATION_BUDGET,
    SwapChain,
    _draw,
    _weyl_mode,
    bell_state,
    bond_concurrences,
    chain_operator,
    check_budget,
    check_table_budget,
    digit_table,
    enumerate_outcomes,
    gen_pauli,
    log_p_sum_transfer,
    omega_power,
    p_sum_transfer,
    row_index,
    sample_outcomes,
    scan_log_constants,
    tradeoff_constant,
)
from bondswap.qudit import enumerate_qudit_outcomes


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


class TestWeylModeOnDemand:
    """A table reads only its outcomes' shift classes, taken from the digits, so no
    Weyl operator is built until final_ops or records reads one."""

    @pytest.mark.parametrize("d", range(3, 9))
    def test_table_builds_no_operator(self, d, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"gen_pauli{args} was called")

        rng = np.random.default_rng(d)
        chain = SwapChain(tuple(random_filter(rng, d) for _ in range(3)), QUDIT)
        _weyl_mode.cache_clear()
        monkeypatch.setattr(qubit, "gen_pauli", refuse)
        try:
            report = enumerate_qudit_outcomes(chain)
            assert len(report.concurrence) == d ** 4
            assert len(report.bond_concurrences) == 3
            assert report.max_residual < 1e-12
            with pytest.raises(AssertionError, match="gen_pauli"):
                report.final_ops
        finally:
            _weyl_mode.cache_clear()
        assert report.mode.classes == tuple(digit // d for digit in range(d * d))


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
        chain = SwapChain((f,), QUDIT)
        assert np.allclose(enumerate_qudit_outcomes(chain).final_ops, [f.matrix])

    def test_determinant_factorizes(self, rng):
        filters = tuple(random_filter(rng, dim=3) for _ in range(3))
        chain = SwapChain(filters, QUDIT)
        ops = enumerate_qudit_outcomes(chain).final_ops
        want = math.prod(abs(np.linalg.det(f.matrix)) for f in filters)
        assert np.allclose(abs(np.linalg.det(ops)), want, rtol=1e-10, atol=0)


class TestEnumerateQuditOutcomes:
    def test_maximal_qutrit_single_swap(self):
        f = make_filter([1, 1, 1])
        report = enumerate_qudit_outcomes(SwapChain((f, f), QUDIT))
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
        report = enumerate_qudit_outcomes(SwapChain(filters, QUDIT))
        assert sum(r.prob for r in report.records) == pytest.approx(1.0, abs=1e-12)
        assert report.p_sum == pytest.approx(float(d) ** 4, rel=1e-9)

    def test_tradeoff_product_per_outcome(self, rng):
        # weight * C^e must equal the product of bond entanglements, and
        # prob * C^e the same number divided by the weight sum
        for d in (2, 3, 4):
            filters = tuple(random_filter(rng, dim=d) for _ in range(3))
            chain = SwapChain(filters, QUDIT)
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
            qudit = enumerate_qudit_outcomes(SwapChain(tuple(filters), QUDIT))
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
            report = enumerate_qudit_outcomes(SwapChain((g, g), QUDIT))
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
        chain = SwapChain((f,) * 7, QUDIT)  # 25**6 outcomes
        assert 25**6 > ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError):
            enumerate_qudit_outcomes(chain)

    def test_largest_admitted_node_counts(self):
        # one row budget admits vbs N <= 13, plain N <= 10 and qudit D = 2..8 up
        # to N = 10, 6, 5, 4, 4, 3, 3: exactly the tables two budgets admitted
        largest = {VBS: 13, PLAIN: 10, 2: 10, 3: 6, 4: 5, 5: 4, 6: 4, 7: 3, 8: 3}
        for mode, n in largest.items():
            check = (functools.partial(check_table_budget, QUDIT, dim=mode)
                     if isinstance(mode, int) else functools.partial(check_table_budget, mode))
            check(n)
            with pytest.raises(EnumerationBudgetError, match=f"\\^{n + 1} = "):
                check(n + 1)

    def test_table_memory_per_row(self):
        # 390625 rows over 625 shift-class products: the peak is the report's own
        # 2 B/row, its class index, and about 130 kB of class values beside it,
        # bounded at 256 KiB (0.67 B/row).  The 4 digit bytes per row are made only
        # when report.digits is read: built with the table, they took the peak to
        # 6.3 B/row, np.bincount's int64 copy of the class index to 10.2 B/row, a
        # row counter and np.divmod's outputs to 30 B/row, and every row's 5×5
        # operator to 608 B/row
        rng = np.random.default_rng(4)
        chain = SwapChain(tuple(random_filter(rng, 5) for _ in range(5)), QUDIT)
        tracemalloc.start()
        try:
            report = enumerate_qudit_outcomes(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.class_index.nbytes == 2 * 5 ** 8
        assert peak <= report.class_index.nbytes + 256 * 1024
        assert np.array_equal(report.digits, digit_table(25, 4))
        assert report.digits is report.digits
        # the class row counts are products of class sizes: p_sum is still the exact
        # sum over every row, rounded once
        weights, _, _, index = exact_columns(report)
        assert report.p_sum == sum(weights[i][0] for i in index.tolist()) / weights[0][1]


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
        chain = SwapChain(filters, QUDIT)
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


class TestOneChainType:
    """A qudit chain is a SwapChain in mode QUDIT.  The table and chain_operator read
    its own mode; the table-free routes serve qubits only and refuse it by name."""

    @pytest.mark.parametrize("route", [
        p_sum_transfer, log_p_sum_transfer, tradeoff_constant,
        lambda chain: sample_outcomes(chain, 10), lambda chain: _draw(chain, 10, 0),
    ], ids=["p_sum_transfer", "log_p_sum_transfer", "tradeoff_constant", "sample_outcomes",
            "_draw"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_table_free_routes_are_qubit_only(self, route, dim, monkeypatch):
        def refuse(*args):
            raise AssertionError("the concurrences were computed first")

        monkeypatch.setattr(qubit, "_transfer_concurrences", refuse)
        f = make_filter(range(1, dim + 1))
        with pytest.raises(ValueError, match=r"qubit-only \(mode vbs or plain\)"):
            route(SwapChain((f, f, f), QUDIT))

    def test_scan_and_bell_states_are_qubit_only(self):
        with pytest.raises(ValueError, match="qubit-only"):
            scan_log_constants(make_filter([2, 1]), 3, QUDIT)
        with pytest.raises(ValueError, match="qubit-only"):
            bell_state(QUDIT, 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_chain_operator_reads_the_chains_mode(self, dim):
        rng = np.random.default_rng(dim)
        chain = SwapChain(tuple(random_filter(rng, dim) for _ in range(3)), QUDIT)
        report = enumerate_outcomes(chain)
        assert report.mode is chain.record is _weyl_mode(dim)
        for op, digits in zip(report.final_ops, report.digits.tolist()):
            assert np.array_equal(op, chain_operator(chain, digits))
        with pytest.raises(ValueError, match="invalid for mode 'qudit'"):
            chain_operator(chain, (dim * dim, 0))

    def test_one_entry_point(self):
        # enumerate_qudit_outcomes stays a function of its own and gives the same table
        rng = np.random.default_rng(6)
        chain = SwapChain(tuple(random_filter(rng, 4) for _ in range(3)), QUDIT)
        assert enumerate_qudit_outcomes is not enumerate_outcomes
        one, other = enumerate_qudit_outcomes(chain), enumerate_outcomes(chain)
        assert one.p_sum == other.p_sum and one.constant == other.constant
        assert np.array_equal(one.prob, other.prob)


class TestQuditChainValidation:
    def test_needs_a_bond(self):
        with pytest.raises(ValueError, match="at least one bond"):
            SwapChain((), QUDIT)

    def test_dimension_must_match_filters(self):
        # a qudit chain's dim is its first filter's, D = 2 included; vbs and plain take qubits
        assert SwapChain((make_filter([1, 1]), make_filter([1, 1])), QUDIT).dim == 2
        assert SwapChain((make_filter([1, 1, 1]),) * 2, QUDIT).dim == 3
        for mode in (VBS, PLAIN):
            with pytest.raises(ValueError, match="all chain filters must be FilterOps of dim 2"):
                SwapChain((make_filter([1, 1, 1]),) * 2, mode)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="all chain filters must be FilterOps of dim 3"):
            SwapChain((make_filter([1, 1, 1]), make_filter([1, 1])), QUDIT)
        with pytest.raises(ValueError, match="all chain filters must be FilterOps of dim 2"):
            SwapChain((make_filter([1, 1]), make_filter([1, 1, 1])), QUDIT)


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
                      else enumerate_qudit_outcomes(SwapChain(chain_filters, QUDIT)))
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
                SwapChain(tuple(random_filter(rng, dim) for _ in range(n + 1)), QUDIT))
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
        weights, index, det_sq = exact_monomial_table(SwapChain((f0, f1), QUDIT),
                                                      np.array([[1], [0], [1]]))
        assert weights == [(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) / 3,
                           (a[0] * b[1] + a[1] * b[2] + a[2] * b[0]) / 3]
        assert index.tolist() == [1, 0, 1]
        assert det_sq == math.prod(a) * math.prod(b)
        report = enumerate_qudit_outcomes(SwapChain((f0, f1), QUDIT))
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
        got = bond_concurrences(SwapChain((f, f), QUDIT))
        assert np.max(ulp_errors(got, want, np.zeros(2, dtype=int))) <= ROUNDED_ONCE

    def test_bond_of_many_entries(self, monkeypatch):
        # the product of 2048 squares and its 2048th root, in integers; the chain and its
        # bond concurrences never make the mode of its 2048² outcomes, and the table is
        # refused before it would
        def refuse(dim):
            raise AssertionError(f"_weyl_mode({dim}) ran")

        monkeypatch.setattr(qubit, "_weyl_mode", refuse)
        f = make_filter([1.0] * 2048)
        chain = SwapChain((f, f), QUDIT)
        assert chain.dim == 2048 and chain.n_nodes == 1
        assert bond_concurrences(chain) == [1.0, 1.0]
        for table in (enumerate_outcomes, enumerate_qudit_outcomes):
            with pytest.raises(EnumerationBudgetError, match=r"^4194304\^1 = "):
                table(chain)

    @pytest.mark.parametrize("dim, t", [(3, 1e-100), (5, 1e-60), (8, 1e-30)])
    def test_classes(self, dim, t):
        f = make_filter([1.0] + [t] * (dim - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = enumerate_qudit_outcomes(SwapChain((f, f), QUDIT))
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
        report = enumerate_qudit_outcomes(SwapChain((f, f, f), QUDIT))
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
        report = (enumerate_qudit_outcomes(SwapChain(filters, QUDIT)) if mode == 3
                  else enumerate_outcomes(SwapChain(filters, mode)))
        dim = report.mode.dim
        weights, index, det_sq = exact_monomial_table(report.chain,
                                                      digit_shifts(report.digits, dim))
        live = np.array([bool(weights[i]) for i in index])
        assert (report.weight[live] < sys.float_info.min).any()
        errors = ulp_errors(report.concurrence[live], self.exact(weights, det_sq, dim), index[live])
        assert np.max(errors) <= ROUNDED_ONCE
