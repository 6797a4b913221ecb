"""End-to-end qubit chains: operators, outcome tables, transfer sums, sampling.

The reference values in this file were frozen from two independent routes:
a hand calculation for the diag(2,1) worked instance and a brute-force
matrix-product oracle (local Pauli constants, plain ``@`` loops) that is
re-run inside the tests themselves.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_unitary

from bondswap.filters import PLAIN, VBS, Bond, bond_concurrence, make_filter, random_filter
from bondswap.linalg import EnumerationBudgetError, kron, partial_trace
from bondswap.qubit import (
    SwapChain,
    bell_state,
    bond_concurrences,
    chain_operator,
    enumerate_outcomes,
    final_state,
    log_p_sum_transfer,
    log_tradeoff_constant,
    outcome_weight,
    p_sum_transfer,
    pauli,
    sample_outcomes,
    scan_log_constants,
    tradeoff_constant,
)

# local copies so the oracle below shares nothing with the implementation
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S3 = SX @ SZ  # [[0, -1], [1, 0]]
LOCAL_SIGMA = (np.eye(2, dtype=complex), SX, SZ, S3)


def oracle_operator(filters, indices, mode):
    m = np.diag(filters[0].diag).astype(complex)
    for i, f in zip(indices, filters[1:]):
        m = np.diag(f.diag) @ (LOCAL_SIGMA[i] @ m)
    if mode == VBS:
        m = S3 @ m
    return m


def oracle_table(filters, mode):
    """Brute-force outcome table: loop over all index tuples one by one."""
    n = len(filters) - 1
    choices = range(1, 4) if mode == VBS else range(4)
    table = {}
    for combo in itertools.product(choices, repeat=n):
        m = oracle_operator(filters, combo, mode)
        w = 0.5 * np.sum(np.abs(m) ** 2)
        table[combo] = (w, m)
    return table


def worked_chain(mode=VBS):
    f = make_filter([2.0, 1.0])
    return SwapChain((f, f), mode)


class TestPauliConventions:
    def test_ordering(self):
        assert np.array_equal(pauli(0), np.eye(2))
        assert np.array_equal(pauli(1), SX)
        assert np.array_equal(pauli(2), SZ)
        assert np.array_equal(pauli(3), np.array([[0, -1], [1, 0]]))

    def test_third_label_is_x_times_z(self):
        assert np.allclose(pauli(3), pauli(1) @ pauli(2))

    def test_antisymmetric_label_squares_to_minus_identity(self):
        assert np.allclose(pauli(3) @ pauli(3), -np.eye(2))

    def test_index_range(self):
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            pauli(-1)


class TestBellStates:
    def test_plain_family_is_orthonormal(self):
        vecs = np.stack([bell_state(PLAIN, i).amplitudes for i in range(4)])
        gram = vecs.conj() @ vecs.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_plain_zero_is_phi_plus(self):
        psi = bell_state(PLAIN, 0)
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_vbs_family_is_orthonormal(self):
        vecs = np.stack([bell_state(VBS, i).amplitudes for i in (1, 2, 3)])
        gram = vecs.conj() @ vecs.T
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_vbs_middle_state_by_hand(self):
        psi = bell_state(VBS, 2)
        expect = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_vbs_states_live_outside_the_singlet(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        for i in (1, 2, 3):
            overlap = singlet.conj() @ bell_state(VBS, i).amplitudes
            assert abs(overlap) < 1e-12

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            bell_state(VBS, 0)
        with pytest.raises(ValueError):
            bell_state(PLAIN, 4)
        with pytest.raises(ValueError):
            bell_state("other", 1)


class TestChainOperator:
    def test_worked_instance_middle_outcome(self):
        chain = worked_chain()
        m = chain_operator(chain, (2,))
        assert np.allclose(m, [[0.0, 0.4], [1.6, 0.0]], atol=1e-12)

    def test_matches_oracle_on_random_chains(self, rng):
        for mode in (VBS, PLAIN):
            filters = tuple(random_filter(rng) for _ in range(4))
            chain = SwapChain(filters, mode)
            choices = range(1, 4) if mode == VBS else range(4)
            for combo in itertools.product(choices, repeat=3):
                got = chain_operator(chain, combo)
                want = oracle_operator(filters, combo, mode)
                assert np.allclose(got, want, atol=1e-12)

    def test_zero_nodes_is_just_the_bond(self):
        f = make_filter([1, 1])
        m = chain_operator(SwapChain((f,), VBS), ())
        assert np.allclose(m, S3, atol=1e-15)

    def test_index_validation(self):
        chain = worked_chain()
        with pytest.raises(ValueError):
            chain_operator(chain, (1, 2))  # wrong length
        with pytest.raises(ValueError):
            chain_operator(chain, (0,))  # excluded in vbs mode
        with pytest.raises(ValueError):
            chain_operator(SwapChain(chain.filters, PLAIN), (4,))

    def test_determinant_factorizes_over_bonds(self, rng):
        for mode in (VBS, PLAIN):
            filters = tuple(random_filter(rng) for _ in range(3))
            chain = SwapChain(filters, mode)
            m = chain_operator(chain, (2, 1) if mode == VBS else (0, 3))
            want = math.prod(bond_concurrences(chain))
            assert 2.0 * abs(np.linalg.det(m)) / 2.0 == pytest.approx(want, rel=1e-12)


class TestOutcomeWeights:
    def test_worked_instance_weights(self):
        chain = worked_chain()
        assert outcome_weight(chain, (2,)) == pytest.approx(1.36, abs=1e-12)
        assert outcome_weight(chain, (1,)) == pytest.approx(0.64, abs=1e-12)
        assert outcome_weight(chain, (3,)) == pytest.approx(0.64, abs=1e-12)

    def test_matches_brute_force_table(self, rng):
        filters = tuple(random_filter(rng) for _ in range(4))
        for mode in (VBS, PLAIN):
            chain = SwapChain(filters, mode)
            table = oracle_table(filters, mode)
            for combo, (w, _) in table.items():
                assert outcome_weight(chain, combo) == pytest.approx(w, rel=1e-12)


class TestEnumerateOutcomes:
    def test_worked_instance_full_table(self):
        report = enumerate_outcomes(worked_chain())
        assert report.p_sum == pytest.approx(2.64, abs=1e-12)
        by_idx = {r.indices: r for r in report.records}
        assert set(by_idx) == {(1,), (2,), (3,)}
        assert by_idx[(2,)].prob == pytest.approx(17.0 / 33.0, abs=1e-12)
        assert by_idx[(1,)].prob == pytest.approx(8.0 / 33.0, abs=1e-12)
        assert by_idx[(3,)].prob == pytest.approx(8.0 / 33.0, abs=1e-12)
        assert by_idx[(2,)].concurrence == pytest.approx(8.0 / 17.0, abs=1e-12)
        assert by_idx[(1,)].concurrence == pytest.approx(1.0, abs=1e-12)
        assert by_idx[(3,)].concurrence == pytest.approx(1.0, abs=1e-12)
        for rec in report.records:
            assert rec.prob * rec.concurrence == pytest.approx(8.0 / 33.0, abs=1e-12)
        assert report.constant == pytest.approx(8.0 / 33.0, abs=1e-12)

    def test_maximal_single_swap(self):
        f = make_filter([1, 1])
        report = enumerate_outcomes(SwapChain((f, f), VBS))
        assert len(report.records) == 3
        for rec in report.records:
            assert rec.prob == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert rec.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_maximal_plain_single_swap(self):
        f = make_filter([1, 1])
        report = enumerate_outcomes(SwapChain((f, f), PLAIN))
        assert len(report.records) == 4
        for rec in report.records:
            assert rec.prob == pytest.approx(0.25, abs=1e-12)
            assert rec.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_record_order_is_little_endian(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        report = enumerate_outcomes(SwapChain(filters, VBS))
        for code, rec in enumerate(report.records):
            assert rec.indices == (1 + code % 3, 1 + code // 3)

    def test_probabilities_sum_to_one(self, rng):
        for mode in (VBS, PLAIN):
            for n_bonds in (2, 3, 5):
                filters = tuple(random_filter(rng) for _ in range(n_bonds))
                report = enumerate_outcomes(SwapChain(filters, mode))
                assert sum(r.prob for r in report.records) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_final_ops_match_sequential_route(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        chain = SwapChain(filters, PLAIN)
        report = enumerate_outcomes(chain)
        for rec in report.records:
            assert np.allclose(
                rec.final_op, chain_operator(chain, rec.indices), atol=1e-12
            )

    def test_tradeoff_product_is_outcome_independent(self, rng):
        # prob_i * C_i is one number for the whole table, even with a
        # singular filter in the chain (those outcomes carry zero weight).
        filters = (
            random_filter(rng),
            make_filter([1.0, 0.6]),
            random_filter(rng),
        )
        for mode in (VBS, PLAIN):
            report = enumerate_outcomes(SwapChain(filters, mode))
            want = math.prod(bond_concurrences(SwapChain(filters, mode))) / report.p_sum
            for rec in report.records:
                if rec.weight > 0:
                    assert rec.prob * rec.concurrence == pytest.approx(
                        want, abs=1e-10
                    )
        assert report.max_residual <= 1e-10

    def test_concurrence_equals_bond_product_over_weight(self, rng):
        filters = tuple(random_filter(rng) for _ in range(4))
        chain = SwapChain(filters, VBS)
        cprod = math.prod(bond_concurrences(chain))
        for rec in enumerate_outcomes(chain).records:
            assert rec.concurrence == pytest.approx(cprod / rec.weight, rel=1e-10)

    def test_budget_guard(self):
        f = make_filter([1, 1])
        chain = SwapChain((f,) * 18, VBS)  # 3**17 outcomes
        with pytest.raises(EnumerationBudgetError) as err:
            enumerate_outcomes(chain)
        assert "sample" in str(err.value)


class TestFinalStates:
    def test_normalized_and_consistent_with_operator(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        chain = SwapChain(filters, VBS)
        psi = final_state(chain, (2, 3))
        assert psi.is_normalized(1e-12)
        m = chain_operator(chain, (2, 3))
        expect = (m.T.reshape(-1) / np.sqrt(2)) / math.sqrt(
            0.5 * np.sum(np.abs(m) ** 2)
        )
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_concurrence_from_reduced_density(self, rng):
        # second route to the reported entanglement: 2*sqrt(det rho_A)
        filters = tuple(random_filter(rng) for _ in range(4))
        chain = SwapChain(filters, VBS)
        report = enumerate_outcomes(chain)
        for rec in report.records[::5]:
            psi = final_state(chain, rec.indices)
            rho = partial_trace(psi, [0])
            want = 2.0 * math.sqrt(max(np.linalg.det(rho).real, 0.0))
            assert rec.concurrence == pytest.approx(want, abs=1e-10)

    def test_invariant_under_local_unitaries(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        chain = SwapChain(filters, PLAIN)
        rec = enumerate_outcomes(chain).records[7]
        psi = final_state(chain, rec.indices)
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        rotated = kron(u, v) @ psi.amplitudes
        rho = rotated.reshape(2, 2) @ rotated.reshape(2, 2).conj().T
        want = 2.0 * math.sqrt(max(np.linalg.det(rho).real, 0.0))
        assert rec.concurrence == pytest.approx(want, abs=1e-10)

    def test_singular_outcome_rejected(self):
        f = make_filter([1.0, 0.0])
        chain = SwapChain((f, f), VBS)
        # sigma_x flips the surviving level into the dead one: zero weight
        with pytest.raises(ValueError):
            final_state(chain, (1,))


class TestTransferSums:
    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    def test_matches_enumeration(self, rng, mode):
        for n_bonds in range(1, 8):
            filters = tuple(random_filter(rng) for _ in range(n_bonds))
            chain = SwapChain(filters, mode)
            direct = enumerate_outcomes(chain).p_sum
            fast = p_sum_transfer(chain)
            assert abs(fast - direct) / direct <= 1e-12

    def test_plain_mode_sum_is_four_to_the_n(self, rng):
        # completeness over all sixteen Bell pairings per node
        for n in (1, 2, 5):
            filters = tuple(random_filter(rng) for _ in range(n + 1))
            chain = SwapChain(filters, PLAIN)
            assert p_sum_transfer(chain) == pytest.approx(4.0**n, rel=1e-12)

    def test_zero_nodes(self):
        chain = SwapChain((make_filter([2, 1]),), VBS)
        assert p_sum_transfer(chain) == pytest.approx(1.0, abs=1e-15)

    def test_log_variant_agrees(self, rng):
        filters = tuple(random_filter(rng) for _ in range(5))
        chain = SwapChain(filters, VBS)
        assert log_p_sum_transfer(chain) == pytest.approx(
            math.log(p_sum_transfer(chain)), abs=1e-12
        )

    def test_maximal_chain_scales_like_three_to_the_n(self):
        f = make_filter([1, 1])
        n = 100_000
        chain = SwapChain((f,) * (n + 1), VBS)
        assert log_p_sum_transfer(chain) == pytest.approx(n * math.log(3.0), rel=1e-12)


class TestTradeoffConstant:
    def test_worked_instance(self):
        assert tradeoff_constant(worked_chain()) == pytest.approx(8.0 / 33.0, rel=1e-12)

    def test_log_companion(self):
        chain = worked_chain()
        assert log_tradeoff_constant(chain) == pytest.approx(
            math.log(8.0 / 33.0), abs=1e-12
        )

    def test_singular_chain_collapses_to_zero(self):
        chain = SwapChain((make_filter([1, 0]), make_filter([1, 1])), VBS)
        assert tradeoff_constant(chain) == 0.0
        assert log_tradeoff_constant(chain) == -math.inf

    def test_scan_agrees_with_direct_evaluation(self):
        f = make_filter([2.0, 1.0])
        scan = scan_log_constants(f, 6, VBS)
        assert scan.shape == (6,)
        for n in range(1, 7):
            chain = SwapChain((f,) * (n + 1), VBS)
            assert scan[n - 1] == pytest.approx(log_tradeoff_constant(chain), abs=1e-12)

    def test_plain_scan_is_exactly_affine(self):
        # per-swap cost in plain mode: each step multiplies the constant by C/4
        c = 0.8
        f = make_filter([math.sqrt(1.6), math.sqrt(0.4)])
        scan = scan_log_constants(f, 8, PLAIN)
        for n in range(1, 9):
            want = (n + 1) * math.log(c) - n * math.log(4.0)
            assert scan[n - 1] == pytest.approx(want, abs=1e-10)

    def test_vbs_scan_reaches_its_asymptotic_slope(self):
        f = make_filter([math.sqrt(1.6), math.sqrt(0.4)])
        a, b = 1.6, 0.4
        scan = scan_log_constants(f, 60, VBS)
        # increments must converge to log C - log mu, mu the dominant
        # eigenvalue 1 + sqrt(1 + 3ab) of the per-node weight recursion
        mu = 1.0 + math.sqrt(1.0 + 3.0 * a * b)
        tail = scan[-1] - scan[-2]
        assert tail == pytest.approx(math.log(0.8) - math.log(mu), abs=1e-9)
        assert np.all(np.diff(scan) < 0)


class TestSampling:
    def test_frequencies_track_exact_probabilities(self):
        chain = worked_chain()
        counts = sample_outcomes(chain, 100_000, seed=42)
        assert sum(counts.values()) == 100_000
        exact = {r.indices: r.prob for r in enumerate_outcomes(chain).records}
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / 100_000 - p) for k, p in exact.items()
        )
        assert tv <= 0.02

    def test_plain_mode_multi_node_chain(self, rng):
        filters = tuple(random_filter(rng) for _ in range(4))
        chain = SwapChain(filters, PLAIN)
        counts = sample_outcomes(chain, 50_000, seed=7)
        assert sum(counts.values()) == 50_000
        exact = {r.indices: r.prob for r in enumerate_outcomes(chain).records}
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / 50_000 - exact.get(k, 0.0))
            for k in set(counts) | set(exact)
        )
        assert tv <= 0.05

    def test_deterministic_per_seed(self):
        chain = worked_chain()
        a = sample_outcomes(chain, 500, seed=11)
        b = sample_outcomes(chain, 500, seed=11)
        c = sample_outcomes(chain, 500, seed=12)
        assert a == b
        assert a != c

    def test_indices_are_valid(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        counts = sample_outcomes(SwapChain(filters, VBS), 200, seed=3)
        for combo in counts:
            assert len(combo) == 2
            assert all(i in (1, 2, 3) for i in combo)

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("n_nodes", [1, 9, 50])
    def test_counts_match_row_unique_reference(self, rng, mode, n_nodes):
        filters = tuple(random_filter(rng) for _ in range(n_nodes + 1))
        counts = sample_outcomes(SwapChain(filters, mode), 10_000, seed=5)
        # the same draws, shuffled, through np.unique(axis=0) as before
        keys = np.array(list(counts), dtype=np.int64).reshape(len(counts), n_nodes)
        draws = rng.permutation(np.repeat(keys, list(counts.values()), axis=0))
        uniq, cnt = np.unique(draws, axis=0, return_counts=True)
        ref = {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, cnt)}
        assert list(counts.items()) == list(ref.items())
        assert all(type(i) is int for key in counts for i in key)
        assert all(type(c) is int for c in counts.values())

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_outcomes(worked_chain(), 0)


class TestChainValidation:
    def test_needs_at_least_one_bond(self):
        with pytest.raises(ValueError):
            SwapChain((), VBS)

    def test_rejects_qudit_filters(self):
        with pytest.raises(ValueError):
            SwapChain((make_filter([1, 1, 1]), make_filter([1, 1, 1])), VBS)

    def test_rejects_unknown_mode(self):
        f = make_filter([1, 1])
        with pytest.raises(ValueError):
            SwapChain((f, f), "diagonal")

    def test_bond_concurrences_order(self):
        chain = SwapChain((make_filter([2, 1]), make_filter([1, 1])), VBS)
        cs = bond_concurrences(chain)
        assert cs[0] == pytest.approx(0.8)
        assert cs[1] == pytest.approx(1.0)
