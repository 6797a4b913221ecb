"""End-to-end qubit chains: operators, outcome tables, transfer sums, sampling.

The reference values in this file were frozen from two independent routes:
a hand calculation for the diag(2,1) worked instance and a brute-force
matrix-product oracle (local Pauli constants, plain ``@`` loops) that is
re-run inside the tests themselves.  The long-chain outputs pinned in
TestPinnedOutputs were recorded from an earlier version of the code and
must be reproduced bit for bit.
"""

import cmath
import hashlib
import itertools
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron, random_unitary
from reference import (
    ROUNDED_ONCE,
    decimal_concurrences,
    decimal_scan,
    digit_table_reference,
    draw_reference,
    exact_columns,
    full_route_columns,
    reduced_density,
    ulp_errors,
    unit_state,
)

from bondswap import qubit
from bondswap.filters import PLAIN, QUDIT, VBS, make_filter, random_filter
from bondswap.linalg import EnumerationBudgetError, state_from_operator
from bondswap.qubit import (
    _MODES,
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
    PAULI,
    log_p_sum_transfer,
    p_sum_transfer,
    row_index,
    sample_outcomes,
    scan_log_constants,
    tradeoff_constant,
)
from bondswap.qudit import enumerate_qudit_outcomes

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


# Long-chain outputs recorded from the code before the transfer map, the scan
# and the sampler shared one recursion; every later version must reproduce
# them bit for bit (draws, float.hex of transfer sums and scan entries; the
# scan entries were recorded again from its closed form).
PINNED_DIAGS = {
    "one-zero": [[1, 0]],
    "zero-one": [[0, 1]],
    "tiny": [[1e-150, 1]],
    "near-ideal": [[1, 0.99 + 0.1j]],
    "complex": [[0.6 + 0.8j, 0.3 - 0.1j], [0.2j, 1.1], [1, -0.45 + 0.05j],
                [0.7, 0.7 - 0.2j]],
}


def pinned_chain(name, mode, n_bonds):
    """``n_bonds`` bonds cycling through the diagonals of PINNED_DIAGS[name]."""
    filts = [make_filter(d) for d in PINNED_DIAGS[name]]
    return SwapChain(tuple(filts[k % len(filts)] for k in range(n_bonds)), mode)


def compact_counts(counts):
    """'digits:count' per drawn record, in the dict's order."""
    return " ".join(
        "".join(map(str, key)) + ":" + str(c) for key, c in counts.items()
    )


# sample_outcomes(pinned_chain(name, mode, 4), 300, seed=2009)
PINNED_SAMPLES = {
    (VBS, 'one-zero'): (
        '222:300'
    ),
    (VBS, 'zero-one'): (
        '222:300'
    ),
    (VBS, 'tiny'): (
        '222:300'
    ),
    (VBS, 'near-ideal'): (
        '111:15 112:6 113:8 121:11 122:9 123:16 131:11 132:16 133:9 '
        '211:16 212:9 213:9 221:11 222:13 223:8 231:15 232:9 233:15 '
        '311:12 312:13 313:4 321:12 322:10 323:12 331:10 332:14 333:7'
    ),
    (VBS, 'complex'): (
        '111:30 112:9 113:20 121:2 122:3 123:8 131:25 132:27 133:19 '
        '211:4 212:3 213:3 222:4 231:3 232:4 233:5 311:24 312:19 313:15 '
        '321:6 322:3 323:7 331:20 332:23 333:14'
    ),
    (PLAIN, 'one-zero'): (
        '000:36 002:35 020:41 022:43 200:40 202:31 220:39 222:35'
    ),
    (PLAIN, 'zero-one'): (
        '000:36 002:35 020:41 022:43 200:40 202:31 220:39 222:35'
    ),
    (PLAIN, 'tiny'): (
        '000:36 002:35 020:41 022:43 200:40 202:31 220:39 222:35'
    ),
    (PLAIN, 'near-ideal'): (
        '000:6 001:3 002:4 003:3 010:5 011:3 012:4 013:8 020:5 021:7 '
        '022:6 023:1 030:5 031:5 032:8 033:6 100:5 101:3 102:5 103:3 '
        '110:8 111:3 112:6 113:2 120:3 121:3 122:7 123:5 130:8 131:5 '
        '132:5 133:5 200:8 201:6 202:6 203:3 210:3 211:5 212:4 213:4 '
        '220:6 221:6 222:5 223:3 230:2 231:4 232:6 233:4 300:4 301:6 '
        '302:6 310:4 311:4 312:1 313:7 320:8 321:3 322:4 323:2 330:2 '
        '331:8 332:6 333:5'
    ),
    (PLAIN, 'complex'): (
        '001:1 010:1 011:2 012:1 013:1 020:1 021:3 030:2 031:3 032:3 '
        '033:1 100:5 101:2 102:2 103:1 110:18 111:7 112:16 113:14 120:1 '
        '122:4 123:4 130:17 131:14 132:18 133:13 200:2 201:1 203:1 211:2 '
        '212:3 221:1 222:2 230:1 232:3 233:1 300:4 301:3 302:6 303:1 '
        '310:12 311:16 312:8 313:12 320:3 321:5 322:2 323:3 330:13 '
        '331:16 332:14 333:10'
    ),
}
# p_sum_transfer and log_p_sum_transfer at 4 bonds, log_p_sum_transfer at
# 3001 bonds, tradeoff_constant at 4 and at 501 bonds
PINNED_TRANSFER = {
    (VBS, 'one-zero'): (
        '0x1.ffffffffffff8p+2',
        '0x1.0a2b23f3bab71p+1',
        '0x1.03ee211c0456dp+11',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (VBS, 'zero-one'): (
        '0x1.ffffffffffff8p+2',
        '0x1.0a2b23f3bab71p+1',
        '0x1.03ee211c0456dp+11',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (VBS, 'tiny'): (
        '0x1.ffffffffffff8p+2',
        '0x1.0a2b23f3bab71p+1',
        '0x1.03ee211c0456dp+11',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (VBS, 'near-ideal'): (
        '0x1.affdc51fc43cap+4',
        '0x1.a5dd5259c9c6dp+1',
        '0x1.9bfa2f8c2e5cdp+11',
        '0x1.2f6604a837666p-5',
        '0x1.6da342bd50343p-793',
    ),
    (VBS, 'complex'): (
        '0x1.4c082d6de4cdbp+5',
        '0x1.dce6acc175a58p+1',
        '0x1.cc883be008f63p+11',
        '0x1.dff04961cb1f6p-9',
        '0x0.0p+0',
    ),
    (PLAIN, 'one-zero'): (
        '0x1.ffffffffffff8p+5',
        '0x1.0a2b23f3bab72p+2',
        '0x1.03ee211c0456dp+12',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (PLAIN, 'zero-one'): (
        '0x1.ffffffffffff8p+5',
        '0x1.0a2b23f3bab72p+2',
        '0x1.03ee211c0456dp+12',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (PLAIN, 'tiny'): (
        '0x1.ffffffffffff8p+5',
        '0x1.0a2b23f3bab72p+2',
        '0x1.03ee211c0456dp+12',
        '0x0.0p+0',
        '0x0.0p+0',
    ),
    (PLAIN, 'near-ideal'): (
        '0x1.ffffffffffff4p+5',
        '0x1.0a2b23f3bab72p+2',
        '0x1.03ee211c0456dp+12',
        '0x1.fff98348f706ep-7',
        '0x1.fcd5f9b6ff2bcp-1001',
    ),
    (PLAIN, 'complex'): (
        '0x1.0000000000002p+6',
        '0x1.0a2b23f3bab74p+2',
        '0x1.03ee211c04570p+12',
        '0x1.373d79ec30d1fp-9',
        '0x0.0p+0',
    ),
}
# scan_log_constants(first filter, 3000, mode) at N = 1, 2, 10, 300, 3000, recorded
# from the closed form, each within half an ulp of reference.decimal_scan
PINNED_SCANS = {
    (VBS, 'one-zero'): (
        '-inf',
        '-inf',
        '-inf',
        '-inf',
        '-inf',
    ),
    (VBS, 'zero-one'): (
        '-inf',
        '-inf',
        '-inf',
        '-inf',
        '-inf',
    ),
    (VBS, 'tiny'): (
        '-0x1.590a8b738c127p+9',
        '-0x1.02de16d9a8081p+10',
        '-0x1.dad24fec5bff6p+11',
        '-0x1.96190617daeabp+16',
        '-0x1.fa1b7f911d233p+19',
    ),
    (VBS, 'near-ideal'): (
        '-0x1.193fbc7608130p+0',
        '-0x1.193f6bbab702dp+1',
        '-0x1.5f8eea097750ep+3',
        '-0x1.4995e6d5236b5p+8',
        '-0x1.9bfb5fbe12561p+11',
    ),
    (VBS, 'complex'): (
        '-0x1.f3f99e2e71d58p+0',
        '-0x1.b23e8dee25f69p+1',
        '-0x1.db8a23af544b8p+3',
        '-0x1.ae9c0800e2790p+8',
        '-0x1.0cd5ffe348cd1p+12',
    ),
    (PLAIN, 'one-zero'): (
        '-inf',
        '-inf',
        '-inf',
        '-inf',
        '-inf',
    ),
    (PLAIN, 'zero-one'): (
        '-inf',
        '-inf',
        '-inf',
        '-inf',
        '-inf',
    ),
    (PLAIN, 'tiny'): (
        '-0x1.5963447f87fb5p+9',
        '-0x1.0336cfe5a3f0fp+10',
        '-0x1.dbb01e8a51c5ap+11',
        '-0x1.96e8f7cbf1549p+16',
        '-0x1.fb1f6db239278p+19',
    ),
    (PLAIN, 'near-ideal'): (
        '-0x1.62e5cf2007385p+0',
        '-0x1.62e56753ee520p+1',
        '-0x1.bb9e595cd1002p+3',
        '-0x1.9fe45c42c64bfp+8',
        '-0x1.03eeb934f6537p+12',
    ),
    (PLAIN, 'complex'): (
        '-0x1.3f215b3491984p+1',
        '-0x1.1bb58a6561a61p+2',
        '-0x1.3f371c2f8a1d6p+4',
        '-0x1.233d3d1da09ebp+9',
        '-0x1.6bbcd9cf369a7p+12',
    ),
}
PINNED_KEYS = list(PINNED_SAMPLES)
# sha256 of compact_counts(sample_outcomes(pinned_chain("complex", mode, 1001),
# 500, seed=2009)): 1000 nodes, long enough for the suffix normalization to matter
PINNED_LONG_SAMPLES = {
    VBS: "ca6fd72020dbb6f4e68bd4ca3a9c7ea812ffbd0a4ec5ba75527903989ae960b6",
    PLAIN: "7440014a3359241df5af85436ad3256d0e3932324ce138eac6352505ae0ef34e",
}


class TestPauliConventions:
    def test_ordering(self):
        assert np.array_equal(PAULI[0], np.eye(2))
        assert np.array_equal(PAULI[1], SX)
        assert np.array_equal(PAULI[2], SZ)
        assert np.array_equal(PAULI[3], np.array([[0, -1], [1, 0]]))

    def test_third_label_is_x_times_z(self):
        assert np.allclose(PAULI[3], PAULI[1] @ PAULI[2])

    def test_antisymmetric_label_squares_to_minus_identity(self):
        assert np.allclose(PAULI[3] @ PAULI[3], -np.eye(2))


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


def table_weights(chain):
    return {rec.indices: rec.weight for rec in enumerate_outcomes(chain).records}


class TestOutcomeWeights:
    def test_worked_instance_weights(self):
        weights = table_weights(worked_chain())
        assert weights[(2,)] == pytest.approx(1.36, abs=1e-12)
        assert weights[(1,)] == pytest.approx(0.64, abs=1e-12)
        assert weights[(3,)] == pytest.approx(0.64, abs=1e-12)

    def test_matches_brute_force_table(self, rng):
        filters = tuple(random_filter(rng) for _ in range(4))
        for mode in (VBS, PLAIN):
            weights = table_weights(SwapChain(filters, mode))
            table = oracle_table(filters, mode)
            assert set(weights) == set(table)
            for combo, (w, _) in table.items():
                assert weights[combo] == pytest.approx(w, rel=1e-12)


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


def final_state(chain, indices):
    """Normalized end-pair state (I ⊗ M)|Φ+⟩/‖·‖ of one outcome."""
    return unit_state(state_from_operator(chain_operator(chain, indices), 2))


class TestFinalStates:
    def test_normalized_and_consistent_with_operator(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        chain = SwapChain(filters, VBS)
        for rec in enumerate_outcomes(chain).records:
            m = chain_operator(chain, rec.indices)
            # the unnormalized state's squared norm Tr(M M†)/2 is the table weight
            assert state_from_operator(m, 2).norm() ** 2 == pytest.approx(rec.weight, rel=1e-12)
            psi = final_state(chain, rec.indices)
            assert psi.is_normalized(1e-12)
            expect = (m.T.reshape(-1) / np.sqrt(2)) / math.sqrt(rec.weight)
            assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_singular_outcome_rejected(self):
        f = make_filter([1.0, 0.0])
        chain = SwapChain((f, f), VBS)
        # sigma_x flips the surviving level into the dead one: zero weight
        rec = {r.indices: r for r in enumerate_outcomes(chain).records}[(1,)]
        assert (rec.weight, rec.prob, rec.concurrence) == (0.0, 0.0, 0.0)
        assert not chain_operator(chain, (1,)).any()
        with pytest.raises(ValueError):
            final_state(chain, (1,))

    def test_concurrence_from_reduced_density(self, rng):
        # second route to the reported entanglement: 2*sqrt(det rho_A)
        filters = tuple(random_filter(rng) for _ in range(4))
        chain = SwapChain(filters, VBS)
        report = enumerate_outcomes(chain)
        for rec in report.records[::5]:
            psi = final_state(chain, rec.indices)
            rho = reduced_density(psi, 0)
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

    def test_overflow_returns_inf(self):
        # P_sum = 2^3000 leaves the float range; the log stays finite
        chain = SwapChain((make_filter([1, 0]),) * 3001, VBS)
        assert p_sum_transfer(chain) == math.inf
        assert log_p_sum_transfer(chain) == pytest.approx(3000 * math.log(2.0), rel=1e-12)

    def test_maximal_chain_scales_like_three_to_the_n(self):
        f = make_filter([1, 1])
        n = 100_000
        chain = SwapChain((f,) * (n + 1), VBS)
        assert log_p_sum_transfer(chain) == pytest.approx(n * math.log(3.0), rel=1e-12)


class TestTradeoffConstant:
    def test_worked_instance(self):
        assert tradeoff_constant(worked_chain()) == pytest.approx(8.0 / 33.0, rel=1e-12)

    def test_log_companion(self):
        # the scan's N = 1 entry is the worked instance's constant, in logs
        scan = scan_log_constants(make_filter([2.0, 1.0]), 1, VBS)
        assert scan[0] == pytest.approx(math.log(8.0 / 33.0), abs=1e-12)
        singular = scan_log_constants(make_filter([1, 0]), 3, VBS)
        assert singular.tolist() == [-math.inf] * 3

    def test_singular_chain_collapses_to_zero(self):
        chain = SwapChain((make_filter([1, 0]), make_filter([1, 1])), VBS)
        assert tradeoff_constant(chain) == 0.0

    def test_scan_agrees_with_direct_evaluation(self):
        f = make_filter([2.0, 1.0])
        scan = scan_log_constants(f, 6, VBS)
        assert scan.shape == (6,)
        for n in range(1, 7):
            chain = SwapChain((f,) * (n + 1), VBS)
            assert scan[n - 1] == pytest.approx(math.log(tradeoff_constant(chain)), abs=1e-12)

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


# Each scan entry is its exact value rounded once, but for about 2^-60 of slack: the
# transient's float q·r^N and the series of its log1p
SCAN_ULPS = 0.51


class TestScanAgainstTransfer:
    """The closed-form scan and the single-chain transfer loop are two routes to
    (N+1)·log c − log P_sum: each is held to the Decimal recursion, and to the other."""

    # every pinned filter first renormalizes between N = 64 and N = 1000, in both modes
    NODES = sorted(set(range(1, 65)) | set(range(50, 1001, 50)))

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("diag", [d for diags in PINNED_DIAGS.values() for d in diags],
                             ids=str)
    def test_routes_within_their_bounds(self, mode, diag):
        f = make_filter(diag)
        scan = scan_log_constants(f, 1000, mode)[np.array(self.NODES) - 1]
        c = qubit._transfer_concurrences(np.abs(f.diag)[None])[0]
        chains = [SwapChain((f,) * (n + 1), mode) for n in self.NODES]
        if c == 0.0:
            assert scan.tolist() == [-math.inf] * len(self.NODES)
        else:
            loop = np.array([(n + 1) * math.log(c) - log_p_sum_transfer(chain)
                             for n, chain in zip(self.NODES, chains)])
            want = decimal_scan((np.abs(f.diag) ** 2).tolist(), c, _MODES[mode].class_sizes,
                                self.NODES)
            index = np.arange(len(want))
            assert ulp_errors(scan, want, index).max() <= SCAN_ULPS
            # the loop rounds at every step: up to 2.37 ulp measured
            assert ulp_errors(loop, want, index).max() <= 2.5
            assert np.all(np.abs(scan - loop) <= 3 * np.spacing(np.abs(loop)))
        shifts = [qubit._transfer(_MODES[mode], np.abs(chains[self.NODES.index(n)].diags) ** 2)[2]
                  for n in (64, 1000)]
        assert shifts[0] == 0.0 != shifts[1]


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


# the PINNED_DIAGS edge rows, a bond ratio |λ0/λ1| = 1e150, and the general case
DRAW_DIAGS = {**{name: PINNED_DIAGS[name] for name in ("one-zero", "zero-one", "tiny")},
              "ratio-1e150": [[1e150, 1]], "complex": PINNED_DIAGS["complex"]}


class TieRng:
    """Stands in for the sampler's generator and puts every draw on a tie.

    It redoes the reference's float steps one draw at a time, in Python floats
    (the same IEEE roundings), and at each node returns the u for which
    t = u·total lands exactly on one of the node's thresholds, picked at random.
    A draw then depends on every bit of the weights, thresholds and state, so a
    sampler one ulp off the reference gives other digits.  ``digits`` holds the
    draws these floats give, row by row."""

    def __init__(self, chain, n_samples, pick_seed):
        mode = _MODES[chain.mode]
        self.k, self.s = k, s = mode.class_sizes
        self.mags = mags = (np.abs(chain.diags) ** 2).tolist()
        self.suffix = [(1.0, 1.0)] * len(mags)
        for j in range(len(mags) - 1, 0, -1):
            (a, b), (g0, g1) = mags[j], self.suffix[j]
            h0, h1 = a * g0, b * g1
            g0, g1 = k * h0 + s * h1, s * h0 + k * h1
            self.suffix[j - 1] = (g0 / (g0 + g1), g1 / (g0 + g1))
        self.mode, self.node, self.pick = mode, 0, np.random.Generator(np.random.PCG64(pick_seed))
        self.state = [tuple(mags[0])] * n_samples
        self.digits = [[] for _ in range(n_samples)]

    @staticmethod
    def tie(target, total):
        u = target / total
        for _ in range(8):  # step u until u·total rounds to the target
            if u * total == target or u == 0.0:
                break
            u = math.nextafter(u, -math.inf if u * total > target else math.inf)
        return min(u, math.nextafter(1.0, 0.0))

    def random(self, size=None, out=None):
        self.node += 1
        (a, b), (g0, g1) = self.mags[self.node], self.suffix[self.node]
        cl = self.mode.classes
        uniforms = []
        for lane, (v0, v1) in enumerate(self.state):
            w_keep = a * v0 * g0 + b * v1 * g1
            w_swap = a * v1 * g0 + b * v0 * g1
            total = self.k * w_keep + self.s * w_swap
            thresholds = [(c - sum(cl[:c])) * w_keep + sum(cl[:c]) * w_swap
                          for c in range(1, len(cl))]
            u = self.tie(thresholds[self.pick.integers(len(thresholds))], total)
            c = sum(u * total >= x for x in thresholds)
            self.digits[lane].append(self.mode.digits.start + c)
            if cl[c]:
                v0, v1 = v1, v0
            v0, v1 = v0 * a, v1 * b
            self.state[lane] = (v0 / (v0 + v1), v1 / (v0 + v1))
            uniforms.append(u)
        if out is None:
            return np.array(uniforms)
        out[:] = uniforms
        return out


class TestDrawMatchesReference:
    """_draw's buffered node loop gives the digits of the reference loop bit for bit."""

    def check(self, chain, n_samples, seed):
        got = _draw(chain, n_samples, seed)
        assert got.shape == (n_samples, chain.n_nodes)
        assert got.dtype == np.uint8
        assert np.array_equal(got, draw_reference(chain, n_samples, seed))
        digits = _MODES[chain.mode].digits
        assert got.size == 0 or digits.start <= got.min() <= got.max() < digits.stop

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("name", list(DRAW_DIAGS))
    @pytest.mark.parametrize("n_nodes", [0, 1, 2, 13, 200])
    def test_equals_reference(self, mode, name, n_nodes):
        filts = [make_filter(d) for d in DRAW_DIAGS[name]]
        chain = SwapChain(tuple(filts[k % len(filts)] for k in range(n_nodes + 1)), mode)
        for n_samples, seeds in ((1, (0, 1, 2009)), (3, (0, 1, 2009)), (10_000, (7, 2009))):
            for seed in seeds:
                self.check(chain, n_samples, seed)

    # |λ| from 1e-170 to 1e170: bond ratios whose |λ|² fall to the subnormals or to 0
    @given(mode=st.sampled_from([VBS, PLAIN]),
           diags=st.lists(st.tuples(st.integers(-170, 170), st.integers(-170, 170),
                                    st.floats(0, 2 * math.pi)), min_size=1, max_size=8),
           n_samples=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_equals_reference_at_extreme_ratios(self, mode, diags, n_samples, seed):
        filters = tuple(make_filter([10.0 ** e0, 10.0 ** e1 * cmath.exp(1j * ph)])
                        for e0, e1, ph in diags)
        self.check(SwapChain(filters, mode), n_samples, seed)

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("name", list(DRAW_DIAGS))
    def test_ties_give_the_reference_digits(self, monkeypatch, mode, name):
        filts = [make_filter(d) for d in DRAW_DIAGS[name]]
        chain = SwapChain(tuple(filts[k % len(filts)] for k in range(41)), mode)
        for draw in (_draw, draw_reference):
            rngs = []
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed: rngs.append(TieRng(chain, 16, seed)) or rngs[0])
            got = draw(chain, 16, 5)
            assert np.array_equal(got, np.array(rngs[0].digits, dtype=np.uint8))

    def test_draw_memory_stays_in_budget(self):
        # the node loop's buffers and the N-byte digit rows: (100 + N) B a draw
        chain = pinned_chain("complex", VBS, 14)
        tracemalloc.start()
        try:
            draws = _draw(chain, 200_000, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.shape == (200_000, 13)
        assert peak <= (100 + 13) * 200_000


def pinned_sample_counts(mode, name):
    return compact_counts(sample_outcomes(pinned_chain(name, mode, 4), 300, seed=2009))


def pinned_long_sample_digest(mode):
    counts = sample_outcomes(pinned_chain("complex", mode, 1001), 500, seed=2009)
    return hashlib.sha256(compact_counts(counts).encode()).hexdigest()


def pinned_transfer_values(mode, name):
    short = pinned_chain(name, mode, 4)
    got = (
        p_sum_transfer(short),
        log_p_sum_transfer(short),
        log_p_sum_transfer(pinned_chain(name, mode, 3001)),
        tradeoff_constant(short),
        tradeoff_constant(pinned_chain(name, mode, 501)),
    )
    return tuple(map(float.hex, got))


def pinned_scan_entries(mode, name):
    scan = scan_log_constants(make_filter(PINNED_DIAGS[name][0]), 3000, mode)
    return tuple(float.hex(float(scan[i])) for i in (0, 1, 9, 299, 2999))


class TestPinnedOutputs:
    """Long-chain outputs stay bit-identical to the recorded ones."""

    @pytest.mark.parametrize("mode, name", PINNED_KEYS)
    def test_sample_counts(self, mode, name):
        assert pinned_sample_counts(mode, name) == PINNED_SAMPLES[mode, name]

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    def test_long_chain_sample_digest(self, mode):
        assert pinned_long_sample_digest(mode) == PINNED_LONG_SAMPLES[mode]

    @pytest.mark.parametrize("mode, name", PINNED_KEYS)
    def test_transfer_values(self, mode, name):
        assert pinned_transfer_values(mode, name) == PINNED_TRANSFER[mode, name]

    @pytest.mark.parametrize("mode, name", PINNED_KEYS)
    def test_scan_entries(self, mode, name):
        assert pinned_scan_entries(mode, name) == PINNED_SCANS[mode, name]


def refused(base, n, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qubit, "ENUMERATION_BUDGET", budget)
        try:
            check_budget(base, n)
        except EnumerationBudgetError:
            return True
    return False


class TestCheckBudget:
    """A table is refused from its row count base^n alone, before any allocation."""

    def test_boundary(self, monkeypatch):
        assert not refused(3, 13, 3**13)  # exactly the budget: allowed
        monkeypatch.setattr(qubit, "ENUMERATION_BUDGET", 3**13 - 1)
        with pytest.raises(EnumerationBudgetError, match=r"^3\^13 = 1\.59e\+06 outcome rows"):
            check_budget(3, 13)

    def test_agrees_with_the_full_row_count(self):
        # past the budget's bit length the check skips base ** n: it must still
        # refuse exactly the tables with base^n > budget
        for base in (2, 3, 4, 9, 64):
            for budget in (1, 2, 3, 63, 64, 65, ENUMERATION_BUDGET):
                for n in range(budget.bit_length() + 3):
                    assert refused(base, n, budget) == (base**n > budget), (base, budget, n)

    def test_huge_node_count_is_refused_without_the_row_count(self):
        # 3 ** 10**7 takes seconds to build as an integer; the refusal does not
        with pytest.raises(EnumerationBudgetError) as err:
            check_table_budget(VBS, 10**7)
        msg = str(err.value)
        assert msg.startswith("3^10000000 = ") and " GB at " in msg
        assert msg.endswith(f"budget of {ENUMERATION_BUDGET} rows; "
                            "use sample_outcomes or p_sum_transfer instead")

    def test_plain_mode_counts_four_outcomes_per_node(self):
        n = int(math.log(ENUMERATION_BUDGET, 4))
        check_table_budget(PLAIN, n)
        with pytest.raises(EnumerationBudgetError, match=rf"^4\^{n + 1} = "):
            check_table_budget(PLAIN, n + 1)


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

    def test_scan_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'diagonal'"):
            scan_log_constants(make_filter([1, 1]), 3, "diagonal")

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_scan_rejects_an_empty_range(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            scan_log_constants(make_filter([2, 1]), n_max)

    def test_scan_rejects_qudit_filter(self):
        with pytest.raises(ValueError, match="FilterOps of dim 2"):
            scan_log_constants(make_filter([1, 1, 1]), 3, PLAIN)

    def test_bond_concurrences_order(self):
        chain = SwapChain((make_filter([2, 1]), make_filter([1, 1])), VBS)
        cs = bond_concurrences(chain)
        assert cs[0] == pytest.approx(0.8)
        assert cs[1] == pytest.approx(1.0)

    def test_diagonals_held_as_one_read_only_array(self):
        filters = (make_filter([2, 1]), make_filter([1, 1j]), make_filter([2, 1]))
        chain = SwapChain(filters, VBS)
        assert chain.diags.shape == (3, 2) and not chain.diags.flags.writeable
        assert np.array_equal(chain.diags, [f.diag for f in filters])


class TestBondConcurrencesBits:
    """bond_concurrences is the table kernel's D·G / Tr on each bond alone (N = 0),
    the 60-digit value rounded once."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_per_bond_route(self, rng, dim):
        def draw(i):  # |λ| down to 0.01, complex phases on every other bond
            mags = rng.uniform(0.01, 1.0, dim)
            return make_filter(mags * np.exp(2j * np.pi * rng.random(dim)) if i % 2 == 0 else mags)

        filters = [draw(i) for i in range(300)]
        filters[7] = make_filter([0] + [1] * (dim - 1))  # singular: C = 0
        filters[8] = make_filter([1] * dim)  # maximal: C = 1
        filts = tuple(filters)
        chain = SwapChain(filts, PLAIN if dim == 2 else QUDIT)
        exact = []
        for f in filters:
            mags = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in f.diag.tolist()]
            exact += decimal_concurrences([sum(mags) / dim], math.prod(mags), dim, prec=60)
        got = bond_concurrences(chain)
        assert got[7] == 0.0 and got[8] == 1.0
        errors = ulp_errors(got, exact, np.arange(len(exact)))
        assert np.max(errors) <= ROUNDED_ONCE


@st.composite
def qubit_chains(draw, max_nodes, min_nodes=0, depth=None):
    """A vbs or plain chain of min_nodes..max_nodes nodes; each bond's diagonal
    is complex, real with random signs, or near-singular (|λ0/λ1| up to 1e150).
    A ``depth`` (lo, hi) makes every bond near-singular, with |λ0/λ1| or
    |λ1/λ0| between 10^-hi and 10^-lo."""
    mode = draw(st.sampled_from([VBS, PLAIN]))
    filters = []
    for _ in range(draw(st.integers(min_nodes, max_nodes)) + 1):
        kind = draw(st.sampled_from(["complex", "signed", "near-singular"]))
        diag = [draw(st.floats(0.35, 1.0)) for _ in range(2)]
        if kind == "complex":
            diag = [m * cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0))) for m in diag]
        else:
            diag = [m * draw(st.sampled_from([-1.0, 1.0])) for m in diag]
        if kind == "near-singular" or depth:
            diag[draw(st.integers(0, 1))] *= 10.0 ** -draw(st.floats(*(depth or (0.0, 150.0))))
        filters.append(make_filter(diag))
    return SwapChain(tuple(filters), mode)


def assert_within_ulp_bounds(report):
    """Every row's weight, prob and concurrence is its exact value rounded once, a
    concurrence also where the float weight underflows; so is p_sum, the exact sum
    of the rows' weights, and prob × C is the constant."""
    weights, probs, concs, index = exact_columns(report, prec=60)
    for name, exact in (("weight", weights), ("prob", probs), ("concurrence", concs)):
        assert np.max(ulp_errors(getattr(report, name), exact, index)) <= ROUNDED_ONCE, name
    assert report.p_sum == sum(weights[i][0] for i in index.tolist()) / weights[0][1]
    if report.constant >= sys.float_info.min:
        assert report.max_residual <= 1e-12 * report.constant


def assert_scan_within_bound(f, mode, ns, n_max=None):
    """scan_log_constants(f, n_max, mode) is finite everywhere, or −inf everywhere for
    a singular bond, and within SCAN_ULPS of reference.decimal_scan at each N of ns."""
    scan = scan_log_constants(f, n_max or ns[-1], mode)
    c = qubit._transfer_concurrences(np.abs(f.diag)[None])[0]
    if c == 0.0:
        assert np.all(scan == -math.inf)
        return scan
    assert np.all(np.isfinite(scan))
    want = decimal_scan((np.abs(f.diag) ** 2).tolist(), c, _MODES[mode].class_sizes, ns)
    assert ulp_errors(scan[np.array(ns) - 1], want, np.arange(len(ns))).max() <= SCAN_ULPS
    return scan


class TestScanClosedForm:
    """Every scan entry is (N+1)·log c − log P_sum of the float squares rounded
    about once, by the Decimal recursion; and its slope tends to log c − log ρ₊."""

    # dense through the transient, then sparse up to the pinned length
    NODES = sorted(set(range(1, 81)) | set(range(81, 3001, 37)) | {2999, 3000})

    @given(chain=qubit_chains(0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_bond_within_half_an_ulp(self, chain):
        f = chain.filters[0]
        scan = assert_scan_within_bound(f, chain.mode, self.NODES)
        c = qubit._transfer_concurrences(np.abs(chain.diags))[0]
        a, b = np.abs(f.diag) ** 2
        k, s = _MODES[chain.mode].class_sizes
        rho = max(np.linalg.eigvals([[a * k, a * s], [b * s, b * k]]).real)
        assert scan[1999] - scan[1998] == pytest.approx(math.log(c) - math.log(rho), rel=1e-12)

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("diag", [d for diags in PINNED_DIAGS.values() for d in diags],
                             ids=str)
    def test_pinned_bond_within_half_an_ulp(self, mode, diag):
        assert_scan_within_bound(make_filter(diag), mode, self.NODES)

    @pytest.mark.parametrize("mode", [VBS, PLAIN])
    @pytest.mark.parametrize("diag", [[2, 1], [1e-150, 1], [1, 0.99 + 0.1j], [1, 1e-200]],
                             ids=str)
    def test_the_budget_top_within_half_an_ulp(self, mode, diag):
        # N·S is exact only from S's leading 53 − 20 bits at n_max = 600 000
        ns = [1, 2, 3, 1000, 2 ** 17, 2 ** 19 - 1, *range(599_991, 600_001)]
        assert_scan_within_bound(make_filter(diag), mode, ns, 600_000)

    def test_log_matches_decimal_ln(self):
        # 40-digit arguments near 1e±300, within 1e-16 of 1, in between, and exactly 1
        rng = np.random.default_rng(30)
        with localcontext() as ctx:
            ctx.prec = 40
            corpus = [+(Decimal(m) * Decimal(10) ** e) for m, e in zip(
                rng.uniform(1, 10, 40), rng.integers(290, 330, 40) * rng.choice([-1, 1], 40))]
            corpus += [+(1 + Decimal(d) * Decimal(10) ** -int(e)) for d, e in zip(
                rng.uniform(-1, 1, 40), rng.integers(16, 41, 40))]
            corpus += [+Decimal(v) for v in rng.uniform(1e-3, 1e3, 40)] + [Decimal(1)]
            logs = [qubit._ln(x) for x in corpus]
        assert logs[-1] == 0
        with localcontext() as ctx:
            ctx.prec = 60
            for x, got in zip(corpus, logs):
                want = x.ln()
                assert abs(got - want) <= Decimal("1e-39") * max(1, abs(want)), x

    def test_line_is_twosum_where_the_constant_dominates(self):
        # |c_hi| > |N·s_hi| at small N, where Fast2Sum's error c_hi − back is not exact
        rng = np.random.default_rng(31)
        n_max, fast2sum_wrong = 3000, 0
        for s, c in zip(rng.uniform(-2, 2, 30) * 10.0 ** rng.integers(-8, 1, 30),
                        rng.uniform(-50, 50, 30)):
            big = s * (2.0 ** n_max.bit_length() + 1)
            s_hi = big - (big - s)  # leading bits only, so N·s_hi is exact
            s_lo, c_lo = s * 1e-17, c * 1e-17
            ns = np.arange(1, n_max + 1, dtype=float)
            x = ns * s_hi
            total = x + c
            back = total - x
            err = (x - (total - back)) + (c - back)
            got = qubit._line(n_max, s_hi, s_lo, c, c_lo)
            assert got[0].tobytes() == total.tobytes()
            assert got[1].tobytes() == (err + (ns * s_lo + c_lo)).tobytes()
            fast2sum_wrong += np.count_nonzero((c - back) != err)
        assert fast2sum_wrong > 0


class TestClassKernel:
    """Qubit tables are reduced once per keep/swap class by the real path
    recursion and gathered to the rows; every column is judged in ulps against
    exact arithmetic, near-singular bonds and |det M| below the float range
    included."""

    @given(chain=qubit_chains(8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_class_route_within_ulps_of_exact(self, chain):
        assert_within_ulp_bounds(enumerate_outcomes(chain))

    # every bond 10^-80 or deeper: |det M| is far below the normal range on every row
    @given(chain=qubit_chains(5, min_nodes=3, depth=(80.0, 160.0)))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_concurrence_below_the_normal_range(self, chain):
        report = enumerate_outcomes(chain)
        lost = np.isnan(full_route_columns(report)[2])  # the determinant route has no value
        assert lost.any() and lost[report.weight > 0.0].all()
        assert_within_ulp_bounds(report)

    @given(chain=qubit_chains(4))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_final_ops_equal_chain_operator_on_every_row(self, chain):
        report = enumerate_outcomes(chain)
        ops = report.final_ops
        assert ops.shape == (len(report.prob), 2, 2)
        for op, digits in zip(ops, report.digits.tolist()):
            assert np.array_equal(op, chain_operator(chain, digits))

    @pytest.mark.parametrize("mode", [VBS, PLAIN, *(pytest.param(d, id=f"weyl{d}")
                                                    for d in range(2, 9))])
    def test_classes_are_keep_and_swap(self, mode):
        m = _MODES[mode] if mode in _MODES else _weyl_mode(mode)
        shifts = [np.roll(np.eye(m.dim), c, axis=0) for c in range(m.dim)]  # X^c
        # every node operator is X^c times a diagonal, and c is its class
        assert all(np.array_equal(u != 0, shifts[c] != 0) for u, c in zip(m.ops, m.classes))
        assert m.class_sizes == {VBS: (1, 2), PLAIN: (2, 2)}.get(mode, (m.dim,) * m.dim)
        if m.dim == 2:  # qubit class 1 holds exactly the Paulis with a zero diagonal (σx, σ3)
            assert m.classes == tuple(int(u[0, 0] == 0) for u in m.ops)
        if mode in _MODES:  # _draw swaps on the digit's parity: an odd digit is a swap
            assert all((d & 1) == c for d, c in zip(m.digits, m.classes))
        else:  # the Weyl digit m·D + n lies in class m
            assert m.classes == tuple(d // m.dim for d in m.digits)

    @pytest.mark.parametrize("mode", [VBS, PLAIN, pytest.param(3, id="weyl3")])
    def test_node_operators_are_one_read_only_stack(self, mode):
        m = _MODES[mode] if mode in _MODES else _weyl_mode(mode)
        assert m.ops.shape == (len(m.digits), m.dim, m.dim)
        assert not m.ops.flags.writeable
        assert all(np.array_equal(u, m.op(d)) for u, d in zip(m.ops, m.digits))

    @pytest.mark.parametrize("dim, n", [(3, 3), (5, 2), (7, 2)])
    def test_p_sum_is_exact_for_odd_class_sizes(self, dim, n):
        # a shift class holds D^N rows, odd at odd D; p_sum must still be the
        # exact sum of every row's weight, rounded once
        rng = np.random.default_rng(dim)
        for _ in range(20):
            chain = SwapChain(tuple(random_filter(rng, dim) for _ in range(n + 1)), QUDIT)
            report = enumerate_qudit_outcomes(chain)
            assert set(np.bincount(report.class_index)) == {dim ** n}
            weights, _, _, index = exact_columns(report)
            assert report.p_sum == sum(weights[i][0] for i in index.tolist()) / weights[0][1]

    def test_table_holds_no_operator_batch(self):
        # 59049 rows: the table peaks at 16.5 B/row, its 10 digit bytes, the 2-byte
        # class index and the class stage's ints, bounded at 20 B/row (a 21 % margin).
        # A row counter and np.divmod's outputs took the peak to 40 B/row, holding
        # every row's operator (64 B/row) and reducing it row by row to 139 B/row
        rng = np.random.default_rng(12)
        chain = SwapChain(tuple(random_filter(rng) for _ in range(11)), VBS)
        tracemalloc.start()
        try:
            report = enumerate_outcomes(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * len(report.prob)


def report_corpus():
    """Derandomized vbs, plain and qudit D = 3..8 chains for every N the corpus
    admits: random complex, real with random signs, with a zero entry, and the
    qudit extremes whose |det| or product of roots leaves the float range."""
    rng = np.random.default_rng(2009)
    cells = [(VBS, 6), (PLAIN, 5), (3, 3), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2)]
    chains = []
    for mode, n_max in cells:
        dim = 2 if mode in (VBS, PLAIN) else mode
        for n in range(n_max + 1):
            for kind in ("complex", "signed", "zero"):
                if kind == "complex":
                    filters = [random_filter(rng, dim) for _ in range(n + 1)]
                else:
                    filters = [make_filter(rng.uniform(-1.0, 1.0, dim)) for _ in range(n + 1)]
                if kind == "zero":
                    diag = rng.uniform(0.35, 1.0, dim)
                    diag[rng.integers(dim)] = 0.0
                    filters[rng.integers(n + 1)] = make_filter(diag)
                filts = tuple(filters)
                chains.append(SwapChain(filts, mode if dim == 2 else QUDIT))
    for diag, n_bonds in (([1, 1e-100, 1e-100], 3), ([1, 1e-155, 1e-155], 2)):
        chains.append(SwapChain((make_filter(diag),) * n_bonds, QUDIT))
    for diag in ([1, 1e-160], [1, 1e-155]):
        chains += [SwapChain((make_filter(diag),) * 3, mode) for mode in (VBS, PLAIN)]
    return chains


def tradeoff_digest(reports) -> str:
    """sha256 over every column and summary value of a sequence of TradeoffReports."""
    h = hashlib.sha256()
    for r in reports:
        for col in (r.weight, r.prob, r.concurrence, r.digits, r.class_index):
            h.update(np.ascontiguousarray(col).tobytes())
        summary = (*r.bond_concurrences, r.constant, r.max_residual, r.p_sum)
        h.update(" ".join(map(float.hex, summary)).encode())
    return h.hexdigest()


def table_of(chain):
    return enumerate_qudit_outcomes(chain) if chain.mode == QUDIT else \
        enumerate_outcomes(chain)


# recorded from the exact integer kernel, once TestExactReference held it to exact values
REPORT_CORPUS_DIGEST = "3d9a8a6c7ed48ceee16de49bccfaa9f80a8b9afe8ec501c0ba0a3e54e5759c83"


class TestReportBits:
    def test_report_columns_keep_their_bits(self):
        assert tradeoff_digest(map(table_of, report_corpus())) == REPORT_CORPUS_DIGEST


class TestShapeCache:
    """_table's class index and row counts, made once per (mode, N) of at most
    _SHAPE_ROWS rows and shared read-only by every table of that shape."""

    @pytest.mark.parametrize("make", [
        lambda rng: SwapChain(tuple(random_filter(rng) for _ in range(4)), VBS),
        lambda rng: SwapChain(tuple(random_filter(rng) for _ in range(4)), PLAIN),
        lambda rng: SwapChain(tuple(random_filter(rng, 3) for _ in range(3)), QUDIT),
    ], ids=["vbs", "plain", "qudit3"])
    def test_reports_of_one_shape_share_a_read_only_index(self, rng, make):
        first, second = table_of(make(rng)), table_of(make(rng))
        assert second.class_index is first.class_index
        with pytest.raises(ValueError, match="read-only"):
            first.class_index[0] = 1

    def test_a_table_built_after_eviction_equals_a_fresh_one(self, monkeypatch):
        rng = np.random.default_rng(28)
        chain = SwapChain(tuple(random_filter(rng) for _ in range(5)), VBS)
        qubit._shape.cache_clear()
        before = enumerate_outcomes(chain)
        # as many other shapes as the cache holds evict it: qudit D = 2..33, one node
        for dim in range(2, 2 + qubit._shape.cache_info().maxsize):
            enumerate_qudit_outcomes(SwapChain((make_filter(range(1, dim + 1)),) * 2, QUDIT))
        after = enumerate_outcomes(chain)
        assert after.class_index is not before.class_index
        monkeypatch.setattr(qubit, "_SHAPE_ROWS", 0)  # every shape made afresh, not kept
        fresh = enumerate_outcomes(chain)
        assert fresh.class_index is not after.class_index
        assert tradeoff_digest([before]) == tradeoff_digest([after]) == tradeoff_digest([fresh])

    def test_the_bound_holds(self, rng):
        # every shape of at most _SHAPE_ROWS rows in bytes: vbs N = 9 is the largest.
        # A Weyl mode's classes as _weyl_mode holds them, without its D² labels
        modes = [_MODES[VBS], _MODES[PLAIN]] + [
            SimpleNamespace(digits=range(d * d), class_sizes=(d,) * d,
                            classes=tuple(i // d for i in range(d * d))) for d in range(2, 182)]
        sizes = {}
        for m, mode in enumerate(modes):
            n = 0
            while len(mode.digits) ** n <= qubit._SHAPE_ROWS:
                index, counts = qubit._shape.__wrapped__(mode, n)
                sizes[m, n] = index.nbytes + counts.nbytes
                n += 1
        assert max(sizes.values()) == sizes[0, 9] == 2 * 3 ** 9 + 8 * 2 ** 9 == 43462
        assert qubit._shape.cache_info().maxsize == 32
        # a larger table's shape is made on every call, read-only, and not kept
        chain = SwapChain(tuple(random_filter(rng) for _ in range(11)), VBS)  # 3^10 rows
        info = qubit._shape.cache_info()
        first, second = enumerate_outcomes(chain), enumerate_outcomes(chain)
        assert qubit._shape.cache_info() == info
        assert first.class_index is not second.class_index
        assert not first.class_index.flags.writeable


class TestDigitTable:
    @pytest.mark.parametrize("base", range(2, 65))
    def test_equals_the_divmod_construction(self, base):
        # every n whose table lies inside the row budget, from 0 nodes (one empty row)
        n = 0
        while base ** n <= ENUMERATION_BUDGET:
            for offset in (0, 1):
                got, want = digit_table(base, n, offset), digit_table_reference(base, n, offset)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert np.array_equal(got, want)
            n += 1

    @pytest.mark.parametrize("base, n, offset", [(3, 13, 1), (36, 4, 0)])
    def test_allocates_the_table_alone(self, base, n, offset):
        # the largest vbs and qudit tables; the divmod construction's int64 row
        # counter and quotients peaked at 59.0 and 47.0 MB against 20.7 and 6.7 MB
        tracemalloc.start()
        try:
            digits = digit_table(base, n, offset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= digits.nbytes + 64 * 1024


class TestRowIndex:
    @pytest.mark.parametrize("base, n, offset", [(3, 0, 1), (3, 5, 1), (4, 4, 0), (2, 9, 0)])
    def test_inverts_digit_table(self, base, n, offset):
        rows = row_index(digit_table(base, n, offset), base, offset)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, np.arange(base ** n))

    def test_holds_one_int64_vector(self):
        digits = np.ones((200_000, 13), dtype=np.uint8)
        tracemalloc.start()
        try:
            rows = row_index(digits, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rows.any()
        assert peak < 12 * len(digits)  # an int64 copy of the digits is 104 B/row
