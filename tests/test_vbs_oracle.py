"""Brute-force many-qubit oracle: explicit chain states, projective checks.

Everything here goes through full 2(N+1)-qubit state vectors, so the tests
double as an independent confirmation of the 2x2 operator calculus used by
the chain modules.
"""

import itertools
import math

import numpy as np
import pytest

from bondswap.filters import VBS, make_filter, random_filter
from bondswap.linalg import StateVector, fidelity_up_to_phase, state_from_operator
from bondswap.qubit import SwapChain, bell_state, chain_operator, enumerate_outcomes
from bondswap.vbs import (
    MAX_ORACLE_NODES,
    build_vbs_state,
    cross_check,
    measure_all_outcomes,
    measure_internal_sites,
    symmetric_projector,
)


def alpha_beta(a_sq):
    return math.sqrt(a_sq), math.sqrt(1.0 - a_sq)


class TestSymmetricProjector:
    def test_projector_algebra(self):
        s = symmetric_projector()
        assert np.allclose(s @ s, s, atol=1e-12)
        assert np.allclose(s, s.conj().T, atol=1e-12)
        assert np.trace(s).real == pytest.approx(3.0, abs=1e-12)

    def test_annihilates_the_singlet(self):
        s = symmetric_projector()
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.allclose(s @ singlet, 0.0, atol=1e-12)

    def test_fixes_the_measurement_basis(self):
        s = symmetric_projector()
        for i in (1, 2, 3):
            phi = bell_state(VBS, i).amplitudes
            assert np.allclose(s @ phi, phi, atol=1e-12)


class TestBuildState:
    def test_normalized(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        psi = build_vbs_state(filters)
        assert psi.dims == (2,) * 6
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_reprojection(self, rng):
        # applying the on-site symmetric projector again must change nothing
        filters = tuple(random_filter(rng) for _ in range(2))
        psi = build_vbs_state(filters)
        s = symmetric_projector()
        amps = psi.amplitudes.reshape(2, 4, 2)
        reproj = np.einsum("pq,aqb->apb", s, amps).reshape(-1)
        assert np.allclose(reproj, psi.amplitudes, atol=1e-12)

    def test_two_bond_expansion_by_hand(self):
        # four-qubit chain with bond amplitudes (a_k, b_k): projecting the
        # middle pair out of the singlet leaves five basis terms whose
        # coefficients can be written down directly.
        a0, b0 = alpha_beta(0.8)
        a1, b1 = alpha_beta(0.6)
        psi = build_vbs_state((make_filter([a0, b0]), make_filter([a1, b1])))
        expect = np.zeros(16)
        expect[0b0011] = a0 * a1 / 2.0
        expect[0b0101] = a0 * a1 / 2.0
        expect[0b0110] = -a0 * b1
        expect[0b1001] = -b0 * a1
        expect[0b1010] = b0 * b1 / 2.0
        expect[0b1100] = b0 * b1 / 2.0
        expect = expect / np.linalg.norm(expect)
        assert np.allclose(psi.amplitudes, expect, atol=1e-12)

    def test_bond_count_limits(self):
        f = make_filter([1, 1])
        with pytest.raises(ValueError):
            build_vbs_state((f,))
        with pytest.raises(ValueError):
            build_vbs_state((f,) * (MAX_ORACLE_NODES + 3))

    def test_rejects_qudit_filters(self):
        with pytest.raises(ValueError):
            build_vbs_state((make_filter([1, 1, 1]), make_filter([1, 1, 1])))


class TestMeasurement:
    def test_maximal_single_swap_weights(self):
        f = make_filter([1, 1])
        psi = build_vbs_state((f, f))
        for i in (1, 2, 3):
            w, end = measure_internal_sites(psi, (i,))
            assert w == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert end is not None

    def test_maximal_middle_outcome_end_state(self):
        f = make_filter([1, 1])
        psi = build_vbs_state((f, f))
        _, end = measure_internal_sites(psi, (2,))
        triplet = state_from_operator(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        assert fidelity_up_to_phase(end, triplet) == pytest.approx(1.0, abs=1e-12)

    def test_worked_instance_weights(self):
        f = make_filter([2, 1])
        psi = build_vbs_state((f, f))
        w2, _ = measure_internal_sites(psi, (2,))
        w1, _ = measure_internal_sites(psi, (1,))
        w3, _ = measure_internal_sites(psi, (3,))
        assert w2 == pytest.approx(17.0 / 33.0, abs=1e-12)
        assert w1 == pytest.approx(8.0 / 33.0, abs=1e-12)
        assert w3 == pytest.approx(8.0 / 33.0, abs=1e-12)

    def test_weights_sum_to_one(self, rng):
        for n_bonds in (2, 3):
            filters = tuple(random_filter(rng) for _ in range(n_bonds))
            psi = build_vbs_state(filters)
            total = 0.0
            for combo in itertools.product((1, 2, 3), repeat=n_bonds - 1):
                w, _ = measure_internal_sites(psi, combo)
                total += w
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome_has_zero_weight(self):
        # a dead level in both bonds leaves only the flip-free outcome alive
        f = make_filter([1.0, 0.0])
        psi = build_vbs_state((f, f))
        w, end = measure_internal_sites(psi, (1,))
        assert w == 0.0
        assert end is None

    def test_outcome_validation(self, rng):
        psi = build_vbs_state(tuple(random_filter(rng) for _ in range(3)))
        with pytest.raises(ValueError):
            measure_internal_sites(psi, (1,))  # wrong count
        with pytest.raises(ValueError):
            measure_internal_sites(psi, (0, 1))  # label out of range


def bell_ket_product(indices):
    """Kron of the symmetric Bell kets of internal pairs 1..N (pair 1 leftmost)."""
    ket = np.ones(1, dtype=complex)
    for i in indices:
        ket = np.kron(ket, bell_state(VBS, i).amplitudes)
    return ket


class TestBatchedOracle:
    @pytest.mark.parametrize("n_internal", [1, 2, 3, 4, 5])
    def test_matches_per_outcome_measurement(self, rng, n_internal):
        filters = tuple(random_filter(rng) for _ in range(n_internal + 1))
        psi = build_vbs_state(filters)
        weights, ends = measure_all_outcomes(psi)
        assert weights.shape == (3 ** n_internal,)
        assert ends.shape == (3 ** n_internal, 2, 2)
        digits = enumerate_outcomes(SwapChain(filters, VBS)).digits.tolist()
        for b, idx in enumerate(digits):
            # little-endian base-3 rows, node 1 least significant
            assert idx == [(b // 3 ** k) % 3 + 1 for k in range(n_internal)]
            w_ref, end_ref = measure_internal_sites(psi, idx)
            assert abs(weights[b] - w_ref) <= 1e-15
            end = StateVector((2, 2), ends[b]).normalized()
            assert fidelity_up_to_phase(end, end_ref) >= 1.0 - 1e-12

    @pytest.mark.parametrize("n_internal", [1, 2, 3])
    def test_matches_explicit_bell_projection(self, rng, n_internal):
        # an independent route: the whole N-pair bra at once, no peeling
        filters = tuple(random_filter(rng) for _ in range(n_internal + 1))
        psi = build_vbs_state(filters)
        weights, ends = measure_all_outcomes(psi)
        middle = psi.amplitudes.reshape(2, 4 ** n_internal, 2)
        combos = itertools.product((1, 2, 3), repeat=n_internal)
        for b, rev in enumerate(combos):
            idx = rev[::-1]  # product() varies its last entry fastest
            ref = np.einsum("m,amb->ab", bell_ket_product(idx).conj(), middle)
            assert np.allclose(ends[b], ref, atol=1e-15)
            assert abs(weights[b] - np.sum(np.abs(ref) ** 2)) <= 1e-15

    def test_singular_filter_zero_weight_outcomes(self, rng):
        # a dead level at both ends forbids every outcome with a net flip
        dead = make_filter([1, 0])
        filters = (dead, random_filter(rng), dead)
        psi = build_vbs_state(filters)
        weights, ends = measure_all_outcomes(psi)
        zero = np.flatnonzero(weights == 0.0)
        assert 0 < zero.size < weights.size
        for b in range(weights.size):
            idx = [(b // 3 ** k) % 3 + 1 for k in range(2)]
            w_ref, end_ref = measure_internal_sites(psi, idx)
            assert abs(weights[b] - w_ref) <= 1e-15
            assert (end_ref is None) == (b in zero)
        report = cross_check(filters)
        assert report.passed
        assert all(c.oracle_weight == 0.0 and c.fidelity == 1.0
                   for c in report.comparisons if c.chain_prob == 0.0)

    def test_report_holds_python_scalars(self, rng):
        filters = tuple(random_filter(rng) for _ in range(3))
        report = cross_check(filters)
        for c in report.comparisons:
            assert type(c.indices) is tuple
            assert all(type(i) is int for i in c.indices)
            for val in (c.oracle_weight, c.chain_prob, c.weight_dev, c.fidelity):
                assert type(val) is float
        for val in (report.worst_weight_dev, report.worst_fidelity, report.tolerance):
            assert type(val) is float
        assert type(report.passed) is bool

    def test_negative_control_on_longer_chain(self, rng):
        filters = tuple(random_filter(rng) for _ in range(4))
        honest = cross_check(filters)
        assert honest.passed
        report = cross_check(filters, corrupt_bell_order=True)
        assert not report.passed
        assert report.worst_fidelity < 1.0 - 1e-9
        # the oracle side is untouched; only the chain side was relabelled
        assert [c.oracle_weight for c in report.comparisons] == [
            c.oracle_weight for c in honest.comparisons
        ]

    def test_cross_check_at_the_size_limit(self, rng):
        # N = 8 internal nodes, 18 qubits, 6561 outcomes
        filters = tuple(random_filter(rng) for _ in range(9))
        report = cross_check(filters)
        assert report.passed, (report.worst_weight_dev, report.worst_fidelity)
        assert len(report.comparisons) == 3 ** 8 == 3 ** MAX_ORACLE_NODES


class TestAgainstOperatorRoute:
    def test_single_swap_probabilities_and_states(self, rng):
        filters = tuple(random_filter(rng) for _ in range(2))
        psi = build_vbs_state(filters)
        chain = SwapChain(filters, VBS)
        report = enumerate_outcomes(chain)
        for rec in report.records:
            w, end = measure_internal_sites(psi, rec.indices)
            assert w == pytest.approx(rec.prob, abs=1e-12)
            m = chain_operator(chain, rec.indices)
            target = state_from_operator(m, 2).normalized()
            assert fidelity_up_to_phase(end, target) == pytest.approx(1.0, abs=1e-12)

    def test_cross_check_passes_on_worked_instance(self):
        f = make_filter([2, 1])
        report = cross_check((f, f))
        assert report.passed
        assert report.worst_weight_dev <= 1e-12
        assert report.worst_fidelity >= 1.0 - 1e-12

    def test_cross_check_random_chains(self, rng):
        for n_bonds in (2, 3, 4):
            filters = tuple(random_filter(rng) for _ in range(n_bonds))
            report = cross_check(filters)
            assert report.passed, (n_bonds, report.worst_weight_dev)
            assert len(report.comparisons) == 3 ** (n_bonds - 1)

    def test_cross_check_survives_singular_filters(self):
        filters = (make_filter([1.0, 0.0]), make_filter([2.0, 1.0]))
        report = cross_check(filters)
        assert report.passed

    def test_negative_control_trips_the_comparison(self):
        # re-labelling the projector outcomes must be caught immediately
        f = make_filter([2, 1])
        report = cross_check((f, f), corrupt_bell_order=True)
        assert not report.passed
        assert report.worst_fidelity < 1.0 - 1e-9

    def test_chain_size_guard(self):
        f = make_filter([1, 1])
        with pytest.raises(ValueError):
            cross_check((f,) * (MAX_ORACLE_NODES + 3))
        # one node past the limit; the message names the limit
        with pytest.raises(ValueError, match=f"2..{MAX_ORACLE_NODES + 1} bonds"):
            cross_check((f,) * (MAX_ORACLE_NODES + 2))
