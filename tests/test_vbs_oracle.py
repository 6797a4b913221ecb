"""Brute-force many-qubit oracle: explicit chain states, projective checks.

Everything here goes through full 2(N+1)-qubit state vectors, so the tests
double as an independent confirmation of the 2x2 operator calculus used by
the chain modules.
"""

import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from reference import peel_pairs_reference, unit_state, vbs_state_reference
from test_filters import count_normalized_rows

from bondswap.filters import VBS, make_filter, random_filter
from bondswap.linalg import StateVector, fidelity_up_to_phase, state_from_operator
from bondswap.qubit import SwapChain, bell_state, chain_operator, digit_table, enumerate_outcomes
from bondswap import qubit, vbs
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

    def test_outer_rows_are_exact_unit_rows(self):
        # build_vbs_state updates only the |01⟩, |10⟩ amplitudes of each pair,
        # by the projector's own middle block
        s = symmetric_projector()
        assert np.array_equal(s[0], [1, 0, 0, 0])
        assert np.array_equal(s[3], [0, 0, 0, 1])
        assert vbs._SYM_BLOCK.tobytes() == s[1:3, 1:3].copy().tobytes()

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

    def test_built_state_is_a_checked_state_vector(self, rng):
        # build_vbs_state adopts its own amplitudes unchecked: the state is still
        # what the checked constructor makes of them
        psi = build_vbs_state(tuple(random_filter(rng) for _ in range(4)))
        checked = StateVector(list(psi.dims), psi.amplitudes.copy())
        assert type(psi.dims) is tuple and all(type(d) is int for d in psi.dims)
        assert psi.dims == checked.dims == (2,) * 8
        assert psi.amplitudes.dtype == complex and psi.amplitudes.shape == (4 ** 4,)
        assert not psi.amplitudes.flags.writeable
        assert psi.amplitudes.tobytes() == checked.amplitudes.tobytes()

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

    @pytest.mark.parametrize("state, message", [
        (StateVector((2, 2, 2), np.ones(8) / np.sqrt(8)),
         "expected a 2N+2 qubit chain state, got dims (2, 2, 2)"),
        (StateVector((2,) * 4, np.ones(16)), "the oracle expects a normalized chain state"),
        # a chain state scaled by 2: cross_check skips this check, the public entry keeps it
        (StateVector((2,) * 6, 2.0 * build_vbs_state((make_filter([2, 1]),) * 3).amplitudes),
         "the oracle expects a normalized chain state"),
    ])
    def test_all_outcomes_reject(self, state, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            measure_all_outcomes(state)

    def test_cross_check_validates_its_state_once(self, rng, monkeypatch):
        # _chain_state checks the filters and normalizes; nothing checks its output again
        def no_check(state):
            raise AssertionError("cross_check re-checked the chain state")

        monkeypatch.setattr(vbs, "_internal_count", no_check)
        assert cross_check(tuple(random_filter(rng) for _ in range(4))).passed

    def test_cross_check_builds_one_chain(self, rng, monkeypatch):
        # both routes read one chain, which rescales its new filters in one pass
        calls = count_normalized_rows(monkeypatch)
        built = []
        monkeypatch.setattr(vbs, "SwapChain", lambda *a: built.append(SwapChain(*a)) or built[-1])
        assert cross_check([random_filter(rng) for _ in range(4)]).passed
        assert calls == [4] and len(built) == 1

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
            end = unit_state(StateVector((2, 2), ends[b]))
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

    def test_one_sided_zero_weights_have_fidelity_zero(self, rng, monkeypatch):
        # with the oracle's Bell rows permuted, some outcomes have weight 0 on one
        # route only: fidelity 0 there, 1 where both give 0, and no warning
        dead = make_filter([1, 0])
        filters = (dead, random_filter(rng), dead)
        monkeypatch.setattr(vbs, "_BELL_BRAS", vbs._BELL_BRAS[[1, 2, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cross_check(filters)
        oracle_zero, chain_zero = report.oracle_weight == 0.0, report.chain_prob == 0.0
        assert (oracle_zero & ~chain_zero).any() and (chain_zero & ~oracle_zero).any()
        assert np.all(report.fidelity[oracle_zero != chain_zero] == 0.0)
        assert np.all(report.fidelity[oracle_zero & chain_zero] == 1.0)
        assert not report.passed

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

    def test_negative_control_on_longer_chain(self, rng, monkeypatch):
        filters = tuple(random_filter(rng) for _ in range(4))
        honest = cross_check(filters)
        assert honest.passed
        monkeypatch.setattr(vbs, "_BELL_BRAS", vbs._BELL_BRAS[[1, 2, 0]])
        report = cross_check(filters)
        assert not report.passed
        assert report.worst_fidelity < 1.0 - 1e-9
        # the chain side is untouched; only the oracle's Bell basis was permuted
        assert [c.chain_prob for c in report.comparisons] == [
            c.chain_prob for c in honest.comparisons
        ]

    def test_negative_control_unprojected_sites(self, rng, monkeypatch):
        # the identity in place of the projector's middle block keeps every
        # site's singlet part, which the symmetric Bell outcomes never see
        filters = tuple(random_filter(rng) for _ in range(3))
        assert cross_check(filters).passed
        monkeypatch.setattr(vbs, "_SYM_BLOCK", np.eye(2, dtype=complex))
        report = cross_check(filters)
        assert not report.passed
        assert report.worst_weight_dev > 1e-9

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
            target = unit_state(state_from_operator(m, 2))
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

    def test_negative_control_trips_the_comparison(self, monkeypatch):
        # re-labelling the projector outcomes must be caught immediately
        monkeypatch.setattr(vbs, "_BELL_BRAS", vbs._BELL_BRAS[[1, 2, 0]])
        f = make_filter([2, 1])
        report = cross_check((f, f))
        assert not report.passed
        assert report.worst_fidelity < 1.0 - 1e-9

    def test_cross_check_reads_no_concurrence(self, rng, monkeypatch):
        # the chain side is compared on probs and operators only
        def no_stage(report):
            raise AssertionError("cross_check ran the concurrence stage")

        monkeypatch.setattr(qubit, "_concurrences", no_stage)
        for n in range(1, MAX_ORACLE_NODES + 1):
            assert cross_check(tuple(random_filter(rng) for _ in range(n + 1))).passed, n

    def test_chain_size_guard(self):
        f = make_filter([1, 1])
        with pytest.raises(ValueError):
            cross_check((f,) * (MAX_ORACLE_NODES + 3))
        # one node past the limit; the message names the limit
        with pytest.raises(ValueError, match=f"2..{MAX_ORACLE_NODES + 1} bonds"):
            cross_check((f,) * (MAX_ORACLE_NODES + 2))


def oracle_corpus():
    """Derandomized chains of N = 1..8 nodes: random complex filters, real-only
    diagonals, and chains with one bond of moduli 1e±150, of real entries of
    both signs or with a zero entry."""
    rng = np.random.default_rng(2009)
    specials = ([1.0, 1e-150], [1e150, 1j], [0.6, -0.8], [1.0, 0.0])
    chains = []
    for n in range(1, MAX_ORACLE_NODES + 1):
        chains.append(tuple(random_filter(rng) for _ in range(n + 1)))
        chains.append(tuple(make_filter(rng.uniform(-1.0, 1.0, 2)) for _ in range(n + 1)))
        for diag in specials:
            filters = [random_filter(rng) for _ in range(n + 1)]
            filters[int(rng.integers(n + 1))] = make_filter(diag)
            chains.append(tuple(filters))
    return chains


def report_digest(reports) -> str:
    """sha256 over every column and summary of a sequence of CrossCheckReports."""
    h = hashlib.sha256()
    for r in reports:
        for col in (r.digits, r.oracle_weight, r.chain_prob, r.weight_dev, r.fidelity):
            h.update(np.ascontiguousarray(col).tobytes())
        h.update(repr((r.worst_weight_dev, r.worst_fidelity, r.tolerance, r.passed)).encode())
    return h.hexdigest()


# recorded from the per-bond np.zeros/np.einsum build and the np.tensordot peel, with
# the tables of the exact integer kernel
ORACLE_CORPUS_DIGEST = "987cd17e69eb732d1db6b08407b5425a7432acf4d87083bfe0a8734147311400"


class TestOracleBits:
    """The oracle's arithmetic is pinned bit for bit against its first-written
    numpy routes (tests/reference.py) and against report digests recorded from
    them."""

    def test_amplitudes_equal_the_einsum_build(self):
        for filters in oracle_corpus():
            got = build_vbs_state(filters).amplitudes
            # array_equal: only the signs of zeros may differ
            assert np.array_equal(got, vbs_state_reference(filters)), len(filters)

    def test_peeled_ends_equal_the_tensordot_peel(self):
        for filters in oracle_corpus():
            amps = build_vbs_state(filters).amplitudes
            n = len(filters) - 1
            bras = (vbs._BELL_BRAS,) * n
            assert vbs._peel_pairs(amps, bras).tobytes() == \
                peel_pairs_reference(amps, bras).tobytes(), n
            one = [vbs._BELL_BRAS[k % 3 : k % 3 + 1] for k in range(n)]
            assert vbs._peel_pairs(amps, one).tobytes() == \
                peel_pairs_reference(amps, one).tobytes(), n

    def test_report_columns_keep_their_bits(self):
        assert report_digest(map(cross_check, oracle_corpus())) == ORACLE_CORPUS_DIGEST

    def test_chain_state_norm_equals_numpys(self, monkeypatch):
        # _chain_state's norm, the two real dots of np.linalg.norm, to the bit
        norm, pairs = vbs._norm, []

        def spy(psi):
            pairs.append((norm(psi), np.linalg.norm(psi)))
            return pairs[-1][0]
        monkeypatch.setattr(vbs, "_norm", spy)
        corpus = oracle_corpus()
        for filters in corpus:
            build_vbs_state(filters)
        assert len(pairs) == len(corpus)
        assert all(float(got).hex() == float(want).hex() for got, want in pairs)


class TestOracleDigits:
    def test_reports_of_one_size_share_read_only_digits(self, rng):
        for n in range(1, MAX_ORACLE_NODES + 1):
            first, second = (cross_check([random_filter(rng) for _ in range(n + 1)])
                             for _ in range(2))
            assert second.digits is first.digits
            assert np.array_equal(first.digits, digit_table(3, n, 1))
            with pytest.raises(ValueError, match="read-only"):
                first.digits[0, 0] = 2
        # one table per oracle size, at most 3^8 rows of 8 digits
        assert vbs._oracle_digits.cache_info().maxsize == MAX_ORACLE_NODES
