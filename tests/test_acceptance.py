"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints exactly one ``criterion N [...]: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they happen) and then
asserts, so a red line always comes with a failing test.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from reference import bond_concurrence

from bondswap.cli import main as cli_main
from bondswap.filters import PLAIN, QUDIT, VBS, make_filter, random_filter
from bondswap.qubit import (
    SwapChain,
    bond_concurrences,
    enumerate_outcomes,
    log_p_sum_transfer,
    p_sum_transfer,
    scan_log_constants,
)
from bondswap.qudit import enumerate_qudit_outcomes
from bondswap.vbs import build_vbs_state, cross_check, measure_internal_sites


def _verdict(num, label, ok, detail=""):
    line = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def best_of(fn, repeats=5):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_1_ideal_swap():
    f = make_filter([1.0, 1.0])
    chain = SwapChain((f, f), VBS)
    report = enumerate_outcomes(chain)
    prob_dev = max(abs(r.prob - 1.0 / 3.0) for r in report.records)
    conc_dev = max(abs(r.concurrence - 1.0) for r in report.records)
    runtime = best_of(lambda: enumerate_outcomes(chain))
    ok = (
        len(report.records) == 3
        and prob_dev <= 1e-12
        and conc_dev <= 1e-12
        and runtime < 1e-3
    )
    _verdict(
        1,
        "ideal swap, three outcomes at prob 1/3",
        ok,
        f"prob dev {prob_dev:.2e}, conc dev {conc_dev:.2e}, {runtime * 1e6:.0f} us",
    )


def test_criterion_2_tradeoff_law_random_chains():
    rng = np.random.default_rng(2024_02)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        mode = VBS if k % 2 == 0 else PLAIN
        n_nodes = int(rng.integers(1, 7))
        filters = tuple(random_filter(rng) for _ in range(n_nodes + 1))
        chain = SwapChain(filters, mode)
        report = enumerate_outcomes(chain)
        want = math.prod(bond_concurrences(chain)) / report.p_sum
        for rec in report.records:
            worst = max(worst, abs(rec.prob * rec.concurrence - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(
        2,
        "probability-entanglement product constant across outcomes",
        ok,
        f"worst residual {worst:.2e} over 100 chains in {elapsed:.1f} s",
    )


def test_criterion_3_worked_instance():
    filters = (make_filter([2.0, 1.0]), make_filter([2.0, 1.0]))

    # golden values must be confirmed by the many-qubit oracle first
    psi = build_vbs_state(filters)
    oracle_probs = {}
    for i in (1, 2, 3):
        w, _ = measure_internal_sites(psi, (i,))
        oracle_probs[(i,)] = w

    report = enumerate_outcomes(SwapChain(filters, VBS))
    by_idx = {r.indices: r for r in report.records}
    golden_probs = {(2,): 17.0 / 33.0, (1,): 8.0 / 33.0, (3,): 8.0 / 33.0}
    golden_conc = {(2,): 8.0 / 17.0, (1,): 1.0, (3,): 1.0}

    oracle_dev = max(abs(oracle_probs[k] - golden_probs[k]) for k in golden_probs)
    p_sum_dev = abs(report.p_sum - 2.64)
    prob_dev = max(abs(by_idx[k].prob - golden_probs[k]) for k in golden_probs)
    conc_dev = max(abs(by_idx[k].concurrence - golden_conc[k]) for k in golden_conc)
    prod_dev = max(
        abs(r.prob * r.concurrence - 8.0 / 33.0) for r in report.records
    )
    ok = (
        oracle_dev <= 1e-12
        and p_sum_dev <= 1e-12
        and prob_dev <= 1e-12
        and conc_dev <= 1e-12
        and prod_dev <= 1e-12
    )
    _verdict(
        3,
        "diag(2,1) worked instance",
        ok,
        f"oracle dev {oracle_dev:.2e}, table dev "
        f"{max(p_sum_dev, prob_dev, conc_dev, prod_dev):.2e}",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2024_04)
    t0 = time.perf_counter()
    worst_dev = 0.0
    worst_fid = 1.0
    for _ in range(20):
        n_nodes = int(rng.integers(1, 5))
        filters = tuple(random_filter(rng) for _ in range(n_nodes + 1))
        rep = cross_check(filters, tolerance=1e-9)
        worst_dev = max(worst_dev, rep.worst_weight_dev)
        worst_fid = min(worst_fid, rep.worst_fidelity)
        assert rep.passed
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-9 and worst_fid >= 1.0 - 1e-9 and elapsed < 60.0
    _verdict(
        4,
        "operator calculus vs many-qubit oracle",
        ok,
        f"worst weight dev {worst_dev:.2e}, worst fidelity 1-{1 - worst_fid:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_5_qudit_tradeoff():
    rng = np.random.default_rng(2024_05)
    worst_literal = 0.0  # weight * C^e vs product of bond entanglements
    worst_normed = 0.0  # prob * C^e vs the same product / P_sum
    worst_prob_sum = 0.0
    bit_match = True
    for k in range(50):
        d = (2, 3, 4, 5)[k % 4]
        n_nodes = int(rng.integers(1, 4))
        filters = tuple(random_filter(rng, dim=d) for _ in range(n_nodes + 1))
        chain = SwapChain(filters, QUDIT)
        report = enumerate_qudit_outcomes(chain)
        cprod = math.prod(bond_concurrence(f) for f in filters)
        for rec in report.records:
            worst_literal = max(
                worst_literal, abs(rec.weight * rec.concurrence - cprod)
            )
            worst_normed = max(
                worst_normed,
                abs(rec.prob * rec.concurrence - cprod / report.p_sum),
            )
        worst_prob_sum = max(
            worst_prob_sum, abs(sum(r.prob for r in report.records) - 1.0)
        )
        if d == 2:
            qubit = enumerate_outcomes(SwapChain(filters, PLAIN))
            digit_of = {0: 0, 1: 2, 2: 1, 3: 3}
            for code, qrec in enumerate(qubit.records):
                qd_code = sum(
                    digit_of[i] * 4**pos for pos, i in enumerate(qrec.indices)
                )
                drec = report.records[qd_code]
                bit_match &= (
                    drec.weight == qrec.weight
                    and drec.prob == qrec.prob
                    and drec.concurrence == qrec.concurrence
                )
    ok = (
        worst_literal <= 1e-9
        and worst_normed <= 1e-9
        and worst_prob_sum <= 1e-12
        and bit_match
    )
    _verdict(
        5,
        "qudit trade-off, D in {2,3,4,5}",
        ok,
        f"literal {worst_literal:.2e}, normalized {worst_normed:.2e}, "
        f"prob sum {worst_prob_sum:.2e}, D=2 bit-match {bit_match}",
    )


def test_criterion_6_exponential_decay():
    # identical bonds with concurrence 0.8 (alpha^2 = 0.8)
    f = make_filter([math.sqrt(1.6), math.sqrt(0.4)])

    # plain mode: every swap multiplies the constant by exactly C/4, so the
    # log-constant is affine in N and the residual is pure float noise
    logs = scan_log_constants(f, 8, PLAIN)
    ns = np.arange(1, 9, dtype=float)
    coef = np.polyfit(ns, logs, 1)
    residual = float(np.max(np.abs(np.polyval(coef, ns) - logs)))

    # vbs mode decays too (strictly), approaching its own asymptotic slope
    vbs_logs = scan_log_constants(f, 8, VBS)
    strictly_decaying = bool(np.all(np.diff(vbs_logs) < 0.0))

    chain = SwapChain((f,) * 100_001, VBS)
    t0 = time.perf_counter()
    log_p = log_p_sum_transfer(chain)
    elapsed = time.perf_counter() - t0

    ok = (
        residual <= 1e-6
        and strictly_decaying
        and math.isfinite(log_p)
        and elapsed < 1.0
    )
    _verdict(
        6,
        "exponential decay of the trade-off constant",
        ok,
        f"affine residual {residual:.2e}, vbs decay {strictly_decaying}, "
        f"N=1e5 transfer in {elapsed * 1e3:.0f} ms",
    )


def test_criterion_7_transfer_vs_enumeration():
    rng = np.random.default_rng(2024_07)
    worst = 0.0
    for _ in range(50):
        mode = VBS if rng.integers(2) else PLAIN
        n_nodes = int(rng.integers(1, 9))
        filters = tuple(random_filter(rng) for _ in range(n_nodes + 1))
        chain = SwapChain(filters, mode)
        direct = enumerate_outcomes(chain).p_sum
        fast = p_sum_transfer(chain)
        worst = max(worst, abs(fast - direct) / direct)
    ok = worst <= 1e-12
    _verdict(
        7,
        "transfer map reproduces enumerated weight sums",
        ok,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_8_sampling(tmp_path, capsys):
    argv = ["sample", "--identical", "2,1", "--bonds", "2",
            "--samples", "100000", "--seed", "42"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli_main(argv + ["--out", str(out_a)]) == 0
    assert cli_main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    doc = json.loads(out_a.read_text())
    tv = doc["tv_distance"]
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = tv <= 0.02 and identical
    _verdict(
        8,
        "sampling fidelity and reproducibility",
        ok,
        f"tv distance {tv:.4f}, byte-identical {identical}",
    )
