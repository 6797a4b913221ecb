"""Independent references and output checks for every benchmark op.

The references are computed from the raw inputs with the benchmark's own
code: per-bond concurrences from the diagonals, qubit P_sum as a log-domain
product of 2×2 transfer matrices (distinct filters) or from the eigenvalues
of the symmetrized transfer matrix (one filter repeated), and qudit P_sum
= D^(2N).  The only call into the package is the required comparison of a
table's ``p_sum`` with ``p_sum_transfer``.  A failed check raises
`CheckFailed`, which the runner counts as a failed op.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Op, Outcome, parse_filter_arg

RESIDUAL_ATOL = 1e-12
FSUM_ATOL = 1e-12
REL_TOL = 1e-9
# base-64-style digit alphabet of the CLI's outcome index strings
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/"


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, ref: float, rel: float, what: str) -> None:
    _require(math.isfinite(got) and abs(got - ref) <= rel * max(1.0, abs(ref)),
             f"{what}: got {got!r}, reference {ref!r}")


# ------------------------------------------------------------ references


def bond_concurrence(diag) -> float:
    """D·(Π|λ|²)^(1/D) / Σ|λ|², invariant under rescaling the diagonal."""
    sq = [abs(complex(z)) ** 2 for z in diag]
    return len(sq) * math.prod(sq) ** (1.0 / len(sq)) / sum(sq)


def _ab(diag) -> tuple[float, float]:
    """Bond-normalized |λ0|², |λ1|² (they sum to 2)."""
    s0, s1 = abs(complex(diag[0])) ** 2, abs(complex(diag[1])) ** 2
    return 2.0 * s0 / (s0 + s1), 2.0 * s1 / (s0 + s1)


def _mixing(mode: str) -> tuple[float, float, float, float]:
    # the diagonal sector of ρ → Σ_i σ_i ρ σ_i† over the measured outcomes
    return (1.0, 2.0, 2.0, 1.0) if mode == "vbs" else (2.0, 2.0, 2.0, 2.0)


def log_p_sum_chain(diags, mode: str) -> float:
    """log P_sum as log(½·1ᵀ M_N ··· M_1 v0), M_k = diag(a_k, b_k)·S."""
    s00, s01, s10, s11 = _mixing(mode)
    q00, q01, q10, q11 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for diag in diags[1:]:
        a, b = _ab(diag)
        m00, m01, m10, m11 = a * s00, a * s01, b * s10, b * s11
        q00, q01, q10, q11 = (m00 * q00 + m01 * q10, m00 * q01 + m01 * q11,
                              m10 * q00 + m11 * q10, m10 * q01 + m11 * q11)
        top = max(abs(q00), abs(q01), abs(q10), abs(q11))
        q00, q01, q10, q11 = q00 / top, q01 / top, q10 / top, q11 / top
        log_scale += math.log(top)
    a0, b0 = _ab(diags[0])
    return log_scale + math.log(0.5 * ((q00 + q10) * a0 + (q01 + q11) * b0))


def log_p_sum_identical(diag, mode: str, ns) -> np.ndarray:
    """log P_sum of identical-filter chains with ``ns`` nodes, by eigenvalues.

    M = D·S is similar to the symmetric A = D^½ S D^½, so with s = (√a, √b)
    and A = U Λ Uᵀ, P_n = ½ Σ_i (Uᵀs)_i² λ_i^n.
    """
    a, b = _ab(diag)
    s00, s01, _, s11 = _mixing(mode)
    r = math.sqrt(a * b)
    lam, u = np.linalg.eigh(np.array([[a * s00, r * s01], [r * s01, b * s11]]))
    w = (u.T @ np.array([math.sqrt(a), math.sqrt(b)])) ** 2
    ns = np.asarray(ns, dtype=float)
    return ns * math.log(lam[1]) + np.log(0.5 * (w[1] + w[0] * (lam[0] / lam[1]) ** ns))


# --------------------------------------------------------- CLI documents


def _parse(doc: str, fmt: str, rows_key: str) -> tuple[dict, list[dict]]:
    """Header fields and rows of a JSON or CSV document; CSV values stay str."""
    if fmt == "json":
        obj = json.loads(doc)
        return obj, obj[rows_key]
    lines = doc.splitlines()
    head = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        head[key] = value
        i += 1
    cols = lines[i].split(",")
    return head, [dict(zip(cols, line.split(","))) for line in lines[i + 1:]]


def _col(rows, key) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _check_indices(rows, e) -> None:
    n, base = e["n"], e["base"]
    _require(len(rows) == base ** n, f"{len(rows)} rows, expected {base}^{n}")
    offset = 1 if e["mode"] == "vbs" else 0
    alphabet = set(DIGITS[offset:offset + base])
    idx = [r["index"] for r in rows]
    _require(all(len(s) == n and set(s) <= alphabet for s in idx),
             "invalid outcome index string")
    _require(len(set(idx)) == len(idx), "duplicate outcome index")


def _check_swap(e, head, rows, bs) -> None:
    _check_indices(rows, e)
    diags = parse_filter_arg(e["filters"])
    if e["mode"] == "qudit":
        log_p = 2 * e["n"] * math.log(e["dim"])
    else:
        log_p = log_p_sum_chain(diags, e["mode"])
        chain = bs.qubit.SwapChain(
            tuple(bs.filters.make_filter(d) for d in diags), e["mode"])
        _close(float(head["p_sum"]), bs.qubit.p_sum_transfer(chain), REL_TOL,
               "p_sum vs p_sum_transfer")
    _close(math.log(float(head["p_sum"])), log_p, REL_TOL, "log p_sum vs reference")
    k_ref = math.exp(math.fsum(math.log(bond_concurrence(d)) for d in diags) - log_p)
    _close(float(head["tradeoff_constant"]) / k_ref, 1.0, REL_TOL, "tradeoff constant")
    _require(float(head["max_residual"]) <= RESIDUAL_ATOL, "reported max_residual")
    probs, conc = _col(rows, "prob"), _col(rows, "concurrence")
    _require(abs(math.fsum(probs.tolist()) - 1.0) <= FSUM_ATOL, "probabilities fsum")
    _require(np.allclose(_col(rows, "weight"), probs * float(head["p_sum"]),
                         rtol=REL_TOL, atol=0.0), "weight != prob × p_sum")
    nz = probs > 0.0
    worst = float(np.max(np.abs(probs[nz] * conc[nz] - k_ref)))
    _require(worst <= RESIDUAL_ATOL, f"trade-off residual {worst!r}")
    # the absolute bound is loose when K is tiny; hold the law relative to K too
    _require(worst <= REL_TOL * k_ref, f"trade-off residual {worst!r} vs K = {k_ref!r}")


def _check_sample(e, head, rows) -> None:
    _check_indices(rows, e)
    n = e["samples"]
    _require(int(head["n_samples"]) == n, "n_samples echo")
    counts = [int(r["count"]) for r in rows]
    _require(sum(counts) == n and min(counts) >= 0, "sample counts do not sum to draws")
    freq, probs = _col(rows, "frequency"), _col(rows, "prob")
    _require(np.array_equal(freq, np.array(counts) / n), "frequency != count / samples")
    _require(abs(math.fsum(probs.tolist()) - 1.0) <= FSUM_ATOL, "probabilities fsum")
    tv = 0.5 * math.fsum(np.abs(freq - probs).tolist())
    _require(abs(tv - float(head["tv_distance"])) <= 1e-12, "tv_distance")


def _check_cli_scan(e, head, rows) -> None:
    hi = e["hi"]
    _require([int(r["n"]) for r in rows] == list(range(1, hi + 1)), "scan rows")
    diag = [complex(p) for p in e["identical"].split(",")]
    ns = np.arange(1, hi + 1)
    ref = (ns + 1) * math.log(bond_concurrence(diag)) - log_p_sum_identical(diag, e["mode"], ns)
    logs = _col(rows, "log_constant")
    _require(np.all(np.abs(logs - ref) <= REL_TOL * np.maximum(1.0, np.abs(ref))),
             "scan log_constant vs eigenvalue reference")
    consts = _col(rows, "constant")
    _require(np.allclose(consts, np.exp(logs), rtol=1e-12, atol=0.0), "constant != exp(log)")
    slope = np.polyfit(ns, ref, 1)[0]
    _close(float(head["fitted_slope"]), slope, 1e-6, "fitted slope")


def _check_verify(head, rows) -> None:
    _require(head["passed"] is True and head["n_chains"] == 6, "verify did not pass")
    _require(all(r["passed"] is True for r in rows), "a verify chain failed")


def _check_cli(op: Op, out: Outcome, bs) -> None:
    e = op.expect
    _require(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[:200]}")
    command = e["command"]
    fmt = e.get("fmt", "json")
    rows_key = {"verify": "chains", "scan": "rows"}.get(command, "outcomes")
    head, rows = _parse(out.doc, fmt, rows_key)
    if command == "swap":
        _check_swap(e, head, rows, bs)
    elif command == "sample":
        _check_sample(e, head, rows)
    elif command == "scan":
        _check_cli_scan(e, head, rows)
    else:
        _check_verify(head, rows)


# ---------------------------------------------------------- library ops


def check(op: Op, out: Outcome, bs) -> None:
    """Raise `CheckFailed` unless ``out`` matches the references for ``op``."""
    if op.kind == "cli":
        _check_cli(op, out, bs)
        return
    a, v = op.args, out.value
    if op.kind == "cross_check":
        n = len(a["diags"]) - 1
        _require(v.passed, "cross_check did not pass")
        _require(len(v.comparisons) == 3 ** n, "cross_check outcome count")
        total = math.fsum(c.oracle_weight for c in v.comparisons)
        _require(abs(total - 1.0) <= 1e-9, "oracle probabilities do not sum to 1")
    elif op.kind == "sample":
        n = len(a["diags"]) - 1
        valid = {1, 2, 3} if a["mode"] == "vbs" else {0, 1, 2, 3}
        _require(sum(v.values()) == a["draws"], "sample counts do not sum to draws")
        _require(all(len(k) == n and set(k) <= valid for k in v), "invalid sampled digits")
    elif op.kind == "scan":
        ns = np.arange(1, a["n_max"] + 1)
        ref = ((ns + 1) * math.log(bond_concurrence(a["diag"]))
               - log_p_sum_identical(a["diag"], a["mode"], ns))
        _require(v.shape == ref.shape and bool(np.all(
            np.abs(v - ref) <= REL_TOL * np.maximum(1.0, np.abs(ref)))),
            "scan_log_constants vs eigenvalue reference")
    else:
        diags, n = a["diags"], a["n"]
        if len(diags) == 1:
            log_p = float(log_p_sum_identical(diags[0], a["mode"], [n])[0])
            log_c = (n + 1) * math.log(bond_concurrence(diags[0]))
        else:
            log_p = log_p_sum_chain(diags, a["mode"])
            log_c = math.fsum(math.log(bond_concurrence(d)) for d in diags)
        if op.kind == "log_p_sum":
            _close(v, log_p, REL_TOL, "log_p_sum_transfer")
        else:
            _require(v > 0.0, f"tradeoff_constant underflowed: {v!r}")
            _close(math.log(v), log_c - log_p, REL_TOL, "log tradeoff_constant")
