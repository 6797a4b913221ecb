"""Seeded workload generators and the operations they run.

A workload is a fixed mix of operation classes; the seed chooses only the
filter values, the per-op RNG seeds and the order of the ops, so the amount
of work in a pass does not depend on the seed.  Each `Op` carries what the
program receives (a CLI argv or raw diagonals for a library call) plus what
`checks.py` needs to verify the output independently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

SAMPLE_DRAWS = 10000  # the default --samples of the CLI (cli._DEFAULTS)


@dataclass
class Op:
    """One timed operation.

    ``cls`` labels the op class (ops of one class cost about the same);
    ``heavy`` marks the largest classes, which the warm-up runs once before
    timing.  ``work`` counts the workload's unit of work: rows written for
    ``table``, bond-steps for ``longchain``, outcomes cross-checked for
    ``oracle``.
    """

    cls: str
    kind: str
    args: dict
    work: int
    heavy: bool = False
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What an op returned: an exit code plus a CLI document or a library value."""

    code: int
    doc: str | None = None
    value: object = None
    stderr: str = ""


# ---------------------------------------------------------------- inputs


def _fmt(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.6f}"
    return f"{z.real:.6f}{z.imag:+.6f}j"


def _cli_entry(rng) -> str:
    """One diagonal entry: positive, negative or complex, |z| in [0.35, 1]."""
    mag = rng.uniform(0.35, 1.0)
    kind = rng.integers(3)
    if kind == 0:
        return _fmt(complex(mag))
    if kind == 1:
        return _fmt(complex(-mag))
    return _fmt(mag * np.exp(2j * np.pi * rng.random()))


def _cli_filters(rng, n_bonds: int, dim: int) -> str:
    return ";".join(
        ",".join(_cli_entry(rng) for _ in range(dim)) for _ in range(n_bonds)
    )


def _raw_diags(rng, n_bonds: int) -> np.ndarray:
    """(n_bonds, 2) complex diagonals with |z| in [0.35, 1] and random phases."""
    mags = rng.uniform(0.35, 1.0, (n_bonds, 2))
    return mags * np.exp(2j * np.pi * rng.random((n_bonds, 2)))


def parse_filter_arg(text: str) -> list[list[complex]]:
    """Diagonals from a ``--filters`` value, as the reference checks read it."""
    return [[complex(p) for p in group.split(",")] for group in text.split(";")]


def _cli_op(cls, argv, work, heavy=False, **expect) -> Op:
    return Op(cls, "cli", {"argv": argv}, work, heavy, expect)


# ------------------------------------------------------------- workloads


def _swap(rng, mode: str, n: int, fmt: str, dim: int = 2, heavy=False) -> Op:
    filt = _cli_filters(rng, n + 1, dim)
    argv = ["swap", f"--mode={mode}", f"--filters={filt}", f"--format={fmt}"]
    if mode == "qudit":
        argv.insert(1, f"--dim={dim}")
        base = dim * dim
    else:
        base = 3 if mode == "vbs" else 4
    cls = f"swap-{mode}{dim if mode == 'qudit' else ''}-N{n}-{fmt}"
    return _cli_op(cls, argv, base ** n, heavy, command="swap", mode=mode,
                   dim=dim, n=n, fmt=fmt, base=base, filters=filt)


def _cli_sample(rng, mode: str, n: int, fmt: str, samples: int, heavy=False) -> Op:
    filt = _cli_filters(rng, n + 1, 2)
    seed = int(rng.integers(2 ** 31))
    argv = ["sample", f"--mode={mode}", f"--filters={filt}",
            f"--samples={samples}", f"--seed={seed}", f"--format={fmt}"]
    base = 3 if mode == "vbs" else 4
    return _cli_op(f"sample-{mode}-N{n}-{fmt}", argv, base ** n, heavy,
                   command="sample", mode=mode, dim=2, n=n, fmt=fmt, base=base,
                   filters=filt, samples=samples)


def table_ops(rng) -> list[Op]:
    """CLI ``swap``/``sample`` calls: 88 small tables plus a 12 % large stratum.

    The large stratum (vbs N=9, plain N=7, qudit D=5 N=3, sample vbs N=9;
    15625 to 19683 rows) is more than 10 % of the ops, so ``op_p90_s`` lands
    inside it; the small tables show per-call overhead in ``op_p50_s``.
    """
    ops = []
    for n in range(1, 9):
        for fmt in ("json", "csv", "json", "csv"):
            ops.append(_swap(rng, "vbs", n, fmt))
    for n in range(1, 7):
        for fmt in ("json", "csv", "json", "csv"):
            ops.append(_swap(rng, "plain", n, fmt))
    for dim in (3, 4, 5):
        for n in (1, 2):
            for fmt in ("json", "csv", "json", "csv"):
                ops.append(_swap(rng, "qudit", n, fmt, dim))
    for mode, n in (("vbs", 3), ("vbs", 5), ("plain", 2), ("plain", 4)):
        for fmt in ("json", "csv"):
            ops.append(_cli_sample(rng, mode, n, fmt, SAMPLE_DRAWS))
    for fmt in ("json", "csv", "json"):
        ops.append(_swap(rng, "vbs", 9, fmt, heavy=True))
        ops.append(_swap(rng, "qudit", 3, fmt, 5, heavy=True))
    for fmt in ("csv", "json", "csv"):
        ops.append(_swap(rng, "plain", 7, fmt, heavy=True))
        ops.append(_cli_sample(rng, "vbs", 9, fmt, SAMPLE_DRAWS, heavy=True))
    return ops


def longchain_ops(rng) -> list[Op]:
    """Table-free library calls on long chains, filters built inside the op.

    Sampling draws the CLI's default count, so the per-draw work (turning
    draws into counts) weighs as it does for a user; at about 0.4 µs per
    bond-draw that allows one N=1000 op per pass.  A pass holds 100 ops;
    the 11 largest are the sampling ops and the two longest distinct-filter
    transfers, so ``op_p90_s`` falls among the six N=50 sampling ops.  Transfer ops come in
    pairs of equal length, one with distinct filters (``make_filter`` per
    bond) and one with a single filter repeated, so the filter cost and the
    transfer cost can be told apart.
    """
    ops = []
    modes = ("vbs", "plain")
    for n, count in ((50, 6), (100, 2), (1000, 1)):
        for i in range(count):
            ops.append(Op(
                f"sample_outcomes-N{n}", "sample",
                {"mode": modes[i % 2], "diags": _raw_diags(rng, n + 1),
                 "draws": SAMPLE_DRAWS, "seed": int(rng.integers(2 ** 31))},
                n * SAMPLE_DRAWS, heavy=n == 1000))
    for i, n in enumerate((100, 200, 500, 1000, 2000, 5000, 10000, 20000)):
        for distinct in (True, False):
            diags = _raw_diags(rng, n + 1 if distinct else 1)
            ops.append(Op(
                f"log_p_sum_transfer-N{n}-{'distinct' if distinct else 'same'}",
                "log_p_sum", {"mode": modes[i % 2], "diags": diags, "n": n},
                n, heavy=n == 20000))
    for i, n in enumerate((50, 100, 200, 300, 400) * 3 + (100, 200)):
        for distinct in (True, False):
            diags = _raw_diags(rng, n + 1 if distinct else 1)
            ops.append(Op(
                f"tradeoff_constant-N{n}-{'distinct' if distinct else 'same'}",
                "tradeoff", {"mode": modes[i % 2], "diags": diags, "n": n}, n))
    for i, n_max in enumerate((1000, 2000, 5000, 10000, 20000, 2000, 5000) * 3):
        ops.append(Op(f"scan_log_constants-N{n_max}", "scan",
                      {"mode": modes[i % 2], "diag": _raw_diags(rng, 1)[0],
                       "n_max": n_max}, n_max))
    for i, hi in enumerate((200, 500, 1000, 2000, 5000) * 4):
        fmt = ("json", "csv")[(i // 5) % 2]
        diag = ",".join(_cli_entry(rng) for _ in range(2))
        argv = ["scan", f"--mode={modes[i % 2]}", f"--identical={diag}",
                f"--n-range=1:{hi}", f"--format={fmt}"]
        ops.append(_cli_op(f"cli-scan-N{hi}-{fmt}", argv, hi, command="scan",
                           mode=modes[i % 2], fmt=fmt, hi=hi, identical=diag))
    return ops


def oracle_ops(rng) -> list[Op]:
    """``cross_check`` on random vbs chains with 1..5 nodes, plus CLI ``verify``."""
    ops = []
    for n in range(1, 6):
        for _ in range(18):
            ops.append(Op(f"cross_check-N{n}", "cross_check",
                          {"diags": _raw_diags(rng, n + 1)}, 3 ** n, heavy=n == 5))
    for _ in range(10):
        seed = int(rng.integers(2 ** 31))
        # the default suite: two chains each of 1, 2 and 3 internal nodes
        ops.append(_cli_op("cli-verify", ["verify", f"--seed={seed}"],
                           2 * (3 + 9 + 27), command="verify"))
    return ops


GENERATORS = {"table": table_ops, "longchain": longchain_ops, "oracle": oracle_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops for ``seed``, in the seeded order they run."""
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    ops = GENERATORS[workload](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------- execution


def execute(op: Op, bs) -> Outcome:
    """Run one op against the imported package namespace ``bs``.

    This is the timed region: filter construction is inside it because
    users pay for it on every run.  ``SystemExit`` from argparse is caught
    and turned into its exit code.
    """
    a = op.args
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = bs.cli.main(a["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Outcome(code, out.getvalue(), stderr=err.getvalue())
    if op.kind == "cross_check":
        filts = [bs.filters.make_filter(d) for d in a["diags"]]
        return Outcome(0, value=bs.vbs.cross_check(filts))
    if op.kind == "scan":
        filt = bs.filters.make_filter(a["diag"])
        return Outcome(0, value=bs.qubit.scan_log_constants(filt, a["n_max"], a["mode"]))
    filts = [bs.filters.make_filter(d) for d in a["diags"]]
    if len(filts) == 1:
        filts = filts * (a["n"] + 1)
    chain = bs.qubit.SwapChain(tuple(filts), a["mode"])
    if op.kind == "sample":
        return Outcome(0, value=bs.qubit.sample_outcomes(chain, a["draws"], a["seed"]))
    if op.kind == "log_p_sum":
        return Outcome(0, value=bs.qubit.log_p_sum_transfer(chain))
    if op.kind == "tradeoff":
        return Outcome(0, value=bs.qubit.tradeoff_constant(chain))
    raise ValueError(f"unknown op kind {op.kind!r}")


def digest(out: Outcome) -> str:
    """SHA-256 of everything an op produced, for determinism checks."""
    h = hashlib.sha256(f"{out.code}\n".encode())
    v = out.value
    if out.doc is not None:
        h.update(out.doc.encode())
    elif isinstance(v, dict):
        h.update(repr(sorted(v.items())).encode())
    elif isinstance(v, np.ndarray):
        h.update(v.tobytes())
    elif isinstance(v, float):
        h.update(repr(v).encode())
    else:
        h.update(repr((v.passed, v.worst_weight_dev, v.worst_fidelity,
                       [(c.indices, c.oracle_weight, c.fidelity)
                        for c in v.comparisons])).encode())
    return h.hexdigest()
