"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bondswap import cli  # noqa: E402


def _bs():
    return run.setup("table", run.DEFAULT_SEED)[0]


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_generated_argv_exits_zero(workload):
    argvs = [op.args["argv"] for op in workloads.make_ops(workload, run.DEFAULT_SEED)
             if op.kind == "cli"]
    assert argvs
    for argv in argvs:
        assert _main(argv) == 0, argv


def test_negative_diagonal_needs_equals_form():
    argvs = [op.args["argv"] for op in workloads.make_ops("table", run.DEFAULT_SEED)
             if op.kind == "cli"]
    leading = [a for argv in argvs for a in argv if a.startswith("--filters=-")]
    assert leading, "the default seed should exercise a diagonal starting with '-'"
    # the space-separated form is read by argparse as a flag and exits 2
    value = leading[0].partition("=")[2]
    assert _main(["swap", "--filters", value]) == 2
    op = workloads.Op("bad", "cli", {"argv": ["swap", "--filters", value]}, 1,
                      expect={"command": "swap"})
    out = workloads.execute(op, _bs())
    assert out.code == 2
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out, _bs())


def _first(kind_cls: str, fmt: str):
    return next(op for op in workloads.make_ops("table", run.DEFAULT_SEED)
                if op.cls.startswith(kind_cls) and op.expect.get("fmt") == fmt)


@pytest.mark.parametrize("cls, fmt, old, new", [
    ("swap-vbs-N3", "json", '"prob": 0.', '"prob": 1.'),
    ("swap-plain-N2", "csv", "# tradeoff_constant=", "# tradeoff_constant=2"),
    ("sample-vbs-N3", "json", '"count": ', '"count": 1'),
])
def test_checks_reject_corrupted_documents(cls, fmt, old, new):
    bs = _bs()
    op = _first(cls, fmt)
    out = workloads.execute(op, bs)
    checks.check(op, out, bs)
    assert old in out.doc
    out.doc = out.doc.replace(old, new, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check(op, out, bs)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.GENERATORS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_same_seed_same_inputs():
    def key(seed):
        return repr([(op.cls, {k: np.asarray(v).tolist() for k, v in op.args.items()})
                     for op in workloads.make_ops("longchain", seed)])

    assert key(5) == key(5) != key(6)


def test_repeated_bad_output_fails_on_every_pass():
    bs = _bs()
    op = _first("swap-vbs-N3", "json")
    runner = run.Runner(bs, [op], workloads, checks)

    def corrupted(op, bs):
        out = workloads.execute(op, bs)
        out.doc = out.doc.replace('"prob": 0.', '"prob": 1.', 1)
        return out

    for _ in range(2):
        runner.run_op(0, op, corrupted)
    assert runner.attempted == 2
    assert len(runner.failures) == 2


def test_rescale_cancels_host_speed_but_not_op_speed():
    times = [0.01, 0.2, 0.03, 0.5, 0.02, 0.01]
    kernel = [1.1e-3, 0.9e-3, 1.0e-3, 1.2e-3, 1.0e-3, 0.8e-3]
    base = speed.rescale(times, kernel)
    # the host twice as slow: ops and kernel both take twice as long
    assert speed.rescale([2 * t for t in times], [2 * k for k in kernel]) == pytest.approx(base)
    # the program twice as slow on the same host
    assert speed.rescale([2 * t for t in times], kernel) == pytest.approx([2 * t for t in base])
