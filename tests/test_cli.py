"""Command-line interface: schemas, round-trips, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import bond_concurrence, index_strings_reference, verify_suite_reference

from bondswap import __version__, cli, qubit, vbs
from bondswap.cli import main
from bondswap.filters import make_filter
from bondswap.qubit import (
    SwapChain,
    bond_concurrences,
    digit_table,
    enumerate_outcomes,
    sample_outcomes,
    scan_log_constants,
)
from bondswap.vbs import OutcomeComparison, cross_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env() -> dict:
    """The environment for ``python -m bondswap.cli`` in a child process."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


WORKED = ("--identical", "2,1", "--bonds", "2")


def scan_reference(cfg):
    """Filters and payload of a scan as the row-dict path built them."""
    filters = cli._build_filters({**cfg, "bonds": 1})
    lo, hi = cfg["n_range"]
    logs = scan_log_constants(filters[0], hi, cfg["mode"])[lo - 1 :]
    ns = np.arange(lo, hi + 1)
    rows = [
        {
            "n": int(n),
            "constant": math.exp(lv) if math.isfinite(lv) else 0.0,
            "log_constant": float(lv) if math.isfinite(lv) else None,
        }
        for n, lv in zip(ns, logs)
    ]
    slope = None
    if np.isfinite(logs).all() and len(logs) >= 2:  # one Python float at a time
        (mid, ys), y_mid = (0.5 * (lo + hi), logs.tolist()), logs[len(logs) // 2]
        slope = (math.fsum((n - mid) * (y - y_mid) for n, y in zip(range(lo, hi + 1), ys))
                 / math.fsum((n - mid) ** 2 for n in range(lo, hi + 1)))
    payload = {"dim": 2, "mode": cfg["mode"], "n_min": lo, "n_max": hi,
               "fitted_slope": slope, "rows": rows}
    return filters, payload


def reference_document(*argv) -> str:
    """The document as the row-dict renderer wrote it: one dict per record,
    then json.dumps(indent=2) or one _csv_cell per value."""
    cfg = cli._resolve_config(cli.build_parser().parse_args(list(argv)))
    if cfg["command"] == "scan":
        filters, payload = scan_reference(cfg)
        return render_reference(cfg, filters, payload)
    if cfg["command"] == "verify":  # its rows are row dicts already
        payload, filters, _ = cli._run_verify(cfg)
        return render_reference(cfg, filters, payload)
    filters = cli._build_filters(cfg)
    chain = SwapChain(tuple(filters), cfg["mode"])
    report = enumerate_outcomes(chain)
    cs = bond_concurrences(chain)  # rounded once; the per-bond reference rounds more often
    assert cs == pytest.approx([bond_concurrence(f) for f in filters], rel=1e-14, abs=0.0)

    def index(indices):
        if cfg["mode"] == "qudit":
            indices = [m * cfg["dim"] + n for m, n in indices]
        return "".join(cli._DIGITS[d] for d in indices)

    if cfg["command"] == "swap":
        outcomes = [
            {
                "index": index(rec.indices),
                "weight": rec.weight,
                "prob": rec.prob,
                "concurrence": rec.concurrence,
                "prob_times_c": rec.prob * rec.concurrence,
            }
            for rec in report.records
        ]
        payload = {
            "dim": cfg["dim"],
            "mode": cfg["mode"],
            "n_bonds": len(filters),
            "p_sum": report.p_sum,
            "bond_concurrences": cs,
            "tradeoff_constant": report.constant,
            "max_residual": report.max_residual,
            "outcomes": outcomes,
        }
    else:
        counts = sample_outcomes(chain, cfg["samples"], cfg["seed"])
        n = cfg["samples"]
        outcomes = []
        tv = 0.0
        for rec in report.records:
            c = counts.get(rec.indices, 0)
            tv += abs(c / n - rec.prob)
            outcomes.append(
                {"index": index(rec.indices), "count": c, "frequency": c / n,
                 "prob": rec.prob}
            )
        payload = {
            "dim": 2,
            "mode": cfg["mode"],
            "n_bonds": len(filters),
            "n_samples": n,
            "tv_distance": 0.5 * tv,
            "outcomes": outcomes,
        }
    return render_reference(cfg, filters, payload)


def render_reference(cfg, filters, payload) -> str:
    document = {"version": __version__, "seed": cfg["seed"],
                "config_echo": cli._echo(cfg, filters)}
    document.update(payload)
    if cfg["format"] == "json":
        return json.dumps(document, indent=2) + "\n"
    rows_key = cli._COMMANDS[cfg["command"]].rows
    lines = []
    for key, value in document.items():
        if key in (rows_key, "config_echo"):
            continue
        if isinstance(value, list):
            value = ";".join(cli._csv_cell(v) for v in value)
        lines.append(f"# {key}={cli._csv_cell(value)}")
    cols = cli._COMMANDS[cfg["command"]].columns
    lines.append(",".join(cols))
    for row in document[rows_key]:
        lines.append(",".join(cli._csv_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


MIXED = "--filters=0.6+0.8j,1;0.9,-0.4;1,0.3+0.2j;0.5,1"
TABLE_CASES = [
    ("swap", MIXED),
    ("swap", "--mode", "plain", MIXED),
    ("swap", "--mode", "qudit", "--dim", "3", "--filters=1,2,0.5;1j,1,1;0.3,1,2"),
    ("swap", "--identical", "2,1", "--bonds", "9"),  # 6561 rows: several blocks
    ("sample", MIXED, "--samples", "3000", "--seed", "9"),
    ("sample", "--mode", "plain", MIXED, "--samples", "3000"),
    ("sample", "--identical", "2,1", "--bonds", "9"),
    ("swap", "--identical", "2,1", "--bonds", "1"),  # no internal node
    ("swap", "--mode", "qudit", "--dim", "3", "--identical", "1,2,3", "--bonds", "1"),
    ("sample", "--identical", "2,1", "--bonds", "1", "--samples", "10"),
    ("swap", "--filters=1,0;0,1;1,1"),  # singular: zero weights and constant
    ("swap", "--mode", "plain", "--filters=1,0;0,1;1,1"),
    ("sample", "--filters=1,0;0,1;1,1", "--samples", "20"),
    ("scan", "--identical", "2,1", "--n-range", "1:8"),
    ("scan", "--mode", "plain", "--identical", "0.6+0.8j,-0.3", "--n-range", "3:5000"),
    ("scan", "--identical", "1e-200,1", "--n-range", "4:4"),
    ("scan", "--identical", "1,0", "--n-range", "1:6"),  # null log_constant rows
    ("scan", "--mode", "plain", "--identical", "1,0", "--n-range", "2:3"),
    ("verify",),  # keys follow the rows: "passed" comes after "chains"
    ("verify", "--filters=1,0;0,1;0.6+0.8j,1"),
]


class TestSwapCommand:
    def test_worked_instance_values(self, capsys):
        doc = run_json(capsys, "swap", *WORKED)
        assert doc["mode"] == "vbs"
        assert doc["dim"] == 2
        assert doc["n_bonds"] == 2
        report = enumerate_outcomes(SwapChain((make_filter([2, 1]),) * 2, "vbs"))
        assert doc["p_sum"] == report.p_sum  # repr round-trip is exact
        assert doc["tradeoff_constant"] == report.constant
        by_idx = {o["index"]: o for o in doc["outcomes"]}
        assert set(by_idx) == {"1", "2", "3"}
        assert by_idx["2"].pop("prob") == pytest.approx(17 / 33, abs=1e-12)
        assert by_idx["1"]["concurrence"] == pytest.approx(1.0, abs=1e-12)
        for o in doc["outcomes"]:
            assert o["prob_times_c"] == pytest.approx(8 / 33, abs=1e-12)
        assert doc["bond_concurrences"] == pytest.approx([0.8, 0.8], abs=1e-12)

    def test_plain_mode_has_four_outcomes_per_node(self, capsys):
        doc = run_json(capsys, "swap", "--mode", "plain", *WORKED)
        assert len(doc["outcomes"]) == 4
        assert doc["p_sum"] == pytest.approx(4.0, rel=1e-12)

    def test_qudit_maximal_qutrit(self, capsys):
        doc = run_json(
            capsys, "swap", "--mode", "qudit", "--dim", "3",
            "--identical", "1,1,1", "--bonds", "2",
        )
        assert len(doc["outcomes"]) == 9
        for o in doc["outcomes"]:
            assert o["prob"] == pytest.approx(1 / 9, abs=1e-12)
        # three bonds: two swap nodes, 81 rows
        doc = run_json(
            capsys, "swap", "--mode", "qudit", "--dim", "3",
            "--identical", "1,1,1", "--bonds", "3",
        )
        assert len(doc["outcomes"]) == 81
        assert doc["p_sum"] == pytest.approx(81.0, rel=1e-12)

    @pytest.mark.parametrize("t, live", [("1e-155", False), ("1e-100", True)])
    def test_qudit_determinant_below_the_float_range(self, t, live):
        # |det| of every class product underflows, and LU meets a zero pivot;
        # at 1e-155 even the product of roots underflows, so C = 0 there
        proc = subprocess.run(
            [sys.executable, "-m", "bondswap.cli", "swap", "--mode", "qudit", "--dim", "3",
             "--identical", f"1,{t},{t}", "--bonds", "2"],
            env=package_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

        def strict(constant):
            raise ValueError(f"{constant} in the document")

        doc = json.loads(proc.stdout, parse_constant=strict)
        assert (min(o["concurrence"] for o in doc["outcomes"]) > 0.0) == live
        assert doc["max_residual"] <= 1e-12 * doc["tradeoff_constant"]

    def test_explicit_filters_with_phases(self, capsys):
        doc = run_json(capsys, "swap", "--filters", "0.6+0.8j,1;1,1")
        assert doc["n_bonds"] == 2
        # |0.6+0.8i| == 1, so the first bond is maximal despite the phase
        assert doc["bond_concurrences"][0] == pytest.approx(1.0, abs=1e-12)

    def test_output_is_reproducible_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "swap", *WORKED)
        _, out2, _ = run_cli(capsys, "swap", *WORKED)
        assert out1 == out2
        keys = list(json.loads(out1))
        assert keys[:3] == ["version", "seed", "config_echo"]

    def test_csv_carries_identical_numbers(self, capsys):
        doc = run_json(capsys, "swap", *WORKED)
        code, out, _ = run_cli(capsys, "swap", *WORKED, "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["index", "weight", "prob", "concurrence", "prob_times_c"]
        for row_line, expect in zip(lines[1:], doc["outcomes"]):
            cells = row_line.split(",")
            assert cells[0] == expect["index"]
            assert float(cells[1]) == expect["weight"]
            assert float(cells[2]) == expect["prob"]
            assert float(cells[3]) == expect["concurrence"]
        meta = dict(
            l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# ")
        )
        assert float(meta["p_sum"]) == doc["p_sum"]

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"identical": "2,1", "bonds": 2, "mode": "vbs"}))
        doc = run_json(capsys, "swap", "--config", str(cfg))
        assert doc["n_bonds"] == 2
        doc = run_json(capsys, "swap", "--config", str(cfg), "--bonds", "3")
        assert doc["n_bonds"] == 3  # command line wins
        echo = doc["config_echo"]
        assert echo["mode"] == "vbs"

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.json"
        code, out, err = run_cli(capsys, "swap", *WORKED, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"bondswap: error: cannot write {target}")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(capsys, "swap", *WORKED, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n_bonds"] == 2

    def test_out_that_is_a_directory_fails_before_writing(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "swap", *WORKED, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"bondswap: error: cannot write {tmp_path}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failing_after_the_open_is_a_usage_error(self, capsys):
        # /dev/full opens, then every write fails with ENOSPC mid-stream
        code, out, err = run_cli(capsys, "swap", "--identical", "2,1", "--bonds", "9",
                                 "--out", "/dev/full")
        assert code == 2
        assert out == ""
        assert err.startswith("bondswap: error: cannot write /dev/full")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("bonds", ["2", "9"])  # 1 kB and 1 MB of JSON
    def test_stdout_failing_is_a_usage_error(self, bonds):
        # the unwritten bytes stay in sys.stdout's buffer, and the flush at exit
        # must not fail a second time (which would print and exit 120)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bondswap.cli", "swap", "--identical", "2,1",
                 "--bonds", bonds], env=package_env(), stdout=full, stderr=subprocess.PIPE,
                text=True)
        assert proc.returncode == 2
        line, rest = proc.stderr.split("\n", 1)
        assert line.startswith("bondswap: error: cannot write stdout: ")
        assert rest == ""

    def test_reader_closing_early_ends_quietly(self):
        # 6561 rows, about 1 MB of JSON: more than a pipe holds, so the writer
        # is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "bondswap.cli", "swap", "--identical", "2,1", "--bonds", "9"],
            env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 4
        assert err == b""
        assert head.startswith(b'{\n  "version": ')

    def test_budget_error_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, err = run_cli(capsys, "swap", "--identical", "1,1", "--bonds", "19",
                                 "--out", str(target))
        assert code == 3
        assert out == ""
        assert "budget" in err
        assert not target.exists()


# repeats, both zeros, NaNs of either sign, infinities and the float extremes
FLOAT_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              1.7976931348623157e308, 0.1, 1 / 3, -2.5e-300]


@st.composite
def swap_columns(draw):
    """A digit table's shape, its rows' index strings, and the four float columns
    of a swap table of base^N rows drawn from FLOAT_POOL, so values repeat within
    and across blocks: each row's values, and the columns as rendered.  A column
    is plain, or (values, index) with one index shared by all such columns, whose
    classes often come in runs that straddle blocks, and may be no fewer than the
    rows."""
    base, n_nodes = draw(st.sampled_from([(2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3),
                                          (4, 1), (4, 2)]))
    first = draw(st.integers(0, 1))
    n_rows = base ** n_nodes
    # row r's digit at node k is the base-``base`` digit k of r, node 1 first
    digits = ["".join(cli._DIGITS[first + r // base ** k % base] for k in range(n_nodes))
              for r in range(n_rows)]
    n_classes = draw(st.integers(1, 14))
    index = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        index.sort()
    shared = np.array(index, dtype=np.uint8)
    rows, columns = {}, {}
    for name in ("weight", "prob", "concurrence", "prob_times_c"):
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(FLOAT_POOL), min_size=n_classes,
                                   max_size=n_classes))
            rows[name], columns[name] = [values[c] for c in index], (np.array(values), shared)
        else:
            rows[name] = draw(st.lists(st.sampled_from(FLOAT_POOL), min_size=n_rows,
                                       max_size=n_rows))
            columns[name] = np.array(rows[name])
    return cli._Index(range(first, first + base), n_nodes), digits, rows, columns


class _Sink(io.TextIOBase):
    """A text stream that counts the characters written to it and keeps none."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestColumnarRendering:
    """Tables render from columns, and verify's chains from row dicts, to the
    very bytes of the row-dict path."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", TABLE_CASES, ids=" ".join)
    def test_bytes_match_row_dict_reference(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0, err
        assert out == reference_document(*argv, "--format", fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @given(table=swap_columns())
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_repeated_and_special_floats(self, monkeypatch, fmt, table):
        # blocks of 3 rows, so a distinct value's token serves several blocks
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
        shape, digits, floats, factored = table
        cfg = cli._resolve_config(cli.build_parser().parse_args(
            ["swap", *WORKED, "--format", fmt]))
        filters = cli._build_filters(cfg)
        head = {"dim": 2, "mode": "vbs", "n_bonds": 2, "p_sum": 1.0,
                "bond_concurrences": [0.8, 0.8], "tradeoff_constant": 0.64,
                "max_residual": 0.0}
        rows = [{"index": index, **{name: col[i] for name, col in floats.items()}}
                for i, index in enumerate(digits)]
        columns = {"index": shape, **factored}
        document = {"version": __version__, "seed": cfg["seed"],
                    "config_echo": cli._echo(cfg, filters), **head, "outcomes": columns}
        assert "".join(cli._render(fmt, "swap", document)) == render_reference(
            cfg, filters, {**head, "outcomes": rows})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("base", [2, 3, 4, 9, 25, 64])
    def test_index_pieces_join_to_whole_rows(self, fmt, base):
        # every shape within the row budget, N = 0..4 and each first digit the
        # alphabet holds: the low strings, cycled, and the high strings, repeated
        # over their runs, join to each row's whole string, in blocks of 1, 3 and 7
        # rows that start mid-cycle, and of 4096 that span a cycle or part of one
        head, quote = ('\n    },\n    {\n      "index": ', '"') if fmt == "json" else ("\n", "")
        encode = cli._json_tokens if fmt == "json" else cli._csv_tokens
        for first in (f for f in (0, 1) if base + f <= len(cli._DIGITS)):
            for nodes in (n for n in range(5) if base ** n <= qubit.ENUMERATION_BUDGET):
                shape = cli._Index(range(first, first + base), nodes)
                digits = digit_table(base, nodes, first)
                [column] = cli._segments({"index": shape}, ["index"], [head], encode, quote)
                for chunk in (1, 3, 7, 4096) if len(shape) <= 20_000 else (4096,):
                    for start in range(0, len(shape), chunk):
                        low, high = column(slice(start, start + chunk))
                        want = index_strings_reference(digits[start : start + chunk],
                                                       head + quote, quote)
                        assert list(map(str.__add__, low, high)) == want

    @pytest.mark.parametrize("argv", [
        ("swap", "--identical", "2,1", "--bonds", "6"),
        ("swap", "--mode", "plain", "--identical", "2,1", "--bonds", "5", "--format", "csv"),
        ("swap", "--mode", "qudit", "--dim", "3", "--identical", "1,2,3", "--bonds", "4"),
        ("sample", "--identical", "2,1", "--bonds", "6", "--samples", "500"),
    ], ids=" ".join)
    def test_index_needs_no_whole_digit_table(self, monkeypatch, capsys, argv):
        # the index prints from the table's shape: no digit table of more than
        # ⌈N/2⌉ nodes is made, so no row holds its N digits
        calls = []

        def spy(base, n, offset=0):
            calls.append(n)
            return real(base, n, offset)
        real = qubit.digit_table
        monkeypatch.setattr(qubit, "digit_table", spy)
        monkeypatch.setattr(cli, "digit_table", spy, raising=False)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        n_nodes = int(argv[argv.index("--bonds") + 1]) - 1
        assert max(calls, default=0) <= (n_nodes + 1) // 2

    def test_rendering_streams_in_blocks(self, monkeypatch):
        # the whole document is never held, nor a per-row array beside the
        # table's own: the peak of a 19683-row JSON swap written to a sink is
        # 0.32-0.36 times the document's length (0.36 as the first main of a
        # process), bounded at 0.45, where a whole-table digit array and a numpy
        # string per row took 0.49-0.53, and gathered columns and their np.unique
        # inverses 0.99.  Qubit columns take their tokens per keep/swap class,
        # so np.unique is never called.
        monkeypatch.setattr(np, "unique", None)
        sink = _Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["swap", "--identical", "2,1", "--bonds", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars > 3_000_000
        assert peak < 0.45 * sink.chars


# complex, signed, unbalanced and near-singular bonds: vbs N = 9, plain N = 7
# and qudit D = 5, N = 3; and identical bonds, whose 729 rows fall in 64
# keep/swap classes, so 5000 draws give each count to many rows
PINNED_VBS9 = ("0.9,0.3;-0.5,0.7;0.6+0.2j,0.4;1,-1e-3;0.8,0.8j;0.35,1;-0.7-0.1j,0.5;"
               "2,1;0.45,-0.95;0.3+0.3j,0.6-0.2j")
PINNED_PLAIN7 = "1,0.5;0.2-0.9j,0.7;-1,0.35;0.6,0.6+0.1j;1e-3,1;0.75,-0.4;0.5j,0.9;0.8,0.3-0.3j"
PINNED_QUDIT5 = "1,2,0.5,0.3+0.4j,0.8;0.7,1,-0.5,0.2,1.5;0.9j,0.4,1,0.6,-1;1,0.25,0.75,2,0.5-0.1j"
PINNED_QUDIT4 = "1,2,0.5,0.3+0.4j;0.7,-1,0.5j,0.2;0.9j,0.4,1,-0.6;1,0.25,0.75,2-0.1j"
PINNED_CHAINS = {
    "vbs": ("--mode=vbs", f"--filters={PINNED_VBS9}"),
    "plain": ("--mode=plain", f"--filters={PINNED_PLAIN7}"),
    "qudit": ("--mode=qudit", "--dim=5", f"--filters={PINNED_QUDIT5}"),
    "qudit4": ("--mode=qudit", "--dim=4", f"--filters={PINNED_QUDIT4}"),
    "identical": ("--identical=2,1", "--bonds=7"),
    "suite": ("--seed=7",),
    "identical9": ("--identical=2,1", "--bonds=9"),
    "range8": ("--identical=2,1", "--n-range=1:8"),
    "plain5000": ("--mode=plain", "--identical=0.6+0.8j,-0.3", "--n-range=3:5000"),
}
# sha256 of whole documents; the swap and sample ones and the default verify suite
# were recorded from the exact integer kernel once TestExactReference held it to
# exact values (the identical-filter verify documents from the per-row table
# route, which the kernel matches there); the reference
# renderer above reads the same tables, so these pins guard the table bits; the
# verify documents, from the per-bond np.einsum oracle build and its np.tensordot
# peel, guard the oracle's; the scan documents, from the closed-form scan and the
# fsum slope, guard both
PINNED_DOCUMENTS = {
    ("swap", "vbs", "json"): "28bca451e1e028aa0e2c664ecaa5d71db145130e713125fb8948082bcf068091",
    ("swap", "vbs", "csv"): "3a94934f997c2ac0740e8aa144a08e53ce346af26665fd7fb2840f6f64fb1799",
    ("swap", "plain", "json"): "8538a26f013a8dd0b8bb3378b5bc62b82813f9b23acaee59c38de96eaacba9f2",
    ("swap", "plain", "csv"): "8281bc3cfa6da2e25fff53896492d37bf49d49b2c8f6aa5d131c55af25e1493a",
    ("sample", "vbs", "json"): "12650e8cedace0ab641b67b8286bb85b6fea195da7605a1f4881c00aafb29e29",
    ("sample", "vbs", "csv"): "235201c2b01668007781beb92452e7747608e228aa93de8725bc50690318965f",
    ("sample", "plain", "csv"): "2eef01f75709c956ea5aecb4d868fdd187b2b55bb16f958e004708d44c7b9ef5",
    ("swap", "qudit", "json"): "4b95acb96a27002d4b12ed79edd70bbc3c83d4c0404f52e6921caa79b1e07597",
    ("swap", "qudit4", "json"): "7430c3fd86a36cc820917d4a6787a9d10a9a9d1aa5e6d3b9f98be6659e94e69a",
    ("sample", "identical", "json"):
        "a5846173ee490052d7c562f6814e5776bbfd988c3213c7f000663dc78cc17f7e",
    ("verify", "suite", "json"): "63d7253690a09aacd300d4f560884a9c9b0a2532065334bf1dc7f34672bc03b7",
    ("verify", "suite", "csv"): "70556ba56e598a7a692979f1979a6a0d278f76a85cb9f75bb5f71d9afafd7937",
    ("verify", "identical9", "json"):
        "adebc23a5ba72c3a6bbc578d1734b49718782f51f89d9a3c12039beffb15f430",
    ("verify", "identical9", "csv"):
        "2c5d8a761923c7445b4a1095e56b917dd8ae4e86c05b55bd898472f0150715d7",
    ("scan", "range8", "json"): "979f6d0ce65e373a9c7ef9a0c402f42028b5e93245775c77188b03cd579a99be",
    ("scan", "plain5000", "csv"):
        "580aae4159e36f9bc16f7a8fbae68d176761641e66441730899b7f9dab0dac2a",
}


def pinned_argv(command, chain, fmt):
    """The command line of the PINNED_DOCUMENTS entry (command, chain, fmt)."""
    argv = [command, *PINNED_CHAINS[chain], f"--format={fmt}"]
    return argv + ["--samples=5000", "--seed=7"] if command == "sample" else argv


class TestPinnedDocuments:
    @pytest.mark.parametrize("command, chain, fmt", list(PINNED_DOCUMENTS))
    def test_document_digest(self, capsys, command, chain, fmt):
        code, out, _ = run_cli(capsys, *pinned_argv(command, chain, fmt))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DOCUMENTS[command, chain, fmt]


class TestScanCommand:
    def test_maximal_chain_decays_like_powers_of_three(self, capsys):
        doc = run_json(capsys, "scan", "--identical", "1,1", "--n-range", "1:6")
        for row in doc["rows"]:
            assert row["constant"] == pytest.approx(3.0 ** -row["n"], rel=1e-12)
        assert doc["fitted_slope"] == pytest.approx(-math.log(3.0), abs=1e-10)

    def test_plain_mode_slope_is_log_c_minus_log_four(self, capsys):
        a = repr(math.sqrt(1.6))
        b = repr(math.sqrt(0.4))
        doc = run_json(
            capsys, "scan", "--mode", "plain",
            "--identical", f"{a},{b}", "--n-range", "1:8",
        )
        want = math.log(0.8) - math.log(4.0)
        assert doc["fitted_slope"] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--identical", "2,1", "--n-range", "1:8"),
        ("--mode", "plain", "--identical", "0.6+0.8j,-0.3", "--n-range", "3:5000"),
        ("--identical", "1e-150,1", "--n-range", "100:20000"),
        ("--identical", "0.3,1", "--n-range", "599991:600000"),
    ], ids=" ".join)
    def test_fitted_slope_is_the_least_squares_slope(self, capsys, argv):
        doc = run_json(capsys, "scan", *argv)
        ns = [row["n"] for row in doc["rows"]]
        logs = [row["log_constant"] for row in doc["rows"]]
        mid = Fraction(ns[0] + ns[-1], 2)
        exact = (sum((n - mid) * Fraction(y) for n, y in zip(ns, logs))
                 / sum((n - mid) ** 2 for n in ns))
        # the products' roundings: at most 0.76 ulp measured on these ranges
        assert abs(doc["fitted_slope"] - float(exact)) <= 2 * math.ulp(float(exact))
        assert doc["fitted_slope"] == pytest.approx(np.polyfit(ns, logs, 1)[0], rel=1e-9)

    def test_n_range_bounds_respected(self, capsys):
        doc = run_json(capsys, "scan", "--identical", "2,1", "--n-range", "2:5")
        assert [row["n"] for row in doc["rows"]] == [2, 3, 4, 5]

    def test_requires_identical(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--filters", "1,1;1,1")
        assert code == 2
        assert "identical" in err


class TestSampleCommand:
    def test_frequencies_and_tv(self, capsys):
        doc = run_json(capsys, "sample", *WORKED, "--samples", "20000")
        assert sum(o["count"] for o in doc["outcomes"]) == 20000
        assert doc["tv_distance"] <= 0.05
        assert doc["n_samples"] == 20000

    def test_seed_makes_bytes_reproducible(self, capsys, tmp_path):
        f1, f2, f3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run_cli(capsys, "sample", *WORKED, "--samples", "5000", "--out", str(f1))
        run_cli(capsys, "sample", *WORKED, "--samples", "5000", "--out", str(f2))
        run_cli(
            capsys, "sample", *WORKED, "--samples", "5000",
            "--seed", "43", "--out", str(f3),
        )
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_bytes() != f3.read_bytes()

    def test_default_seed_is_echoed(self, capsys):
        doc = run_json(capsys, "sample", *WORKED, "--samples", "100")
        assert doc["seed"] == 42

    @staticmethod
    def _peak(*args):
        """CLI sample's `tracemalloc` peak: a first small sample imports what main
        imports, so the traced span holds the table's and the rows' bytes alone."""
        with contextlib.redirect_stdout(_Sink()):
            main(["sample", "--identical", "2,1", "--bonds", "2"])
            tracemalloc.start()
            try:
                code = main(["sample", *args])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        return peak

    def test_counting_holds_no_per_row_objects(self):
        # the draws are counted by table row in arrays: a 19683-row sample
        # peaks at 53 B/row, most of it in rendering, where a whole digit table
        # with a numpy string per row took 94, label tuples and whole-table
        # lists of Python floats 250-280, and the int64 np.unique inverse with a
        # TV distance of six row-length temporaries 125
        assert self._peak("--identical", "2,1", "--bonds", "10") < 70 * 3 ** 9

    def test_tv_distance_gathers_prob_by_blocks(self):
        # 531441 rows: the peak is 13.0 B/row, bounded at 16 B/row (a 23 % margin);
        # a whole digit table of 12 B/row took it to 25.0 B/row, and subtracting a
        # gathered row-length prob from the deviation buffer 8 bytes more again
        assert self._peak("--identical", "2,1", "--bonds", "13") < 16 * 3 ** 12


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        doc = run_json(capsys, "verify")
        assert doc["passed"] is True
        assert doc["n_chains"] == 6
        for row in doc["chains"]:
            assert row["worst_weight_dev"] <= doc["tolerance"]
            assert row["worst_fidelity"] >= 1.0 - doc["tolerance"]

    def test_explicit_chain(self, capsys):
        doc = run_json(capsys, "verify", *WORKED)
        assert doc["passed"] is True
        assert doc["n_chains"] == 1

    def test_comparisons_are_built_only_when_read(self, capsys, monkeypatch):
        reports = []

        def spy(*args, **kwargs):
            reports.append(cross_check(*args, **kwargs))
            return reports[-1]
        monkeypatch.setattr(cli, "cross_check", spy)
        assert run_json(capsys, "verify")["passed"] is True
        assert len(reports) == 6
        assert not any("comparisons" in vars(rep) for rep in reports)
        comparisons = reports[-1].comparisons
        assert comparisons is reports[-1].comparisons
        assert type(comparisons) is list and len(comparisons) == 3 ** 3
        assert all(type(c) is OutcomeComparison for c in comparisons)

    @pytest.mark.parametrize("seed", [*range(100), 7, 42])
    def test_default_suite_equals_one_draw_per_filter(self, seed):
        # one draw of 18 filters reads the generator's stream as 18 random_filter
        # calls do: every diagonal and scale to the bit
        got, want = cli._default_verify_suite(seed), verify_suite_reference(seed)
        assert [len(c) for c in got] == [len(c) for c in want] == [2, 2, 3, 3, 4, 4]
        for f, g in zip(sum(got, []), sum(want, [])):
            assert f.diag.tobytes() == g.diag.tobytes()
            assert f.scale.hex() == g.scale.hex()

    def test_corrupted_projector_order_fails(self, capsys, monkeypatch):
        # the oracle measures in a permuted Bell basis: a negative control
        monkeypatch.setattr(vbs, "_BELL_BRAS", vbs._BELL_BRAS[[1, 2, 0]])
        code, out, _ = run_cli(capsys, "verify", *WORKED)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_oracle_size_limit(self, capsys):
        # 9 bonds = MAX_ORACLE_NODES internal nodes, the largest oracle chain
        doc = run_json(capsys, "verify", "--identical", "2,1", "--bonds", "9")
        assert doc["passed"] is True
        code, out, err = run_cli(capsys, "verify", "--identical", "2,1", "--bonds", "10")
        assert code == 2
        assert out == ""
        assert "2..9 bonds" in err

    def test_oracle_size_is_checked_before_the_filters_are_built(self, capsys, monkeypatch):
        def no_filters(*args, **kwargs):
            raise AssertionError("_build_filters ran before the oracle size check")

        monkeypatch.setattr(cli, "_build_filters", no_filters)
        code, out, err = run_cli(capsys, "verify", "--identical", "2,1", "--bonds", "2000000")
        assert (code, out) == (2, "")
        assert err == "bondswap: error: oracle supports 2..9 bonds, got 2000000\n"

    def test_tolerance_is_at_least_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--tolerance", "-1")
        assert (code, out) == (2, "")
        assert err == "bondswap: error: tolerance must be at least 0, got -1.0\n"
        code, out, _ = run_cli(capsys, "verify", *WORKED, "--tolerance", "0")
        assert code in (0, 1)
        assert json.loads(out)["tolerance"] == 0.0


class TestConcurrenceStage:
    """A report runs qubit._concurrences on the first read of a concurrence column,
    the constant or max_residual, and never again; verify and sample read none."""

    @pytest.mark.parametrize("argv", [("verify",), ("verify", "--identical", "2,1", "--bonds", "9"),
                                      ("sample", *WORKED), ("sample", "--mode", "plain", *WORKED)])
    def test_commands_that_read_no_concurrence(self, capsys, monkeypatch, argv):
        def no_stage(report):
            raise AssertionError(f"{argv[0]} ran the concurrence stage")

        monkeypatch.setattr(qubit, "_concurrences", no_stage)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)

    def test_stage_runs_once_per_report(self, capsys, monkeypatch):
        calls, stage = [], qubit._concurrences

        def counted(report):
            calls.append(report)
            return stage(report)
        monkeypatch.setattr(qubit, "_concurrences", counted)
        report = enumerate_outcomes(SwapChain((make_filter([2, 1]),) * 3))
        assert calls == []
        for name in ("class_concurrence", "concurrence", "bond_concurrences", "constant",
                     "max_residual", "records"):
            getattr(report, name)
        assert calls == [report]
        assert run_cli(capsys, "swap", *WORKED)[0] == 0
        assert len(calls) == 2


    @pytest.mark.parametrize("argv", [WORKED, ("--mode", "plain", *WORKED),
                                      ("--mode", "qudit", "--dim", "3", "--identical", "1,2,3",
                                       "--bonds", "3")], ids=["vbs", "plain", "qudit"])
    def test_swap_squares_the_chain_once(self, capsys, monkeypatch, argv):
        # the report keeps its one _squares for the class and bond concurrences
        calls, squares = [], qubit._squares

        def counted(diags):
            calls.append(diags)
            return squares(diags)
        monkeypatch.setattr(qubit, "_squares", counted)
        assert run_cli(capsys, "swap", *argv)[0] == 0
        assert len(calls) == 1


class TestExitCodes:
    def test_usage_errors(self, capsys):
        cases = [
            ("swap", "--mode", "vbs", "--dim", "3", "--identical", "1,1,1",
             "--bonds", "2"),
            ("swap", "--identical", "1,1", "--bonds", "2", "--filters", "1,1;1,1"),
            ("swap",),  # no filters given at all
            ("swap", "--identical", "1,1"),  # --identical without --bonds
            ("swap", "--identical", "not-a-number", "--bonds", "2"),
            ("scan", "--identical", "1,1", "--n-range", "5:2"),
            ("sample", *WORKED, "--samples", "0"),
            ("swap", "--identical", "2,1", "--bonds", "2.5"),
            ("verify", "--tolerance", "nan"),
            ("verify", "--tolerance", "inf"),
            ("scan", "--identical", "2,1", "--filters", "1,1;1,1"),
            ("swap", *WORKED, "--n-range", "9:1"),
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("bondswap: error"), argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("swap", *WORKED, "--seed", "-1"), "seed must be at least 0, got -1"),
            (("swap", *WORKED, "--samples", "0"), "samples must be at least 1, got 0"),
            (("scan", "--identical", "2,1", "--bonds", "0"), "bonds must be at least 1, got 0"),
            (("swap", "--mode", "qudit", "--dim", "1", "--identical", "1", "--bonds", "2"),
             "dim must be at least 2, got 1"),
            (("scan", "--identical", "2,1", "--n-range", "0:3"),
             "n_range must be at least 1, got 0"),
        ],
    )
    def test_value_out_of_range_whatever_the_command(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"bondswap: error: {message}\n")

    def test_sample_seed_is_checked_before_the_table(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("enumerate_outcomes ran before the seed check")

        monkeypatch.setattr(cli, "enumerate_outcomes", no_table)
        code, out, err = run_cli(capsys, "sample", *WORKED, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "bondswap: error: seed must be at least 0, got -1\n"

    def test_usage_errors_come_before_the_draw_budget(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--samples", "20000000",
                                 "--identical", "2,1,3", "--bonds", "2")
        assert (code, out) == (2, "")
        assert err.startswith("bondswap: error") and "but --dim is 2" in err

    def test_qudit_dim_above_the_digit_alphabet(self, capsys):
        code, out, err = run_cli(capsys, "swap", "--mode", "qudit", "--dim", "9",
                                 "--identical", ",".join("1" * 9), "--bonds", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("bondswap: error") and "at most 8" in err
        doc = run_json(capsys, "swap", "--mode", "qudit", "--dim", "8",
                       "--identical", ",".join("1" * 8), "--bonds", "2")
        assert len(doc["outcomes"]) == 64

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (("swap", "--identical", ",", "--bonds", "2"), None, "identical is empty"),
            (("scan", "--identical", "2,1", "--n-range", "1:2:3"), None,
             'n_range must be LO:HI or a pair of integers, got "1:2:3"'),
            (("swap", *WORKED, "--config", "{cfg}"), {"mode": "x"}, "unknown mode 'x'"),
            (("swap", *WORKED, "--config", "{cfg}"), None,  # no file at the path
             "cannot read config file {cfg}: [Errno 2] No such file or directory"),
            (("swap", *WORKED, "--config", "{cfg}"), [1, 2],
             "config file must hold a JSON object"),
            (("swap", "--filters", "1,2;3,4", "--bonds", "3"), None,
             "--bonds 3 contradicts 2 --filters entries"),
            (("scan", "--n-range", "1:3"), None,
             "scan needs --identical (one diagonal reused for all bonds)"),
        ],
    )
    def test_usage_error_message(self, capsys, tmp_path, argv, config, message):
        path = tmp_path / "cfg.json"
        if config is not None:
            path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *(arg.format(cfg=path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("bondswap: error: " + message.format(cfg=path)), err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"identical": "1,1", "bonds": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "swap", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_enumeration_budget(self, capsys):
        code, _, err = run_cli(capsys, "swap", "--identical", "1,1", "--bonds", "19")
        assert code == 3
        assert "budget" in err

    def test_sample_checks_the_budget_before_drawing(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("_draw ran before the budget check")

        monkeypatch.setattr(cli, "_draw", no_draws)
        code, out, err = run_cli(capsys, "sample", "--identical", "2,1", "--bonds", "15",
                                 "--samples", "3000000")
        assert code == 3
        assert out == ""
        assert "3^14" in err and "budget" in err

    @pytest.mark.parametrize("command", ["swap", "sample"])
    def test_table_budget_is_checked_before_the_chain_is_built(self, capsys, monkeypatch,
                                                              command):
        def no_chain(*args):
            raise AssertionError("a SwapChain was built before the budget check")

        monkeypatch.setattr(cli, "SwapChain", no_chain)
        code, out, err = run_cli(capsys, command, "--identical", "2,1", "--bonds", "2000000")
        assert code == 3
        assert out == ""
        assert err == ("bondswap: budget exceeded: 3^1999999 = 1.08e+954242 outcome rows "
                       "(about 7.54e+954234 GB at 70 B/row) exceed the enumeration budget "
                       "of 1679616 rows; use sample_outcomes or p_sum_transfer instead\n")

    @pytest.mark.parametrize("command", ["swap", "sample"])
    def test_usage_errors_come_before_the_table_budget(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--identical", "2,1,3", "--bonds", "2000000")
        assert code == 2
        assert out == ""
        assert err.startswith("bondswap: error") and "but --dim is 2" in err

    def test_qudit_table_budget_is_checked_before_the_chain_is_built(self, capsys,
                                                                    monkeypatch):
        def no_chain(*args):
            raise AssertionError("a qudit SwapChain was built before the budget check")

        monkeypatch.setattr(cli, "SwapChain", no_chain)
        code, out, err = run_cli(capsys, "swap", "--mode", "qudit", "--dim", "3",
                                 "--identical", "1,1,1", "--bonds", "2000000")
        assert code == 3
        assert out == ""
        assert err.startswith("bondswap: budget exceeded: 9^1999999 = ")

    def test_sample_checks_the_draw_budget_before_drawing(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("_draw ran before the draw budget check")

        monkeypatch.setattr(cli, "_DRAW_BUDGET", 26)
        code, _, _ = run_cli(capsys, "sample", *WORKED, "--samples", "26")
        assert code == 0
        monkeypatch.setattr(cli, "_draw", no_draws)
        code, out, err = run_cli(capsys, "sample", *WORKED, "--samples", "27")
        assert code == 3
        assert out == ""
        assert "27 sample draws" in err
        assert " GB at " in err and "budget of 26 draws" in err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("swap", {"identical": 5, "bonds": 2}, "identical"),
            ("swap", {"filters": 3}, "filters"),
            ("swap", {"filters": ["1,1", None]}, "filters"),
            ("swap", {"identical": "1,1", "bonds": 2, "dim": None}, "dim"),
            ("sample", {"identical": "1,1", "bonds": 2, "samples": []}, "samples"),
            ("verify", {"tolerance": None}, "tolerance"),
            ("swap", {"identical": "1,1", "bonds": [2]}, "bonds"),
            ("sample", {"identical": "1,1", "bonds": 2, "seed": "x"}, "seed"),
            ("swap", {"identical": "1,1", "bonds": 2, "out": 5}, "out"),
            ("scan", {"identical": "1,1", "n_range": [1, None]}, "n_range"),
            ("swap", {"identical": "2,1", "bonds": 2.9}, "bonds"),
            ("swap", {"identical": "2,1", "bonds": True}, "bonds"),
            ("swap", {"identical": "2,1", "bonds": 2, "dim": False}, "dim"),
            ("swap", {"identical": "2,1", "bonds": 2, "seed": 1.5}, "seed"),
            ("sample", {"identical": "2,1", "bonds": 2, "samples": True}, "samples"),
            ("verify", {"tolerance": "nan"}, "tolerance"),
            ("verify", {"tolerance": math.inf}, "tolerance"),
            ("verify", {"tolerance": True}, "tolerance"),
            ("swap", {"identical": [True, 1], "bonds": 2}, "identical"),
            ("swap", {"filters": [[1, False], [1, 1]]}, "filters"),
            ("scan", {"identical": "2,1", "n_range": [1.5, 3]}, "n_range"),
            ("scan", {"identical": "2,1", "n_range": [True, 3]}, "n_range"),
        ],
    )
    def test_wrongly_typed_config_value(self, capsys, tmp_path, command, config, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("bondswap: error: ")
        assert key in err

    @pytest.mark.parametrize(
        "module, budget, argv, rows",
        [
            (qubit, "ENUMERATION_BUDGET", ("swap", "--identical", "1,1", "--bonds", "4"),
             "3^3 = 27 outcome rows"),
            (qubit, "ENUMERATION_BUDGET", ("sample", "--mode", "plain",
                                           "--identical", "1,1", "--bonds", "4"),
             "4^3 = 64 outcome rows"),
            (qubit, "ENUMERATION_BUDGET", ("swap", "--mode", "qudit", "--dim", "3",
                                           "--identical", "1,1,1", "--bonds", "3"),
             "9^2 = 81 outcome rows"),
            (cli, "_SCAN_BUDGET", ("scan", "--identical", "1,1", "--n-range", "1:30"),
             "30 scan rows"),
        ],
    )
    def test_budget_reports_rows_and_memory(self, capsys, monkeypatch, module,
                                            budget, argv, rows):
        monkeypatch.setattr(module, budget, 26)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert rows in err
        assert " GB at " in err and "budget of 26 rows" in err

    def test_scan_checks_the_budget_before_the_transfer(self, capsys, monkeypatch):
        def no_transfer(*args):
            raise AssertionError("scan_log_constants ran before the budget check")

        monkeypatch.setattr(cli, "scan_log_constants", no_transfer)
        hi = cli._SCAN_BUDGET + 1
        code, out, err = run_cli(capsys, "scan", "--identical", "2,1",
                                 "--n-range", f"{hi - 1}:{hi}")
        assert code == 3
        assert out == ""
        assert f"{hi} scan rows" in err and "budget" in err

    def test_success_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "swap", *WORKED)
        assert code == 0

    def test_integral_and_numeric_string_config_values(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"identical": "2,1", "bonds": 3.0, "seed": "7",
                                    "samples": "100"}))
        _, from_file, _ = run_cli(capsys, "sample", "--config", str(path))
        _, from_flags, _ = run_cli(capsys, "sample", "--identical", "2,1", "--bonds", "3",
                                   "--seed", "7", "--samples", "100")
        assert json.loads(from_file)["n_bonds"] == 3
        assert from_file == from_flags
        path.write_text(json.dumps({"tolerance": "1e-6"}))
        assert run_json(capsys, "verify", "--config", str(path))["tolerance"] == 1e-6

    def test_filters_beyond_the_normal_float_range(self, capsys):
        tiny = run_json(capsys, "swap", "--identical", "1e-200,1e-200", "--bonds", "2")
        unit = run_json(capsys, "swap", "--identical", "1,1", "--bonds", "2")
        assert tiny["outcomes"] == unit["outcomes"]
        assert tiny["config_echo"]["filter_scales"] == [1e-200, 1e-200]


class TestRefusals:
    """A command refuses every option it does not read, from a flag or a config
    file alike, after the values are checked and before any budget."""

    @pytest.mark.parametrize("argv, flag", [
        (("swap", *WORKED, "--samples", "5"), "--samples"),
        (("scan", "--identical", "2,1", "--bonds", "3"), "--bonds"),
        (("sample", *WORKED, "--n-range", "1:3"), "--n-range"),
        (("verify", "--n-range", "1:3"), "--n-range"),
    ])
    def test_option_the_command_does_not_read(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"bondswap: error: {argv[0]} does not read {flag}; it reads ")
        assert err.count("\n") == 1

    def test_message_lists_what_the_command_reads(self, capsys):
        assert run_cli(capsys, "scan", "--identical", "2,1", "--filters", "1,1", "--bonds",
                       "7") == (2, "", "bondswap: error: scan does not read --filters, --bonds; "
                                "it reads --dim, --mode, --identical, --seed, --n-range, "
                                "--format, --out\n")

    def test_config_file_key_the_command_does_not_read(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"identical": "2,1", "n_range": "1:3", "samples": 5}))
        code, out, err = run_cli(capsys, "scan", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("bondswap: error: scan does not read --samples; ")
        path.write_text(json.dumps({"identical": "2,1", "bonds": 2, "n_range": "1:3"}))
        assert run_cli(capsys, "swap", "--config", str(path))[0] == 2

    @pytest.mark.parametrize("bonds", ["3", "20"])
    def test_verify_bonds_alone_is_not_the_default_suite(self, capsys, bonds):
        code, out, err = run_cli(capsys, "verify", "--bonds", bonds)
        assert (code, out) == (2, "")
        assert err.startswith("bondswap: error: ")

    def test_negative_control_knob_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--corrupt-bell-order"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --corrupt-bell-order" in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corrupt_bell_order": "yes"}))
        code, out, err = run_cli(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert "corrupt_bell_order" in err

    def test_refusal_comes_before_the_table_budget(self, capsys):
        code, out, err = run_cli(capsys, "swap", "--identical", "2,1", "--bonds", "2000000",
                                 "--samples", "5")
        assert (code, out) == (2, "")
        assert err.startswith("bondswap: error: swap does not read --samples; ")

    def test_accepted_argv_echoes_the_keys_that_do_not_give_filters(self, capsys):
        echoes = {argv[0]: run_json(capsys, *argv)["config_echo"] for argv in (
            ("swap", *WORKED), ("scan", "--identical", "2,1"),
            ("sample", *WORKED, "--samples", "10"), ("verify",))}
        assert echoes["swap"].keys() == {"command", "dim", "mode", "format",
                                         "filters_normalized", "filter_scales"}
        assert echoes["scan"]["n_range"] == "1:8"
        assert echoes["sample"]["samples"] == 10
        assert echoes["verify"]["tolerance"] == 1e-9

    def test_every_option_is_read_by_some_command(self):
        # 4 commands share 5 keys and read 13 of their own: 33 settable pairs of 44
        assert len(cli._OPTIONS) == 11
        keys = [cli._SHARED_KEYS + command.keys for command in cli._COMMANDS.values()]
        assert sum(map(len, keys)) == 33
        assert set().union(*keys) == set(cli._OPTIONS)


class TestParser:
    def test_help_lists_every_command_and_flag(self, capsys):
        pages = []
        for argv in (["--help"], ["swap", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1]
        text = " ".join(pages[0].split())
        for name, command in cli._COMMANDS.items():
            assert f"{name} {command.help}" in text
        for key, opt in cli._OPTIONS.items():
            if opt.flag.get("help") == argparse.SUPPRESS:
                continue
            if "choices" in opt.flag:
                arg = "{%s}" % ",".join(opt.flag["choices"])
            else:
                arg = opt.flag.get("metavar", key.upper())
            listing = f"--{key.replace('_', '-')} {arg} {opt.flag.get('help', '')}"
            assert listing.strip() in text, listing
        assert "--config FILE JSON config file" in text

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # two runs in one process write the bytes of two runs in processes of
        # their own, and the shared parser prints the same --help
        monkeypatch.setenv("COLUMNS", "80")
        env = package_env()
        argvs = (["swap", *WORKED, "--format", "csv"], ["scan", "--identical", "2,1"], ["--help"])
        alone = [subprocess.run([sys.executable, "-m", "bondswap.cli", *argv], env=env,
                                capture_output=True, text=True, check=True).stdout
                 for argv in argvs]
        shared = [run_cli(capsys, *argv)[1] for argv in argvs[:2]]
        with pytest.raises(SystemExit):
            main(argvs[2])
        assert shared + [capsys.readouterr().out] == alone
        assert cli.build_parser() is cli.build_parser()

    def test_flags_may_come_before_the_command(self, capsys):
        after = run_cli(capsys, "swap", *WORKED)
        assert after[0] == 0
        assert run_cli(capsys, *WORKED, "swap") == after


ENTRIES = st.sampled_from([1, 2, 0.5, -0.25, "0.6+0.8j", "-1j", 0])


@st.composite
def options(draw):
    """A command and config values of every kind the CLI reads.  Most keys the
    command reads get a valid value, a few a value or a combination the CLI
    rejects, and now and then a key the command does not read is given; about
    a third of the draws run."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    reads = cli._SHARED_KEYS + cli._COMMANDS[command].keys
    cfg = {}

    def pick(key, good, bad=()):
        # not given, good, or bad; a key the command does not read given one time in ten
        values = [None, *good * (6 // len(good)), *bad] if key in reads else [None] * 9 + good[:1]
        value = draw(st.sampled_from(values))
        if value is not None:
            cfg[key] = value
        return value

    dim = pick("dim", [2], [3])
    pick("mode", list(cli._COMMANDS[command].modes), [cli.VBS, cli.PLAIN, cli.QUDIT])
    width = draw(st.sampled_from([dim or 2] * 5 + [5 - (dim or 2)]))
    diag = st.lists(ENTRIES, min_size=width, max_size=width)
    sources = ["identical", "filters"] * 4 + ["both", "neither"]
    if "filters" not in reads:
        sources = ["identical"] * 4 + ["filters", "neither"]
    source = draw(st.sampled_from(sources))
    if source in ("identical", "both"):
        cfg["identical"] = draw(diag)
    if source in ("filters", "both"):
        cfg["filters"] = draw(st.lists(diag, min_size=1, max_size=3))
    pick("bonds", [len(cfg["filters"])] if "filters" in cfg else [2, 3], [0])
    pick("seed", [0, 7], [-1])
    pick("samples", [50], [0])
    pick("tolerance", [1e-6], [-1])
    pick("n_range", [[1, 3], [2, 4]], [[3, 1]])
    pick("format", ["json", "csv"])
    return command, cfg


def as_flag(key, value) -> str:
    if key == "identical":
        value = ",".join(map(str, value))
    elif key == "filters":
        value = ";".join(",".join(map(str, diag)) for diag in value)
    elif key == "n_range":
        value = "%d:%d" % tuple(value)
    return f"--{key.replace('_', '-')}={value}"


class TestFlagsAndConfigFileAgree:
    @given(options())
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_exit_code_and_bytes(self, capsys, tmp_path, case):
        command, cfg = case
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        from_file = run_cli(capsys, command, "--config", str(path))
        from_flags = run_cli(capsys, command, *(as_flag(k, v) for k, v in cfg.items()))
        assert from_file == from_flags
