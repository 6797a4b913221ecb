"""Command-line front end: the swap, scan, sample and verify commands.

Every run emits a single JSON object (or CSV table) carrying the package
version, the resolved config echo and the seed, so outputs are reproducible
byte for byte.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 enumeration budget exceeded, 4 output closed early by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .filters import PLAIN, QUDIT, VBS, FilterOp, make_filter
from .linalg import EnumerationBudgetError
from .qubit import (
    SwapChain,
    _draw,
    budget_error,
    check_table_budget,
    enumerate_outcomes,
    row_index,
    scan_log_constants,
)
from .vbs import _check_oracle_bonds, cross_check

MODES = (PLAIN, VBS, QUDIT)

# per-node outcome digits rendered in a base-64-style alphabet so one
# character always suffices (digits reach D²−1 = 63 at D = 8)
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/"
MAX_QUDIT_DIM = math.isqrt(len(_DIGITS))


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 2."""


def _parse_complex(key: str, value) -> complex:
    """A filter entry: a number or a string such as "0.6+0.8j", never a bool."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return complex(value.replace(" ", "") if isinstance(value, str) else value)
        except (OverflowError, ValueError):
            pass
    raise UsageError(f"{key}: cannot parse {json.dumps(value)} as a complex number")


def _split(key: str, raw, sep: str) -> list:
    """A flag string split at ``sep``, or a config-file list; never empty."""
    if isinstance(raw, str):
        parts = [p for p in raw.split(sep) if p.strip()]
    elif isinstance(raw, list):
        parts = raw
    else:
        raise UsageError(f"{key} must be a string or a list, got {json.dumps(raw)}")
    if not parts:
        raise UsageError(f"{key} is empty")
    return parts


def _parse_diag(key: str, raw) -> list[complex]:
    return [_parse_complex(key, part) for part in _split(key, raw, ",")]


def _parse_filter_list(key: str, raw) -> list[list[complex]]:
    return [_parse_diag(key, group) for group in _split(key, raw, ";")]


def _number(kind, lo=-math.inf, hi=math.inf):
    """Checker for an int or a finite float in lo..hi, given as a number or a
    numeric string; a bool, and for int a fractional part, are usage errors."""
    def check(key: str, value):
        x = None
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                f = float(value)
                if math.isfinite(f) and (kind is float or f.is_integer()):
                    x = kind(value)
            except (OverflowError, ValueError):
                pass
        if x is None:
            what = "an integer" if kind is int else "a finite number"
            raise UsageError(f"{key} must be {what}, got {json.dumps(value)}")
        if not lo <= x <= hi:  # named as parsed, so a flag and a file value agree
            bound = f"at least {lo}" if x < lo else f"at most {hi}"
            raise UsageError(f"{key} must be {bound}, got {x}")
        return x
    return check


def _parse_n_range(bound, key: str, raw) -> tuple[int, int]:
    """LO:HI or a pair [LO, HI], each passing the checker ``bound``, with LO <= HI."""
    parts = raw.split(":") if isinstance(raw, str) else raw
    if not isinstance(parts, list) or len(parts) != 2:
        raise UsageError(f"{key} must be LO:HI or a pair of integers, got {json.dumps(raw)}")
    lo, hi = (bound(key, part) for part in parts)
    if hi < lo:
        raise UsageError(f"bad N range {lo}:{hi}")
    return lo, hi


def _choice(key: str, value):
    if value not in _OPTIONS[key].flag["choices"]:
        raise UsageError(f"unknown {key} {value!r}")
    return value


def _file_name(key: str, value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{key} must be a file name, got {json.dumps(value)}")
    return value


# Scan rows (one per N up to HI) and sample draws admitted, with upper fits to the peak
# bytes each adds: 99 B/row in scan (HI = 6e5 over 1e3), 74-75 B/draw in sample (N = 1, 13).
_SCAN_BUDGET = 600_000
_SCAN_ROW_BYTES = 250
_DRAW_BUDGET = 10_000_000
_DRAW_BYTES = 130


# Every config key and its --flag (the key with "-" for "_"), in --help order: its
# default, parsed once into _DEFAULTS, the checker each given value passes unless it and
# the default are both None (it returns the value parsed), and the flag's argparse keywords.
_Option = namedtuple("_Option", "default check flag")
_OPTIONS = {
    # D <= 8: each outcome digit m*D+n prints as one of the 64 symbols of _DIGITS
    "dim": _Option(2, _number(int, 2, MAX_QUDIT_DIM), {"help": "local dimension (default 2)"}),
    "mode": _Option(None, _choice, {
        "choices": MODES, "help": "vbs (symmetric-subspace), plain, or qudit"}),
    "identical": _Option(None, _parse_diag, {
        "metavar": "a,b[,c...]", "help": "one diagonal reused for every bond"}),
    "filters": _Option(None, _parse_filter_list, {
        "metavar": "a0,b0;a1,b1;...", "help": "explicit per-bond diagonals, ';'-separated"}),
    "bonds": _Option(None, _number(int, 1), {"help": "number of bonds (internal nodes + 1)"}),
    "seed": _Option(42, _number(int, 0), {"help": "RNG seed (default 42)"}),
    "samples": _Option(10000, _number(int, 1), {"help": "sample count for the sample command"}),
    "tolerance": _Option(1e-9, _number(float, 0), {
        "help": "verification tolerance (default 1e-9)"}),
    "n_range": _Option("1:8", functools.partial(_parse_n_range, _number(int, 1)), {
        "metavar": "LO:HI", "help": "scan range of internal-node counts (default 1:8)"}),
    "format": _Option("json", _choice, {"choices": ("json", "csv")}),
    "out": _Option(None, _file_name, {
        "metavar": "FILE", "help": "write output here instead of stdout"}),
}
_DEFAULTS = {k: o.check(k, o.default) for k, o in _OPTIONS.items() if o.default is not None}


def _resolve_config(args) -> dict:
    """File config, overridden by explicit flags, topped with defaults.  Every
    given value is checked, then any key the command does not read is refused."""
    given = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_OPTIONS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        given.update(file_cfg)
    given.update((key, flag) for key in _OPTIONS if (flag := getattr(args, key)) is not None)
    cfg = {"command": args.command, **dict.fromkeys(_OPTIONS), **_DEFAULTS}
    for key, opt in _OPTIONS.items():
        if key in given and not (given[key] is None is opt.default):
            cfg[key] = opt.check(key, given[key])
    command = _COMMANDS[args.command]
    reads = [key for key in _OPTIONS if key in _SHARED_KEYS + command.keys]
    foreign = [key for key in _OPTIONS if key in given and key not in reads]
    if foreign:
        flags = (", ".join("--" + key.replace("_", "-") for key in keys)
                 for keys in (foreign, reads))
        raise UsageError("{} does not read {}; it reads {}".format(args.command, *flags))
    if cfg["mode"] is None:
        cfg["mode"] = VBS if cfg["dim"] == 2 else QUDIT
    if cfg["mode"] in (PLAIN, VBS) and cfg["dim"] != 2:
        raise UsageError(f"mode {cfg['mode']!r} is qubit-only; got --dim {cfg['dim']}")
    if cfg["mode"] not in command.modes:
        raise UsageError(f"{args.command} supports --mode {' or '.join(command.modes)} "
                         f"only, got {cfg['mode']}")
    return cfg


def _build_filters(cfg, table: bool = False) -> list[FilterOp]:
    """The chain's filters, one per bond.  With ``table``, an outcome table over
    its budget is refused from the bond count, after the usage checks and
    before the list of one filter per bond is made."""
    if cfg["identical"] is not None and cfg["filters"] is not None:
        raise UsageError("give either --identical or --filters, not both")
    if cfg["identical"] is not None:
        if cfg["bonds"] is None:
            raise UsageError("--identical needs --bonds (number of bonds, N+1)")
        diags = [cfg["identical"]]
    elif cfg["filters"] is not None:
        diags = cfg["filters"]
        if cfg["bonds"] is not None and cfg["bonds"] != len(diags):
            raise UsageError(
                f"--bonds {cfg['bonds']} contradicts {len(diags)} --filters entries"
            )
    else:
        raise UsageError("no filters given: use --identical with --bonds, or --filters")
    for diag in diags:
        if len(diag) != cfg["dim"]:
            raise UsageError(
                f"filter {diag} has {len(diag)} entries but --dim is {cfg['dim']}"
            )
    filters = [make_filter(d) for d in diags]
    n_bonds = cfg["bonds"] if cfg["filters"] is None else len(filters)
    if table:
        check_table_budget(cfg["mode"], n_bonds - 1, cfg["dim"])
    return filters if cfg["filters"] is not None else filters * n_bonds


def _normalized(filters) -> list:
    """Each filter's diagonal as [re, im] pairs."""
    return [f.diag.view(float).reshape(-1, 2).tolist() for f in filters]


def _echo(cfg, filters) -> dict:
    echo = {
        "command": cfg["command"],
        "dim": cfg["dim"],
        "mode": cfg["mode"],
        "format": cfg["format"],
        "filters_normalized": _normalized(filters),
        "filter_scales": [f.scale for f in filters],
    }
    echo.update((key, "%d:%d" % cfg[key] if key == "n_range" else cfg[key])
                for key in _COMMANDS[cfg["command"]].keys if key not in _FILTER_KEYS)
    return echo


@dataclass(frozen=True)
class _Index:
    """A table's index column by its shape, its N = ``nodes`` digits from ``digits``:
    row Σ_k (d_k − first)·base^k, as digit_table orders it, prints node k + 1's digit
    d_k as _DIGITS[d_k], node 1 first."""

    digits: range
    nodes: int

    def __len__(self) -> int:
        return len(self.digits) ** self.nodes

    def pieces(self, head: str, tail: str):
        """A function from a slice of rows to two piece lists: row lo + span·hi takes
        the string of lo's low nodes after ``head``, then of hi's high nodes before
        ``tail``.  The span = base^⌈N/2⌉ low and base^⌊N/2⌋ high strings are made once."""
        symbols = _DIGITS[self.digits.start : self.digits.stop]

        def strings(nodes, text):  # each node's symbol varies slower than the last's
            for _ in range(nodes):
                text = [s + c for c in symbols for s in text]
            return text
        low = strings((self.nodes + 1) // 2, [head])
        high = np.array([s + tail for s in strings(self.nodes // 2, [""])], dtype=object)
        span, n_rows = len(low), len(self)

        def block(rows: slice) -> list[list[str]]:
            start, stop = rows.start, min(rows.stop, n_rows)
            lo, n = start % span, stop - start
            # the low strings cycle; each high string holds for a run of span rows
            highs = np.repeat(high[start // span : (stop - 1) // span + 1], span)
            return [(low * ((lo + n - 1) // span + 1))[lo : lo + n], highs[lo : lo + n].tolist()]
        return block


def _run_swap(cfg) -> tuple[dict, list[FilterOp], int]:
    filters = _build_filters(cfg, table=True)
    chain = SwapChain(tuple(filters), cfg["mode"])
    report = enumerate_outcomes(chain)
    prob, conc = report.class_prob, report.class_concurrence
    columns = {"weight": report.class_weight, "prob": prob, "concurrence": conc,
               "prob_times_c": prob * conc}
    outcomes = {"index": _Index(report.mode.digits, chain.n_nodes),
                **{name: (values, report.class_index) for name, values in columns.items()}}
    payload = {
        "dim": cfg["dim"],
        "mode": cfg["mode"],
        "n_bonds": len(filters),
        "p_sum": report.p_sum,
        "bond_concurrences": report.bond_concurrences,
        "tradeoff_constant": report.constant,
        "max_residual": report.max_residual,
        "outcomes": outcomes,
    }
    return payload, filters, 0


def _run_scan(cfg) -> tuple[dict, list[FilterOp], int]:
    if cfg["identical"] is None:
        raise UsageError("scan needs --identical (one diagonal reused for all bonds)")
    filters = _build_filters({**cfg, "bonds": 1})  # one filter serves every N
    lo, hi = cfg["n_range"]
    if hi > _SCAN_BUDGET:
        raise budget_error(f"{hi} scan", math.log10(hi), "row", _SCAN_ROW_BYTES, "scan",
                           _SCAN_BUDGET)
    logs = scan_log_constants(filters[0], hi, cfg["mode"])[lo - 1 :]
    ns = np.arange(lo, hi + 1)
    finite = np.isfinite(logs)  # a non-finite log: constant 0.0, log_constant null (CSV: empty)
    # math.exp per row, as np.exp may round differently; the constants fall with N, so
    # equal bits come in runs: the column is factored by its runs, with no sort
    consts = np.fromiter(map(math.exp, np.where(finite, logs, -math.inf)), float, len(logs))
    run = np.concatenate(([True], consts.view(np.int64)[1:] != consts.view(np.int64)[:-1]))
    rows = {"n": ns, "constant": (consts[run], np.cumsum(run) - 1),
            "log_constant": logs if finite.all() else np.where(finite, logs, None)}
    slope = None
    if finite.all() and len(logs) >= 2:  # least squares about the centre: Σ (n − n̄) = 0, so
        # the logs may drop their middle entry, and a far-out range's products do not cancel
        dn, dy = ns - 0.5 * (lo + hi), logs - logs[len(logs) // 2]
        slope = math.fsum((dn * dy).tolist()) / math.fsum((dn * dn).tolist())
    payload = {
        "dim": 2,
        "mode": cfg["mode"],
        "n_min": lo,
        "n_max": hi,
        "fitted_slope": slope,
        "rows": rows,
    }
    return payload, filters, 0


def _run_sample(cfg) -> tuple[dict, list[FilterOp], int]:
    n = cfg["samples"]
    filters = _build_filters(cfg, table=True)
    if n > _DRAW_BUDGET:
        raise budget_error(f"{n} sample", math.log10(n), "draw", _DRAW_BYTES, "sample",
                           _DRAW_BUDGET)
    chain = SwapChain(tuple(filters), cfg["mode"])
    report = enumerate_outcomes(chain)
    digits = report.mode.digits
    per_row = np.bincount(row_index(_draw(chain, n, cfg["seed"]), len(digits), digits.start),
                          minlength=len(report.class_index))
    # the distinct counts ascending, as np.unique gives them, from a count of
    # counts (at most n + 1 long), and each row's place among them in the
    # smallest unsigned dtype: no row-length sort and no int64 inverse
    counts = np.flatnonzero(np.bincount(per_row))
    place = np.zeros(counts[-1] + 1, np.min_scalar_type(len(counts) - 1))
    place[counts] = np.arange(len(counts))
    which = place[per_row]
    del per_row
    # |frequency − prob| summed left to right in record order, as cumsum adds (np.sum
    # and fsum round differently), in one row-length buffer; prob gathered per block
    dev = (counts / n)[which]
    for start in range(0, len(dev), _CHUNK_ROWS):
        block = slice(start, start + _CHUNK_ROWS)
        dev[block] -= report.class_prob[report.class_index[block]]
    np.abs(dev, out=dev)
    tv = float(np.cumsum(dev, out=dev)[-1])
    outcomes = {"index": _Index(digits, chain.n_nodes), "count": (counts, which),
                "frequency": (counts / n, which), "prob": (report.class_prob, report.class_index)}
    payload = {
        "dim": 2,
        "mode": cfg["mode"],
        "n_bonds": len(filters),
        "n_samples": n,
        "tv_distance": 0.5 * tv,
        "outcomes": outcomes,
    }
    return payload, filters, 0


def _default_verify_suite(seed: int) -> list[list[FilterOp]]:
    # the draws of 18 random_filter(rng, 2): magnitudes by uniform's low + (high − low)·u, phases
    u = np.random.default_rng(seed).random((18, 2, 2))
    diags = iter((0.35 + (1.0 - 0.35) * u[:, 0]) * np.exp(2j * np.pi * u[:, 1]))
    return [[make_filter(next(diags)) for _ in range(n + 1)] for n in (1, 1, 2, 2, 3, 3)]


def _run_verify(cfg) -> tuple[dict, list[FilterOp], int]:
    if any(cfg[key] is not None for key in _FILTER_KEYS):
        if cfg["bonds"] is not None:  # before --identical makes a filter per bond
            _check_oracle_bonds(cfg["bonds"])
        chains = [_build_filters(cfg)]
    else:
        chains = _default_verify_suite(cfg["seed"])
    rows = []
    all_passed = True
    for filters in chains:
        rep = cross_check(filters, tolerance=cfg["tolerance"])
        all_passed &= rep.passed
        rows.append({
            "n_bonds": len(filters),
            "filters_normalized": _normalized(filters),
            "worst_weight_dev": rep.worst_weight_dev,
            "worst_fidelity": rep.worst_fidelity,
            "passed": rep.passed,
        })
    payload = {
        "tolerance": cfg["tolerance"],
        "n_chains": len(rows),
        "chains": rows,
        "passed": bool(all_passed),
    }
    return payload, chains[0], 0 if all_passed else 1


# Every command: its runner, cfg -> (payload, filters, exit code), the payload key
# of its table rows, their CSV columns, its --help line, the modes it accepts and
# the keys it reads beside the shared ones; a given key outside them is refused.
_Command = namedtuple("_Command", "run rows columns help modes keys")
_SHARED_KEYS = ("dim", "mode", "seed", "format", "out")
_FILTER_KEYS = ("identical", "filters", "bonds")
_COMMANDS = {
    "swap": _Command(_run_swap, "outcomes", ("index", "weight", "prob", "concurrence",
                     "prob_times_c"), "enumerate every Bell outcome of one chain", MODES,
                     _FILTER_KEYS),
    "scan": _Command(_run_scan, "rows", ("n", "constant", "log_constant"),
                     "trade-off constant vs chain length for identical filters", (PLAIN, VBS),
                     ("identical", "n_range")),
    "sample": _Command(_run_sample, "outcomes", ("index", "count", "frequency", "prob"),
                       "draw Bell outcomes from the exact distribution", (PLAIN, VBS),
                       (*_FILTER_KEYS, "samples")),
    "verify": _Command(_run_verify, "chains", ("n_bonds", "worst_weight_dev", "worst_fidelity",
                       "passed"), "cross-check chains against the state-vector oracle", (VBS,),
                       (*_FILTER_KEYS, "tolerance")),
}
# rows rendered per block, so per-row strings exist for one block at a time
_CHUNK_ROWS = 4096


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _json_tokens(col: np.ndarray) -> list[str]:
    # the C encoder's tokens, as json.dumps(document, indent=2) writes them
    return json.dumps(col.tolist())[1:-1].split(", ")


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: ("false", "true").__getitem__,
            type(None): lambda _: "null", float: lambda x: repr(x) if x - x == 0 else json.dumps(x)}


def _dumps(value, indent: str = "") -> str:
    """The bytes of json.dumps(value, indent=2), later lines ``indent`` further in; str keys."""
    scalar = _SCALARS.get(type(value))
    if scalar or not isinstance(value, (dict, list, tuple)) or not value:  # empty: {} or []
        return scalar(value) if scalar else json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        kv = (f"{inner}{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(kv) + f"\n{indent}}}"
    return "[\n" + ",\n".join(inner + _dumps(v, inner) for v in value) + f"\n{indent}]"


def _csv_tokens(col: np.ndarray) -> list[str]:
    # str is repr for a float; only an object column may hold None
    return list(map(_csv_cell if col.dtype.kind == "O" else str, col.tolist()))


def _segments(rows: dict, names, opens, encode, quote: str):
    """A function per segment of a row, from a slice of rows to the segment's
    pieces: a list per piece of a row.  Row b of a column (values, index) holds
    values[index[b]]; its tokens, each after its text, are joined once per value,
    and once over columns with one index.  An _Index column's pieces carry its
    text and quotes, and only another column without an index keeps its text
    apart."""
    parts = []  # [text, index, tokens per value, or the column or its _Index]
    for name, text in zip(names, opens):
        values, index = rows[name] if isinstance(rows[name], tuple) else (rows[name], None)
        if index is None:
            parts.append([text, None, values])
        elif parts and parts[-1][1] is index:
            parts[-1][2] = parts[-1][2] + text + np.array(encode(values), dtype=object)
        else:
            parts.append([None, index, text + np.array(encode(values), dtype=object)])

    def column(text, index, tokens):
        if isinstance(tokens, _Index):
            return tokens.pieces(text + quote, quote)
        if index is not None:
            return lambda rows: [tokens[index[rows]].tolist()]

        def apart(rows):
            col = encode(tokens[rows])
            return [[text] * len(col), col]
        return apart
    return [column(*p) for p in parts]


def _render(fmt: str, command: str, document: dict):
    """The document as text pieces to write as they come: a header, blocks of
    at most _CHUNK_ROWS table rows, a trailer.  The JSON pieces join to the
    bytes of json.dumps(document, indent=2) + "\n", with no call to json's pure-Python encoder."""
    rows_key = _COMMANDS[command].rows
    rows = document[rows_key]
    if fmt == "json":
        # the document with no rows, split where they go
        gap = f"\n  {json.dumps(rows_key)}: ["
        head, tail = _dumps({**document, rows_key: []}).split(gap + "]")
        yield head + gap + "\n"
        names = list(rows) if isinstance(rows, dict) else []
        # the text before each field of a row, and after its last
        opens = [f"{',' if j else '    {'}\n      {json.dumps(name)}: "
                 for j, name in enumerate(names)]
        close, sep, trailer, encode, quote = "\n    }", ",\n", f"\n  ]{tail}\n", _json_tokens, '"'
        one_row = lambda row: "    " + _dumps(row, "    ")
    else:
        names = _COMMANDS[command].columns
        cells = {k: ";".join(map(_csv_cell, v)) if isinstance(v, list) else _csv_cell(v)
                 for k, v in document.items() if k not in (rows_key, "config_echo")}
        yield "".join(f"# {k}={v}\n" for k, v in cells.items()) + ",".join(names) + "\n"
        opens = [""] + [","] * (len(names) - 1)
        close, sep, trailer, encode, quote = "", "\n", "\n", _csv_tokens, ""
        one_row = lambda row: ",".join(_csv_cell(row[name]) for name in names)
    if isinstance(rows, dict):  # columns: name -> numpy array or (values, index)
        # every row opens after the last one's close; the first of all, after none
        opens[0] = close + sep + opens[0]
        columns = _segments(rows, names, opens, encode, quote)
        for start in range(0, len(rows[names[0]]), _CHUNK_ROWS):
            # one str.join over every segment's pieces interleaved row by row
            cols = [c for col in columns for c in col(slice(start, start + _CHUNK_ROWS))]
            pieces = [close] * (len(cols) * len(cols[0]) + 1)  # the block's close last
            for j, col in enumerate(cols):
                pieces[j : -1 : len(cols)] = col
            pieces[0] = pieces[0][len(close if start else close + sep) :]
            yield "".join(pieces)
    else:  # a few rows, whose values may be nested lists
        yield sep.join(map(one_row, rows))
    yield trailer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="bondswap",
        description="Entanglement swapping on chains of filtered bonds.",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="\n".join(
        f"{name:<8}{command.help}" for name, command in _COMMANDS.items()))
    for key, opt in _OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **opt.flag)
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; explicit flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        payload, filters, code = _COMMANDS[cfg["command"]].run(cfg)
    except EnumerationBudgetError as exc:
        print(f"bondswap: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"bondswap: error: {exc}", file=sys.stderr)
        return 2

    document = {
        "version": __version__,
        "seed": cfg["seed"],
        "config_echo": _echo(cfg, filters),
    }
    document.update(payload)
    pieces = _render(cfg["format"], cfg["command"], document)
    out = cfg["out"]
    try:
        with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
            fh.writelines(pieces)
            fh.flush()  # a reader that closed early fails here, not at exit
    except OSError as exc:
        if not out:  # the unwritten bytes stay in stdout's buffer: point stdout at
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # devnull, as
        if isinstance(exc, BrokenPipeError):  # the Python docs advise, so exit is quiet
            return 4
        print(f"bondswap: error: cannot write {out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
