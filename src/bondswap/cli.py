"""Command-line front end: the swap, scan, sample and verify commands.

Every run emits a single JSON object (or CSV table) carrying the package
version, the resolved config echo and the seed, so outputs are reproducible
byte for byte.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .filters import PLAIN, VBS, FilterOp, make_filter, random_filter
from .linalg import EnumerationBudgetError
from .qubit import (
    SwapChain,
    _draw,
    bond_concurrences,
    check_table_budget,
    enumerate_outcomes,
    row_index,
    scan_log_constants,
)
from .qudit import QuditChain, check_qudit_table_budget, enumerate_qudit_outcomes
from .vbs import cross_check

QUDIT = "qudit"
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


def _number(kind):
    """Checker for an int or a finite float given as a number or a numeric
    string; a bool, and for int a fractional part, are usage errors."""
    def check(key: str, value):
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                x = float(value)
                if math.isfinite(x) and (kind is float or x.is_integer()):
                    return kind(value)
            except (OverflowError, ValueError):
                pass
        what = "an integer" if kind is int else "a finite number"
        raise UsageError(f"{key} must be {what}, got {json.dumps(value)}")
    return check


def _parse_n_range(key: str, raw) -> tuple[int, int]:
    parts = raw.split(":") if isinstance(raw, str) else raw
    if not isinstance(parts, list) or len(parts) != 2:
        raise UsageError(f"{key} must be LO:HI or a pair of integers, got {json.dumps(raw)}")
    lo, hi = (_number(int)(key, part) for part in parts)
    if lo < 1 or hi < lo:
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


# Scan rows (one per N up to HI) and sample draws admitted, with upper fits to the
# peak bytes each adds: 217 B/row in scan, 59-73 B/draw in sample (N = 13 to 1).
_SCAN_BUDGET = 600_000
_SCAN_ROW_BYTES = 250
_DRAW_BUDGET = 10_000_000
_DRAW_BYTES = 130


def _check_budget(command: str, count: int, budget: int, unit: str, unit_bytes: int) -> None:
    """Refuse more than ``budget`` units of ``command``, naming the memory they need."""
    if count > budget:
        raise EnumerationBudgetError(
            f"{count} {command} {unit}s (about {count / 1e9 * unit_bytes:.3g} GB at "
            f"{unit_bytes} B/{unit}) exceed the {command} budget of {budget} {unit}s")


# Every config key and its --flag (the key with "-" for "_"), in --help order:
# its default, the checker each value passes unless it and the default are both
# None (it returns the value parsed), and the argparse keywords of the flag.
_Option = namedtuple("_Option", "default check flag")
_OPTIONS = {
    "dim": _Option(2, _number(int), {"help": "local dimension (default 2)"}),
    "mode": _Option(None, _choice, {
        "choices": MODES, "help": "vbs (symmetric-subspace), plain, or qudit"}),
    "identical": _Option(None, _parse_diag, {
        "metavar": "a,b[,c...]", "help": "one diagonal reused for every bond"}),
    "filters": _Option(None, _parse_filter_list, {
        "metavar": "a0,b0;a1,b1;...", "help": "explicit per-bond diagonals, ';'-separated"}),
    "bonds": _Option(None, _number(int), {"help": "number of bonds (internal nodes + 1)"}),
    "seed": _Option(42, _number(int), {"help": "RNG seed (default 42)"}),
    "samples": _Option(10000, _number(int), {"help": "sample count for the sample command"}),
    "tolerance": _Option(1e-9, _number(float), {"help": "verification tolerance (default 1e-9)"}),
    "n_range": _Option("1:8", _parse_n_range, {
        "metavar": "LO:HI", "help": "scan range of internal-node counts (default 1:8)"}),
    "format": _Option("json", _choice, {"choices": ("json", "csv")}),
    "out": _Option(None, _file_name, {
        "metavar": "FILE", "help": "write output here instead of stdout"}),
    "corrupt_bell_order": _Option(False, None, {
        "action": "store_true", "help": argparse.SUPPRESS}),
}
_DEFAULTS = {key: opt.default for key, opt in _OPTIONS.items()}


def _resolve_config(args) -> dict:
    """File config, overridden by explicit flags, topped with defaults."""
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    cfg["command"] = args.command
    for key, opt in _OPTIONS.items():
        flag = getattr(args, key)
        if flag is not None and flag is not False:
            cfg[key] = flag
        if opt.check is not None and (cfg[key] is not None or opt.default is not None):
            cfg[key] = opt.check(key, cfg[key])
    if cfg["mode"] is None:
        cfg["mode"] = VBS if cfg["dim"] == 2 else QUDIT
    if cfg["mode"] in (PLAIN, VBS) and cfg["dim"] != 2:
        raise UsageError(f"mode {cfg['mode']!r} is qubit-only; got --dim {cfg['dim']}")
    if cfg["dim"] > MAX_QUDIT_DIM:
        raise UsageError(
            f"--dim is at most {MAX_QUDIT_DIM} (outcome digits m*D+n print as one "
            f"of {len(_DIGITS)} symbols); got --dim {cfg['dim']}"
        )
    modes = _COMMANDS[args.command].modes
    if cfg["mode"] not in modes:
        raise UsageError(f"{args.command} supports --mode {' or '.join(modes)} only, "
                         f"got {cfg['mode']}")
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
        if cfg["bonds"] < 1:
            raise UsageError("--bonds must be >= 1")
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
    if table and cfg["mode"] == QUDIT:
        check_qudit_table_budget(cfg["dim"], n_bonds - 1)
    elif table:
        check_table_budget(cfg["mode"], n_bonds - 1)
    return filters if cfg["filters"] is not None else filters * n_bonds


def _normalized(filters) -> list:
    """Each filter's diagonal as [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in f.diag] for f in filters]


def _echo(cfg, filters) -> dict:
    echo = {
        "command": cfg["command"],
        "dim": cfg["dim"],
        "mode": cfg["mode"],
        "format": cfg["format"],
        "filters_normalized": _normalized(filters),
        "filter_scales": [f.scale for f in filters],
    }
    if cfg["command"] == "scan":
        echo["n_range"] = "%d:%d" % cfg["n_range"]
    if cfg["command"] == "sample":
        echo["samples"] = cfg["samples"]
    if cfg["command"] == "verify":
        echo["tolerance"] = cfg["tolerance"]
    return echo


def _index_strings(digits: np.ndarray, quote: str) -> np.ndarray:
    """One string per table row, in ``quote``s: node k's digit as character k of _DIGITS."""
    rows, n = digits.shape
    if n == 0 and not quote:
        return np.full(rows, "")
    codes = np.frombuffer(_DIGITS.encode("ascii"), dtype=np.uint8).astype(np.uint32)[digits]
    if quote:
        codes = np.pad(codes, ((0, 0), (1, 1)), constant_values=ord(quote))
    # the code points of a row read as one numpy U<width> string each
    return codes.view(f"U{codes.shape[1]}").ravel()


def _run_swap(cfg) -> tuple[dict, list[FilterOp], int]:
    filters = _build_filters(cfg, table=True)
    if cfg["mode"] == QUDIT:
        chain = QuditChain(cfg["dim"], tuple(filters))
        report = enumerate_qudit_outcomes(chain)
    else:
        chain = SwapChain(tuple(filters), cfg["mode"])
        report = enumerate_outcomes(chain)
    prob, conc = report.class_prob, report.class_concurrence
    columns = {"weight": report.class_weight, "prob": prob, "concurrence": conc,
               "prob_times_c": prob * conc}
    outcomes = {"index": report.digits,
                **{name: (values, report.class_index) for name, values in columns.items()}}
    payload = {
        "dim": cfg["dim"],
        "mode": cfg["mode"],
        "n_bonds": len(filters),
        "p_sum": report.p_sum,
        "bond_concurrences": bond_concurrences(chain),
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
    _check_budget("scan", hi, _SCAN_BUDGET, "row", _SCAN_ROW_BYTES)
    logs = scan_log_constants(filters[0], hi, cfg["mode"])[lo - 1 :]
    ns = np.arange(lo, hi + 1)
    finite = np.isfinite(logs)
    # math.exp per row, as np.exp may round differently; a non-finite log
    # gives 0.0 and prints as null, or as an empty CSV cell
    constant = [math.exp(lv) for lv in np.where(finite, logs, -math.inf).tolist()]
    log_constant = logs.astype(object)
    log_constant[~finite] = None
    rows = {"n": ns, "constant": np.array(constant), "log_constant": log_constant}
    slope = None
    if finite.all() and len(logs) >= 2:
        slope = float(np.polyfit(ns, logs, 1)[0])
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
    if n < 1:
        raise UsageError("--samples must be >= 1")
    _check_budget("sample", n, _DRAW_BUDGET, "draw", _DRAW_BYTES)
    filters = _build_filters(cfg, table=True)
    chain = SwapChain(tuple(filters), cfg["mode"])
    report = enumerate_outcomes(chain)
    base, offset = len(chain.outcome_indices), chain.outcome_indices.start
    per_row = np.bincount(row_index(_draw(chain, n, cfg["seed"]), base, offset),
                          minlength=len(report.digits))
    # the distinct counts ascending, as np.unique gives them, from a count of
    # counts (at most n + 1 long), and each row's place among them in the
    # smallest unsigned dtype: no row-length sort and no int64 inverse
    counts = np.flatnonzero(np.bincount(per_row))
    place = np.zeros(counts[-1] + 1, np.min_scalar_type(len(counts) - 1))
    place[counts] = np.arange(len(counts))
    which = place[per_row]
    del per_row
    # |frequency − prob| summed left to right in record order, as cumsum adds
    # (np.sum and fsum round differently), in one row-length buffer
    dev = (counts / n)[which]
    dev -= report.prob
    np.abs(dev, out=dev)
    tv = float(np.cumsum(dev, out=dev)[-1])
    outcomes = {"index": report.digits, "count": (counts, which),
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
    rng = np.random.default_rng(seed)
    return [[random_filter(rng, 2) for _ in range(n + 1)] for n in (1, 1, 2, 2, 3, 3)]


def _run_verify(cfg) -> tuple[dict, list[FilterOp], int]:
    if cfg["identical"] is not None or cfg["filters"] is not None:
        chains = [_build_filters(cfg)]
    else:
        chains = _default_verify_suite(cfg["seed"])
    rows = []
    all_passed = True
    for filters in chains:
        rep = cross_check(filters, tolerance=cfg["tolerance"],
                          corrupt_bell_order=cfg["corrupt_bell_order"])
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


# Every command: its runner, cfg -> (payload, filters, exit code), the payload
# key of its table rows, its --help line and the modes it accepts.
_Command = namedtuple("_Command", "run rows help modes")
_COMMANDS = {
    "swap": _Command(_run_swap, "outcomes", "enumerate every Bell outcome of one chain",
                     MODES),
    "scan": _Command(_run_scan, "rows",
                     "trade-off constant vs chain length for identical filters", (PLAIN, VBS)),
    "sample": _Command(_run_sample, "outcomes", "draw Bell outcomes from the exact distribution",
                       (PLAIN, VBS)),
    "verify": _Command(_run_verify, "chains",
                       "cross-check chains against the state-vector oracle", (VBS,)),
}
_CSV_COLUMNS = {
    "swap": ("index", "weight", "prob", "concurrence", "prob_times_c"),
    "sample": ("index", "count", "frequency", "prob"),
    "scan": ("n", "constant", "log_constant"),
    "verify": ("n_bonds", "worst_weight_dev", "worst_fidelity", "passed"),
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


def _csv_tokens(col: np.ndarray) -> list[str]:
    # str is repr for a float; only an object column may hold None
    return list(map(_csv_cell if col.dtype.kind == "O" else str, col.tolist()))


def _segments(rows: dict, names, opens, encode, quote: str):
    """The text before each segment of a row, and a function from a slice of rows
    to its tokens.  Row b of a column (values, index) holds values[index[b]],
    and columns with one index join their tokens once per value.  A float
    column with no fewer values than rows (plain, or qudit, whose outcomes are
    classes of one) is factored first by its bits (-0.0 apart from 0.0)."""
    texts, parts = [], []  # (index, tokens per value) or (None, column)
    for name, text in zip(names, opens):
        values, index = rows[name] if isinstance(rows[name], tuple) else (rows[name], None)
        if values.dtype.kind == "f" and (index is None or len(values) >= len(index)):
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            values, index = bits.view(np.float64), inverse if index is None else inverse[index]
        tokens = values if index is None else np.array(encode(values), dtype=object)
        if index is not None and parts and parts[-1][0] is index:
            parts[-1] = (index, parts[-1][1] + text + tokens)
        else:
            texts.append(text)
            parts.append((index, tokens))

    def column(index, tokens):
        if index is not None:
            return lambda rows: tokens[index[rows]].tolist()
        if tokens.ndim == 2:
            return lambda rows: _index_strings(tokens[rows], quote).tolist()
        return lambda rows: encode(tokens[rows])
    return texts, [column(*part) for part in parts]


def _render(fmt: str, command: str, document: dict):
    """The document as text pieces to write as they come: a header, blocks of
    at most _CHUNK_ROWS table rows, a trailer.  The JSON pieces join to the
    bytes of json.dumps(document, indent=2) + "\n"."""
    rows_key = _COMMANDS[command].rows
    rows = document[rows_key]
    if fmt == "json":
        # the document with no rows, split where they go
        gap = f"\n  {json.dumps(rows_key)}: ["
        head, tail = json.dumps({**document, rows_key: []}, indent=2).split(gap + "]")
        yield head + gap + "\n"
        names = list(rows) if isinstance(rows, dict) else []
        # the text before each field of a row, and after its last
        opens = [f"{',' if j else '    {'}\n      {json.dumps(name)}: "
                 for j, name in enumerate(names)]
        close, sep, trailer, encode, quote = "\n    }", ",\n", f"\n  ]{tail}\n", _json_tokens, '"'
        one_row = lambda row: "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
    else:
        names = _CSV_COLUMNS[command]
        cells = {k: ";".join(map(_csv_cell, v)) if isinstance(v, list) else _csv_cell(v)
                 for k, v in document.items() if k not in (rows_key, "config_echo")}
        yield "".join(f"# {k}={v}\n" for k, v in cells.items()) + ",".join(names) + "\n"
        opens = [""] + [","] * (len(names) - 1)
        close, sep, trailer, encode, quote = "", "\n", "\n", _csv_tokens, ""
        one_row = lambda row: ",".join(_csv_cell(row[name]) for name in names)
    if isinstance(rows, dict):  # columns: name -> numpy array or (values, index)
        glue, columns = _segments(rows, names, opens, encode, quote)
        glue[0] = close + sep + glue[0]
        step = 2 * len(glue)
        for start in range(0, len(rows[names[0]]), _CHUNK_ROWS):
            # one str.join over glue and tokens interleaved row by row
            tokens = [col(slice(start, start + _CHUNK_ROWS)) for col in columns]
            pieces = [None] * (step * len(tokens[0]))
            for j, (text, col) in enumerate(zip(glue, tokens)):
                pieces[2 * j :: step] = [text] * len(col)
                pieces[2 * j + 1 :: step] = col
            pieces[0] = (sep if start else "") + opens[0]
            yield "".join(pieces) + close
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
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"bondswap: error: cannot write {cfg['out']}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
