"""Per-layer spans recorded from outside the package.

`Tracer.install` rebinds the public functions of each module (``cli``,
``filters``, ``linalg``, ``qubit``, ``qudit``, ``vbs``) in every package
namespace that holds them, so calls between modules are caught too: for
example ``bondswap.qubit.batched_products`` is rebound as well as
``bondswap.linalg.batched_products``.  A span's self time is its duration
minus the time of the spans it caused.  Spans are folded into per-name
totals as they close instead of being kept, so long passes stay small.

Counters run after a span closes and their cost is charged to no layer.
Byte counts are computed from array shapes (what the operation must read
and write at least), not measured, and are labelled ``B_computed``.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# span name -> (module, functions); the four transfer entry points share one span
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "filters.make_filter": ("filters", ("make_filter",)),
    "linalg.batched_products": ("linalg", ("batched_products",)),
    "linalg.batched_determinant": ("linalg", ("batched_determinant",)),
    "linalg.state_from_operator": ("linalg", ("state_from_operator",)),
    "linalg.fidelity_up_to_phase": ("linalg", ("fidelity_up_to_phase",)),
    "qubit.enumerate_outcomes": ("qubit", ("enumerate_outcomes",)),
    "qubit.sample_outcomes": ("qubit", ("sample_outcomes",)),
    "qubit.chain_operator": ("qubit", ("chain_operator",)),
    "qubit.transfer": ("qubit", ("log_p_sum_transfer", "p_sum_transfer",
                                 "tradeoff_constant", "scan_log_constants")),
    "qudit.enumerate_qudit_outcomes": ("qudit", ("enumerate_qudit_outcomes",)),
    "vbs.cross_check": ("vbs", ("cross_check",)),
    "vbs.measure_internal_sites": ("vbs", ("measure_internal_sites",)),
    "vbs.build_vbs_state": ("vbs", ("build_vbs_state",)),
}

# (metric, unit, better) for --trace 1, in BENCHMARK.json order
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.bytes_out", "B", "lower"),
    ("qubit.enumerate_outcomes.calls", "count", "lower"),
    ("qubit.enumerate_outcomes.self_s", "s", "lower"),
    ("qubit.enumerate_outcomes.rows", "count", "higher"),
    ("qubit.enumerate_outcomes.alloc_peak_mb", "MB", "lower"),
    ("linalg.batched_products.self_s", "s", "lower"),
    ("linalg.batched_products.bytes", "B_computed", "lower"),
    ("linalg.batched_determinant.self_s", "s", "lower"),
    ("qudit.enumerate_qudit_outcomes.self_s", "s", "lower"),
    ("qudit.enumerate_qudit_outcomes.rows", "count", "higher"),
    ("qudit.enumerate_qudit_outcomes.distinct_weight_frac", "frac", "higher"),
    ("qubit.sample_outcomes.self_s", "s", "lower"),
    ("qubit.sample_outcomes.draws", "count", "higher"),
    ("qubit.sample_outcomes.unique_frac", "frac", "higher"),
    ("qubit.transfer.self_s", "s", "lower"),
    ("qubit.transfer.steps", "count", "higher"),
    ("filters.make_filter.calls", "count", "lower"),
    ("filters.make_filter.self_s", "s", "lower"),
    ("vbs.cross_check.self_s", "s", "lower"),
    ("vbs.measure_internal_sites.calls", "count", "lower"),
    ("vbs.measure_internal_sites.self_s", "s", "lower"),
    ("vbs.measure_internal_sites.bytes", "B_computed", "lower"),
    ("vbs.build_vbs_state.self_s", "s", "lower"),
    ("vbs.build_vbs_state.bytes", "B_computed", "lower"),
    ("linalg.state_from_operator.self_s", "s", "lower"),
    ("linalg.fidelity_up_to_phase.self_s", "s", "lower"),
    ("qubit.chain_operator.calls", "count", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]

_C16 = 16  # bytes per complex128


def _distinct_weights(report) -> int:
    # weights equal in exact arithmetic may differ in the last bits
    w = np.array([rec.weight for rec in report.records])
    return len(np.unique(np.round(np.log(w[w > 0.0]), 10))) + int((w == 0.0).any())


def _batched_products_bytes(args, kwargs, out) -> int:
    layers = args[1] if len(args) > 1 else kwargs["layers"]
    d2 = out.shape[1] * out.shape[2]
    total, batch = 0, 1
    for ops in layers:
        m = len(ops)
        total += (batch + m + batch * m) * d2  # read batch and stack, write product
        batch *= m
    return total * _C16


def _measure_bytes(args, kwargs, out) -> int:
    size, total = args[0].amplitudes.size, 0
    while size > 4:  # each internal pair contracted shrinks the state fourfold
        total += size + size // 4
        size //= 4
    return total * _C16


def _build_bytes(args, kwargs, out) -> int:
    n_bonds = len(list(args[0]))
    total = sum(4 ** j + 4 + 4 ** (j + 1) for j in range(n_bonds))  # kron
    full = 4 ** n_bonds
    total += (n_bonds - 1) * 2 * full + 3 * full  # projections, norm and divide
    return total * _C16


def _steps(args, kwargs, out) -> int:
    if isinstance(out, np.ndarray):  # scan_log_constants
        return out.size
    return args[0].n_nodes


COUNTERS = {
    "enumerate_outcomes": lambda a, k, r: {"rows": len(r.records)},
    "enumerate_qudit_outcomes": lambda a, k, r: {
        "rows": len(r.records), "distinct_weights": _distinct_weights(r)},
    "sample_outcomes": lambda a, k, r: {"draws": sum(r.values()), "unique": len(r)},
    "batched_products": lambda a, k, r: {"bytes": _batched_products_bytes(a, k, r)},
    "measure_internal_sites": lambda a, k, r: {"bytes": _measure_bytes(a, k, r)},
    "build_vbs_state": lambda a, k, r: {"bytes": _build_bytes(a, k, r)},
    "log_p_sum_transfer": lambda a, k, r: {"steps": _steps(a, k, r)},
    "p_sum_transfer": lambda a, k, r: {"steps": _steps(a, k, r)},
    "tradeoff_constant": lambda a, k, r: {"steps": _steps(a, k, r)},
    "scan_log_constants": lambda a, k, r: {"steps": _steps(a, k, r)},
}


class Tracer:
    """Self times and counters per span name, for one pass at a time."""

    def __init__(self):
        self._open: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
            if counter is not None:
                t1 = time.perf_counter()
                for key, value in counter(args, kwargs, result).items():
                    st[key] += value
                if self._open:  # counting is benchmark overhead, not the caller's
                    self._open[-1][0] += time.perf_counter() - t1
            return result
        return traced

    def count(self, name: str, key: str, value: float) -> None:
        self.stats[name][key] += value

    def _rebind(self, modules, replacements: dict) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None and new[0] is value:
                    setattr(mod, attr, new[1])
                    self._patched.append((mod, attr, value))

    def install(self, bs) -> None:
        """Wrap every function in `LAYERS` wherever the package binds it."""
        repl = {}
        for name, (mod, funcs) in LAYERS.items():
            for fname in funcs:
                fn = getattr(getattr(bs, mod), fname)
                repl[id(fn)] = (fn, self.wrap(name, fn, COUNTERS.get(fname)))
        self._rebind(bs.modules, repl)

    def install_alloc_probe(self, bs) -> list[float]:
        """Wrap ``enumerate_outcomes`` to record its tracemalloc peak per call."""
        peaks: list[float] = []
        fn = bs.qubit.enumerate_outcomes

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
                tracemalloc.stop()

        self._rebind(bs.modules, {id(fn): (fn, probed)})
        return peaks

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def take(self) -> dict[str, dict[str, float]]:
        """Return this pass's totals and start the next pass from zero."""
        stats = {name: dict(st) for name, st in self.stats.items()}
        self.stats.clear()
        return stats


def layer_metrics(passes: list[dict], alloc_peaks: list[float],
                  overhead_frac: float) -> dict[str, float]:
    """Every `PER_LAYER` value: self times as medians over the traced passes,
    counts from the last pass (they repeat exactly)."""
    last = passes[-1]

    def get(name, key):
        return last.get(name, {}).get(key, 0)

    out = {}
    for metric, _, _ in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if key == "self_s":
            out[metric] = statistics.median(p.get(name, {}).get("self_s", 0.0) for p in passes)
        elif key in ("calls", "rows", "draws", "steps", "bytes", "bytes_out"):
            out[metric] = int(get(name, key))
        elif key == "distinct_weight_frac":
            rows = get(name, "rows")
            out[metric] = get(name, "distinct_weights") / rows if rows else 0.0
        elif key == "unique_frac":
            draws = get(name, "draws")
            out[metric] = get(name, "unique") / draws if draws else 0.0
        elif key == "alloc_peak_mb":
            out[metric] = max(alloc_peaks, default=0.0)
        elif metric == "trace_overhead_frac":
            out[metric] = overhead_frac
        else:
            raise KeyError(metric)
    return out
