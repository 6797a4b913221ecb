"""Benchmark of bondswap: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload table --seed 11 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout.  Each run sets
up (import and input generation) several times in fresh interpreters and
once in this one, warms up the workload's largest op classes, then runs
timed passes over the workload's 100 ops until ``--seconds`` is used up.
Every op's output is checked against the benchmark's own references on its
first timed pass and compared by digest on later passes.  A fixed kernel
(``speed.py``) is timed before every op and before and after each set-up;
reported times are rescaled by it to a reference host speed, so the host's
drift cancels out.  The last line of stdout is the result object; the line
before it holds run details (sample counts, per-class latencies, measured
and rescaled pass times, the document digest and the machine record).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around each module's public
functions, then reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORKLOADS = ("table", "longchain", "oracle")
DEFAULT_SEED = 11
SETUP_PROBES = 4  # fresh-interpreter set-ups, plus the one in this process
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60
SETUP_KERNEL_SAMPLES = 7  # on each side of a set-up

# (metric, unit, better) for --trace 0, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "work/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "frac", "higher"),
]


def setup(workload: str, seed: int):
    """Import the package from this checkout and generate the inputs.

    Returns the package namespace, the ops and the set-up time rescaled to
    the reference speed by kernel samples taken right before and after it.
    """
    import speed

    before = [speed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bondswap
    from bondswap import cli, filters, linalg, qubit, qudit, vbs

    import workloads

    ops = workloads.make_ops(workload, seed)
    elapsed = time.perf_counter() - t0
    after = [speed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    if not Path(bondswap.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bondswap imported from {bondswap.__file__}, not {SRC}")
    bs = SimpleNamespace(cli=cli, filters=filters, linalg=linalg, qubit=qubit,
                         qudit=qudit, vbs=vbs,
                         modules=[bondswap, cli, filters, linalg, qubit, qudit, vbs])
    return bs, ops, speed.calibrated(elapsed, before + after)


def _heap_trimmer():
    """glibc's ``malloc_trim(0)``, or a no-op where the C library has none."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    return (lambda: trim(0)) if trim is not None else (lambda: None)


# Freed heap pages go back to the OS before each op of a heavy class (the
# largest allocators), outside its timing, so the peak RSS is that op's peak
# over the same resident set.  Without it the peak grew pass by pass with
# heap fragmentation (longchain: 275 MB after one pass, 300-390 MB after
# three).  Trimming before every op also steadied it, but then small ops
# re-faulted their memory, which raised and scattered table's op times.
trim_heap = _heap_trimmer()


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Times ops, checks first outputs, compares later ones by digest.

    Every attempt counts once in ``attempted`` and, if it fails, once in
    ``failures``: a later pass that repeats a first output which failed its
    check fails again, so ``failures / attempted`` is the failed share of
    attempts however many passes ran.
    """

    def __init__(self, bs, ops, workloads, checks):
        self.bs, self.ops = bs, ops
        self.execute, self.digest = workloads.execute, workloads.digest
        self.check, self.checks = checks.check, checks
        self.first_digest: dict[int, str] = {}
        self.first_failure: dict[int, str] = {}  # op index -> its first check failure
        self.attempted = 0
        self.failures: list[str] = []
        self.cpu_s = 0.0  # process CPU time inside ops, for telling contention apart

    def _fail(self, op, msg: str) -> None:
        self.failures.append(f"{op.cls}: {msg}")
        print(f"bench: op {op.cls} failed: {msg}", file=sys.stderr)

    def run_op(self, i: int, op, execute=None):
        """Time one op; returns (seconds, outcome or None)."""
        execute = execute or self.execute
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = execute(op, self.bs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        d = self.digest(out)
        if i in self.first_digest:
            if d != self.first_digest[i]:
                self._fail(op, "output differs from the first pass")
            elif i in self.first_failure:
                self._fail(op, f"same output as the first pass: {self.first_failure[i]}")
            return dt, out
        self.first_digest[i] = d
        try:
            self.check(op, out, self.bs)
        except self.checks.CheckFailed as exc:
            self.first_failure[i] = str(exc)
        except Exception as exc:  # a malformed document is a failed check
            self.first_failure[i] = f"check raised {type(exc).__name__}: {exc}"
        if i in self.first_failure:
            self._fail(op, self.first_failure[i])
        return dt, out

    def warm_up(self) -> None:
        """Run one op of each heavy class untimed (first-use costs land here)."""
        for _, op in first_of_each_class(self.ops, heavy_only=True):
            trim_heap()
            try:
                self.execute(op, self.bs)
            except Exception as exc:
                self.attempted += 1
                self._fail(op, f"warm-up raised {type(exc).__name__}: {exc}")

    def run_pass(self, tracer=None) -> list[tuple[float, float]]:
        """(op seconds, kernel seconds just before the op) for each op."""
        import speed

        # the op's own span: its self time is what no layer span covers
        execute = tracer.wrap("unattributed", self.execute) if tracer else None
        timed = []
        for i, op in enumerate(self.ops):
            if op.heavy:
                trim_heap()
            ref = speed.sample()
            dt, out = self.run_op(i, op, execute)
            if tracer and out is not None and out.doc is not None:
                tracer.count("cli.main", "bytes_out", len(out.doc.encode()))
            timed.append((dt, ref))
            del out  # not held while the next op runs
        return timed

    def measure(self, seconds: float, tracer=None):
        """Whole passes while the next one is expected to end within ``seconds``.

        With a tracer, untraced and traced passes alternate (at least one
        of each), so drift over the run does not bias the tracing overhead.
        Returns the untraced and traced passes (see `run_pass`) and, per
        traced pass, the tracer's totals.
        """
        plain, traced, totals = [], [], []
        self.cpu_s = 0.0
        t0 = time.perf_counter()
        while True:
            if tracer is not None and len(traced) < len(plain):
                tracer.install(self.bs)
                try:
                    traced.append(self.run_pass(tracer))
                finally:
                    tracer.uninstall()
                totals.append(tracer.take())
            else:
                plain.append(self.run_pass())
            typical = statistics.median(pass_seconds(p) for p in plain + traced)
            if (time.perf_counter() - t0 + typical > seconds
                    and (tracer is None or traced)):
                return plain, traced, totals

    def run_digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.first_digest):
            h.update(self.first_digest[i].encode())
        return h.hexdigest()


def blas_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {}
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_env": BLAS_THREADS}


def machine_record() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "cpu": cpu, "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def pass_seconds(timed) -> float:
    """Wall seconds of a pass's ops, as measured."""
    return sum(dt for dt, _ in timed)


def rescaled_pass(timed) -> float:
    """A pass's op seconds at the reference speed, by its kernel samples."""
    import speed

    return speed.calibrated(pass_seconds(timed), [ref for _, ref in timed])


def first_of_each_class(ops, heavy_only: bool = False):
    """(index, op) of the first op of each class, in pass order."""
    seen = set()
    for i, op in enumerate(ops):
        if op.cls not in seen and (op.heavy or not heavy_only):
            seen.add(op.cls)
            yield i, op


def end_to_end(runner, seconds: float, setup_times: list[float], detail: dict) -> dict:
    import speed

    passes = runner.measure(seconds)[0]
    n_ops = len(runner.ops)
    refs = [ref for x in passes for _, ref in x]
    # one sequence over the whole run, so speed windows span pass boundaries
    lat = speed.rescale([dt for x in passes for dt, _ in x], refs)
    walls = [sum(lat[k:k + n_ops]) for k in range(0, len(lat), n_ops)]
    # a typical pass: each op at its median over the passes
    typical = [statistics.median(lat[i::n_ops]) for i in range(n_ops)]
    p90 = statistics.quantiles(typical, n=10)[8]
    work = sum(op.work for op in runner.ops)
    by_cls: dict[str, list[float]] = {}
    for k, dt in enumerate(lat):
        by_cls.setdefault(runner.ops[k % n_ops].cls, []).append(dt)
    detail.update(passes=len(passes), wall_pass_s=walls,
                  wall_pass_measured_s=[pass_seconds(x) for x in passes],
                  kernel_median_s=statistics.median(refs), cpu_in_ops_s=runner.cpu_s,
                  work_per_pass=work, op_samples=len(lat),
                  ops_beyond_p90=sum(t > p90 for t in typical),
                  class_median_s={c: statistics.median(v) for c, v in sorted(by_cls.items())})
    wall = statistics.fmean(walls)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "work_per_s": work / wall,
        "op_p50_s": statistics.median(typical),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - len(runner.failures) / max(runner.attempted, 1),
    }


def per_layer(runner, seconds: float, spans, detail: dict) -> dict:
    tracer = spans.Tracer()
    untraced, traced, per_pass = runner.measure(seconds, tracer)
    peaks = tracer.install_alloc_probe(runner.bs)
    try:
        for i, op in first_of_each_class(runner.ops):
            runner.run_op(i, op)
    finally:
        tracer.uninstall()
    walls_u = [rescaled_pass(x) for x in untraced]
    walls_t = [rescaled_pass(x) for x in traced]
    detail.update(passes_untraced=len(untraced), passes_traced=len(traced),
                  wall_untraced_s=walls_u, wall_traced_s=walls_t)
    overhead = statistics.median(walls_t) / statistics.median(walls_u) - 1.0
    return spans.layer_metrics(per_pass, peaks, overhead)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time in seconds and exit")
    args = p.parse_args(argv)

    for var in BLAS_ENV:  # before numpy is imported, here and in the probes
        os.environ[var] = BLAS_THREADS
    if not (SRC / "bondswap" / "__init__.py").is_file():
        print(f"bench: no bondswap package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[2]))
        return 0

    setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    bs, ops, elapsed = setup(args.workload, args.seed)
    setup_times.append(elapsed)

    import checks
    import spans
    import workloads

    runner = Runner(bs, ops, workloads, checks)
    runner.warm_up()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops_per_pass": len(ops), "setup_samples_s": setup_times}
    if args.trace:
        values = per_layer(runner, args.seconds, spans, detail)
        units = {m: u for m, u, _ in spans.PER_LAYER}
    else:
        values = end_to_end(runner, args.seconds, setup_times, detail)
        units = {m: u for m, u, _ in END_TO_END}
    detail.update(digest=runner.run_digest(), failures=runner.failures[:10],
                  machine=machine_record())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
