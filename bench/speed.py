"""Host speed reference: a fixed piece of work timed next to every op.

A shared host can change speed by 10-40 % within seconds, as other tenants
come and go, and every op, the import included, slows or speeds up with
it.  `sample()` times a fixed kernel that does not touch ``bondswap``: an
integer loop, record formatting and JSON encoding, the interpreter-bound
kinds of work the workloads and the import do.  It uses only the standard
library, so it can be timed before numpy and ``bondswap`` are imported.
`rescale` divides each op time by the kernel's time around it and
multiplies by `REF_S`, giving seconds at a fixed reference speed.  Host
drift cancels out; a change to ``bondswap`` moves the rescaled times in
full, because the kernel does not run its code.
"""

from __future__ import annotations

import json
import statistics
import time

# Nominal kernel time.  Rescaled times are seconds on a host where one
# kernel takes REF_S, about what it took on the 2-vCPU Xeon the benchmark
# was built on.
REF_S = 0.5e-3
WINDOW = 2  # kernel samples on each side of an op in its speed estimate

_RECORDS = [{"indices": f"{(k * 2654435761) % 6561:08d}",
             "prob": k * 1.2345e-5, "concurrence": k * 0.37 % 1.0}
            for k in range(40)]


def _kernel() -> int:
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    doc = json.dumps(_RECORDS)
    rows = "\n".join(f"{r['indices']},{r['prob']:.17g},{r['concurrence']:.17g}"
                     for r in _RECORDS)
    return acc + len(doc) + len(rows)


def sample() -> float:
    """Seconds one run of the kernel takes now, with its data in cache.

    An untimed run first brings the kernel's data back into the caches, so
    the timed run does not depend on how much memory the op before it
    touched.
    """
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibrated(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the reference speed, given kernel samples taken around it."""
    return seconds * REF_S / statistics.median(samples)


def rescale(times: list[float], samples: list[float]) -> list[float]:
    """Each of ``times`` at the reference speed.

    ``samples[i]`` is the kernel time taken just before ``times[i]``; op
    ``i`` is rescaled by the median of the samples within `WINDOW` places
    of it, which follows drift over seconds but not the timer's jitter.
    """
    n = len(times)
    return [calibrated(t, samples[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i, t in enumerate(times)]
