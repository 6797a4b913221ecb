"""The portable pins under other CPU kernels.

The default bytes of the swap and sample documents and of the long-chain
outputs come from exact integer kernels and from float recursions that run one
bond at a time in a fixed order, so no SIMD width or BLAS core may move them.
Each setting below runs them in a child process, whose kernel it proves moved:
OpenBLAS reports another core, or numpy's complex128 ``absolute`` runs its
baseline loop.  A setting whose effect cannot be shown here is skipped.  Each
child also proves that a chain's one rescaling pass gives every filter the
bits it gets alone, on that kernel.

The four ``verify`` pins stay out: the dense oracle's sums follow the kernel's
order, and under OPENBLAS_CORETYPE=Prescott all four documents differ, under
numpy's x86-64-v2 baseline two of them.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from test_cli import PINNED_DOCUMENTS, pinned_argv
from test_filters import one_pass_mismatches
from test_qubit_chain import (
    PINNED_KEYS,
    PINNED_LONG_SAMPLES,
    PINNED_SAMPLES,
    PINNED_SCANS,
    PINNED_TRANSFER,
    pinned_long_sample_digest,
    pinned_sample_counts,
    pinned_scan_entries,
    pinned_transfer_values,
)

from bondswap import cli

SETTINGS = {
    "openblas-prescott": ("OPENBLAS_CORETYPE", "Prescott"),
    "numpy-x86-64-v2": ("NPY_DISABLE_CPU_FEATURES", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"),
}
PORTABLE_DOCUMENTS = [key for key in PINNED_DOCUMENTS if key[0] != "verify"]


def document_digest(command, chain, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(pinned_argv(command, chain, fmt)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def portable_pins():
    """Each portable pin's name: the call that computes it, and the recorded default."""
    pins = {f"document {' '.join(key)}": (document_digest, key, PINNED_DOCUMENTS[key])
            for key in PORTABLE_DOCUMENTS}
    for key in PINNED_KEYS:
        for run, recorded in ((pinned_sample_counts, PINNED_SAMPLES),
                              (pinned_transfer_values, PINNED_TRANSFER),
                              (pinned_scan_entries, PINNED_SCANS)):
            pins[f"{run.__name__} {' '.join(key)}"] = (run, key, recorded[key])
    for mode, digest in PINNED_LONG_SAMPLES.items():
        pins[f"{pinned_long_sample_digest.__name__} {mode}"] = (
            pinned_long_sample_digest, (mode,), digest)
    # no pinned bits: a chain's one rescaling pass against each row alone, on this kernel
    pins[one_pass_mismatches.__name__] = (one_pass_mismatches, (), ())
    return pins


def numpy_target():
    """The SIMD target of numpy's complex128 ``absolute`` loop, None if unknown."""
    try:
        from numpy.lib.introspect import opt_func_info
        loops = opt_func_info(func_name="absolute", signature="complex128.*")["absolute"]
        return next(iter(loops.values()))["current"]
    except (ImportError, KeyError, StopIteration):
        return None


def openblas_core():
    """The core OpenBLAS dispatches to, None where numpy links no OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)  # its symbols include those of the libraries it links
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        func = getattr(lib, name, None)
        if func is not None:
            func.argtypes, func.restype = [], ctypes.c_char_p
            return func().decode()
    return None


def child_report():
    """This process's kernels and every portable pin's value, as one JSON line."""
    values = {name: run(*args) for name, (run, args, _) in portable_pins().items()}
    print(json.dumps({"numpy": numpy_target(), "openblas": openblas_core(), "values": values}))


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_portable_pins_hold_on_another_kernel(setting):
    var, value = SETTINGS[setting]
    tests, src = os.path.dirname(__file__), os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, var: value, "PYTHONPATH": os.pathsep.join((tests, src))}
    code = "import test_cross_kernel; test_cross_kernel.child_report()"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    if var == "OPENBLAS_CORETYPE":
        parent = openblas_core()
        if child["openblas"] is None or child["openblas"] == parent:
            pytest.skip(f"{var}={value} did not change the OpenBLAS core ({parent})")
    else:
        parent = numpy_target()
        if not str(child["numpy"]).startswith("baseline(") or str(parent).startswith("baseline("):
            pytest.skip(f"{var}={value} did not move numpy's absolute loop "
                        f"from {parent} to its baseline ({child['numpy']})")
    want = {name: recorded for name, (*_, recorded) in portable_pins().items()}
    got = {name: tuple(v) if isinstance(v, list) else v for name, v in child["values"].items()}
    assert [name for name in want if got.get(name) != want[name]] == []
