"""The benchmark tracer's layer table must keep resolving on the package.

`Tracer.install` in bench/spans.py looks every (module, function) of its
`LAYERS` up with getattr and rebinds it wherever the package holds it, so a
renamed, removed or aliased function would break traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from bondswap import qubit, qudit

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_on_the_package():
    for name, (mod, funcs) in load_spans().LAYERS.items():
        for fname in funcs:
            module = importlib.import_module(f"bondswap.{mod}")
            assert callable(getattr(module, fname)), (name, fname)


def test_qubit_and_qudit_enumerators_stay_distinct():
    # spans.py wraps both; one object under two names would merge their spans
    assert qubit.enumerate_outcomes is not qudit.enumerate_qudit_outcomes
