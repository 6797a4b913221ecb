"""Diagonal local filtering operators and the names of the measurement modes.

A filter is a diagonal operator applied to one side of a maximally entangled
pair.  Every filter is rescaled so that Σ|λ_j|² equals the local dimension,
which makes each bond state exactly normalized; for qubits the stored
diagonal is √2·(α, β) with |α|² + |β|² = 1.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

PLAIN = "plain"
VBS = "vbs"
QUDIT = "qudit"


class _Deferred:
    """FilterOp's diag and scale: only a filter from make_filter not yet rescaled lacks them."""

    def __init__(self, name, default=None):
        self.name, self.default = name, default

    def __get__(self, obj, owner=None):
        if obj is not None:
            _rows((obj,))
            return obj.__dict__[self.name]
        if self.default is None:  # the dataclass field's default: diag has none
            raise AttributeError(self.name)
        return self.default


@dataclass(frozen=True, eq=False)
class FilterOp:
    """Diagonal filter with bond-normalized diagonal.

    ``scale`` records the positive factor divided out of the raw input, so
    ``scale * diag`` reproduces the caller's matrix exactly.
    """

    dim: int
    diag: np.ndarray = _Deferred("diag")
    scale: float = _Deferred("scale", 1.0)

    def __post_init__(self):
        d = int(self.dim)
        entries = np.array(self.diag, dtype=complex).reshape(-1)  # a copy the caller cannot alter
        if d < 2 or entries.size != d:
            raise ValueError(f"need a diagonal of length dim >= 2, got {entries.size}")
        if not np.isfinite(entries).all():
            raise ValueError("filter diagonal must be finite")
        ssq = float(_sums_of_squares(entries[None])[0])
        if abs(ssq - d) > 1e-9:
            raise ValueError(
                f"diagonal not bond-normalized (Σ|λ|² = {ssq}, expected {d}); "
                "construct filters through make_filter"
            )
        entries.flags.writeable = False
        vars(self).update(dim=d, diag=entries, scale=float(self.scale))  # frozen: not setattr

    def __eq__(self, other):  # identity, decided here: the other operand's __eq__ never runs
        return self is other

    __hash__ = object.__hash__

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)


@np.errstate(over="ignore")  # inf, with no warning, on overflow
def _sums_of_squares(rows: np.ndarray) -> np.ndarray:
    # numpy's |λ| (abs(complex) can differ in the last bit) squared, added left to right
    # below 8 columns and by numpy's pairwise sum from 8 on
    squares = np.abs(rows) ** 2
    return squares.sum(axis=1) if rows.shape[1] >= 8 else reduce(np.add, squares.T)


def _normalize(rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Each row of a finite (R, D) stack with no all-zero row rescaled so Σ|λ|² = D, and
    the factor divided out of it, with bits that do not depend on the other rows.  A row
    whose Σ|λ|² is zero, subnormal or inf is first divided by its largest real or imaginary
    part (|λ| can overflow, and so can complex division by a subnormal).  Alters ``rows``."""
    ssq, out = _sums_of_squares(rows), []
    scale = np.sqrt(ssq / rows.shape[1])
    scales = scale.tolist()
    # every Σ|λ|² normal if each scale is at least 2^-511 and their sum (so each) is finite
    if not (2.0 ** -511 <= min(scales) and sum(scales) < math.inf):
        out = [i for i, s in enumerate(ssq.tolist()) if not sys.float_info.min <= s < math.inf]
        parts = rows[out].view(float)
        peak = np.abs(parts).max(axis=1)
        rows[out] = (parts / peak[:, None]).view(complex)
        scale[out] = np.sqrt(_sums_of_squares(rows[out]) / rows.shape[1])
    diags = rows / scale[:, None]  # a complex division, as by a scalar
    diags.setflags(write=False)
    if out:  # the largest part's magnitude joins the factor
        scale[out] *= peak
        scales = scale.tolist()
    return diags, scales


_RESCALING = threading.Lock()  # a filter's first rescaling is check-then-act on shared state


def _rows(filters) -> np.ndarray:
    """The diagonals of filters of one dim, stacked in their order: the deferred ones' entries
    in one call, rescaled in one pass, a filter at several places with a row at each and the
    same bits (_normalize rounds each row alone); each keeps its row (a view) and scale."""
    with _RESCALING:
        pending = [state for f in filters if "_raw" in (state := f.__dict__)]
        if pending:
            entries = np.fromiter(chain.from_iterable([state["_raw"] for state in pending]), complex)
            diags, scales = _normalize(entries.reshape(len(pending), -1))
            for state, row, scale in zip(pending, diags, scales):
                state["diag"], state["scale"] = row, scale
                state.pop("_raw", None)
            if len(pending) == len(filters):
                return diags
    return np.array([f.__dict__["diag"] for f in filters])


def make_filter(diag) -> FilterOp:
    """Build a FilterOp from any diagonal, rescaled so Σ|λ_j|² = dim.

    Off-diagonal input is not representable here by construction; an
    all-zero diagonal is rejected because it admits no bond state.  The filter
    keeps a copy of its entries, a list of Python complex values, until
    _normalize rescales it, with the other new filters of the first chain it
    joins or alone if its ``diag`` or ``scale`` is read first: the same bits.
    """
    entries = np.asarray(diag if isinstance(diag, np.ndarray) else list(diag), dtype=complex)
    values = (entries if entries.ndim == 1 else entries.ravel()).tolist()
    if len(values) < 2:
        raise ValueError("a filter needs at least two diagonal entries")
    if not all(map(cmath.isfinite, values)):
        raise ValueError("filter diagonal must be finite")
    if not any(values):
        raise ValueError("all-zero filter diagonal has no bond state")
    op = object.__new__(FilterOp)  # skips __post_init__: _normalize makes the diagonal
    state = op.__dict__
    state["dim"], state["_raw"] = len(values), values
    return op


def random_filter(rng, dim: int = 2) -> FilterOp:
    """Random non-singular filter: magnitudes uniform in [0.35, 1] before
    normalization, then uniform phases (drawn in that order)."""
    mags = rng.uniform(0.35, 1.0, dim)
    return make_filter(mags * np.exp(2j * np.pi * rng.random(dim)))
