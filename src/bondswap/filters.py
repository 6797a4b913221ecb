"""Diagonal local filtering operators and the chains of bonds they filter.

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
from dataclasses import dataclass, field

import numpy as np

PLAIN = "plain"
VBS = "vbs"


@dataclass(frozen=True, eq=False)
class FilterOp:
    """Diagonal filter with bond-normalized diagonal.

    ``scale`` records the positive factor divided out of the raw input, so
    ``scale * diag`` reproduces the caller's matrix exactly.
    """

    dim: int
    diag: np.ndarray
    scale: float = field(default_factory=lambda: 1.0)  # no class attribute: see __getattr__

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
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "diag", entries)
        object.__setattr__(self, "scale", float(self.scale))

    def __getattr__(self, name):
        # reached only for a name the instance lacks: diag or scale of a filter from
        # make_filter that no chain has rescaled yet
        if name in ("diag", "scale") and "_raw" in self.__dict__:
            _rows((self,))
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)


@np.errstate(over="ignore")  # inf, with no warning, on overflow
def _sums_of_squares(rows: np.ndarray) -> np.ndarray:
    # numpy's |λ| (abs(complex) can differ in the last bit) squared, added left to right
    # below 8 columns and by numpy's pairwise sum from 8 on
    squares = np.abs(rows) ** 2
    if rows.shape[1] >= 8:
        return squares.sum(axis=1)
    ssq = squares[:, 0] + squares[:, 1]
    for k in range(2, rows.shape[1]):
        ssq += squares[:, k]
    return ssq


def _normalize(rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Each row of a finite (R, D) stack with no all-zero row rescaled so Σ|λ|² = D, and
    the factor divided out of it, with bits that do not depend on the other rows.  A row
    whose Σ|λ|² is zero, subnormal or inf is first divided by its largest real or imaginary
    part (|λ| can overflow, and so can complex division by a subnormal).  Alters ``rows``."""
    ssq = _sums_of_squares(rows)
    values, out, peaks = ssq.tolist(), [], []
    if not sys.float_info.min <= min(values) <= max(values) < math.inf:
        out = [i for i, s in enumerate(values) if not sys.float_info.min <= s < math.inf]
        parts = rows[out].view(float)
        peak = np.abs(parts).max(axis=1)
        rows[out] = (parts / peak[:, None]).view(complex)
        ssq[out] = _sums_of_squares(rows[out])
        peaks = peak.tolist()
    scale = np.sqrt(ssq / rows.shape[1])
    diags = rows / scale[:, None]  # a complex division, as by a scalar
    diags.setflags(write=False)
    scales = scale.tolist()
    for i, p in zip(out, peaks):  # the largest part's magnitude joins the factor
        scales[i] *= p
    return diags, scales


_RESCALING = threading.Lock()  # a filter's first rescaling is check-then-act on shared state


def _rows(filters) -> np.ndarray:
    """The diagonals of distinct filters, stacked: deferred ones rescaled in one pass."""
    with _RESCALING:
        pending = [f for f in filters if "_raw" in f.__dict__]
        if pending:
            diags, scales = _normalize(np.array([f.__dict__["_raw"] for f in pending]))
            for f, row, scale in zip(pending, diags, scales):
                state = f.__dict__
                state["diag"], state["scale"] = row, scale
                del state["_raw"]
            if len(pending) == len(filters):
                return diags
    return np.array([f.diag for f in filters])


def make_filter(diag) -> FilterOp:
    """Build a FilterOp from any diagonal, rescaled so Σ|λ_j|² = dim.

    Off-diagonal input is not representable here by construction; an
    all-zero diagonal is rejected because it admits no bond state.  The filter
    keeps a copy of its entries until _normalize rescales it, with the other
    new filters of the first chain it joins or alone if its ``diag`` or
    ``scale`` is read first: the same bits either way.
    """
    raw = diag if isinstance(diag, np.ndarray) else list(diag)
    entries = np.array(raw, dtype=complex).ravel()  # a copy the caller cannot alter
    if entries.size < 2:
        raise ValueError("a filter needs at least two diagonal entries")
    values = entries.tolist()
    if not all(map(cmath.isfinite, values)):
        raise ValueError("filter diagonal must be finite")
    if not any(values):
        raise ValueError("all-zero filter diagonal has no bond state")
    op = object.__new__(FilterOp)  # skips __post_init__: _normalize makes the diagonal
    op.__dict__["dim"], op.__dict__["_raw"] = entries.size, entries
    return op


def random_filter(rng, dim: int = 2) -> FilterOp:
    """Random non-singular filter: magnitudes uniform in [0.35, 1] before
    normalization, then uniform phases (drawn in that order)."""
    mags = rng.uniform(0.35, 1.0, dim)
    return make_filter(mags * np.exp(2j * np.pi * rng.random(dim)))


class _Chain:
    """Checks and storage shared by the qubit and qudit chains: N+1 bonds in
    a row, every one a FilterOp of the chain's dim, measured at N nodes.
    ``diags`` holds every bond's diagonal as one read-only (N+1, dim) array."""

    def _store(self, dim: int) -> None:
        filts = tuple(self.filters)
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if not filts:
            raise ValueError("a chain needs at least one bond")
        try:  # each filter once: one repeated N+1 times is rescaled and checked once
            slots = dict.fromkeys(filts)
        except TypeError:  # an unhashable bond, which is no FilterOp
            slots = filts
        if any(not isinstance(f, FilterOp) or f.dim != dim for f in slots):
            raise ValueError(f"all chain filters must be FilterOps of dim {dim}")
        diags = _rows(slots)
        if len(slots) == 1 < len(filts):  # one filter repeated: its row for every bond
            diags = np.repeat(diags, len(filts), axis=0)
        elif len(slots) < len(filts):
            diags = np.array([f.diag for f in filts])
        diags.flags.writeable = False
        object.__setattr__(self, "filters", filts)
        object.__setattr__(self, "diags", diags)

    @property
    def n_nodes(self) -> int:
        """Number of measured internal nodes (bonds minus one)."""
        return len(self.filters) - 1

