"""Diagonal local filtering operators and the chains of bonds they filter.

A filter is a diagonal operator applied to one side of a maximally entangled
pair.  Every filter is rescaled on construction so that Σ|λ_j|² equals the
local dimension, which makes each bond state exactly normalized; for qubits
the stored diagonal is √2·(α, β) with |α|² + |β|² = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    scale: float = 1.0

    def __post_init__(self):
        d = int(self.dim)
        entries = np.array(self.diag, dtype=complex).reshape(-1)  # a copy the caller cannot alter
        if d < 2 or entries.size != d:
            raise ValueError(f"need a diagonal of length dim >= 2, got {entries.size}")
        if not np.isfinite(entries).all():
            raise ValueError("filter diagonal must be finite")
        ssq = _sum_of_squares(np.abs(entries))
        if abs(ssq - d) > 1e-9:
            raise ValueError(
                f"diagonal not bond-normalized (Σ|λ|² = {ssq}, expected {d}); "
                "construct filters through make_filter"
            )
        entries.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "diag", entries)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)


def _sum_of_squares(mags: np.ndarray) -> float:
    """Σ m² with the bits of ``(mags * mags).sum()``, no overflow warning: below 8 terms
    numpy's order, left to right from 0.0 in Python floats (the builtin sum compensates)."""
    if mags.size >= 8:
        with np.errstate(over="ignore"):
            return float((mags * mags).sum())
    ssq = 0.0
    for m in mags.tolist():
        ssq += m * m
    return ssq


def make_filter(diag) -> FilterOp:
    """Build a FilterOp from any diagonal, rescaling so Σ|λ_j|² = dim.

    Off-diagonal input is not representable here by construction; an
    all-zero diagonal is rejected because it admits no bond state.  When
    Σ|λ_j|² leaves the normal float range (zero, subnormal or inf) the
    entries are first divided by their largest real or imaginary part, whose
    magnitude then joins ``scale``.
    """
    raw = diag if isinstance(diag, np.ndarray) else list(diag)
    entries = np.asarray(raw, dtype=complex).ravel()
    if entries.size < 2:
        raise ValueError("a filter needs at least two diagonal entries")
    # numpy's |λ| (abs(complex) can differ in the last bit); inf, with no warning, on overflow
    ssq = _sum_of_squares(np.abs(entries))
    peak = 1.0
    # a NaN or inf entry makes ssq NaN or inf, so a normal ssq proves every
    # entry finite and the normalized diagonal needs no second check
    if not sys.float_info.min <= ssq < math.inf:
        if not np.isfinite(entries).all():
            raise ValueError("filter diagonal must be finite")
        # parts, not moduli: |λ| can overflow, and so can complex division
        # by a subnormal
        parts = entries.view(float)
        peak = float(np.max(np.abs(parts)))
        if peak == 0.0:
            raise ValueError("all-zero filter diagonal has no bond state")
        entries = (parts / peak).view(complex)
        ssq = _sum_of_squares(np.abs(entries))
    scale = math.sqrt(ssq / entries.size)
    normalized = entries / scale
    normalized.setflags(write=False)
    op = object.__new__(FilterOp)  # skips __post_init__: checked above
    op.__dict__.update(dim=entries.size, diag=normalized, scale=peak * scale)
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
        if any(not isinstance(f, FilterOp) or f.dim != dim for f in filts):
            raise ValueError(f"all chain filters must be FilterOps of dim {dim}")
        diags = np.array([f.diag for f in filts])
        diags.flags.writeable = False
        object.__setattr__(self, "filters", filts)
        object.__setattr__(self, "diags", diags)

    @property
    def n_nodes(self) -> int:
        """Number of measured internal nodes (bonds minus one)."""
        return len(self.filters) - 1

