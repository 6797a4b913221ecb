"""Dense complex linear algebra for small multi-qudit systems.

Matrices are plain 2-D complex numpy arrays (row-major).  Pure states carry
their subsystem dimensions in a small wrapper so reduced density matrices can
be taken without guessing a factorization.  Everything here is deliberately
brute-force dense: the systems of interest stay below ~20 qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


class EnumerationBudgetError(RuntimeError):
    """Raised when an outcome enumeration would exceed its size guard."""


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex ndarray, validating the shape."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on an ordered tuple of qudit subsystems.

    Attributes
    ----------
    dims : tuple[int, ...]
        Dimension of each subsystem, in tensor order.
    amplitudes : np.ndarray
        Flat complex amplitudes; index varies fastest on the last subsystem.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {dims}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != prod(dims):
            raise ValueError(
                f"{amps.size} amplitudes do not fill subsystems of dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, dims: tuple[int, ...], amplitudes: np.ndarray) -> StateVector:
        """A state on a tuple of int ``dims`` and a flat complex array of prod(dims)
        finite entries that its caller made, unchecked; the array becomes read-only."""
        state = object.__new__(cls)
        amplitudes.flags.writeable = False
        object.__setattr__(state, "dims", dims)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, atol: float) -> bool:
        """Squared 2-norm within ``atol`` of one."""
        return abs(self.norm() ** 2 - 1.0) <= atol


# kept for bench/spans.py, which wraps it: no caller in the package
def state_from_operator(m, dim: int) -> StateVector:
    """Two-qudit state (I ⊗ M)|Φ+⟩ for a dim×dim operator M.

    |Φ+⟩ = (1/√dim) Σ_j |jj⟩, so the amplitude on |j⟩⊗|k⟩ is M[k, j]/√dim
    and the squared norm equals Tr(M M†)/dim.  The result is *not*
    renormalized.
    """
    arr = as_matrix(m)
    d = int(dim)
    if arr.shape != (d, d):
        raise ValueError(f"operator shape {arr.shape} does not match dim {d}")
    amps = arr.T.reshape(-1) / np.sqrt(d)
    return StateVector((d, d), amps)


# kept for bench/spans.py, which wraps it: no caller in the package
def fidelity_up_to_phase(u: StateVector, v: StateVector) -> float:
    """|⟨u|v⟩|² for two normalized states; insensitive to global phase."""
    if u.dims != v.dims:
        raise ValueError(f"subsystem mismatch: {u.dims} vs {v.dims}")
    val = float(abs(np.vdot(u.amplitudes, v.amplitudes)) ** 2)
    return min(max(val, 0.0), 1.0)


def batched_products(first, layers) -> np.ndarray:
    """All ordered products L_n[d_n] ··· L_1[d_1] · first.

    ``layers`` is a sequence of operator stacks.  The output has shape
    (Π_k len(layers[k]), d, d); batch index b encodes the digit choices
    little-endian, i.e. the first layer is the least significant digit.
    """
    batch = np.asarray(first, dtype=complex)[np.newaxis]
    for ops in layers:
        stack = np.asarray(ops, dtype=complex)
        batch = np.einsum("mij,bjk->mbik", stack, batch).reshape(
            -1, batch.shape[1], batch.shape[2]
        )
    return batch


# kept for bench/spans.py, which wraps it: no caller in the package
def batched_determinant(batch: np.ndarray) -> np.ndarray:
    """Determinants of a (B, d, d) stack; closed form at d = 2.  Above it, LU
    gives 0 or NaN, without a warning, where a product underflows to a zero
    pivot: the caller checks the range."""
    if batch.shape[-1] == 2:
        return (
            batch[..., 0, 0] * batch[..., 1, 1]
            - batch[..., 0, 1] * batch[..., 1, 0]
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(batch)
