"""Independent per-bond and per-state routes that the tests compare the package against."""

import numpy as np


def bond_concurrence(f) -> float:
    """Entanglement D·|det T|^(2/D) / Tr(T T†) of one filter's bond, one bond at a
    time: 2|αβ| for qubits, 0 for a singular filter, 1 iff all |λ_j| are equal."""
    abs_det = float(np.prod(np.abs(f.diag)))
    if abs_det == 0.0:
        return 0.0
    ssq = float(np.sum(np.abs(f.diag) ** 2))
    return min(1.0, f.dim * abs_det ** (2.0 / f.dim) / ssq)


def reduced_density(state, keep: int) -> np.ndarray:
    """Reduced density matrix of party ``keep`` (0 or 1) of a two-party pure state."""
    amps = state.amplitudes.reshape(state.dims)
    if keep:
        amps = amps.T
    return amps @ amps.conj().T
