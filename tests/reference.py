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


def draw_reference(chain, n_samples: int, seed: int) -> np.ndarray:
    """The sequential sampler one numpy expression at a time, as ``qubit._draw``
    was first written: (n_samples, N) uint8 digits that ``_draw`` must equal bit
    for bit.  Suffix transfer vectors are precomputed right to left, then each
    node's digit is drawn from its conditional given the prefix."""
    from bondswap.qubit import _MODES

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = chain.n_nodes
    mode = _MODES[chain.mode]
    k, s = mode.class_sizes
    mags = (np.abs(chain.diags) ** 2).tolist()

    # suffix[j] = diagonal of the adjoint map applied to I over nodes j+1..N,
    # normalized per step (only ratios matter for the conditionals)
    suffix = [(1.0, 1.0)] * (n + 1)
    for j in range(n, 0, -1):
        (a, b), (g0, g1) = mags[j], suffix[j]
        h0, h1 = a * g0, b * g1
        g0, g1 = k * h0 + s * h1, s * h0 + k * h1
        suffix[j - 1] = (g0 / (g0 + g1), g1 / (g0 + g1))

    # outcome c is drawn when t passes the weight n_keep·w_keep + n_swap·w_swap
    # of the outcomes before it, with the counts as exact integers
    swaps = np.array(mode.classes, dtype=bool)
    before = [(c - sum(mode.classes[:c]), sum(mode.classes[:c])) for c in range(1, len(swaps))]
    v = np.tile(np.array(mags[0])[:, None], n_samples)   # (2, n_samples)
    draws = np.empty((n_samples, n), dtype=np.uint8)
    for j in range(1, n + 1):
        (a, b), (g0, g1) = mags[j], suffix[j]
        w_keep = a * v[0] * g0 + b * v[1] * g1   # I / σz outcomes
        w_swap = a * v[1] * g0 + b * v[0] * g1   # σx / σ3 outcomes
        t = rng.random(n_samples) * (k * w_keep + s * w_swap)
        c = sum(t >= nk * w_keep + ns * w_swap for nk, ns in before)
        draws[:, j - 1] = mode.digits.start + c
        v = np.where(swaps[c], v[::-1], v)
        v[0] *= a
        v[1] *= b
        v /= v[0] + v[1]
    return draws
