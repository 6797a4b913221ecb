import numpy as np
import pytest

from bondswap.linalg import as_matrix


@pytest.fixture
def rng():
    # one fixed stream per test keeps every "random" check reproducible
    return np.random.default_rng(20260814)


def random_complex_matrix(rng, d, scale=1.0):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron(a, b):
    """Kronecker product of two finite matrices, row-major convention."""
    return np.kron(as_matrix(a), as_matrix(b))
