"""The LAPACK triangular Sylvester solve on Schur factors."""

import numpy as np
import pytest
from scipy.linalg import schur

from pairspec import kernels
from helpers import random_hermitian


def _triangular_pair(rng, m, n):
    d = max(m, n)
    A = -1j * random_hermitian(rng, d) - 0.1 * np.eye(d)
    TA, _ = schur(A[:m, :m], output="complex")
    TB, _ = schur(A[:n, :n].conj().T, output="complex")
    F = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return TA, TB, F


@pytest.mark.parametrize("m, n", [(3, 3), (8, 8), (17, 17), (3, 5)], ids=["3", "8", "17", "3x5"])
def test_triangular_numpy_solves(m, n):
    rng = np.random.default_rng(m)
    TA, TB, F = _triangular_pair(rng, m, n)
    X = kernels.sylvester_triangular(TA, TB, F)
    assert X.shape == (m, n)
    assert np.linalg.norm(TA @ X + X @ TB - F) / np.linalg.norm(F) < 1e-12
