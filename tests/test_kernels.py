"""The LAPACK triangular Sylvester solve on Schur factors, and the oracle's
doubling trapezoid against a step-by-step sum."""

import numpy as np
import pytest
from scipy.linalg import expm, schur

from pairspec import kernels
from helpers import random_covariance, random_hermitian, random_hurwitz


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


def _sequential_trapezoid(P, theta0, steps, dt):
    # Reference: advance E by one step at a time and add each term.
    E = np.eye(P.shape[0], dtype=complex)
    acc = 0.5 * theta0
    for k in range(1, steps + 1):
        E = P @ E
        weight = 0.5 if k == steps else 1.0
        acc = acc + weight * (E @ theta0 @ E.conj().T)
    return acc * dt


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 1001])
def test_doubling_trapezoid_matches_sequential_sum(steps):
    rng = np.random.default_rng(40 + steps)
    d, dt = 5, 0.05
    P = expm(random_hurwitz(rng, d) * dt)
    theta0 = random_covariance(rng, d)
    got, E_final = kernels.propagator_trapezoid(P, theta0, steps, dt)
    want = _sequential_trapezoid(P, theta0, steps, dt)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12
    E_want = np.linalg.matrix_power(P, steps)
    assert np.linalg.norm(E_final - E_want) / np.linalg.norm(E_want) <= 1e-12
