"""The LAPACK triangular Lyapunov solve on a Schur factor, the oracle's RK4
step map against the stage-by-stage loop, and its doubling trapezoid against
a step-by-step sum."""

import numpy as np
import pytest
from scipy.linalg import expm, schur

from pairspec import kernels
from helpers import random_covariance, random_hermitian, random_hurwitz, rk4_by_stages


@pytest.mark.parametrize("d", [3, 8, 17])
def test_triangular_numpy_solves(d):
    rng = np.random.default_rng(d)
    A = -1j * random_hermitian(rng, d) - 0.1 * np.eye(d)
    T, _ = schur(A, output="complex")
    F = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    X = kernels.sylvester_triangular(T, F)
    assert np.linalg.norm(T @ X + X @ T.conj().T - F) / np.linalg.norm(F) < 1e-12


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


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 500])
@pytest.mark.parametrize("d", [1, 2, 6, 14])
@pytest.mark.parametrize("rate", [-0.2, 0.2], ids=["decaying", "growing"])
def test_rk4_step_map_matches_stage_loop(rate, d, steps):
    rng = np.random.default_rng(100 * d + steps)
    W = -1j * random_hermitian(rng, d) + rate * np.eye(d)
    W += 0.1 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
    theta0 = random_covariance(rng, d)
    got, done, overflowed = kernels.rk4_lyapunov(W, theta0, 0.01, steps)
    want, _ = rk4_by_stages(W, theta0, 0.01, steps)
    assert (done, overflowed) == (steps, False)
    # Rounding grows with the step count: measured at most 0.12 of this
    # bound over these 40 cases (9.1e-14 at d = 1, growing, 500 steps).
    bound = 2e-15 * (steps + 1)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= bound
