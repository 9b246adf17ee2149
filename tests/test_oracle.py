"""Brute-force time-domain oracles: RK4 integration and trapezoid quadrature."""

import numpy as np
import pytest

from pairspec.numkit import matrix_exponential, solve_sylvester
from pairspec.oracle import IntegrationConfig, integrate_sylvester, quadrature_time_integral
from pairspec.errors import NonConvergentIntegral, StepOverflow
from helpers import random_covariance, random_hermitian, small_system


def test_scalar_phase_preserves_magnitude():
    # W = -i w: |Theta(t)| is constant for all t.
    W = np.array([[-2.3j]])
    theta0 = np.array([[0.7 + 0.1j]])
    cfg = IntegrationConfig(t_max=5.0, dt=1e-3)
    out = integrate_sylvester(W, theta0, cfg)
    assert abs(out[0, 0]) == pytest.approx(abs(theta0[0, 0]), rel=1e-9)


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    d = 5
    W = -1j * random_hermitian(rng, d) - 0.2 * np.eye(d)
    theta0 = random_covariance(rng, d)
    cfg = IntegrationConfig(t_max=1.0, dt=1e-3)
    got = integrate_sylvester(W, theta0, cfg)
    E = matrix_exponential(W, cfg.steps * cfg.dt)
    expected = E @ theta0 @ E.conj().T
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-8


def test_hurwitz_decays():
    rng = np.random.default_rng(4)
    W = -1j * random_hermitian(rng, 4) - 0.5 * np.eye(4)
    theta0 = random_covariance(rng, 4)
    cfg = IntegrationConfig(t_max=30.0, dt=5e-3)
    out = integrate_sylvester(W, theta0, cfg)
    assert np.linalg.norm(out) < 1e-10 * np.linalg.norm(theta0)


def test_rk4_global_error_is_fourth_order():
    rng = np.random.default_rng(8)
    d = 4
    W = -1j * random_hermitian(rng, d) - 0.1 * np.eye(d)
    theta0 = random_covariance(rng, d)
    E = matrix_exponential(W, 2.0)
    exact = E @ theta0 @ E.conj().T

    def err(dt):
        out = integrate_sylvester(W, theta0, IntegrationConfig(t_max=2.0, dt=dt))
        return np.linalg.norm(out - exact)

    e1, e2 = err(0.02), err(0.01)
    # Halving the step should shrink the error by ~2^4.
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_rk4_hermiticity_preserved():
    rng = np.random.default_rng(16)
    d = 5
    W = -1j * random_hermitian(rng, d)
    theta0 = random_covariance(rng, d)
    out = integrate_sylvester(W, theta0, IntegrationConfig(t_max=1.0, dt=1e-3))
    defect = np.linalg.norm(out - out.conj().T) / np.linalg.norm(out)
    assert defect < 1e-9


def test_step_overflow_raises_for_gain():
    # Printed-convention resonant cavity-material block has a gain mode.
    _, _, W, _, theta = small_system(n=2, g=0.1, sqrt_kappa=0.8)
    cfg = IntegrationConfig(t_max=100.0, dt=1e-2, overflow_limit=1e6)
    with pytest.raises(StepOverflow) as exc_info:
        integrate_sylvester(W, theta, cfg)
    assert exc_info.value.step is not None


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(t_max=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        IntegrationConfig(t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(t_max=1e6, dt=1e-3)  # exceeds the step cap


def test_quadrature_scalar_integral():
    # W = -eps I, Theta = I: integral is I / (2 eps).
    eps = 1e-2
    result = quadrature_time_integral(-eps * np.eye(2), np.eye(2, dtype=complex),
                                      t_max=14.0 / (2 * eps), dt=0.05)
    assert np.allclose(result.value, np.eye(2) / (2 * eps), rtol=1e-5)
    assert result.tail_bound < 1e-4 / (2 * eps)


def test_quadrature_matches_algebraic_solve():
    _, _, Wdm, _, theta = small_system(n=2, g=0.15, sqrt_kappa=0.0)
    eps = 1e-2
    A = Wdm.matrix - eps * np.eye(Wdm.dim)
    X, _ = solve_sylvester(A, A.conj().T, theta.matrix)
    margin = -np.max(np.linalg.eigvals(A).real)
    result = quadrature_time_integral(A, theta.matrix, t_max=14.0 / (2 * margin), dt=0.04)
    assert np.linalg.norm(result.value - X) / np.linalg.norm(X) < 1e-5


def test_quadrature_converges_under_step_halving():
    rng = np.random.default_rng(12)
    d = 4
    W = -1j * random_hermitian(rng, d, scale=0.5) - 5e-2 * np.eye(d)
    theta0 = random_covariance(rng, d)
    t_max = 14.0 / 0.1
    coarse = quadrature_time_integral(W, theta0, t_max, dt=0.01).value
    fine = quadrature_time_integral(W, theta0, t_max, dt=0.005).value
    assert np.linalg.norm(fine - coarse) / np.linalg.norm(fine) < 1e-6


def test_quadrature_rejects_unstable_generator():
    with pytest.raises(NonConvergentIntegral):
        quadrature_time_integral(np.array([[0.1 + 0j]]), np.eye(1, dtype=complex), 10.0, 0.1)
