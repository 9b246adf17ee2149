"""Brute-force time-domain oracles: RK4 integration and trapezoid quadrature."""

import numpy as np
import pytest

from pairspec import kernels
from pairspec.numkit import matrix_exponential, solve_sylvester
from pairspec.oracle import integrate_sylvester, quadrature_time_integral
from pairspec.errors import NonConvergentIntegral, StepOverflow
from helpers import random_covariance, random_hermitian, rk4_by_stages, small_system


def test_scalar_phase_preserves_magnitude():
    # W = -i w: |Theta(t)| is constant for all t.
    W = np.array([[-2.3j]])
    theta0 = np.array([[0.7 + 0.1j]])
    out = integrate_sylvester(W, theta0, t_max=5.0, dt=1e-3)
    assert abs(out[0, 0]) == pytest.approx(abs(theta0[0, 0]), rel=1e-9)


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    d = 5
    W = -1j * random_hermitian(rng, d) - 0.2 * np.eye(d)
    theta0 = random_covariance(rng, d)
    got = integrate_sylvester(W, theta0, t_max=1.0, dt=1e-3)
    E = matrix_exponential(W, 1.0)
    expected = E @ theta0 @ E.conj().T
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-8


def test_hurwitz_decays():
    rng = np.random.default_rng(4)
    W = -1j * random_hermitian(rng, 4) - 0.5 * np.eye(4)
    theta0 = random_covariance(rng, 4)
    out = integrate_sylvester(W, theta0, t_max=30.0, dt=5e-3)
    assert np.linalg.norm(out) < 1e-10 * np.linalg.norm(theta0)


def test_rk4_global_error_is_fourth_order():
    rng = np.random.default_rng(8)
    d = 4
    W = -1j * random_hermitian(rng, d) - 0.1 * np.eye(d)
    theta0 = random_covariance(rng, d)
    E = matrix_exponential(W, 2.0)
    exact = E @ theta0 @ E.conj().T

    def err(dt):
        out = integrate_sylvester(W, theta0, t_max=2.0, dt=dt)
        return np.linalg.norm(out - exact)

    e1, e2 = err(0.02), err(0.01)
    # Halving the step should shrink the error by ~2^4.
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_rk4_hermiticity_preserved():
    rng = np.random.default_rng(16)
    d = 5
    W = -1j * random_hermitian(rng, d)
    theta0 = random_covariance(rng, d)
    out = integrate_sylvester(W, theta0, t_max=1.0, dt=1e-3)
    defect = np.linalg.norm(out - out.conj().T) / np.linalg.norm(out)
    assert defect < 1e-9


def test_step_overflow_raises_for_gain():
    # Printed-convention resonant cavity-material block has a gain mode; the
    # run stops at the first step past the fixed bound kernels.OVERFLOW_NORM.
    _, _, W, _, theta = small_system(n=2, g=0.1, sqrt_kappa=0.8)
    with pytest.raises(StepOverflow) as exc_info:
        integrate_sylvester(W, theta, t_max=100.0, dt=1e-2)
    _, want = rk4_by_stages(W.matrix, theta.matrix, 1e-2, 10_000, kernels.OVERFLOW_NORM)
    assert want is not None
    assert exc_info.value.step == want


_SCALAR = (np.eye(1, dtype=complex), np.eye(1, dtype=complex))


def test_integration_config_validation():
    with pytest.raises(ValueError):
        integrate_sylvester(*_SCALAR, t_max=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        integrate_sylvester(*_SCALAR, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_sylvester(*_SCALAR, t_max=1e6, dt=1e-3)  # exceeds the step cap


@pytest.mark.parametrize("field, kwargs", [
    ("t_max", dict(t_max=np.nan, dt=1e-3)),
    ("t_max", dict(t_max=np.inf, dt=1e-3)),
    ("dt", dict(t_max=1.0, dt=np.nan)),
    ("dt", dict(t_max=1.0, dt=np.inf)),
], ids=["t_max-nan", "t_max-inf", "dt-nan", "dt-inf"])
def test_integration_config_names_the_bad_field(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        integrate_sylvester(*_SCALAR, **kwargs)


@pytest.mark.parametrize("field, t_max, dt", [
    ("t_max", np.nan, 0.1), ("t_max", np.inf, 0.1), ("dt", 1.0, np.nan), ("dt", 1.0, np.inf),
])
def test_quadrature_names_the_bad_window_field(field, t_max, dt):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        quadrature_time_integral(-np.eye(1, dtype=complex), np.eye(1, dtype=complex), t_max, dt)


@pytest.mark.parametrize("t_max, dt, steps", [
    # quotients a few ulps off an integer: 16100.000000000002 and 2.9999999999999996
    (16.1, 1e-3, 16100), (0.3, 0.1, 3),
    # a quotient with a true fraction still rounds up: 10.500000000000002
    (1.05, 0.1, 11),
    # every RK4 window the suite and `pairspec validate` use
    (2.0, 0.02, 100), (2.0, 0.01, 200), (0.5, 1e-3, 500), (1.0, 1e-3, 1000),
    (5.0, 1e-3, 5000), (30.0, 5e-3, 6000), (100.0, 1e-2, 10000),
])
def test_both_oracles_count_the_same_steps(t_max, dt, steps, monkeypatch):
    taken = []
    real = kernels.rk4_lyapunov

    def counting(W, theta0, dt, steps):
        taken.append(steps)
        return real(W, theta0, dt, steps)

    monkeypatch.setattr(kernels, "rk4_lyapunov", counting)
    W, theta0 = -np.eye(1, dtype=complex), np.eye(1, dtype=complex)
    integrate_sylvester(W, theta0, t_max, dt)
    assert taken == [steps]
    assert quadrature_time_integral(W, theta0, t_max, dt).steps == steps


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
    X, _ = solve_sylvester(A, theta.matrix)
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
