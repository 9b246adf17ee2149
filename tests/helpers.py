"""Shared builders for the test suite."""

import numpy as np

from pairspec import (
    SystemParams,
    assemble_input_covariance,
    build_dynamical_matrix,
    build_grid,
    gaussian_jsa,
)


def random_hermitian(rng, d, scale=1.0):
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (H + H.conj().T) / 2.0


def dense_scattering(A):
    """A^dag A^-1 by one dense solve, the reference for S: S A = A^dag is
    A^T S^T = conj(A)."""
    return np.linalg.solve(A.T, A.conj()).T


def random_covariance(rng, d):
    """Hermitian positive definite with a vacuum-like floor."""
    C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return C @ C.conj().T / d + 0.5 * np.eye(d)


def random_hurwitz(rng, d, margin=0.3):
    """Random matrix with spectrum strictly in the left half plane."""
    A = -1j * random_hermitian(rng, d) - margin * np.eye(d)
    A += 0.1 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
    shift = np.max(np.linalg.eigvals(A).real)
    if shift >= -margin / 2:
        A -= (shift + margin / 2) * np.eye(d)
    return A


def small_system(n=4, m_count=1, g=0.2, sqrt_kappa=0.3, omega_c=1.2,
                 span=(0.8, 1.6), pump=2.4, sum_width=0.1, diff_width=0.35,
                 diff_offset=0.0, idler_span=None, **build_kwargs):
    """Toy model instance with O(1) frequencies; the idler axis spans
    ``idler_span`` when given, else the signal's ``span``."""
    grid = build_grid(n, span, idler_span or span)
    params = SystemParams(
        omega_c=omega_c,
        material_freqs=(omega_c,) * m_count,
        g=g,
        sqrt_kappa=sqrt_kappa,
    )
    W = build_dynamical_matrix(grid, params, **build_kwargs)
    jsa = gaussian_jsa(grid, pump_center=pump, sum_width=sum_width,
                       diff_width=diff_width, diff_offset=diff_offset)
    theta = assemble_input_covariance(jsa, m_count)
    return grid, params, W, jsa, theta


def paper_system(n=64, g=0.5, sqrt_kappa=488.0, omega_c=1809.0, m_count=1,
                 span=(1740.0, 1860.0), pump=3609.0, sum_width=8.0,
                 diff_width=30.0, diff_offset=-29.0, idler_span=None, **build_kwargs):
    """Fig.-3-style instance: meV-scale grid, resonant cavity and material;
    the idler axis spans ``idler_span`` when given, else the signal's."""
    grid = build_grid(n, span, idler_span or span)
    params = SystemParams(
        omega_c=omega_c,
        material_freqs=(omega_c,) * m_count,
        g=g,
        sqrt_kappa=sqrt_kappa,
    )
    W = build_dynamical_matrix(grid, params, **build_kwargs)
    jsa = gaussian_jsa(grid, pump_center=pump, sum_width=sum_width,
                       diff_width=diff_width, diff_offset=diff_offset)
    theta = assemble_input_covariance(jsa, m_count)
    return grid, params, W, jsa, theta


def trapezoid_2d(values, axis):
    """Composite trapezoid rule of ``values`` over the grid axis x axis."""
    weights = np.zeros(axis.size)
    steps = np.diff(axis) / 2.0
    weights[:-1] += steps
    weights[1:] += steps
    return weights @ values @ weights


def tv_distance(j1, j2):
    """Total variation distance between two intensity grids (mass-normalized)."""
    p = j1 / j1.sum()
    q = j2 / j2.sum()
    return 0.5 * float(np.abs(p - q).sum())


def rk4_by_stages(W, theta0, dt, steps, overflow_limit=np.inf):
    """Reference RK4 for dT/dt = W T + T W^dag: the four stages of every step,
    one after another.  Returns (state, step) where step is the first step
    whose Frobenius norm exceeds ``overflow_limit`` (None if none does); use a
    limit far below 1e154, where the squared norm stays finite."""
    Wd = W.conj().T
    T = np.array(theta0, dtype=complex)
    for k in range(steps):
        k1 = W @ T + T @ Wd
        T2 = T + 0.5 * dt * k1
        k2 = W @ T2 + T2 @ Wd
        T3 = T + 0.5 * dt * k2
        k3 = W @ T3 + T3 @ Wd
        T4 = T + dt * k3
        k4 = W @ T4 + T4 @ Wd
        T = T + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.linalg.norm(T) > overflow_limit:
            return T, k + 1
    return T, None
