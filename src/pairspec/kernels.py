"""Hot numeric kernels: the triangular Sylvester solve and the two oracle loops.

The triangular solve is LAPACK ``trsyl``, the compiled back-substitution of
Bartels–Stewart; the RK4 stepper and the trapezoid accumulator are plain
numpy loops whose cost is in the matrix products.
"""

import numpy as np
from scipy.linalg.lapack import ztrsyl

# Not called here: the traced benchmark wraps ``kernels.solve_triangular`` by name.
from scipy.linalg import solve_triangular  # noqa: F401

from .errors import NearSingularPencil


def sylvester_triangular(R, S, F):
    """Solve R X + X S = F for upper-triangular R (m x m) and S (n x n).

    The caller screens the eigenvalue pencil first; a nonzero LAPACK info
    (R_ii + S_kk perturbed to avoid a zero pivot) raises NearSingularPencil.
    """
    X, scale, info = ztrsyl(R, S, F)
    if info != 0:
        raise NearSingularPencil(
            f"trsyl reported info={info}: some R_ii + S_kk is (nearly) zero"
        )
    return X / scale


def rk4_lyapunov(W, theta0, dt, steps, overflow_limit=1e12):
    """Integrate dT/dt = W T + T W^dag with classic RK4.

    Returns (state, steps_done, overflowed); the caller turns the overflow
    flag into an exception.
    """
    W = np.asarray(W, dtype=np.complex128)
    Wd = np.conj(W.T)
    T = np.array(theta0, dtype=np.complex128)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        k1 = W @ T + T @ Wd
        T2 = T + half * k1
        k2 = W @ T2 + T2 @ Wd
        T3 = T + half * k2
        k3 = W @ T3 + T3 @ Wd
        T4 = T + dt * k3
        k4 = W @ T4 + T4 @ Wd
        T = T + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm2 = np.sum(np.abs(T) ** 2)
        if nrm2 > overflow_limit * overflow_limit:
            return T, k + 1, True
    return T, steps, False


def propagator_trapezoid(P, theta0, steps, dt):
    """Composite trapezoid of E theta0 E^dag on a uniform grid, with E(k dt)
    advanced by the one-step propagator P.

    Returns (integral, E_final) so the caller can bound the truncated tail.
    """
    P = np.asarray(P, dtype=np.complex128)
    theta0 = np.asarray(theta0, dtype=np.complex128)
    E = np.eye(theta0.shape[0], dtype=np.complex128)
    acc = 0.5 * theta0.copy()
    for k in range(steps):
        E = P @ E
        term = E @ theta0 @ np.conj(E.T)
        if k == steps - 1:
            acc += 0.5 * term
        else:
            acc += term
    return acc * dt, E
