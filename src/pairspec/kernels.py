"""Small kernels kept apart: the Schur path's triangular solve and the oracle's RK4 and trapezoid.

None of them is on a run's hot path, which solves in W's eigenbasis.  The
triangular solve of the Schur fallback is LAPACK ``trsyl`` on one Schur
factor T, the compiled back-substitution of Bartels–Stewart for
T Y + Y T^dag = F.  The RK4 stepper applies RK4's step map, formed once
from the powers W^0..W^4, as two matrix products a step, and stops at the
fixed Frobenius bound :data:`OVERFLOW_NORM`; the trapezoid sum
is built by binary doubling in O(log N) matrix products.  Both use only the
one-step propagator or W itself, its powers and matrix products, so the
oracle shares no factorization with the path it certifies.
"""

import math

import numpy as np
from scipy.linalg.lapack import ztrsyl

# Not called here: the traced benchmark wraps ``kernels.solve_triangular`` by name.
from scipy.linalg import solve_triangular  # noqa: F401

from .errors import NearSingularPencil


def sylvester_triangular(T, F):
    """Solve T X + X T^dag = F for upper-triangular T (d x d).

    The caller screens the eigenvalue pencil first; a nonzero LAPACK info
    (T_ii + conj(T_kk) perturbed to avoid a zero pivot) raises
    NearSingularPencil.
    """
    X, scale, info = ztrsyl(T, T, F, tranb="C")
    if info != 0:
        raise NearSingularPencil(
            f"trsyl reported info={info}: some T_ii + conj(T_kk) is (nearly) zero"
        )
    return X / scale


# The RK4 stepper stops at the first state whose Frobenius norm exceeds this.
OVERFLOW_NORM = 1e12


def rk4_lyapunov(W, theta0, dt, steps):
    """Integrate dT/dt = W T + T W^dag with classic RK4.

    For this linear ODE the four RK4 stages compose to the stability
    polynomial of one step, R(h L) = sum_{m<=4} (h L)^m / m!, with
    L T = W T + T W^dag.  Left and right multiplication commute, so a step is
    T -> sum_{j+l<=4} h^(j+l) / (j! l!) W^j T (W^dag)^l
      = sum_j W^j T Q_j,   Q_j = sum_{l<=4-j} h^(j+l) / (j! l!) (W^dag)^l.
    The powers and the Q_j are formed once; each step is one stacked product
    [T Q_0; ...; T Q_4] (5d x d) and one product with [I, W, ..., W^4]
    (d x 5d).

    The run stops at the first step whose Frobenius norm exceeds
    :data:`OVERFLOW_NORM` or is not finite.  Returns (state, steps_done,
    overflowed); the caller turns the overflow flag into an exception.
    """
    W = np.asarray(W, dtype=np.complex128)
    d = W.shape[0]
    powers = np.empty((5, d, d), dtype=np.complex128)
    powers[0] = np.eye(d)
    for j in range(1, 5):
        powers[j] = W @ powers[j - 1]
    weights = np.zeros((5, 5))
    for j in range(5):
        for l in range(5 - j):
            weights[j, l] = dt ** (j + l) / (math.factorial(j) * math.factorial(l))
    Q = np.tensordot(weights, np.conj(powers.transpose(0, 2, 1)), axes=(1, 0))
    left = powers.transpose(1, 0, 2).reshape(d, 5 * d)
    bound = OVERFLOW_NORM ** 2
    T = np.array(theta0, dtype=np.complex128)
    # A state past the bound may overflow to inf or nan; the norm test
    # below reports it, since nan fails the comparison.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            # matmul stacks the T Q_j blocks in the (5d, d) order that the
            # left product reads, so no restack copy is needed.
            T = left.dot(np.matmul(T, Q).reshape(5 * d, d))
            if not np.vdot(T, T).real <= bound:
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
