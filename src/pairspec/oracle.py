"""Brute-force time-domain validation of the algebraic pipeline.

Two independent routes certify the Lyapunov machinery on small instances:
a fixed-step RK4 integration of dTheta/dt = W Theta + Theta W^dag, applied
as RK4's one-step map built from the powers W^0..W^4, and a composite
trapezoid of e^(Wt) Theta0 e^(W^dag t), summed by binary doubling from the
one-step propagator e^(W dt).  Both take their window as (t_max, dt) and
the same number of steps for it (``_step_count``).  Neither value comes
from an eigen or Schur factorization or a Lyapunov solve: RK4 uses only W's
powers and matrix products, and the trapezoid only e^(W dt) and matrix
products.  The trapezoid does call ``np.linalg.eigvals`` on W, but only for
its stability gate and its tail bound, never for the integral itself, so
the oracle's values stay independent of the path they certify.  Fixed
steps keep the oracle simple and auditable; accuracy is verified by step
halving, not adaptivity.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, numkit
from .errors import NonConvergentIntegral, StepOverflow

_MAX_STEPS = 10_000_000


def _step_count(t_max, dt):
    """Number of dt steps that reach t_max: ceil(t_max/dt), except that a
    quotient within a few ulps of an integer counts as that integer (so
    16.1/1e-3 = 16100.000000000002 gives 16100 steps, not 16101)."""
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    ratio = float(t_max / dt)
    if ratio > _MAX_STEPS:
        raise ValueError(f"t_max/dt = {ratio:.3g} exceeds the {_MAX_STEPS:.0e} step cap")
    nearest = round(ratio)
    if abs(ratio - nearest) <= 4 * math.ulp(ratio):
        return nearest
    return math.ceil(ratio)


@dataclass
class QuadratureResult:
    value: np.ndarray
    tail_bound: float
    steps: int


def integrate_sylvester(W, theta0, t_max, dt):
    """Theta at the end of the window, from classic RK4 on
    dTheta/dt = W Theta + Theta W^dag in ``_step_count(t_max, dt)`` steps
    of dt.

    Raises ValueError for a window ``_step_count`` rejects, and StepOverflow
    at the first step whose Frobenius norm exceeds
    ``kernels.OVERFLOW_NORM`` or is not finite (expected for generators with
    gain and no damping).
    """
    steps = _step_count(t_max, dt)
    Wm = numkit.matrix_of(W)
    theta = numkit.matrix_of(theta0)
    out, done, overflowed = kernels.rk4_lyapunov(Wm, theta, dt, steps)
    if overflowed:
        raise StepOverflow(
            f"state norm exceeded {kernels.OVERFLOW_NORM:.1e} or is not finite at step {done} "
            f"(t = {done * dt:.4g})",
            step=done,
            time=done * dt,
        )
    return out


def quadrature_time_integral(W_eps, theta0, t_max, dt):
    """Composite trapezoid of e^(W t) Theta0 e^(W^dag t) on [0, t_max].

    W must be strictly stable (max Re lambda < 0) for the infinite-time
    integral to exist; otherwise NonConvergentIntegral is raised.  The
    reported tail bound is ||Theta(t_max)||_F / (2 * slowest decay rate).
    """
    Wm = numkit.matrix_of(W_eps)
    theta = numkit.matrix_of(theta0)
    steps = _step_count(t_max, dt)

    eigs = np.linalg.eigvals(Wm)
    max_re = float(np.max(eigs.real))
    if max_re >= 0.0:
        raise NonConvergentIntegral(
            f"max Re(lambda) = {max_re:.3e} >= 0; the all-time integral diverges"
        )
    P = numkit.matrix_exponential(Wm, dt)
    acc, E_final = kernels.propagator_trapezoid(P, theta, steps, dt)
    theta_end = E_final @ theta @ E_final.conj().T
    tail = float(np.linalg.norm(theta_end) / (2.0 * abs(max_re)))
    return QuadratureResult(value=acc, tail_bound=tail, steps=steps)
