"""Brute-force time-domain validation of the algebraic pipeline.

Two independent routes certify the Lyapunov machinery on small instances:
a fixed-step RK4 integration of dTheta/dt = W Theta + Theta W^dag, and a
composite-trapezoid accumulation of e^(Wt) Theta0 e^(W^dag t).  Fixed steps
keep the oracle simple and auditable; accuracy is verified by step halving,
not adaptivity.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, numkit
from .errors import NonConvergentIntegral, StepOverflow

_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step 4th-order integration window."""

    t_max: float
    dt: float
    overflow_limit: float = 1e12

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.t_max / self.dt > _MAX_STEPS:
            raise ValueError(
                f"t_max/dt = {self.t_max / self.dt:.3g} exceeds the {_MAX_STEPS:.0e} step cap"
            )

    @property
    def steps(self):
        return int(np.ceil(self.t_max / self.dt))


@dataclass
class QuadratureResult:
    value: np.ndarray
    tail_bound: float
    steps: int


def integrate_sylvester(W, theta0, cfg):
    """Theta(t_max) from classic RK4 on dTheta/dt = W Theta + Theta W^dag.

    Raises StepOverflow when the state norm exceeds cfg.overflow_limit
    (expected for generators with gain and no damping).
    """
    Wm = numkit.matrix_of(W)
    theta = numkit.matrix_of(theta0)
    out, done, overflowed = kernels.rk4_lyapunov(
        Wm, theta, cfg.dt, cfg.steps, cfg.overflow_limit
    )
    if overflowed:
        raise StepOverflow(
            f"state norm exceeded {cfg.overflow_limit:.1e} at step {done} "
            f"(t = {done * cfg.dt:.4g})",
            step=done,
            time=done * cfg.dt,
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
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    steps = int(np.ceil(t_max / dt))
    if steps > _MAX_STEPS:
        raise ValueError(f"t_max/dt = {steps} exceeds the {_MAX_STEPS:.0e} step cap")

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
