"""State metrics: Schmidt spectrum, von Neumann entropy, Wigner function, purity."""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from . import numkit
from .errors import DegenerateState, NonPositiveDeterminant, SingularCovariance
from .states import CovarianceMatrix, JointSpectralAmplitude


@dataclass
class SchmidtSpectrum:
    """Nonincreasing Schmidt coefficients r_n with sum r_n^2 = 1."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class PurityResult:
    """mu = 1 / sqrt|det Theta|, with the log-determinant kept alongside
    since det itself under/overflows beyond dim ~100.  mu is None when it
    exceeds float64 (log|det Theta| < -1419.6); log_abs_det still holds it."""

    mu: float | None
    log_abs_det: float


def schmidt(jsa, use_magnitude=False):
    """Schmidt coefficients of the amplitude matrix, renormalized so the
    squared coefficients sum to one (the raw amplitude need not be
    normalized).

    use_magnitude=True decomposes |F| instead of the complex F, i.e. the
    intensity-level variant.
    """
    if isinstance(jsa, JointSpectralAmplitude):
        F = jsa.values
    else:
        F = np.asarray(jsa, dtype=np.complex128)
    if use_magnitude:
        F = np.abs(F)
    s = numkit.svd(F)
    total = np.sum(s**2)
    if total <= 0.0:
        raise DegenerateState("all-zero amplitude has no Schmidt spectrum")
    return SchmidtSpectrum(values=s / np.sqrt(total))


def von_neumann_entropy(spectrum):
    """S = -sum r_n^2 ln r_n^2 in nats, with 0 ln 0 = 0."""
    if isinstance(spectrum, SchmidtSpectrum):
        r = spectrum.values
    else:
        r = np.asarray(spectrum, dtype=np.float64)
    p = r**2
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


# Points per LU solve in wigner: a grid of any size costs O(block * d)
# temporaries beyond its own output.
_WIGNER_BLOCK = 1024


def wigner(theta, alpha, mean=None):
    """Gaussian phase-space density at the points alpha:

        W(alpha) = exp(-1/2 (a-m)^T Theta^(-1) (a-m)) / ((2 pi)^(d/2) sqrt|Theta|)

    with d the covariance dimension (d/2 modes).  alpha has shape (..., d)
    and the result has shape (...); a single point of shape (d,) gives a
    float.  mean defaults to zero; local displacements do not change the
    entanglement structure.  One LU factorization of Theta gives both
    log|det Theta| and every solve; a pivot below ``numkit.PIVOT_TOL *
    max|Theta|`` raises SingularCovariance, as in ``numkit.linear_solve``.
    """
    mat = theta.matrix if isinstance(theta, CovarianceMatrix) else np.asarray(theta)
    mat = np.asarray(mat, dtype=np.complex128)
    d = mat.shape[0]
    alpha = np.asarray(alpha)
    if alpha.shape[-1:] != (d,):
        raise ValueError(f"alpha must have shape (..., {d}), got {alpha.shape}")
    points = alpha.reshape(-1, d)
    if mean is not None:
        mean = np.asarray(mean, dtype=np.complex128).reshape(d)

    scale = np.abs(mat).max()
    with warnings.catch_warnings():
        # Singularity is detected from the pivots below; scipy's warning is noise.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(mat)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < numkit.PIVOT_TOL * scale:
        raise SingularCovariance(
            f"covariance matrix is singular: pivot {pivots.min():.3e} below "
            f"{numkit.PIVOT_TOL:g} * max|Theta|={scale:.3e}"
        )
    log_abs = float(np.sum(np.log(pivots)))
    norm = (2.0 * np.pi) ** (d / 2.0) * np.exp(0.5 * log_abs)

    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _WIGNER_BLOCK):
        x = points[start:start + _WIGNER_BLOCK].astype(np.complex128)
        if mean is not None:
            x -= mean
        y = lu_solve((lu, piv), x.T).T
        # x^T y per point as a stack of 1 x d by d x 1 products, unconjugated.
        quad = (x[:, None, :] @ y[:, :, None])[:, 0, 0]
        out[start:start + _WIGNER_BLOCK] = np.real(np.exp(-0.5 * quad) / norm)
    out = out.reshape(alpha.shape[:-1])
    return float(out) if out.ndim == 0 else out


PURITY_DET_TOL = 1e-300


def purity(theta):
    """mu = 1 / sqrt|det Theta| via the log-determinant.

    The determinant magnitude is used as printed in the defining formula; a
    complex covariance can carry a benign phase after Hermitization.  Note
    the formula is not rescaled to any vacuum convention, so e.g.
    Theta = I/2 gives mu = 2^(d/2); Theta = I gives exactly 1.  mu is None
    when 1 / sqrt|det Theta| overflows float64; ``log_abs_det`` carries it.

    NonPositiveDeterminant is raised when |det Theta|^(1/d) / max|Theta|,
    the geometric-mean eigenvalue magnitude against the largest entry, is
    below PURITY_DET_TOL.  The test is made in log space and does not depend
    on the scale of Theta or on d: |det Theta| itself underflows for a
    healthy Theta at large d (0.5 I at d = 998 has |det| = 2^-998).
    """
    mat = theta.matrix if isinstance(theta, CovarianceMatrix) else np.asarray(theta)
    mat = np.asarray(mat, dtype=np.complex128)
    log_abs, phase = numkit.log_determinant(mat)
    if not np.isfinite(log_abs) or (
        log_abs / mat.shape[0] - np.log(np.abs(mat).max()) < np.log(PURITY_DET_TOL)
    ):
        raise NonPositiveDeterminant(
            f"log|det Theta| = {log_abs:.6g}: |det Theta|^(1/d) / max|Theta| is below "
            f"{PURITY_DET_TOL:.1e}",
            determinant=complex(np.exp(log_abs) * np.exp(1j * phase)) if np.isfinite(log_abs) else 0j,
        )
    with np.errstate(over="ignore"):
        mu = float(np.exp(-0.5 * log_abs))
    return PurityResult(mu=mu if np.isfinite(mu) else None, log_abs_det=float(log_abs))
