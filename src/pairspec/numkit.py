"""Dense complex linear-algebra kernels: solves, Sylvester, SVD, determinants, expm.

All operations are pure functions of their arguments and safe to call from
multiple threads.  Matrices are plain 2-D complex128 ndarrays; every public
entry point rejects NaN/Inf inputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg import expm as _scipy_expm
from scipy.linalg import lu_factor, lu_solve, schur

from . import kernels
from .errors import ConvergenceFailure, NearSingularPencil, SingularMatrix

# Condition numbers are only estimated below this dimension (SVD cost).
_COND_ESTIMATE_MAX_DIM = 256


@dataclass
class SolveReport:
    """Diagnostics attached to every solve."""

    residual_norm: float
    condition_estimate: float | None = None
    regularized: bool = False


def _as_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def linear_solve(A, B, pivot_tol=1e-12):
    """Solve A X = B by LU with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls below
    ``pivot_tol * max|A|``.  The report carries the relative residual
    ||A X - B||_F / ||B||_F and a 2-norm condition estimate (None for
    dimensions where the SVD would dominate the solve cost).
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    if B.shape[0] != n:
        raise ValueError("A and B row counts differ")

    scale = np.abs(A).max()
    with warnings.catch_warnings():
        # Singularity is detected from the pivots below; scipy's warning is noise.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(A)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < pivot_tol * scale:
        k = int(np.argmin(pivots)) if scale > 0 else 0
        raise SingularMatrix(
            f"pivot {pivots.min() if scale > 0 else 0.0:.3e} below tolerance "
            f"{pivot_tol:.1e} * max|A|={scale:.3e} at index {k}"
        )
    X = lu_solve((lu, piv), B)

    b_norm = np.linalg.norm(B)
    residual = np.linalg.norm(A @ X - B) / b_norm if b_norm > 0 else 0.0
    cond = float(np.linalg.cond(A)) if n <= _COND_ESTIMATE_MAX_DIM else None
    return X, SolveReport(residual_norm=float(residual), condition_estimate=cond)


def _pencil_gap_check(eig_a, eig_b, tol, norm_a, norm_b):
    sums = np.abs(eig_a[:, None] + eig_b[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    gap = float(sums[i, j])
    if gap < tol:
        raise NearSingularPencil(
            f"eigenvalue pair lambda_A={eig_a[i]:.6g}, lambda_B={eig_b[j]:.6g} "
            f"sums to |{gap:.3e}| < tolerance {tol:.3e}",
            pair=(complex(eig_a[i]), complex(eig_b[j])),
            gap=gap,
        )
    return gap


def sylvester_residual(A, B, C, X):
    """Relative residual ||A X + X B + C||_F / max(1, ||C||_F)."""
    num = np.linalg.norm(A @ X + X @ B + C)
    return float(num / max(1.0, np.linalg.norm(C)))


def solve_sylvester(A, B, C, method="schur", pair_tol=None):
    """Solve A X + X B = -C.

    method="schur" is the fast path (Bartels–Stewart): complex Schur
    factorizations of A and B, the triangular solve by LAPACK trsyl
    (:func:`pairspec.kernels.sylvester_triangular`), plus one
    iterative-refinement pass.  method="kron" is the reference path: the
    d^2 x d^2 Kronecker system solved densely (intended for small d).

    Raises NearSingularPencil when some |lambda_i(A) + lambda_j(B)| falls
    below ``pair_tol`` (default 1e-10 * max Frobenius norm); the offending
    pair is attached to the exception.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    C = _as_matrix(C, "C")
    p, q = A.shape[0], B.shape[0]
    if A.shape[1] != p or B.shape[1] != q:
        raise ValueError("A and B must be square")
    if C.shape != (p, q):
        raise ValueError(f"C must be {p}x{q}, got {C.shape}")

    norm_a = np.linalg.norm(A)
    norm_b = np.linalg.norm(B)
    if pair_tol is None:
        pair_tol = 1e-10 * max(norm_a, norm_b, 1e-300)

    if method == "kron":
        eig_a = np.linalg.eigvals(A)
        eig_b = np.linalg.eigvals(B)
        gap = _pencil_gap_check(eig_a, eig_b, pair_tol, norm_a, norm_b)
        big = np.kron(np.eye(q), A) + np.kron(B.T, np.eye(p))
        vec = np.linalg.solve(big, -C.flatten(order="F"))
        X = vec.reshape((p, q), order="F")
    elif method == "schur":
        TA, QA = schur(A, output="complex")
        TB, QB = schur(B, output="complex")
        eig_a = np.diag(TA)
        eig_b = np.diag(TB)
        gap = _pencil_gap_check(eig_a, eig_b, pair_tol, norm_a, norm_b)

        def tri_solve(rhs):
            F = QA.conj().T @ rhs @ QB
            Y = kernels.sylvester_triangular(TA, TB, F)
            return QA @ Y @ QB.conj().T

        X = tri_solve(-C)
        # One refinement pass reusing the factors; the raw solve can sit
        # within an order of magnitude of the 1e-8 hygiene gate for stiff W.
        R = A @ X + X @ B + C
        if np.linalg.norm(R) > 0:
            X = X + tri_solve(-R)
    else:
        raise ValueError(f"unknown Sylvester method {method!r}")

    residual = sylvester_residual(A, B, C, X)
    cond = max(norm_a, norm_b) / gap if gap > 0 else np.inf
    return X, SolveReport(residual_norm=residual, condition_estimate=float(cond))


def svd(M):
    """Thin SVD; M = U @ diag(s) @ Vh with s nonincreasing.

    The iteration cap lives inside LAPACK; its failure surfaces as
    ConvergenceFailure.
    """
    M = _as_matrix(M, "M")
    try:
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return U, s, Vh


def determinant(M):
    """det(M) as a complex number (pivot product with sign tracking)."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("determinant requires a square matrix")
    sign, logabs = np.linalg.slogdet(M)
    if sign == 0:
        return 0j
    return complex(sign * np.exp(logabs))


def log_determinant(M):
    """(log|det M|, phase) pair; safe for dimensions where det overflows."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("log_determinant requires a square matrix")
    sign, logabs = np.linalg.slogdet(M)
    if sign == 0:
        return -np.inf, 0.0
    return float(logabs), float(np.angle(sign))


def matrix_exponential(M, t=1.0):
    """e^(M t) by scaling-and-squaring."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix_exponential requires a square matrix")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return _scipy_expm(M * t)
