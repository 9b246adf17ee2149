"""Dense complex linear-algebra kernels: solves, Sylvester, SVD, determinants, expm.

All operations are pure functions of their arguments and safe to call from
multiple threads.  Matrices are plain 2-D complex128 ndarrays; every public
entry point rejects NaN/Inf inputs.

:func:`eigenbasis` factors a generator once as W = V diag(lambda) V^-1;
:func:`solve_lyapunov_eigen` and :func:`shifted_inverse` then serve every
shift W - s from that one factorization.  They are accurate while
cond_1(V) stays at or below :data:`EIGEN_COND_MAX`; above it callers use the
Schur path of :func:`solve_sylvester` and the LU of :func:`linear_solve`.
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

# Largest cond_1(V) at which the eigenbasis solves are used.  On a d=8 model
# approaching its exceptional point, up to cond_1(V) = 4.5e5 the eigenbasis
# Lyapunov residual stays below 1e-9 and the S residual below 1.3e-11
# (gates 1e-8 and 1e-10); at the exceptional point (3.1e7) they reach 1.3e-5
# and 8e-10 while the Schur and LU solves stay below 1.4e-9 and 1e-15.
EIGEN_COND_MAX = 1e5


@dataclass
class SolveReport:
    """Diagnostics attached to every solve."""

    residual_norm: float
    condition_estimate: float | None = None
    regularized: bool = False
    # Set by callers that choose between the eigenbasis route and the
    # Schur/LU fallback: "eigen" or "fallback", and the cond_1(V) it rested on.
    path: str | None = None
    eigenvector_condition: float | None = None


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

    method="schur" is Bartels–Stewart: complex Schur factorizations of A
    and B, the triangular solve by LAPACK trsyl
    (:func:`pairspec.kernels.sylvester_triangular`), plus one
    iterative-refinement pass; it serves any A and B, and is the fallback
    of the eigenbasis Lyapunov solve when cond_1(V) is too large.
    method="kron" is the reference path: the d^2 x d^2 Kronecker system
    solved densely (intended for small d).

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


@dataclass(frozen=True)
class Eigenbasis:
    """W = V diag(values) V^-1 with V^-1 formed explicitly.

    ``condition`` is cond_1(V) = ||V||_1 ||V^-1||_1; it is inf (and
    ``inverse`` None) when V is numerically singular.
    """

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray | None
    condition: float

    @property
    def usable(self):
        """Whether cond_1(V) admits the eigenbasis solves."""
        return self.condition <= EIGEN_COND_MAX


def eigenbasis(W):
    """Diagonalize W: eigenvalues, eigenvectors V, V^-1 by LU, cond_1(V).

    One factorization serves the Lyapunov solve and the shifted inverse at
    every shift, since W - s I has the eigenvectors of W.
    """
    W = _as_matrix(W, "W")
    d = W.shape[0]
    if W.shape[1] != d:
        raise ValueError("eigenbasis requires a square matrix")
    try:
        values, V = np.linalg.eig(W)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    with warnings.catch_warnings():
        # A singular V is detected from the pivots below.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(V)
    if np.abs(np.diag(lu)).min() > 0.0:
        V_inv = lu_solve((lu, piv), np.eye(d, dtype=np.complex128))
        condition = float(np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1))
        if np.isfinite(condition):
            return Eigenbasis(W, values, V, V_inv, condition)
    return Eigenbasis(W, values, V, None, np.inf)


def _require_usable(basis):
    if basis.inverse is None:
        raise ValueError("eigenbasis has a singular eigenvector matrix")


def solve_lyapunov_eigen(basis, C, shift):
    """Solve A X + X A^dag = -C for A = W - shift I from W's eigenbasis.

    With Y = V^-1 X V^-dag the equation is diagonal:
    X = V [(-V^-1 C V^-dag) / (l_i + conj(l_j))] V^dag, l = lambda - shift,
    followed by one iterative-refinement pass as in :func:`solve_sylvester`.
    The pencil-gap screen runs on the same eigenvalues and raises
    NearSingularPencil (tolerance 1e-10 * ||A||_F, the default of
    :func:`solve_sylvester`) with the offending pair.  The caller checks
    ``basis.usable`` first.
    """
    _require_usable(basis)
    C = _as_matrix(C, "C")
    W = basis.matrix
    d = W.shape[0]
    if C.shape != (d, d):
        raise ValueError(f"C must be {d}x{d}, got {C.shape}")
    A = W - shift * np.eye(d)
    A_h = A.conj().T
    lam = basis.values - shift
    norm_a = np.linalg.norm(A)
    pair_tol = 1e-10 * max(norm_a, 1e-300)
    gap = _pencil_gap_check(lam, lam.conj(), pair_tol, norm_a, norm_a)

    V, V_inv = basis.vectors, basis.inverse
    V_h, V_inv_h = V.conj().T, V_inv.conj().T
    denom = lam[:, None] + lam.conj()[None, :]

    def eig_solve(rhs):
        return V @ ((V_inv @ rhs @ V_inv_h) / -denom) @ V_h

    X = eig_solve(C)
    R = A @ X + X @ A_h + C
    if np.linalg.norm(R) > 0:
        X = X + eig_solve(R)

    residual = sylvester_residual(A, A_h, C, X)
    cond = norm_a / gap if gap > 0 else np.inf
    return X, SolveReport(residual_norm=residual, condition_estimate=float(cond))


def shifted_inverse(basis, z):
    """(W - z I)^-1 = V diag(1 / (lambda - z)) V^-1 from W's eigenbasis.

    Raises SingularMatrix when min |lambda_i - z| falls below
    ``1e-12 * max|W - z I|`` (the default pivot rule of
    :func:`linear_solve`).  The caller checks ``basis.usable`` first.
    """
    _require_usable(basis)
    W = basis.matrix
    scale = np.abs(W - z * np.eye(W.shape[0])).max()
    dist = np.abs(basis.values - z)
    k = int(np.argmin(dist))
    if scale == 0.0 or dist[k] < 1e-12 * scale:
        raise SingularMatrix(
            f"|lambda_{k} - z| = {dist[k]:.3e} below tolerance "
            f"1e-12 * max|W - z|={scale:.3e}"
        )
    return (basis.vectors / (basis.values - z)[None, :]) @ basis.inverse


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
