"""Dense complex linear-algebra kernels: solves, Sylvester, SVD, determinants, expm.

All operations are pure functions of their arguments and safe to call from
multiple threads.  Matrices are plain 2-D complex128 ndarrays; every public
entry point rejects NaN/Inf inputs.

:func:`eigenbasis` factors a generator once as W = V diag(lambda) V^-1;
:func:`solve_lyapunov_eigen` and :func:`shifted_inverse` then serve every
shift W - s from that one factorization.  They are accurate while
cond_1(V) stays at or below :data:`EIGEN_COND_MAX`; above it callers use the
Schur path of :func:`solve_sylvester` and the LU of :func:`linear_solve`.

The factorization reads W's structure from its entries.  When every
off-diagonal nonzero lies in one row and column (an :class:`Arrowhead`, as
for the cavity model), non-tip modes with exactly equal diagonal, tip-row
and tip-column entries are combined by a real orthogonal reflection: all but
one mode of each group decouple exactly (O'Leary & Stewart, J. Comput. Phys.
90 (1990)), ``eig`` runs on the remaining core, products with V touch only
the core block, and products with W - s cost O(d^2).  A W without that
structure is factored densely.
"""

import warnings
from dataclasses import dataclass, replace

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
    # Schur/LU fallback: "eigen" or "fallback", the cond_1(V) it rested on,
    # and how many modes the eigenbasis deflated exactly.
    path: str | None = None
    eigenvector_condition: float | None = None
    deflated_modes: int | None = None


def matrix_of(mat_like):
    """The complex128 array of a matrix wrapper (anything with ``.matrix``,
    such as a DynamicalMatrix, CovarianceMatrix or Eigenbasis) or of an array."""
    return np.asarray(getattr(mat_like, "matrix", mat_like), dtype=np.complex128)


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


def _vector_times(v, Y):
    """v^T Y, summed like Y @ v (a contiguous copy of Y^T), so that a left and
    a right product round alike and A X + X A^dag keeps the Hermitian
    symmetry of X as dense products do."""
    return np.ascontiguousarray(Y.T) @ v


class Arrowhead:
    """A diagonal plus one full row and column through the ``tip`` index.

    The matrix is diag(diag) + col e_tip^T + e_tip row^T with ``col`` and
    ``row`` zero at ``tip``.  ``A @ Y`` and ``Y @ A`` cost O(d^2) for a
    d x d ndarray Y; ``Y - A`` and ``np.asarray(A)`` use the dense matrix.
    """

    # ndarray operators return NotImplemented for this class, so ``Y @ A``
    # and ``Y - A`` reach __rmatmul__ and __rsub__ instead of densifying A.
    __array_ufunc__ = None

    def __init__(self, diag, col, row, tip):
        self.diag = diag
        self.col = col
        self.row = row
        self.tip = tip

    def shifted(self, s):
        return Arrowhead(self.diag - s, self.col, self.row, self.tip)

    def conj(self):
        return Arrowhead(self.diag.conj(), self.col.conj(), self.row.conj(), self.tip)

    @property
    def T(self):
        return Arrowhead(self.diag, self.row, self.col, self.tip)

    def __matmul__(self, Y):
        out = self.diag[:, None] * Y
        out += np.outer(self.col, Y[self.tip])
        out[self.tip] += _vector_times(self.row, Y)
        return out

    def __rmatmul__(self, Y):
        out = Y * self.diag[None, :]
        out += np.outer(Y[:, self.tip], self.row)
        out[:, self.tip] += Y @ self.col
        return out

    def lyapunov(self, X):
        """A X + X A^dag, with the diagonal terms summed first as
        (a_i + conj(a_j)) X_ij, so that they cancel exactly between modes of
        equal frequency instead of leaving the rounding of two large products."""
        t = self.tip
        out = (self.diag[:, None] + self.diag.conj()[None, :]) * X
        out += np.outer(self.col, X[t])
        out += np.outer(X[:, t], self.col.conj())
        out[t] += _vector_times(self.row, X)
        out[:, t] += X @ self.row.conj()
        return out

    def __rsub__(self, Y):
        return Y - np.asarray(self)

    def __array__(self, dtype=None, copy=None):
        M = np.diag(self.diag)
        M[:, self.tip] += self.col
        M[self.tip] += self.row
        return M if dtype is None else M.astype(dtype)


def _arrowhead(W):
    """W as an Arrowhead, or None when its off-diagonal nonzeros do not all
    lie in one row and column (the tip: the index holding the most of them,
    the lowest such index on a tie)."""
    off = W != 0
    np.fill_diagonal(off, False)
    tip = int(np.argmax(off.sum(axis=0) + off.sum(axis=1)))
    off[tip] = False
    off[:, tip] = False
    if off.any():
        return None
    col = W[:, tip].copy()
    row = W[tip].copy()
    col[tip] = row[tip] = 0.0
    return Arrowhead(W.diagonal().copy(), col, row, tip)


def _identical_modes(arrow):
    """Index arrays (ascending, two or more members) of the non-tip modes
    whose diagonal, tip-column and tip-row entries are exactly equal."""
    others = np.delete(np.arange(arrow.diag.size), arrow.tip)
    keys = np.stack((arrow.diag[others], arrow.col[others], arrow.row[others]), axis=1)
    _, label, count = np.unique(
        keys.view(np.float64), axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(label.ravel(), kind="stable")
    groups = np.split(others[order], np.cumsum(count)[:-1])
    return [g for g in groups if g.size > 1]


def _reflector(k):
    """Householder H = H^T = H^-1 of size k whose first column is ones/sqrt(k)."""
    w = np.full(k, 1.0 / np.sqrt(k))
    w[0] -= 1.0
    return np.eye(k) - (2.0 / (w @ w)) * np.outer(w, w)


def _reflect_rows(Y, reflections):
    """Q Y in place: each group's reflection H mixes that group's rows."""
    for idx, H in reflections:
        rows = [Y[idx[:, j]] for j in range(H.shape[0])]
        for i in range(H.shape[0]):
            acc = H[i, 0] * rows[0]
            for j in range(1, H.shape[0]):
                acc += H[i, j] * rows[j]
            Y[idx[:, i]] = acc
    return Y


def _reflect(Y, reflections, rows=True, cols=True):
    """Q Y, Y Q or Q Y Q as a new array (Q = Q^T).  Columns are reflected as
    the rows of a transposed copy: gathering whole rows is the fast access."""
    Y = np.array(Y, dtype=np.complex128)
    if not reflections:
        return Y
    if rows:
        _reflect_rows(Y, reflections)
    if cols:
        Y = np.ascontiguousarray(_reflect_rows(np.ascontiguousarray(Y.T), reflections).T)
    return Y


@dataclass(frozen=True)
class Eigenbasis:
    """W = V diag(values) V^-1 in factored form, V = Q (V_core (+) I).

    When W is an arrowhead (``arrowhead`` is set), each group of k identical
    non-tip modes is reflected by Q into one mode that couples to the tip
    (kept at the group's first index) and k - 1 modes that decouple exactly,
    with the group's diagonal entry as eigenvalue.  The remaining ``core``
    indices carry the eigenvectors ``core_vectors`` of Q W Q restricted to
    them.  A W without that structure has Q = I and every index in the core.

    ``condition`` is cond_1(V) = ||V||_1 ||V^-1||_1 of the full V; it is inf
    (and ``core_inverse`` None) when V is numerically singular.
    """

    matrix: np.ndarray
    values: np.ndarray
    arrowhead: Arrowhead | None
    reflections: tuple
    core: np.ndarray
    core_vectors: np.ndarray
    core_inverse: np.ndarray | None
    condition: float

    @property
    def usable(self):
        """Whether cond_1(V) admits the eigenbasis solves."""
        return self.condition <= EIGEN_COND_MAX

    @property
    def deflated_modes(self):
        """Number of modes split off exactly before the eigendecomposition."""
        return self.matrix.shape[0] - self.core.size

    @property
    def vectors(self):
        """V, formed on access."""
        V = np.eye(self.matrix.shape[0], dtype=np.complex128)
        V[np.ix_(self.core, self.core)] = self.core_vectors
        return _reflect(V, self.reflections, cols=False)

    @property
    def inverse(self):
        """V^-1, formed on access; None when V is singular."""
        if self.core_inverse is None:
            return None
        V_inv = np.eye(self.matrix.shape[0], dtype=np.complex128)
        V_inv[np.ix_(self.core, self.core)] = self.core_inverse
        return _reflect(V_inv, self.reflections, rows=False)

    def shifted(self, s):
        """A = W - s I: an Arrowhead when W is one, else a dense array."""
        if self.arrowhead is None:
            return self.matrix - s * np.eye(self.matrix.shape[0])
        return self.arrowhead.shifted(s)

    def lyapunov(self, X, shift):
        """A X + X A^dag for A = W - shift I."""
        A = self.shifted(shift)
        if self.arrowhead is None:
            return A @ X + X @ A.conj().T
        return A.lyapunov(X)

    def to_eigen(self, C):
        """V^-1 C V^-dag."""
        Z = _reflect(C, self.reflections)
        k = self.core
        Z[k] = self.core_inverse @ Z[k]
        Z[:, k] = Z[:, k] @ self.core_inverse.conj().T
        return Z

    def from_eigen(self, Y):
        """V Y V^dag."""
        Z = np.array(Y, dtype=np.complex128)
        k = self.core
        Z[k] = self.core_vectors @ Z[k]
        Z[:, k] = Z[:, k] @ self.core_vectors.conj().T
        return _reflect(Z, self.reflections)


def eigenbasis(W):
    """Diagonalize W: eigenvalues, eigenvectors V, V^-1 by LU, cond_1(V).

    The structure is read from W's entries: when W is an arrowhead, groups
    of exactly identical non-tip modes are deflated first (see
    :class:`Eigenbasis`), so ``eig`` and the LU of V run on the core only.
    One factorization serves the Lyapunov solve and the shifted inverse at
    every shift, since W - s I has the eigenvectors of W.
    """
    W = _as_matrix(W, "W")
    d = W.shape[0]
    if W.shape[1] != d:
        raise ValueError("eigenbasis requires a square matrix")
    arrow = _arrowhead(W)
    groups = _identical_modes(arrow) if arrow is not None else []
    by_size = {}
    for g in groups:
        by_size.setdefault(g.size, []).append(g)
    reflections = tuple((np.array(gs), _reflector(k)) for k, gs in sorted(by_size.items()))
    core = np.setdiff1d(np.arange(d), [i for g in groups for i in g[1:]])
    try:
        core_values, core_vectors = np.linalg.eig(
            _reflect(W, reflections)[np.ix_(core, core)]
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    values = W.diagonal().copy()
    values[core] = core_values
    basis = Eigenbasis(W, values, arrow, reflections, core, core_vectors, None, np.inf)
    with warnings.catch_warnings():
        # A singular V is detected from the pivots below.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(core_vectors)
    if np.abs(np.diag(lu)).min() > 0.0:
        core_inverse = lu_solve((lu, piv), np.eye(core.size, dtype=np.complex128))
        basis = replace(basis, core_inverse=core_inverse)
        condition = float(np.linalg.norm(basis.vectors, 1) * np.linalg.norm(basis.inverse, 1))
        if np.isfinite(condition):
            return replace(basis, condition=condition)
        basis = replace(basis, core_inverse=None)
    return basis


def _require_usable(basis):
    if basis.core_inverse is None:
        raise ValueError("eigenbasis has a singular eigenvector matrix")


def solve_lyapunov_eigen(basis, C, shift):
    """Solve A X + X A^dag = -C for A = W - shift I from W's eigenbasis.

    With Y = V^-1 X V^-dag the equation is diagonal:
    X = V [(-V^-1 C V^-dag) / (l_i + conj(l_j))] V^dag, l = lambda - shift,
    followed by one iterative-refinement pass as in :func:`solve_sylvester`.
    Products with V touch only the core block, and products with A cost
    O(d^2) when W is an arrowhead.  The pencil-gap screen runs on all d
    eigenvalues and raises NearSingularPencil (tolerance 1e-10 * ||A||_F,
    the default of :func:`solve_sylvester`) with the offending pair.  The
    caller checks ``basis.usable`` first.
    """
    _require_usable(basis)
    C = _as_matrix(C, "C")
    d = basis.matrix.shape[0]
    if C.shape != (d, d):
        raise ValueError(f"C must be {d}x{d}, got {C.shape}")
    lam = basis.values - shift
    norm_a = np.linalg.norm(basis.shifted(shift))
    pair_tol = 1e-10 * max(norm_a, 1e-300)
    gap = _pencil_gap_check(lam, lam.conj(), pair_tol, norm_a, norm_a)
    denom = lam[:, None] + lam.conj()[None, :]

    def eig_solve(rhs):
        return basis.from_eigen(basis.to_eigen(rhs) / -denom)

    X = eig_solve(C)
    R = basis.lyapunov(X, shift) + C
    if np.linalg.norm(R) > 0:
        X = X + eig_solve(R)

    residual = np.linalg.norm(basis.lyapunov(X, shift) + C) / max(1.0, np.linalg.norm(C))
    cond = norm_a / gap if gap > 0 else np.inf
    return X, SolveReport(residual_norm=float(residual), condition_estimate=float(cond))


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
    core = basis.core
    inv = np.diag(1.0 / (basis.values - z))
    inv[np.ix_(core, core)] = (basis.core_vectors / (basis.values[core] - z)) @ basis.core_inverse
    return _reflect(inv, basis.reflections)


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
