"""Dense complex linear-algebra kernels: solves, Lyapunov, SVD, log-determinants, expm.

All operations are pure functions of their arguments and safe to call from
multiple threads.  Matrices are plain 2-D complex128 ndarrays; every public
entry point rejects NaN/Inf inputs.

:func:`eigenbasis` factors a generator once as W = V diag(lambda) V^-1;
:func:`solve_lyapunov` then serves every shift W - s from that one
factorization.  The eigenbasis is accurate while cond_1(V) stays at or
below :data:`EIGEN_COND_MAX` (``Eigenbasis.usable``); above it the
Lyapunov solve runs the Schur path of :func:`solve_sylvester`.  Both
Lyapunov routes solve A X + X A^dag = -C and share one pencil screen and
one refinement rule.  The route is a fact of the basis, ``Eigenbasis.path``,
and only this module reads it; a :class:`SolveReport` holds only what the
solve measured or decided.  :func:`adjoint_inverse` needs no eigenvectors
and has no route: it forms A^dag A^-1 from W's arrowhead as a diagonal
plus a rank-4 term, held as a :class:`ScatteringMatrix`.

Every dense LU calls LAPACK getrf directly (:func:`_getrf`): it reports a
zero pivot in its return value, not as a warning, so no solve touches the
process-wide ``warnings`` filters, whose save-and-restore is not
thread-safe.  :func:`lu` adds the one pivot rule, a pivot below
``PIVOT_TOL * max|A|`` raising SingularMatrix (:func:`_check_pivots`, which
:func:`adjoint_inverse` applies to |lambda - z|); :func:`linear_solve`
and ``observables.wigner`` share it.  The LU of V stops only at an exactly
zero pivot, since cond_1(V) judges the rest.

The factorization reads W's structure from its entries.  When every
off-diagonal nonzero lies in one row and column (an :class:`Arrowhead`, as
for the cavity model), non-tip modes with exactly equal diagonal, tip-row
and tip-column entries are combined by a real orthogonal reflection Q: all
but one mode of each group decouple exactly (O'Leary & Stewart, J. Comput.
Phys. 90 (1990)).  The remaining core is an arrowhead whose eigenvalues are
the roots of its secular equation, found all at once in O(c^2) per sweep,
with eigenvectors in closed form (:func:`_secular_eig`); dense ``eig`` is
the fallback.  The :class:`Eigenbasis` holds that one factorization, in
deflated coordinates Q W Q, and Q.  The solves run there, where products
with V touch only the core block (:meth:`Eigenbasis.block_congruence`) and
products with W - s cost O(d^2).  :func:`solve_lyapunov` takes C and
returns X in deflated coordinates.  Every eigen-route pass of it forms its
bracket (V^-1 C V^-dag) / -(l_i + conj(l_j)) in :func:`lyapunov_quotients`,
where several shifts of one C can share V^-1 C V^-dag, and on the Schur
route that function gives None per shift.  :func:`adjoint_inverse` returns
A^dag A^-1 there as the :class:`ScatteringMatrix` that
:func:`output_covariance` reads: for an arrowhead W a diagonal plus a
rank-4 term, the one form the strip kernels read, else A^dag A^-1 held
whole, which takes plain numpy.
Only :meth:`Eigenbasis.rotate` moves a matrix between those coordinates
and W's.  A W without that structure is factored densely, with Q = I and
every index in the core.

The O(d^2) passes (the Lyapunov residual, the pencil screen and
division, Theta_out's assembly, the reflections) work a row strip at a
time (:func:`_strips`) and the products with the core blocks in a few wide
strips, so that a solve's d x d arrays are its operands and results only.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import expm as _scipy_expm
from scipy.linalg import lu_solve, schur
from scipy.linalg.lapack import zgetrf

from . import kernels
from .errors import ConvergenceFailure, NearSingularPencil, SingularMatrix

# Largest cond_1(V) at which the eigenbasis Lyapunov solve is used.  On a
# d=8 model approaching its exceptional point, up to cond_1(V) = 4.5e5 the
# eigenbasis Lyapunov residual stays below 1e-9 (gate 1e-8); at the
# exceptional point (3.1e7) it reaches 1.3e-5 while the Schur solve stays
# below 1.4e-9.  Those figures are for that d = 8 toy.  The Lyapunov
# residual is relative to max(1, ||C||_F), and ||X|| grows like eps^-3 at an
# exceptional point: on the cavity model at n = 16 with its material pair
# coalescing (cond_1(V) = 4.5e8), ||X||_F = 1e10 at eps = 1e-3 and the Schur
# solve reads 1.3e-3 at a backward error of 1.8e-17; just off the point
# (cond_1(V) = 949) the eigen route reads 2.0e-8 at 2.2e-21.  Neither route
# passes the 1e-8 gates there, although both solves are backward stable.
EIGEN_COND_MAX = 1e5

# A pivot below PIVOT_TOL * max|A| makes A singular (_check_pivots, applied
# by lu for linear_solve and observables.wigner, and to |lambda - z| by
# adjoint_inverse, which takes the LU of linear_solve when the diagonal of
# an arrowhead's A falls below it).
PIVOT_TOL = 1e-12
# A pair |lambda_i + conj(lambda_j)| of A's eigenvalues below
# PENCIL_GAP_TOL * ||A||_F makes the Lyapunov pencil near-singular.
PENCIL_GAP_TOL = 1e-10


@dataclass
class SolveReport:
    """What a solve measured or decided: its relative residual, its condition
    estimate, and whether it ran at a regularized shift.  The route, cond_1(V)
    and the deflated-mode count are the basis's (``Eigenbasis.path``,
    ``.condition``, ``.deflated_modes``)."""

    residual_norm: float
    condition_estimate: float | None = None
    regularized: bool = False


def matrix_of(mat_like):
    """The complex128 array of a matrix wrapper (anything with ``.matrix``,
    such as a DynamicalMatrix or CovarianceMatrix) or of an array.

    Raises ValueError when that is not a 2-D array, such as the ``matrix``
    None of an arrowhead's Eigenbasis."""
    m = np.asarray(getattr(mat_like, "matrix", mat_like), dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{type(mat_like).__name__} holds no 2-D matrix")
    return m


def _as_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def _getrf(A):
    """(lu, piv) of the square complex128 A by LAPACK getrf (partial
    pivoting), as ``scipy.linalg.lu_solve`` takes them; A is not written.
    A zero pivot is left in U for the caller's rule: getrf neither raises
    nor warns."""
    lu, piv, _ = zgetrf(A)
    return lu, piv


def _check_pivots(pivots, scale, label, of):
    """The one pivot rule: SingularMatrix when the smallest of ``pivots``
    is below ``PIVOT_TOL * scale``, with scale = max|``of``| > 0.  The
    message names the pivot by ``label.format(k)``, the tolerance and the
    scale."""
    k = int(np.argmin(pivots))
    if scale == 0.0 or pivots[k] < PIVOT_TOL * scale:
        raise SingularMatrix(
            f"{label.format(k)} = {pivots[k]:.3e} below tolerance "
            f"{PIVOT_TOL:.1e} * max|{of}|={scale:.3e}"
        )


def lu(A, name="A"):
    """LU with partial pivoting of a square matrix by LAPACK getrf.

    Returns ((lu, piv), pivots): the factors as ``scipy.linalg.lu_solve``
    takes them and |diag U|, whose log-sum is log|det A|.  Raises
    ValueError for NaN/Inf entries or a non-square A, and SingularMatrix
    when a pivot magnitude falls below ``PIVOT_TOL * max|A|``; ``name``
    labels A in both messages.
    """
    A = _as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    factors = _getrf(A)
    pivots = np.abs(np.diag(factors[0]))
    _check_pivots(pivots, np.abs(A).max(), "pivot {}", name)
    return factors, pivots


def linear_solve(A, B):
    """Solve A X = B by LU with partial pivoting (:func:`lu`).

    Returns X.  Raises SingularMatrix when a pivot magnitude falls below
    ``PIVOT_TOL * max|A|``.
    """
    B = _as_matrix(B, "B")
    factors, _ = lu(A)
    if B.shape[0] != factors[0].shape[0]:
        raise ValueError("A and B row counts differ")
    return lu_solve(factors, B)


def _pencil_condition(lam, norm_a):
    """||A||_F / min |lam_i + conj(lam_j)|, the condition estimate of
    A X + X A^dag = -C for A of spectrum ``lam`` and ||A||_F = ``norm_a``;
    NearSingularPencil when that gap is below ``PENCIL_GAP_TOL * ||A||_F``.
    The sums are screened a row strip at a time (:func:`_strips`); the
    first smallest pair in row order is the one named."""
    tol = PENCIL_GAP_TOL * max(norm_a, 1e-300)
    conj = lam.conj()
    strips = _strips(lam.size, lam.size)
    sums = _strip_buffer(strips, lam.size)
    mags = np.empty(sums.shape)
    gap, i, j = np.inf, 0, 0
    for r0, r1 in strips:
        part = np.abs(np.add(lam[r0:r1, None], conj[None, :], out=sums[:r1 - r0]),
                      out=mags[:r1 - r0])
        k = int(np.argmin(part))
        if part.flat[k] < gap:
            gap = float(part.flat[k])
            i, j = divmod(k, lam.size)
            i += r0
    if gap < tol:
        raise NearSingularPencil(
            f"eigenvalue pair lambda_A={lam[i]:.6g}, lambda_B={conj[j]:.6g} "
            f"sums to |{gap:.3e}| < tolerance {tol:.3e}",
            pair=(complex(lam[i]), complex(conj[j])),
            gap=gap,
        )
    return float(norm_a / gap)


def _pencil_divide(lam, Y, out):
    """``out`` = Y / -(l_i + conj(l_j)) for l = ``lam``, a row strip at a
    time, so that no d x d divisor is made; ``out`` may be Y."""
    lam_h = lam.conj()
    strips = _strips(*Y.shape)
    divisor = _strip_buffer(strips, Y.shape[1])
    for r0, r1 in strips:
        part = np.add(lam[r0:r1, None], lam_h[None, :], out=divisor[:r1 - r0])
        np.negative(part, out=part)
        np.divide(Y[r0:r1], part, out=out[r0:r1])
    return out


def _refine(solve, A, C, X):
    """(X, its relative residual ||A X + X A^dag + C||_F / max(1, ||C||_F))
    from ``solve(rhs)``, which solves A X + X A^dag = -rhs for the
    Arrowhead or array A, starting from the caller's first pass X: one
    refinement pass follows only when the first pass's residual is above
    :data:`REFINE_ABOVE`.  The residual matrix is stored only as that
    pass's right-hand side; otherwise each strip is dropped once summed."""
    c_norm = max(1.0, np.linalg.norm(C))
    residual = _residual(A, X, C) / c_norm
    if not residual <= REFINE_ABOVE:
        rhs = np.empty_like(X)
        _residual(A, X, C, rhs)
        X += solve(rhs)
        del rhs
        residual = _residual(A, X, C) / c_norm
    return X, float(residual)


def _residual(A, X, C, out=None):
    """||C + A X + X A^dag||_F, with that sum written into ``out`` when it
    is given.  For an Arrowhead A the sum is formed a row strip at a time
    (:meth:`Arrowhead.product_strips`), so that without ``out`` no d x d
    array is made."""
    if not isinstance(A, Arrowhead):
        R = C + (A @ X + X @ A.conj().T)
        if out is not None:
            out[...] = R
        return float(np.linalg.norm(R))
    total = 0.0
    for r0, r1, block in A.product_strips(lambda r0, r1: X[r0:r1], A.spokes(X)):
        block += C[r0:r1]
        total += np.vdot(block, block).real
        if out is not None:
            out[r0:r1] = block
    return float(np.sqrt(total))


def sylvester_residual(A, C, X):
    """Relative residual ||A X + X A^dag + C||_F / max(1, ||C||_F)."""
    num = np.linalg.norm(A @ X + X @ A.conj().T + C)
    return float(num / max(1.0, np.linalg.norm(C)))


def solve_sylvester(A, C, method="schur"):
    """Solve A X + X A^dag = -C, the Sylvester equation with B = A^dag.

    method="schur" is Bartels–Stewart on one complex Schur form A = Q T Q^dag,
    which serves both sides: T Y + Y T^dag = -Q^dag C Q is solved by LAPACK
    trsyl (:func:`pairspec.kernels.sylvester_triangular`) and X = Q Y Q^dag,
    refined as in :func:`solve_lyapunov`.  It is the fallback of the
    eigenbasis Lyapunov solve when cond_1(V) is too large.  method="kron" is
    the reference path: the d^2 x d^2 Kronecker system
    kron(I, A) + kron(conj A, I) solved densely (intended for small d).

    Raises NearSingularPencil when some |lambda_i + conj(lambda_j)| falls
    below ``PENCIL_GAP_TOL * ||A||_F``; the offending pair is attached to the
    exception.
    """
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    d = A.shape[0]
    if A.shape[1] != d:
        raise ValueError("A must be square")
    if C.shape != (d, d):
        raise ValueError(f"C must be {d}x{d}, got {C.shape}")

    norm_a = np.linalg.norm(A)
    if method == "kron":
        cond = _pencil_condition(np.linalg.eigvals(A), norm_a)
        big = np.kron(np.eye(d), A) + np.kron(A.conj(), np.eye(d))
        vec = np.linalg.solve(big, -C.flatten(order="F"))
        X = vec.reshape((d, d), order="F")
        residual = sylvester_residual(A, C, X)
    elif method == "schur":
        T, Q = schur(A, output="complex")
        cond = _pencil_condition(np.diag(T), norm_a)
        Q_h = Q.conj().T

        def tri_solve(rhs):
            return Q @ kernels.sylvester_triangular(T, Q_h @ -rhs @ Q) @ Q_h

        X, residual = _refine(tri_solve, A, C, tri_solve(C))
    else:
        raise ValueError(f"unknown Sylvester method {method!r}")
    return X, SolveReport(residual_norm=residual, condition_estimate=cond)


# The O(d^2) passes of the Lyapunov product work on strips of rows (or of
# columns) of at most this many bytes and an eighth of the rows, so that
# their temporaries stay small beside the d x d result.
_STRIP_BYTES = 1 << 17


def _strips(rows, width):
    """(start, stop) bounds of strips of ``rows`` rows of ``width`` complex
    entries, at most ``_STRIP_BYTES`` and an eighth of the rows each, or one
    strip when all the rows fit in ``_STRIP_BYTES`` (a small matrix pays no
    loop).  No strip has one row unless there is only one: a one-row
    product goes to a dot kernel, which sums in another order than a
    matrix-vector product does."""
    if 16 * rows * width <= _STRIP_BYTES:
        return [(0, rows)]
    step = max(2, min(_STRIP_BYTES // (16 * max(width, 1)), -(-rows // 8)))
    bounds = list(range(0, rows, step)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


# The products with V_core and V_core^-1 (:meth:`Eigenbasis.block_congruence`)
# take a c x d block in equal strips of at most about this many bytes: one
# BLAS call for a small block, a few wide ones for a large one.
_BLOCK_BYTES = 1 << 20


def _even_strips(n, count):
    """(start, stop) bounds of ceil(``count``) (at least one) near-equal
    strips of ``n``."""
    step = -(-n // max(1, int(np.ceil(count))))
    bounds = list(range(0, n, step)) + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _strip_buffer(strips, width):
    """An empty complex array with the rows of the tallest of ``strips``."""
    return np.empty((max(r1 - r0 for r0, r1 in strips), width), dtype=np.complex128)


def _vector_times(v, Y):
    """v^T Y, summed like Y @ v: each column strip of Y is copied transposed
    (contiguous) and multiplied as a row strip of Y @ v is, so that a left
    and a right product round alike and A X + X A^dag keeps the Hermitian
    symmetry of X as dense products do."""
    out = np.empty(Y.shape[1], dtype=np.result_type(v, Y))
    for c0, c1 in _strips(Y.shape[1], Y.shape[0]):
        out[c0:c1] = np.ascontiguousarray(Y[:, c0:c1].T) @ v
    return out


class Arrowhead:
    """A diagonal plus one full row and column through the ``tip`` index.

    The matrix is diag(diag) + col e_tip^T + e_tip row^T with ``col`` and
    ``row`` zero at ``tip``.  ``A @ Y`` and ``Y @ A`` cost O(d^2) for a
    d x d ndarray Y, and A Y + Y A^dag is formed a row strip at a time
    (:meth:`product_strips`, :func:`_strips`), so that no d x d array is
    made besides the caller's; ``np.asarray(A)`` is the dense matrix.
    """

    # ndarray operators return NotImplemented for this class, so ``Y @ A``
    # reaches __rmatmul__ and ``Y - A`` raises TypeError instead of
    # densifying A.
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

    def spokes(self, Y):
        """What a row strip of A Y + Y A^dag reads of Y beyond its own rows:
        (Y[tip], Y[:, tip], row^T Y, Y conj(row)), the first two copied, so
        that Y's rows may be overwritten once their strip is formed."""
        t = self.tip
        return (Y[t].copy(), Y[:, t].copy(), _vector_times(self.row, Y),
                _vector_times(self.row.conj(), Y.T))

    def product_strips(self, rows, spokes):
        """Yield (r0, r1, block) with ``block`` rows r0:r1 of A Y + Y A^dag,
        from ``rows(r0, r1)`` = Y[r0:r1] and Y's :meth:`spokes`; each block
        is overwritten by the next.  The diagonal terms are summed first as
        (a_i + conj(a_j)) Y_ij, so that they cancel exactly between modes of
        equal frequency instead of leaving the rounding of two large
        products.  The two spoke terms col_i Y_tj + conj(col_j) Y_it, each
        with the spoke as the first factor, are summed before they are
        added, so that entry (i, j) and the conjugate of (j, i) round alike
        and the result is exactly Hermitian for Hermitian Y."""
        t = self.tip
        diag_h, col_h = self.diag.conj(), self.col.conj()
        y_row, y_col, tip_row, tip_col = spokes
        d = self.diag.size
        strips = _strips(d, d)
        strip = _strip_buffer(strips, d)
        term = np.empty_like(strip)
        for r0, r1 in strips:
            block = strip[:r1 - r0]
            part = term[:r1 - r0]
            np.multiply(self.col[r0:r1, None], y_row[None, :], out=block)
            block += np.multiply(col_h[None, :], y_col[r0:r1, None], out=part)
            np.add(self.diag[r0:r1, None], diag_h[None, :], out=part)
            part *= rows(r0, r1)
            block += part
            if r0 <= t < r1:
                block[t - r0] += tip_row
            block[:, t] += tip_col[r0:r1]
            yield r0, r1, block

    def restricted(self, idx):
        """The principal submatrix on the ascending indices ``idx``, which
        hold the tip."""
        return Arrowhead(self.diag[idx], self.col[idx], self.row[idx],
                         int(np.searchsorted(idx, self.tip)))

    def _entries(self):
        return np.concatenate((self.diag, self.col, self.row))

    def norm(self):
        """Frobenius norm, O(d)."""
        return float(np.linalg.norm(self._entries()))

    def abs_max(self):
        """Largest entry magnitude, O(d)."""
        return float(np.abs(self._entries()).max())

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


def _as_index(a):
    """A slice for a run of consecutive ascending indices (a view, no gather),
    else the index array itself."""
    if a.size > 1 and np.all(np.diff(a) == 1):
        return slice(int(a[0]), int(a[-1]) + 1)
    return a


def _reflect_rows(Y, reflections):
    """Q Y in place: each group's reflection H mixes that group's rows, a
    column strip of at most about ``_STRIP_BYTES`` of them at a time, so
    that the mixed rows stay small beside Y."""
    for idx, H in reflections:
        k = H.shape[0]
        members = [_as_index(idx[:, j]) for j in range(k)]
        for c0, c1 in _even_strips(Y.shape[1], 16 * idx.size * Y.shape[1] / _STRIP_BYTES):
            rows = [Y[m, c0:c1] for m in members]
            mixed = []
            for i in range(k):
                acc = H[i, 0] * rows[0]
                for j in range(1, k):
                    acc += H[i, j] * rows[j]
                mixed.append(acc)
            for m, acc in zip(members, mixed):
                Y[m, c0:c1] = acc
    return Y


def _reflect(Y, reflections, rows=True, cols=True, copy=True):
    """Q Y, Y Q or Q Y Q (Q = Q^T); a new array unless ``copy`` is False and
    Y is a complex128 array, which is then reflected in place."""
    Y = np.array(Y, dtype=np.complex128, copy=copy or None)
    if rows:
        _reflect_rows(Y, reflections)
    if cols:
        _reflect_rows(Y.T, reflections)
    return Y


def _eig(M):
    try:
        return np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc


# The secular route of the arrowhead core (see :func:`_secular_eig`): at most
# this many Aberth sweeps, and the largest accepted relative residual
# ||W_c V_c - V_c Lambda||_F / ||W_c||_F (LAPACK eig leaves 3e-15 to 7e-15 on
# the README cores at n = 64 to 512, the secular vectors 6e-17 to 8e-17).
SECULAR_MAX_SWEEPS = 50
SECULAR_RESIDUAL_MAX = 1e-13
# The eigenbasis Lyapunov solve refines only a first pass whose relative
# residual is above this, 100x under the 1e-8 gates.  On the README config
# (n = 64 to 512, both signs, at eps and eps/2) a secular core's first pass
# leaves 1.3e-13 to 8.9e-12 and is kept; a dense-``eig`` core's leaves
# 9e-10 to 2.1e-9 (n = 41 and 81) and is refined.
REFINE_ABOVE = 1e-10
# Poles whose first estimate leaves half the gap to their nearest neighbour
# (at most this many, the farthest first) are solved with the tip as one
# small dense problem for the starting points.
_SECULAR_STRONG_MAX = 32


def _secular_guesses(p, uv, w):
    """Starting points for the roots of lambda - w - sum uv/(lambda - p).

    Each pole k starts at the root nearer p_k of its two-mode problem with
    the tip, whose diagonal carries the other poles' terms at p_k; a start
    farther than half the gap to the nearest pole is pulled back to it.  The
    poles that reach farthest, with the tip, are solved as one small
    arrowhead, so strong couplings (a material at sqrt_kappa ~ 500 meV) start
    at their polaritons instead of crossing the photon poles.
    """
    m = p.size
    if m == 0:
        return np.array([w])
    diff = p[:, None] - p[None, :]
    np.fill_diagonal(diff, np.inf)
    gap = np.abs(diff).min(axis=1)
    a = 0.5 * (w + (uv / diff).sum(axis=1) - p)
    s = np.sqrt(a * a + uv)
    s = np.where((a.conj() * s).real >= 0, s, -s)
    delta = -uv / (a + s)
    reach = np.abs(delta) / gap
    strong = np.argsort(-reach, kind="stable")[:_SECULAR_STRONG_MAX]
    strong = strong[reach[strong] > 0.5] if reach[strong[0]] > 0.5 else strong[:1]
    far = np.abs(delta) > 0.5 * gap
    delta[far] *= 0.5 * gap[far] / np.abs(delta[far])
    z = np.append(p + delta, w)
    k = strong.size
    sub = np.diag(np.append(p[strong], w))
    sub[:k, k] = uv[strong]
    sub[k, :k] = 1.0
    z[np.append(strong, m)] = np.linalg.eigvals(sub)
    return z


def _aberth(p, uv, w, sweeps):
    """All roots of the secular function at once by Aberth–Ehrlich sweeps,
    O(m^2) each; a root stops moving once its step is below 4 ulp of its
    magnitude or of the largest diagonal entry, the rounding floor of the
    function.  None when a step is not finite or the roots have not settled
    in ``sweeps``."""
    z = _secular_guesses(p, uv, w)
    floor = max(np.abs(p).max(initial=0.0), abs(w))
    active = np.arange(z.size)
    for _ in range(sweeps):
        za = z[active]
        D = za[:, None] - p
        q = uv / D
        f = za - w - q.sum(axis=1)
        # Newton step of the polynomial f * prod(lambda - p).
        newton = f / (1.0 + (q / D).sum(axis=1) + f * (1.0 / D).sum(axis=1))
        Z = za[:, None] - z
        Z[np.arange(active.size), active] = np.inf
        step = newton / (1.0 - newton * (1.0 / Z).sum(axis=1))
        if not np.all(np.isfinite(step)):
            return None
        z[active] = za - step
        active = active[np.abs(step) > 4.0 * np.finfo(float).eps * np.maximum(np.abs(za), floor)]
        if active.size == 0:
            return z
    return None


def _secular_eig(arrow):
    """Eigenvalues and unit eigenvectors of an arrowhead from its secular
    equation lambda - w - sum_k u_k v_k / (lambda - d_k) = 0, or None.

    Modes with both spokes zero decouple (eigenvalue d_k, vector e_k).  The
    roots come from :func:`_aberth` and two Newton steps written about the
    nearest pole, lambda = d_k + tau, so that every lambda - d_j is formed
    from exact pole differences; each eigenvector is then 1 at the tip and
    u_j / (lambda - d_j) elsewhere (Gu & Eisenstat, SIAM J. Matrix Anal.
    Appl. 16 (1995); O'Leary & Stewart, J. Comput. Phys. 90 (1990)).  None
    sends the caller to dense ``eig``: a mode with exactly one zero spoke,
    two coupled modes with the same diagonal, roots that do not settle in
    :data:`SECULAR_MAX_SWEEPS`, or a residual above
    :data:`SECULAR_RESIDUAL_MAX`.
    """
    c, t = arrow.diag.size, arrow.tip
    others = np.delete(np.arange(c), t)
    zero_col, zero_row = arrow.col[others] == 0, arrow.row[others] == 0
    if np.any(zero_col != zero_row):
        return None
    coupled = others[~zero_col]
    p = arrow.diag[coupled]
    uv = arrow.col[coupled] * arrow.row[coupled]
    w = arrow.diag[t]
    if np.unique(p).size < p.size:
        return None
    with np.errstate(all="ignore"):
        roots = _aberth(p, uv, w, SECULAR_MAX_SWEEPS)
        if roots is None:
            return None
        poles = np.append(p, w)
        origin = poles[np.argmin(np.abs(roots[:, None] - poles), axis=1)]
        tau = roots - origin
        base = origin[:, None] - p
        for _ in range(2):
            D = base + tau[:, None]
            q = uv / D
            tau = tau - ((origin - w) + tau - q.sum(axis=1)) / (1.0 + (q / D).sum(axis=1))
        D = base + tau[:, None]
        at = np.append(coupled, t)
        values = arrow.diag.copy()
        values[at] = origin + tau
        vectors = np.zeros((c, c), dtype=np.complex128)
        vectors[np.ix_(coupled, at)] = arrow.col[coupled][:, None] / D.T
        vectors[t, at] = 1.0
        vectors[:, at] /= np.linalg.norm(vectors[:, at], axis=0)
        decoupled = others[zero_col]
        vectors[decoupled, decoupled] = 1.0
        residual = np.linalg.norm(arrow @ vectors - vectors * values) / arrow.norm()
    if not residual <= SECULAR_RESIDUAL_MAX:
        return None
    return values, vectors


def _decouple(arrow, reflections, deflated):
    """Q W Q as an Arrowhead: the spokes reflected like rows of W, with the
    deflated modes' entries set to their exact value 0."""
    col, row = (_reflect_rows(s.copy()[:, None], reflections)[:, 0] for s in (arrow.col, arrow.row))
    col[deflated] = row[deflated] = 0.0
    return Arrowhead(arrow.diag, col, row, arrow.tip)


def _condition(core_vectors, core_inverse, core, reflections):
    """cond_1(V) = ||V||_1 ||V^-1||_1 of V = Q (V_core (+) I), from the core
    blocks and the reflections, without forming V.

    A group's first member (a core index) spreads over the group by the
    first column of H, its other members are the columns of H beyond the
    first; every other index keeps one entry per column."""
    weight = np.ones(core.size)
    inv_sums = np.abs(core_inverse).sum(axis=0)
    plain = np.ones(core.size, dtype=bool)
    norm_v = norm_inv = 0.0
    for idx, H in reflections:
        absH = np.abs(H)
        at = np.searchsorted(core, idx[:, 0])
        weight[at] = absH[:, 0].sum()
        plain[at] = False
        norm_v = max(norm_v, absH[:, 1:].sum(axis=0).max())
        norm_inv = max(norm_inv, (np.outer(inv_sums[at], absH[0]) + absH[1:].sum(axis=0)).max())
    norm_v = max(norm_v, (weight[:, None] * np.abs(core_vectors)).sum(axis=0).max())
    if plain.any():
        norm_inv = max(norm_inv, inv_sums[plain].max())
    return float(norm_v * norm_inv)


@dataclass(frozen=True)
class Eigenbasis:
    """W = V diag(values) V^-1 in factored form, V = Q (V_core (+) I).

    When W is an arrowhead, each group of k identical non-tip modes is
    mixed by a real orthogonal reflection Q = Q^T = Q^-1 (``reflections``)
    into one mode that couples to the tip (kept at the group's first index)
    and k - 1 modes that decouple exactly, with the group's diagonal entry
    as eigenvalue.  ``arrowhead`` is then Q W Q, the generator in deflated
    coordinates, and ``matrix`` is None.  The remaining ``core`` indices
    carry the eigenvectors ``core_vectors`` of Q W Q restricted to them,
    found from the core's secular equation (``core_method`` "secular") or by
    dense ``eig`` ("eig").  A W without that structure keeps ``matrix`` = W,
    Q = I, every index in the core and ``eig``.

    :meth:`rotate` maps a matrix between W's coordinates and the deflated
    ones (Y -> Q Y Q), where products with V touch only the core block, and
    ``q`` is this factorization with Q = I, which a W-coordinate function
    takes to read a deflated-coordinate matrix as its own.  ``path`` names
    the route the Lyapunov solve takes: "eigen" while ``usable``, else
    "fallback".

    ``condition`` is cond_1(V) = ||V||_1 ||V^-1||_1 of the full V in W's
    coordinates; it is inf (and ``core_inverse`` None) when V is
    numerically singular.
    """

    matrix: np.ndarray | None
    values: np.ndarray
    arrowhead: Arrowhead | None
    reflections: tuple
    core: np.ndarray
    core_vectors: np.ndarray
    core_inverse: np.ndarray | None
    condition: float
    core_method: str

    @property
    def usable(self):
        """Whether cond_1(V) admits the eigenbasis solves."""
        return self.condition <= EIGEN_COND_MAX

    @property
    def path(self):
        """The route of :func:`solve_lyapunov`: "eigen" while ``usable``,
        else "fallback" (the Schur solve)."""
        return "eigen" if self.usable else "fallback"

    @property
    def dim(self):
        return self.values.size

    @property
    def deflated_modes(self):
        """Number of modes split off exactly before the eigendecomposition."""
        return self.dim - self.core.size

    @property
    def q(self):
        """This factorization in deflated coordinates: the same arrays with
        Q = I, so that :meth:`rotate` is the identity; self when Q = I."""
        return replace(self, reflections=()) if self.reflections else self

    def rotate(self, Y, copy=True):
        """Q Y Q (Q = Q^T = Q^-1): a new array, or Y rotated in place when
        ``copy`` is False; Y itself when Q = I."""
        if not self.reflections:
            return np.asarray(Y, dtype=np.complex128)
        return _reflect(Y, self.reflections, copy=copy)

    @property
    def vectors(self):
        """V, formed on access."""
        V = np.eye(self.dim, dtype=np.complex128)
        V[np.ix_(self.core, self.core)] = self.core_vectors
        return _reflect(V, self.reflections, cols=False)

    @property
    def inverse(self):
        """V^-1, formed on access; None when V is singular."""
        if self.core_inverse is None:
            return None
        V_inv = np.eye(self.dim, dtype=np.complex128)
        V_inv[np.ix_(self.core, self.core)] = self.core_inverse
        return _reflect(V_inv, self.reflections, rows=False)

    def shifted(self, s):
        """A = Q W Q - s I in deflated coordinates: an Arrowhead when W is
        one, else the dense array W - s I (Q = I).  Every solve, screen and
        S of the basis passes through here, so a shift that is not finite
        raises ValueError here."""
        if not np.isfinite(s):
            raise ValueError(f"shift must be finite, got {s}")
        if self.arrowhead is None:
            return self.matrix - s * np.eye(self.dim)
        return self.arrowhead.shifted(s)

    def block_congruence(self, M, Y, copy=True):
        """B Y B^dag for B = M (+) I in deflated coordinates: M acts on the
        core indices and the identity on the decoupled others, as V and
        V^-1 do there.  A new array, or Y (complex) overwritten when
        ``copy`` is False.  M multiplies the core rows, then the core
        columns, in equal strips of at most about :data:`_BLOCK_BYTES`
        (one strip below it), so that the gathered block and its product
        stay small beside Y."""
        Z = np.array(Y, dtype=np.complex128) if copy else Y
        k = _as_index(self.core)
        parts = _even_strips(self.dim, 16 * self.core.size * self.dim / _BLOCK_BYTES)
        for c0, c1 in parts:
            Z[k, c0:c1] = M @ Z[k, c0:c1]
        for r0, r1 in parts:
            # Z M^dag = conj(conj(Z) M^T), so that no conjugate copy of M is
            # made.
            block = np.conjugate(Z[r0:r1, k]) @ M.T
            Z[r0:r1, k] = np.conjugate(block, out=block)
        return Z


def eigenbasis(W):
    """Diagonalize W: eigenvalues, eigenvectors V, V^-1 by LU, cond_1(V).

    The structure is read from W's entries: when W is an arrowhead, groups
    of exactly identical non-tip modes are deflated first and the core is
    solved from its secular equation, with dense ``eig`` as the fallback
    (see :class:`Eigenbasis` and :func:`_secular_eig`); otherwise W goes to
    ``eig`` whole.  The LU of V runs on the core only.  One factorization
    serves the Lyapunov solve at every shift, since W - s I has the
    eigenvectors of W.
    """
    W = _as_matrix(W, "W")
    d = W.shape[0]
    if W.shape[1] != d:
        raise ValueError("eigenbasis requires a square matrix")
    arrow = _arrowhead(W)
    if arrow is None:
        values, core_vectors = _eig(W)
        return _with_inverse(Eigenbasis(W, values, None, (), np.arange(d), core_vectors,
                                        None, np.inf, "eig"))
    groups = sorted(_identical_modes(arrow), key=lambda g: g[0])
    by_size = {}
    for g in groups:
        by_size.setdefault(g.size, []).append(g)
    reflections = tuple((np.array(gs), _reflector(k)) for k, gs in sorted(by_size.items()))
    deflated = [i for g in groups for i in g[1:]]
    core = np.setdiff1d(np.arange(d), deflated)
    arrow_q = _decouple(arrow, reflections, deflated)
    core_arrow = arrow_q.restricted(core)
    solved, method = _secular_eig(core_arrow), "secular"
    if solved is None:
        solved, method = _eig(np.asarray(core_arrow)), "eig"
    values = arrow.diag.copy()
    values[core] = solved[0]
    return _with_inverse(Eigenbasis(None, values, arrow_q, reflections, core, solved[1],
                                    None, np.inf, method))


def _with_inverse(basis):
    """The basis with V_core^-1 by LU and cond_1(V) of V = Q (V_core (+) I),
    when V is invertible."""
    # Only an exactly zero pivot marks V singular: a tiny one still gives
    # a finite cond_1(V), which ``usable`` weighs against EIGEN_COND_MAX.
    factors = _getrf(basis.core_vectors)
    if not np.abs(np.diag(factors[0])).min() > 0.0:
        return basis
    core_inverse = lu_solve(factors, np.eye(basis.core.size, dtype=np.complex128))
    condition = _condition(basis.core_vectors, core_inverse, basis.core, basis.reflections)
    if not np.isfinite(condition):
        return basis
    return replace(basis, core_inverse=core_inverse, condition=condition)


def solve_lyapunov(basis, C, shift, quotient=None):
    """Solve A X + X A^dag = -C for A = W - shift I from W's eigenbasis.

    While ``basis.usable``, with Y = V^-1 X V^-dag the equation is diagonal:
    X = V [(-V^-1 C V^-dag) / (l_i + conj(l_j))] V^dag, l = lambda - shift.
    One iterative-refinement pass follows only when the first pass's
    relative residual ||A X + X A^dag + C||_F / max(1, ||C||_F) is above
    :data:`REFINE_ABOVE` (:func:`_refine`, shared with
    :func:`solve_sylvester`); the reported residual is measured from the
    returned X either way.  The pencil-gap screen runs on all d eigenvalues
    and raises NearSingularPencil (tolerance ``PENCIL_GAP_TOL * ||A||_F``,
    as in :func:`solve_sylvester`) with the offending pair.  Above
    :data:`EIGEN_COND_MAX` (``basis.path`` "fallback") the dense A goes to
    the Schur solve of :func:`solve_sylvester` instead.

    ``quotient`` is the first pass's bracket at this shift from
    :func:`lyapunov_quotients`; the solve takes it over and forms X in it.
    Without it, the first pass and the refinement pass take their brackets
    from the same function's core.  It is read only on the eigen route,
    after the screen; one that is not d x d raises ValueError.

    C and X are in the basis's deflated coordinates: there products with V
    touch only the core block and products with A cost O(d^2).  The report
    holds the residual and the condition estimate; the route, cond_1(V) and
    the deflated-mode count are read from the basis.
    """
    C = _as_matrix(C, "C")
    d = basis.dim
    for name, M in (("C", C), ("quotient", quotient)):
        if M is not None and np.shape(M) != (d, d):
            raise ValueError(f"{name} must be {d}x{d}, got {np.shape(M)}")
    A = basis.shifted(shift)
    if not basis.usable:
        return solve_sylvester(np.asarray(A), C)
    cond = pencil_screen(basis, shift)

    def eig_solve(rhs, Y=None):
        # X = V Y V^dag for the bracket Y of rhs, written over Y.
        if Y is None:
            [Y] = _quotients(basis, rhs, (shift,))
        return basis.block_congruence(basis.core_vectors, Y, copy=False)

    X, residual = _refine(eig_solve, A, C, eig_solve(C, quotient))
    return X, SolveReport(residual_norm=residual, condition_estimate=cond)


def lyapunov_quotients(basis, C, shifts):
    """The bracket of :func:`solve_lyapunov`'s first pass at each of
    ``shifts``, (V^-1 C V^-dag) / -(l_i + conj(l_j)) with
    l = lambda - shift, from one congruence of C (deflated coordinates).
    Each is a new array but the last, which is divided in place of
    V^-1 C V^-dag; ``solve_lyapunov(basis, C, shift, quotient=...)`` takes
    one over, and its own first and refinement passes take their brackets
    from here too.  A basis that is not ``usable`` takes the Schur route,
    which has no bracket: each shift gets None.  The pencil is not screened here:
    a quotient at a shift whose screen fails may hold inf or nan, and its
    solve raises before reading it."""
    if not basis.usable:
        return [None for _ in shifts]
    with np.errstate(all="ignore"):
        return _quotients(basis, _as_matrix(C, "C"), shifts)


def _quotients(basis, C, shifts):
    """:func:`lyapunov_quotients` of a checked C on a usable basis.  It
    divides without a warning filter, so the screened passes of
    :func:`solve_lyapunov` still warn on an overflow or invalid value."""
    C_hat = basis.block_congruence(basis.core_inverse, C)
    quotients = [_pencil_divide(basis.values - s, C_hat, np.empty_like(C_hat))
                 for s in shifts[:-1]]
    quotients.append(_pencil_divide(basis.values - shifts[-1], C_hat, C_hat))
    return quotients


def pencil_screen(basis, shift):
    """The pencil screen of :func:`solve_lyapunov` for A = W - shift I
    from W's eigenbasis: the condition estimate ||A||_F / min
    |l_i + conj(l_j)|, or NearSingularPencil when that gap is below
    ``PENCIL_GAP_TOL * ||A||_F``."""
    return _pencil_condition(basis.values - shift, frobenius_norm(basis.shifted(shift)))


def frobenius_norm(A):
    """||A||_F of an Arrowhead (O(d)) or an array."""
    return A.norm() if isinstance(A, Arrowhead) else float(np.linalg.norm(A))


@dataclass
class ScatteringMatrix:
    """Asymptotic mode map S = (W^dag - z)(W - z)^(-1) of a factored W.

    S is held in the deflated coordinates of ``basis`` as
    diag(``diagonal``) + ``left`` @ ``right``, as :func:`adjoint_inverse`
    forms it and :func:`output_covariance` reads it: for an arrowhead W a
    d x 4 and a 4 x d factor, else S itself as ``right`` (``diagonal`` and
    ``left`` None), which takes plain numpy products.  ``matrix`` is S in
    the coordinates of ``basis``, and ``residual``,
    ||S A - A^dag||_F / ||A||_F for A = W - z, is S's one diagnostic; both
    are formed on first access and cached.  For the rank form the residual
    is taken a row strip at a time, so that no d x d temporary is made:
    S A - A^dag = B + left (right A) with the arrowhead B = Delta A - A^dag.
    """

    diagonal: np.ndarray | None
    left: np.ndarray | None
    right: np.ndarray
    basis: Eigenbasis
    z_used: complex

    @cached_property
    def matrix(self):
        S = np.array(self.right) if self.left is None else np.diag(self.diagonal) + self.left @ self.right
        return self.basis.rotate(S, copy=False)

    @cached_property
    def residual(self):
        A, diagonal = self.basis.shifted(self.z_used), self.diagonal
        if self.left is None:
            return float(np.linalg.norm(self.right @ A - np.asarray(A).conj().T) / frobenius_norm(A))
        d, total = self.basis.dim, 0.0
        D = A.diag
        B = Arrowhead(diagonal * D - D.conj(), diagonal * A.col - A.row.conj(),
                      diagonal[A.tip] * A.row - A.col.conj(), A.tip)
        M = self.right @ A
        for r0, r1 in _strips(d, d):
            # Rows r0:r1 of I times B.
            E = self.left[r0:r1] @ M + np.eye(r1 - r0, d, r0) @ B
            total += np.vdot(E, E).real
        return float(np.sqrt(total) / frobenius_norm(A))


def adjoint_inverse(basis, z):
    """S = A^dag A^-1 for A = Q W Q - z I, in the basis's deflated
    coordinates, as the :class:`ScatteringMatrix` diag(diagonal) +
    left @ right.

    When W is an arrowhead, A = D + U V^T with D = diag - z, U = [col, e_t]
    and V = [e_t, row], so A^dag = conj(D) + conj(V) U^dag and
    A^dag A^-1 = Delta + [Delta U, conj(V)] M A^-1 with Delta = conj(D) / D
    and M = [-V^T; U^dag].  The 4 x d right factor M A^-1 comes from
    Sherman-Morrison-Woodbury, M D^-1 - (M D^-1 U) K^-1 V^T D^-1 with the
    2 x 2 K = I + V^T D^-1 U (Golub & Van Loan, Matrix Computations,
    2.1.4): O(d) work and no eigenvectors.  A W without that structure, or
    an arrowhead whose D has an entry below ``PIVOT_TOL * max|A|``, gets
    the whole of A^dag A^-1 as ``right`` (``diagonal`` and ``left`` None)
    from the LU of :func:`linear_solve`; :func:`output_covariance` and
    ``ScatteringMatrix.residual`` take such an S in plain numpy, not a row
    strip at a time.

    Raises SingularMatrix when min |lambda_i - z| falls below
    ``PIVOT_TOL * max|A|`` (the pivot rule of :func:`lu`), or at a pivot
    of that LU.
    """
    A = basis.shifted(z)
    scale = A.abs_max() if isinstance(A, Arrowhead) else np.abs(A).max()
    _check_pivots(np.abs(basis.values - z), scale, "|lambda_{} - z|", "W - z")
    if not (isinstance(A, Arrowhead) and np.abs(A.diag).min() >= PIVOT_TOL * scale):
        A = np.asarray(A)
        return ScatteringMatrix(None, None, linear_solve(A.T, A.conj()).T, basis, complex(z))
    D, e_t = A.diag, np.eye(1, basis.dim, A.tip)[0]
    U, V = np.stack((A.col, e_t), axis=1), np.stack((e_t, A.row), axis=1)
    diagonal = D.conj() / D
    MD = np.vstack((-V.T, U.conj().T)) / D
    K = np.eye(2) + V.T @ (U / D[:, None])
    left = np.hstack((diagonal[:, None] * U, V.conj()))
    right = MD - (MD @ U) @ np.linalg.solve(K, V.T / D)
    return ScatteringMatrix(diagonal, left, right, basis, complex(z))


class _Congruence:
    """G = B X B^dag, read without forming G, for B = diag(``diagonal``) +
    ``left`` @ ``right`` (left d x k, right k x d).  G is
    Delta X conj(Delta) plus outer @ inner:

        B X B^dag = Delta X conj(Delta)
                    + [left, Delta X R^dag + left R X R^dag] [R X conj(Delta); left^dag]

    with R = ``right``, whose factors are d x 2k.  X's rows are read only
    by :meth:`rows`, so X may be overwritten a strip at a time once the
    vectors of G a caller needs are taken."""

    def __init__(self, diagonal, left, right, X):
        self.X, self.diagonal = X, diagonal
        XR = X @ right.conj().T
        self.diagonal_h = diagonal.conj()
        self.outer = np.hstack((left, diagonal[:, None] * XR + left @ (right @ XR)))
        self.inner = np.vstack(((right @ X) * self.diagonal_h, left.conj().T))

    def rows(self, r0, r1, out):
        """G[r0:r1], written into ``out``."""
        np.multiply(self.X[r0:r1], self.diagonal[r0:r1, None], out=out)
        out *= self.diagonal_h
        out += self.outer[r0:r1] @ self.inner
        return out

    def row(self, t):
        """G[t]."""
        g = self.outer[t] @ self.inner
        g += self.X[t] * self.diagonal[t] * self.diagonal_h
        return g

    def column(self, t):
        """G[:, t]."""
        g = self.outer @ self.inner[:, t]
        g += self.X[:, t] * self.diagonal * self.diagonal_h[t]
        return g

    def vector_times(self, v):
        """v^T G."""
        g = (v @ self.outer) @ self.inner
        g += _vector_times(v * self.diagonal, self.X) * self.diagonal_h
        return g

    def times(self, v):
        """G v."""
        g = self.outer @ (self.inner @ v)
        g += self.diagonal * (self.X @ (self.diagonal_h * v))
        return g


def output_covariance(A, X, S, C):
    """(Theta, ||C + A X + X A^dag||_F) with

        Theta = C + (A X + X A^dag) + (A^dag G + G A),  G = S X S^dag,

    for the :class:`ScatteringMatrix` S (:func:`adjoint_inverse`), Theta
    written over X.

    For S in its rank form, diag(diagonal) + left @ right with A an
    Arrowhead, G is never formed: each row strip of A^dag G + G A is made
    from that strip of G and G's tip row and column, conj(col)^T G and
    G col (:class:`_Congruence`, :meth:`Arrowhead.product_strips` of
    A^dag), and added to the same strip of C + A X + X A^dag (the strips of
    :func:`_residual`); the strip is written after X's rows are read, so
    besides Theta only strips and d x 8 arrays are made.  A whole S
    (``left`` None, ``right`` = S), with a dense or an Arrowhead A, forms
    G and the products in plain numpy."""
    diagonal, left, right = S.diagonal, S.left, S.right
    if left is None:
        R = C + (A @ X + X @ A.conj().T)
        G = right @ X @ right.conj().T
        np.add(R, A.conj().T @ G + G @ A, out=X)
        return X, float(np.linalg.norm(R))
    B = A.conj().T
    G = _Congruence(diagonal, left, right, X)
    t = A.tip
    g_spokes = (G.row(t), G.column(t), G.vector_times(B.row), G.times(B.row.conj()))
    strips = _strips(*X.shape)
    g_rows = _strip_buffer(strips, X.shape[1])
    k_strips = B.product_strips(lambda r0, r1: G.rows(r0, r1, g_rows[:r1 - r0]), g_spokes)
    r_strips = A.product_strips(lambda r0, r1: X[r0:r1], A.spokes(X))
    total = 0.0
    for (r0, r1, block), (_, _, k_block) in zip(r_strips, k_strips):
        block += C[r0:r1]
        total += np.vdot(block, block).real
        block += k_block
        X[r0:r1] = block
    return X, float(np.sqrt(total))


def antihermitian_norm(M):
    """||M - M^dag||_F, summed a row strip at a time with no d x d
    conjugate-transpose copy."""
    total = 0.0
    for r0, r1 in _strips(*M.shape):
        E = M[r0:r1] - M[:, r0:r1].T.conj()
        total += np.vdot(E, E).real
    return float(np.sqrt(total))


def abs_max(M):
    """max |M_ij|, taken a row strip at a time with no d x d temporary."""
    return max(float(np.abs(M[r0:r1]).max()) for r0, r1 in _strips(*M.shape))


def svd(M):
    """Singular values of M, nonincreasing, without the singular vectors.

    The iteration cap lives inside LAPACK; its failure surfaces as
    ConvergenceFailure.
    """
    M = _as_matrix(M, "M")
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


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
