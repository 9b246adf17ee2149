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
and tip-column entries are combined by a real orthogonal reflection Q: all
but one mode of each group decouple exactly (O'Leary & Stewart, J. Comput.
Phys. 90 (1990)).  The remaining core is an arrowhead whose eigenvalues are
the roots of its secular equation, found all at once in O(c^2) per sweep,
with eigenvectors in closed form (:func:`_secular_eig`); dense ``eig`` is
the fallback.  The solves run in deflated coordinates Q W Q, where products
with V touch only the core block and products with W - s cost O(d^2).  A W
without that structure is factored densely.
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

# A pivot below PIVOT_TOL * max|A| makes A singular (linear_solve,
# shifted_inverse, observables.wigner).
PIVOT_TOL = 1e-12
# A pair |lambda_i(A) + lambda_j(B)| below PENCIL_GAP_TOL * max(||A||_F,
# ||B||_F) makes a Sylvester pencil near-singular.
PENCIL_GAP_TOL = 1e-10


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
    such as a DynamicalMatrix, CovarianceMatrix or an Eigenbasis in W's
    coordinates) or of an array."""
    return np.asarray(getattr(mat_like, "matrix", mat_like), dtype=np.complex128)


def _as_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def linear_solve(A, B):
    """Solve A X = B by LU with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls below
    ``PIVOT_TOL * max|A|``.  The report carries the relative residual
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
    if scale == 0.0 or pivots.min() < PIVOT_TOL * scale:
        k = int(np.argmin(pivots)) if scale > 0 else 0
        raise SingularMatrix(
            f"pivot {pivots.min() if scale > 0 else 0.0:.3e} below tolerance "
            f"{PIVOT_TOL:.1e} * max|A|={scale:.3e} at index {k}"
        )
    X = lu_solve((lu, piv), B)

    b_norm = np.linalg.norm(B)
    residual = np.linalg.norm(A @ X - B) / b_norm if b_norm > 0 else 0.0
    cond = float(np.linalg.cond(A)) if n <= _COND_ESTIMATE_MAX_DIM else None
    return X, SolveReport(residual_norm=float(residual), condition_estimate=cond)


def _pencil_gap_check(eig_a, eig_b, norm_a, norm_b):
    tol = PENCIL_GAP_TOL * max(norm_a, norm_b, 1e-300)
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


def solve_sylvester(A, B, C, method="schur"):
    """Solve A X + X B = -C.

    method="schur" is Bartels–Stewart: complex Schur factorizations of A
    and B, the triangular solve by LAPACK trsyl
    (:func:`pairspec.kernels.sylvester_triangular`), plus one
    iterative-refinement pass; it serves any A and B, and is the fallback
    of the eigenbasis Lyapunov solve when cond_1(V) is too large.
    method="kron" is the reference path: the d^2 x d^2 Kronecker system
    solved densely (intended for small d).

    Raises NearSingularPencil when some |lambda_i(A) + lambda_j(B)| falls
    below ``PENCIL_GAP_TOL * max(||A||_F, ||B||_F)``; the offending pair is
    attached to the exception.
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

    if method == "kron":
        eig_a = np.linalg.eigvals(A)
        eig_b = np.linalg.eigvals(B)
        gap = _pencil_gap_check(eig_a, eig_b, norm_a, norm_b)
        big = np.kron(np.eye(q), A) + np.kron(B.T, np.eye(p))
        vec = np.linalg.solve(big, -C.flatten(order="F"))
        X = vec.reshape((p, q), order="F")
    elif method == "schur":
        TA, QA = schur(A, output="complex")
        TB, QB = schur(B, output="complex")
        eig_a = np.diag(TA)
        eig_b = np.diag(TB)
        gap = _pencil_gap_check(eig_a, eig_b, norm_a, norm_b)

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
    """Q Y in place: each group's reflection H mixes that group's rows."""
    for idx, H in reflections:
        members = [_as_index(idx[:, j]) for j in range(H.shape[0])]
        rows = [Y[m] for m in members]
        mixed = []
        for i in range(H.shape[0]):
            acc = H[i, 0] * rows[0]
            for j in range(1, H.shape[0]):
                acc += H[i, j] * rows[j]
            mixed.append(acc)
        for m, acc in zip(members, mixed):
            Y[m] = acc
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

    When W is an arrowhead (``arrowhead`` is set), each group of k identical
    non-tip modes is reflected by Q into one mode that couples to the tip
    (kept at the group's first index) and k - 1 modes that decouple exactly,
    with the group's diagonal entry as eigenvalue.  The remaining ``core``
    indices carry the eigenvectors ``core_vectors`` of Q W Q restricted to
    them, found from the core's secular equation (``core_method`` "secular")
    or by dense ``eig`` ("eig").  A W without that structure has Q = I,
    every index in the core and ``eig``.

    ``deflated`` is the same factorization in the coordinates of Q W Q,
    where the deflated modes are decoupled and V is V_core (+) I; it is None
    when Q = I.  Its ``matrix`` is None: Q W Q is held as its arrowhead.
    ``q`` gives whichever basis works in deflated coordinates and
    :meth:`rotate` maps matrices between the two (Y -> Q Y Q).  Products with
    V touch only the core block.

    ``condition`` is cond_1(V) = ||V||_1 ||V^-1||_1 of the full V in W's
    coordinates (shared by ``deflated``); it is inf (and ``core_inverse``
    None) when V is numerically singular.
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
    deflated: "Eigenbasis | None" = None

    @property
    def usable(self):
        """Whether cond_1(V) admits the eigenbasis solves."""
        return self.condition <= EIGEN_COND_MAX

    @property
    def dim(self):
        return self.values.size

    @property
    def deflated_modes(self):
        """Number of modes split off exactly before the eigendecomposition."""
        return self.dim - self.core.size

    @property
    def q(self):
        """The basis in deflated coordinates: ``deflated``, or self when Q = I."""
        return self if self.deflated is None else self.deflated

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
        """A = W - s I: an Arrowhead when W is one, else a dense array."""
        if self.arrowhead is None:
            return self.matrix - s * np.eye(self.dim)
        return self.arrowhead.shifted(s)

    def lyapunov(self, X, shift):
        """A X + X A^dag for A = W - shift I."""
        A = self.shifted(shift)
        if self.arrowhead is None:
            return A @ X + X @ A.conj().T
        return A.lyapunov(X)

    def block_congruence(self, M, Y, rest=None):
        """B Y B^dag for B = M (+) diag(rest) in deflated coordinates: M acts
        on the core indices, the diagonal ``rest`` (default ones) on the
        others.  Every function of Q W Q has this form, since the deflated
        modes are decoupled there.  A new array."""
        k = self.core
        if k.size == self.dim:
            return M @ Y @ M.conj().T
        Z = np.array(Y, dtype=np.complex128)
        Z[k] = M @ Z[k]
        Z[:, k] = Z[:, k] @ M.conj().T
        if rest is not None:
            others = np.setdiff1d(np.arange(self.dim), k)
            Z[others] *= rest[others, None]
            Z[:, others] *= rest[others].conj()
        return Z

    def to_eigen(self, C):
        """V^-1 C V^-dag, for C in deflated coordinates."""
        return self.block_congruence(self.core_inverse, C)

    def from_eigen(self, Y):
        """V Y V^dag, in deflated coordinates."""
        return self.block_congruence(self.core_vectors, Y)


def eigenbasis(W):
    """Diagonalize W: eigenvalues, eigenvectors V, V^-1 by LU, cond_1(V).

    The structure is read from W's entries: when W is an arrowhead, groups
    of exactly identical non-tip modes are deflated first and the core is
    solved from its secular equation, with dense ``eig`` as the fallback
    (see :class:`Eigenbasis` and :func:`_secular_eig`); otherwise W goes to
    ``eig`` whole.  The LU of V runs on the core only.  One factorization
    serves the Lyapunov solve and the shifted inverse at every shift, since
    W - s I has the eigenvectors of W.
    """
    W = _as_matrix(W, "W")
    d = W.shape[0]
    if W.shape[1] != d:
        raise ValueError("eigenbasis requires a square matrix")
    arrow = _arrowhead(W)
    if arrow is None:
        values, core_vectors = _eig(W)
        return _with_inverse(Eigenbasis(W, values, None, (), np.arange(d), core_vectors,
                                        None, np.inf, "eig"), ())
    groups = sorted(_identical_modes(arrow), key=lambda g: g[0])
    by_size = {}
    for g in groups:
        by_size.setdefault(g.size, []).append(g)
    reflections = tuple((np.array(gs), _reflector(k)) for k, gs in sorted(by_size.items()))
    deflated = [i for g in groups for i in g[1:]]
    core = np.setdiff1d(np.arange(d), deflated)
    arrow_q = _decouple(arrow, reflections, deflated)
    core_arrow = Arrowhead(arrow_q.diag[core], arrow_q.col[core], arrow_q.row[core],
                           int(np.searchsorted(core, arrow.tip)))
    solved, method = _secular_eig(core_arrow), "secular"
    if solved is None:
        solved, method = _eig(np.asarray(core_arrow)), "eig"
    values = arrow.diag.copy()
    values[core] = solved[0]
    inner = _with_inverse(Eigenbasis(None, values, arrow_q, (), core, solved[1], None,
                                     np.inf, method), reflections)
    if not reflections:
        return replace(inner, matrix=W)
    return replace(inner, matrix=W, arrowhead=arrow, reflections=reflections, deflated=inner)


def _with_inverse(basis, reflections):
    """The basis with V_core^-1 by LU and cond_1(V) of V = Q (V_core (+) I),
    Q given by ``reflections``, when V is invertible."""
    with warnings.catch_warnings():
        # A singular V is detected from the pivots below.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(basis.core_vectors)
    if not np.abs(np.diag(lu)).min() > 0.0:
        return basis
    core_inverse = lu_solve((lu, piv), np.eye(basis.core.size, dtype=np.complex128))
    condition = _condition(basis.core_vectors, core_inverse, basis.core, reflections)
    if not np.isfinite(condition):
        return basis
    return replace(basis, core_inverse=core_inverse, condition=condition)


def _require_usable(basis):
    if basis.core_inverse is None:
        raise ValueError("eigenbasis has a singular eigenvector matrix")


def solve_lyapunov_eigen(basis, C, shift):
    """Solve A X + X A^dag = -C for A = W - shift I from W's eigenbasis.

    With Y = V^-1 X V^-dag the equation is diagonal:
    X = V [(-V^-1 C V^-dag) / (l_i + conj(l_j))] V^dag, l = lambda - shift.
    One iterative-refinement pass, as in :func:`solve_sylvester`, follows
    only when the first pass's relative residual
    ||A X + X A^dag + C||_F / max(1, ||C||_F) is above
    :data:`REFINE_ABOVE`; the reported residual is measured from the
    returned X either way.
    The solve runs in deflated coordinates (C is rotated in and X out once),
    where products with V touch only the core block and products with A
    cost O(d^2).  The pencil-gap screen runs on all d eigenvalues and raises
    NearSingularPencil (tolerance ``PENCIL_GAP_TOL * ||A||_F``, as in
    :func:`solve_sylvester`) with the offending pair.  The caller checks
    ``basis.usable`` first.
    """
    _require_usable(basis)
    C = _as_matrix(C, "C")
    d = basis.dim
    if C.shape != (d, d):
        raise ValueError(f"C must be {d}x{d}, got {C.shape}")
    if basis.deflated is not None:
        X, report = solve_lyapunov_eigen(basis.deflated, basis.rotate(C), shift)
        return basis.rotate(X, copy=False), report
    lam = basis.values - shift
    norm_a = frobenius_norm(basis.shifted(shift))
    gap = _pencil_gap_check(lam, lam.conj(), norm_a, norm_a)
    denom = lam[:, None] + lam.conj()[None, :]

    def eig_solve(rhs):
        return basis.from_eigen(basis.to_eigen(rhs) / -denom)

    c_norm = max(1.0, np.linalg.norm(C))
    X = eig_solve(C)
    R = basis.lyapunov(X, shift) + C
    residual = np.linalg.norm(R) / c_norm
    if not residual <= REFINE_ABOVE:
        X = X + eig_solve(R)
        residual = np.linalg.norm(basis.lyapunov(X, shift) + C) / c_norm
    cond = norm_a / gap if gap > 0 else np.inf
    return X, SolveReport(residual_norm=float(residual), condition_estimate=float(cond))


def frobenius_norm(A):
    """||A||_F of an Arrowhead (O(d)) or an array."""
    return A.norm() if isinstance(A, Arrowhead) else float(np.linalg.norm(A))


def shifted_inverse(basis, z):
    """(W - z I)^-1 = V diag(1 / (lambda - z)) V^-1 from W's eigenbasis.

    Raises SingularMatrix when min |lambda_i - z| falls below
    ``PIVOT_TOL * max|W - z I|`` (the pivot rule of :func:`linear_solve`).
    The caller checks ``basis.usable`` first.
    """
    _require_usable(basis)
    if basis.deflated is not None:
        return basis.rotate(shifted_inverse(basis.deflated, z), copy=False)
    A = basis.shifted(z)
    scale = A.abs_max() if isinstance(A, Arrowhead) else np.abs(A).max()
    dist = np.abs(basis.values - z)
    k = int(np.argmin(dist))
    if scale == 0.0 or dist[k] < PIVOT_TOL * scale:
        raise SingularMatrix(
            f"|lambda_{k} - z| = {dist[k]:.3e} below tolerance "
            f"{PIVOT_TOL:g} * max|W - z|={scale:.3e}"
        )
    core = basis.core
    inv = np.diag(1.0 / (basis.values - z))
    inv[np.ix_(core, core)] = (basis.core_vectors / (basis.values[core] - z)) @ basis.core_inverse
    return inv


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
