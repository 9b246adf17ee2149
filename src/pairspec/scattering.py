"""Core pipeline: time-integrated covariance, scattering matrix, and the
input->output covariance map.

Everything is evaluated at a real regularization epsilon > 0: the generator
W is shifted to W - eps*I in the Lyapunov solve, in the scattering matrix,
and in the output assembly, so the algebraic identity between the full and
reduced forms of the output map holds exactly at the working epsilon.

Both solves run in the eigenbasis of W (:func:`pairspec.numkit.eigenbasis`),
which serves every shift.  Each public solve factors the matrix of the W it
is given, or takes a ``numkit.Eigenbasis`` of W in its place: a caller that
solves one W more than once (a run and its eps/2 check) factors it once and
passes the basis.  The cavity model's W is an arrowhead: equal signal/idler
modes (and identical materials) are deflated exactly by a reflection Q, and
the remaining core is solved from its secular equation.  The solves work in
deflated coordinates Q W Q, where the deflated modes are decoupled, products
with V touch only the core block and every product with W - eps costs
O(d^2).  ``time_integrated_covariance`` rotates its input in and its result
out.  The scattering matrix, like every function of W there, is a c x c
core block plus a diagonal, and a :class:`ScatteringMatrix` keeps it in
that form; its ``matrix`` is formed only when it is read.  ``propagate``
rotates Theta_in in and keeps its results in deflated coordinates: a
:class:`PropagationResult` rotates ``theta_out``, ``theta_tilde_in`` and
``scattering`` out on first access, so a caller pays only for the matrices
it reads.  The solves are ``numkit.solve_lyapunov`` and
``numkit.shifted_inverse``, and each picks its own route: when cond_1(V)
is too large (near an exceptional point) they run the Schur solve and the
LU inverse of the core instead, still in deflated coordinates.  The route,
cond_1(V) and the number of deflated modes are the basis's
(``Eigenbasis.path``, ``.condition``, ``.deflated_modes``); the Lyapunov
report holds the solve's residual, and the ScatteringMatrix S's.  Residuals
are measured in deflated coordinates, which Q leaves unchanged up to
rounding.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numkit
from .errors import NearSingularPencil
from .model import BlockLayout, DynamicalMatrix, FrequencyGrid
from .states import CovarianceMatrix, JointSpectralAmplitude

# Default regularization (meV), and the one a solve at epsilon = 0 retries at
# when the pencil is singular; every solve records whether it fired.
DEFAULT_EPSILON = 1e-3


@dataclass
class ScatteringMatrix:
    """Asymptotic mode map S = (W^dag - z)(W - z)^(-1) of a factored W.

    S is held as every function of W is in deflated coordinates: the c x c
    ``core_block`` on ``basis.core`` plus ``diagonal``, read on the
    deflated modes (``numkit.Eigenbasis.block_congruence``).  ``matrix`` is
    S in the coordinates of ``basis``, formed on first access and cached.
    ``residual``, ||S A - A^dag||_F / ||A||_F for A = W - z, is S's one
    diagnostic.
    """

    core_block: np.ndarray
    diagonal: np.ndarray
    basis: numkit.Eigenbasis
    z_used: complex
    residual: float

    @cached_property
    def matrix(self):
        return self.basis.full(self.core_block, self.diagonal)


@dataclass
class PropagationResult:
    """One propagation, held in the deflated coordinates of ``basis``.

    ``theta_out_q`` and ``theta_tilde_in_q`` are Q Y Q of Theta_out and X
    (Q = ``basis.rotate``; Q = I when nothing deflates), and
    ``scattering_q`` is S with its ``matrix`` in those coordinates.  Q is
    real orthogonal, so Frobenius norms, log|det| and the hermiticity
    defect read the same there.  ``theta_out``, ``theta_tilde_in`` and
    ``scattering`` are the same matrices in W's coordinates, rotated out on
    first access and cached; the two covariances are CovarianceMatrix objects
    when the input or W carries a block ``layout``.

    ``lyapunov`` is the Lyapunov solve's report (its residual, condition
    estimate and whether it was regularized); the route, cond_1(V) and the
    deflated-mode count are ``basis``'s, and S's residual is
    ``scattering_q.residual``.
    """

    theta_out_q: np.ndarray
    theta_tilde_in_q: np.ndarray
    scattering_q: ScatteringMatrix
    basis: numkit.Eigenbasis
    layout: BlockLayout | None
    grid: FrequencyGrid | None
    epsilon_used: float
    lyapunov: numkit.SolveReport
    identity_gap: float
    hermiticity_defect: float

    def _covariance(self, Y):
        Y = self.basis.rotate(Y)
        if self.layout is None:
            return Y
        return CovarianceMatrix(matrix=Y, layout=self.layout, grid=self.grid)

    @cached_property
    def theta_out(self):
        return self._covariance(self.theta_out_q)

    @cached_property
    def theta_tilde_in(self):
        return self._covariance(self.theta_tilde_in_q)

    @cached_property
    def scattering(self):
        return replace(self.scattering_q, basis=self.basis)


def _eigenbasis(W):
    """W itself when it is a ``numkit.Eigenbasis``, else the factorization
    of its matrix (a DynamicalMatrix or an array)."""
    if isinstance(W, numkit.Eigenbasis):
        return W
    return numkit.eigenbasis(numkit.matrix_of(W))


def regularized_epsilon(W, epsilon):
    """The shift a solve at ``epsilon`` runs at: ``epsilon`` itself, or
    ``DEFAULT_EPSILON`` when epsilon = 0 meets a near-singular pencil in
    ``numkit.pencil_screen`` (the eigenbasis solve's screen, run on W's
    eigenvalues on either path).  W is as in
    :func:`time_integrated_covariance`."""
    if epsilon != 0.0:
        return epsilon
    try:
        numkit.pencil_screen(_eigenbasis(W), 0.0)
    except NearSingularPencil:
        return DEFAULT_EPSILON
    return epsilon


def time_integrated_covariance(W, theta_in, epsilon):
    """Solve (W - eps) X + X (W - eps)^dag = -Theta_in.

    X is the all-time integral of the input correlations evaluated at the
    regularized Laplace point, solved by ``numkit.solve_lyapunov`` (the
    eigenbasis of W, or the Schur path when cond_1(V) is too large) in
    deflated coordinates: Theta_in is rotated in and X out.  If
    epsilon = 0 meets a singular pencil (the generic case: W's spectrum is
    near-imaginary), the solve runs at ``DEFAULT_EPSILON`` instead
    (:func:`regularized_epsilon`) and flags the report as regularized.

    W may be a DynamicalMatrix, an array or a ``numkit.Eigenbasis`` of W;
    theta_in and X are in W's coordinates.
    Returns (X, SolveReport); X is a CovarianceMatrix when theta_in is one.
    """
    basis = _eigenbasis(W)
    theta_q = basis.rotate(numkit.matrix_of(theta_in))
    eff_eps = regularized_epsilon(basis, epsilon)
    X, report = numkit.solve_lyapunov(basis, theta_q, eff_eps)
    report.regularized = eff_eps != epsilon
    X = basis.rotate(X, copy=False)
    if isinstance(theta_in, CovarianceMatrix):
        X = CovarianceMatrix(matrix=X, layout=theta_in.layout, grid=theta_in.grid)
    return X, report


def scattering_matrix(W, z):
    """S = (W^dag - z)(W - z)^(-1) = (W^dag - z) V (Lambda - z)^(-1) V^(-1).

    Formed in deflated coordinates as a core block and a diagonal (see
    :class:`ScatteringMatrix`): the core block is A_c^dag (W - z)^-1_c on
    the core, with (W - z)^-1 from ``numkit.shifted_inverse`` on either
    route, and each deflated mode gets s_k = conj(l_k) / l_k,
    l_k = lambda_k - z.  Raises SingularMatrix when (W - z) is singular at
    the requested z (min |lambda_i - z| below
    ``numkit.PIVOT_TOL * max|W - z|``, or a pivot of the fallback's LU);
    the caller is expected to retry with an epsilon shift.  Returns the
    :class:`ScatteringMatrix`, whose ``residual``
    ||S A - A^dag||_F / ||A||_F for A = W - z, taken blockwise, is S's one
    diagnostic.
    """
    basis = _eigenbasis(W)
    A = basis.core_shifted(z)
    A_h = A.conj().T
    lam = basis.values - z
    inverse, diagonal = numkit.shifted_inverse(basis, z)
    core_block = A_h @ inverse
    diagonal = lam.conj() * diagonal
    R = core_block @ A
    R -= np.asarray(A_h)
    r_rest = diagonal * lam - lam.conj()
    r_rest[basis.core] = 0.0
    residual = float(np.hypot(np.linalg.norm(R), np.linalg.norm(r_rest))
                     / numkit.frobenius_norm(basis.shifted(z)))
    return ScatteringMatrix(core_block=core_block, diagonal=diagonal, basis=basis,
                            z_used=complex(z), residual=residual)


def propagate(theta_in, W, epsilon=DEFAULT_EPSILON):
    """Map the input covariance to the output covariance.

    Output assembly (all operators at the shared regularized shift
    A = W - eps):

        Theta_out = X A^dag + A X + (S X S^dag) A + A^dag (S X S^dag) + Theta_in

    with X the time-integrated input covariance and S the scattering matrix
    at z = eps.  The algebraically reduced form
    Theta_out = (S X S^dag) A + A^dag (S X S^dag) follows by substituting the
    Lyapunov identity; their relative gap, ||A X + X A^dag + Theta_in|| over
    ||Theta_out|| with A X + X A^dag formed anew from X, is recorded as a
    diagnostic (it measures nothing but the solver residual).

    Everything runs in deflated coordinates (``numkit.Eigenbasis.q``):
    Theta_in is rotated in once and the result keeps X, S and Theta_out
    there; its ``theta_out``, ``theta_tilde_in`` and ``scattering`` rotate
    them out on first access (see :class:`PropagationResult`).  There every
    product with A costs O(d^2): A X + X A^dag and A^dag G + G A are one
    ``numkit.lyapunov_product`` pass each.  S is a core block plus a
    diagonal on either route, so G = S X S^dag costs a quarter of two dense
    products.  (Forming it as A^dag (R X R^dag) A with
    R = (W - eps)^-1 would lose cond(A) digits when an eigenvalue of W lies
    near eps.)
    """
    theta_mat = numkit.matrix_of(theta_in)
    basis = _eigenbasis(W)
    theta_q = basis.rotate(theta_mat)

    # The two public solves take W-coordinate matrices; basis.q (Q = I)
    # makes them read the deflated-coordinate ones as their own.
    q = basis.q
    X, lyap_report = time_integrated_covariance(q, theta_q, epsilon)
    eff_eps = DEFAULT_EPSILON if lyap_report.regularized else epsilon
    smat = scattering_matrix(q, eff_eps)
    A = basis.shifted(eff_eps)

    # The working set peaks here, at X, G and one congruence temporary; the
    # four products of A are then added into Theta_out a row strip at a
    # time, and rotate() has already copied Theta_in when Q != I.
    G = basis.block_congruence(smat.core_block, X, smat.diagonal)
    theta_out = theta_q if basis.reflections else np.array(theta_q, dtype=np.complex128)
    del theta_q
    numkit.lyapunov_product(A, X, out=theta_out)
    gap_norm = np.linalg.norm(theta_out)
    numkit.lyapunov_product(A.conj().T, G, out=theta_out)
    del G
    out_norm = np.linalg.norm(theta_out)
    identity_gap = float(gap_norm / out_norm) if out_norm > 0 else 0.0
    defect = np.conjugate(theta_out.T, out=np.empty_like(theta_out))
    np.subtract(theta_out, defect, out=defect)
    herm = float(np.linalg.norm(defect) / out_norm if out_norm > 0 else 0.0)
    del defect

    layout = getattr(theta_in, "layout", None)
    grid = getattr(theta_in, "grid", None)
    if layout is None and isinstance(W, DynamicalMatrix):
        layout = W.layout
        grid = W.grid

    return PropagationResult(
        theta_out_q=theta_out,
        theta_tilde_in_q=X,
        scattering_q=smat,
        basis=basis,
        layout=layout,
        grid=grid,
        epsilon_used=float(eff_eps),
        lyapunov=lyap_report,
        identity_gap=identity_gap,
        hermiticity_defect=herm,
    )


def extract_output_jsa(theta):
    """Signal-idler block of a covariance matrix as a (raw, unnormalized)
    joint spectral amplitude."""
    if not isinstance(theta, CovarianceMatrix):
        raise TypeError("extract_output_jsa needs a CovarianceMatrix with block layout")
    if theta.grid is None:
        raise ValueError("covariance matrix carries no frequency grid")
    block = theta.matrix[theta.layout.signal, theta.layout.idler]
    return JointSpectralAmplitude(theta.grid, block)
