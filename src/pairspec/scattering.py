"""Core pipeline: time-integrated covariance, scattering matrix, and the
input->output covariance map.

Everything is evaluated at a real regularization epsilon > 0: the generator
W is shifted to W - eps*I in the Lyapunov solve, in the scattering matrix,
and in the output assembly, so the algebraic identity between the full and
reduced forms of the output map holds exactly at the working epsilon.

Each public solve factors the matrix of the W it is given
(:func:`pairspec.numkit.eigenbasis`), or takes a ``numkit.Eigenbasis`` of W
in its place: a caller that solves one W more than once (a run and its
eps/2 check) factors it once and passes the basis.  The cavity model's W is
an arrowhead: equal signal/idler modes (and identical materials) are
deflated exactly by a reflection Q, and the remaining core is solved from
its secular equation.  The solves work in deflated coordinates Q W Q, where
the deflated modes are decoupled, products with V touch only the core block
and every product with W - eps costs O(d^2).  ``time_integrated_covariance``
rotates its input in and its result out.

The Lyapunov solve is ``numkit.solve_lyapunov``: in W's eigenbasis, or by
the Schur solve when cond_1(V) is too large (near an exceptional point);
numkit alone picks that route.  The scattering matrix needs no
eigenvectors: W - eps is an arrowhead there, a diagonal plus a rank-2
term, so S is a diagonal plus a rank-4 term, which
``numkit.adjoint_inverse`` returns as a ``numkit.ScatteringMatrix``
(re-exported here as :class:`ScatteringMatrix`); its ``matrix`` and
residual are formed only when they are read, and this module never reads
its factors.
``propagate`` rotates Theta_in in, forms the Lyapunov residual
Theta_in + A X + X A^dag and A^dag G + G A for G = S X S^dag a row strip
at a time and writes their sum over X (``numkit.output_covariance``; G is
never formed), and keeps its results in deflated coordinates: a
:class:`PropagationResult` rotates ``theta_out`` and ``scattering`` out,
and forms its identity gap and hermiticity defect, on first access, so a
caller pays only for what it reads.  X itself is what
:func:`time_integrated_covariance` returns.  The Lyapunov route,
cond_1(V) and the number of deflated modes are the basis's
(``Eigenbasis.path``, ``.condition``, ``.deflated_modes``); the Lyapunov
report holds the solve's residual, and the ScatteringMatrix S's.
Residuals are measured in deflated coordinates, which Q leaves unchanged
up to rounding.
"""

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numkit
from .errors import NearSingularPencil
from .model import BlockLayout, DynamicalMatrix, FrequencyGrid
from .numkit import ScatteringMatrix
from .states import CovarianceMatrix, JointSpectralAmplitude

# Default regularization (meV), and the one a solve at epsilon = 0 retries at
# when the pencil is singular; every solve records whether it fired.
DEFAULT_EPSILON = 1e-3


@dataclass
class PropagationResult:
    """One propagation, held in the deflated coordinates of ``basis``.

    ``theta_out_q`` is Q Theta_out Q (Q = ``basis.rotate``; Q = I when
    nothing deflates), and ``scattering_q`` is S with its ``matrix`` in
    those coordinates.  Q is real orthogonal, so Frobenius norms, log|det|
    and the hermiticity defect read the same there.  ``theta_out`` and
    ``scattering`` are the same matrices in W's coordinates, rotated out on
    first access and cached; ``theta_out`` is a CovarianceMatrix when the
    input or W carries a block ``layout``.

    ``lyapunov`` is the Lyapunov solve's report (its residual, condition
    estimate and whether it was regularized); the route, cond_1(V) and the
    deflated-mode count are ``basis``'s, and S's residual is
    ``scattering_q.residual``.  ``identity_gap`` (from ``gap_norm``,
    ||A X + X A^dag + Theta_in||_F) and ``hermiticity_defect`` are formed
    on first access, so a caller that reads only Theta_out pays for neither.
    """

    theta_out_q: np.ndarray
    scattering_q: ScatteringMatrix
    basis: numkit.Eigenbasis
    layout: BlockLayout | None
    grid: FrequencyGrid | None
    epsilon_used: float
    lyapunov: numkit.SolveReport
    gap_norm: float

    @cached_property
    def theta_out(self):
        Y = self.basis.rotate(self.theta_out_q)
        if self.layout is None:
            return Y
        return CovarianceMatrix(matrix=Y, layout=self.layout, grid=self.grid)

    @cached_property
    def scattering(self):
        return replace(self.scattering_q, basis=self.basis)

    @cached_property
    def _out_norm(self):
        return float(np.linalg.norm(self.theta_out_q))

    @cached_property
    def identity_gap(self):
        """||A X + X A^dag + Theta_in||_F / ||Theta_out||_F."""
        return self.gap_norm / self._out_norm if self._out_norm > 0 else 0.0

    @cached_property
    def hermiticity_defect(self):
        """||Theta_out - Theta_out^dag||_F / ||Theta_out||_F."""
        if self._out_norm == 0:
            return 0.0
        return numkit.antihermitian_norm(self.theta_out_q) / self._out_norm


def _eigenbasis(W):
    """W itself when it is a ``numkit.Eigenbasis``, else the factorization
    of its matrix (a DynamicalMatrix or an array)."""
    if isinstance(W, numkit.Eigenbasis):
        return W
    return numkit.eigenbasis(numkit.matrix_of(W))


def _deflated(W, theta_in):
    """(basis, theta_q): W's factorization, as :func:`_eigenbasis` gives it,
    and the matrix of ``theta_in`` rotated into its deflated coordinates;
    ValueError unless that matrix is d x d for W's d."""
    basis = _eigenbasis(W)
    theta = numkit.matrix_of(theta_in)
    if theta.shape != (basis.dim, basis.dim):
        raise ValueError(f"theta_in has shape {theta.shape}, but W is {basis.dim}x{basis.dim}")
    return basis, basis.rotate(theta)


def regularized_epsilon(W, epsilon):
    """The shift a solve at ``epsilon`` runs at: ``epsilon`` itself, or
    ``DEFAULT_EPSILON`` when epsilon = 0 meets a near-singular pencil in
    ``numkit.pencil_screen`` (the eigenbasis solve's screen, run on W's
    eigenvalues on either path).  W is as in
    :func:`time_integrated_covariance`.  An epsilon that is not real (a
    bool included, which Python counts as one), or is finite and negative,
    raises ValueError; one that is not finite is left to
    ``Eigenbasis.shifted``, which refuses every such shift."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real) or -np.inf < epsilon < 0:
        raise ValueError(f"epsilon must be a real number >= 0, got {epsilon!r}")
    if epsilon != 0.0:
        return epsilon
    try:
        numkit.pencil_screen(_eigenbasis(W), 0.0)
    except NearSingularPencil:
        return DEFAULT_EPSILON
    return epsilon


def time_integrated_covariance(W, theta_in, epsilon, *, quotient=None):
    """Solve (W - eps) X + X (W - eps)^dag = -Theta_in.

    X is the all-time integral of the input correlations evaluated at the
    regularized Laplace point, solved by ``numkit.solve_lyapunov`` (the
    eigenbasis of W, or the Schur path when cond_1(V) is too large) in
    deflated coordinates: Theta_in is rotated in and X out.  If
    epsilon = 0 meets a singular pencil (the generic case: W's spectrum is
    near-imaginary), the solve runs at ``DEFAULT_EPSILON`` instead
    (:func:`regularized_epsilon`) and flags the report as regularized.

    W may be a DynamicalMatrix, an array or a ``numkit.Eigenbasis`` of W;
    theta_in and X are in W's coordinates.  ``quotient`` goes to
    ``numkit.solve_lyapunov``: the first pass's bracket from
    ``numkit.lyapunov_quotients`` at the shift the solve runs at (in
    deflated coordinates, so a caller that passes it passes ``basis.q``),
    which X is formed in.  A theta_in that is not d x d for W's d, or an
    epsilon that is not a real number at least 0, raises ValueError, as
    does a shift that is not finite.  Returns (X, SolveReport); X is a
    CovarianceMatrix when theta_in is one.
    """
    basis, theta_q = _deflated(W, theta_in)
    eff_eps = regularized_epsilon(basis, epsilon)
    X, report = numkit.solve_lyapunov(basis, theta_q, eff_eps, quotient)
    report.regularized = eff_eps != epsilon
    X = basis.rotate(X, copy=False)
    if isinstance(theta_in, CovarianceMatrix):
        X = CovarianceMatrix(matrix=X, layout=theta_in.layout, grid=theta_in.grid)
    return X, report


def scattering_matrix(W, z):
    """S = (W^dag - z)(W - z)^(-1).

    Formed in deflated coordinates and returned by
    ``numkit.adjoint_inverse``: for an arrowhead W, S = Delta + L R with
    Delta = conj(D) / D for the diagonal D of W - z, L d x 4 and R 4 x d,
    by Sherman-Morrison-Woodbury; otherwise whole, from the LU of
    ``numkit.linear_solve``.  Raises SingularMatrix
    when (W - z) is singular at the requested z (min |lambda_i - z| below
    ``numkit.PIVOT_TOL * max|W - z|``, or a pivot of that LU); the caller
    is expected to retry with an epsilon shift.  Returns the
    :class:`ScatteringMatrix`, whose ``residual``
    ||S A - A^dag||_F / ||A||_F for A = W - z is S's one diagnostic.
    """
    return numkit.adjoint_inverse(_eigenbasis(W), z)


def propagate(theta_in, W, epsilon=DEFAULT_EPSILON, *, quotient=None):
    """Map the input covariance to the output covariance.

    Output assembly (all operators at the shared regularized shift
    A = W - eps):

        Theta_out = X A^dag + A X + (S X S^dag) A + A^dag (S X S^dag) + Theta_in

    with X the time-integrated input covariance and S the scattering matrix
    at z = eps.  The algebraically reduced form
    Theta_out = (S X S^dag) A + A^dag (S X S^dag) follows by substituting the
    Lyapunov identity; their relative gap, ||A X + X A^dag + Theta_in|| over
    ||Theta_out||, is the ``identity_gap`` diagnostic (it measures nothing
    but the solver residual).

    Everything runs in deflated coordinates (``numkit.Eigenbasis.q``):
    Theta_in is rotated in once and the result keeps S and Theta_out
    there; its ``theta_out`` and ``scattering`` rotate them out on first
    access (see :class:`PropagationResult`).  There every product with A
    costs O(d^2).  ``numkit.output_covariance`` forms Theta_out's first
    term Theta_in + A X + X A^dag and adds A^dag G + G A to it a row strip
    at a time, from X and S's diagonal and rank-4 factors, and writes each
    strip over the rows of X it has read: G = S X S^dag is never formed,
    and the call holds one d x d matrix of its own besides Theta_in.
    An S held whole (see :class:`ScatteringMatrix`) forms G and the
    products in plain numpy instead, Theta_out still written over X.
    (Forming G as A^dag (R X R^dag) A with R = (W - eps)^-1 would lose
    cond(A) digits when an eigenvalue of W lies near eps.)  X is not kept;
    :func:`time_integrated_covariance` returns it.

    ``quotient`` is the Lyapunov first pass's bracket at the shift the
    solve runs at (``numkit.lyapunov_quotients``, for a caller that solves
    several shifts of one W and Theta_in); X is formed in it.  theta_in,
    epsilon and the shift raise ValueError as in
    :func:`time_integrated_covariance`.
    """
    basis, theta_q = _deflated(W, theta_in)

    # The two public solves take W-coordinate matrices; basis.q (Q = I)
    # makes them read the deflated-coordinate ones as their own.
    q = basis.q
    X, lyap_report = time_integrated_covariance(q, theta_q, epsilon, quotient=quotient)
    eff_eps = DEFAULT_EPSILON if lyap_report.regularized else epsilon
    smat = scattering_matrix(q, eff_eps)
    theta_out, gap_norm = numkit.output_covariance(basis.shifted(eff_eps), X, smat, theta_q)

    layout = getattr(theta_in, "layout", None)
    grid = getattr(theta_in, "grid", None)
    if layout is None and isinstance(W, DynamicalMatrix):
        layout, grid = W.layout, W.grid

    return PropagationResult(
        theta_out_q=theta_out,
        scattering_q=smat,
        basis=basis,
        layout=layout,
        grid=grid,
        epsilon_used=float(eff_eps),
        lyapunov=lyap_report,
        gap_norm=gap_norm,
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
