"""Core pipeline: time-integrated covariance, scattering matrix, and the
input->output covariance map.

Everything is evaluated at a real regularization epsilon > 0: the generator
W is shifted to W - eps*I in the Lyapunov solve, in the scattering matrix,
and in the output assembly, so the algebraic identity between the full and
reduced forms of the output map holds exactly at the working epsilon.

Both solves run in the eigenbasis of W (:func:`pairspec.numkit.eigenbasis`),
which serves every shift: a DynamicalMatrix keeps its factorization, so all
propagations of one W factor it once; ``propagate`` factors a plain array
once for both solves, and either solve also accepts a ``numkit.Eigenbasis``
in place of W.  The cavity model's W is an arrowhead: equal signal/idler
modes (and identical materials) are deflated exactly by a reflection Q, and
the remaining core is solved from its secular equation.  The solves work in
deflated coordinates Q W Q, where the deflated modes are decoupled: inputs
are rotated in once and results out once, products with V touch only the
core block and every product with W - eps costs O(d^2).  When cond_1(V)
exceeds ``numkit.EIGEN_COND_MAX`` (near an exceptional point) they fall back
to the Schur solve of ``numkit.solve_sylvester`` and the LU of
``numkit.linear_solve``, still in deflated coordinates.  Each report records
the path, cond_1(V) and the number of deflated modes; its residuals are
measured in deflated coordinates, which Q leaves unchanged up to rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import NearSingularPencil
from .model import DynamicalMatrix
from .states import CovarianceMatrix, JointSpectralAmplitude, jsi_of  # noqa: F401

# Default regularization (meV), and the one a solve at epsilon = 0 retries at
# when the pencil is singular; every solve records whether it fired.
DEFAULT_EPSILON = 1e-3


@dataclass
class ScatteringMatrix:
    """Asymptotic mode map S = (W^dag - z)(W - z)^(-1)."""

    matrix: np.ndarray
    z_used: complex
    residual: float


@dataclass
class PropagationResult:
    theta_out: CovarianceMatrix
    theta_tilde_in: CovarianceMatrix
    scattering: ScatteringMatrix
    epsilon_used: float
    regularized: bool
    identity_gap: float
    hermiticity_defect: float
    reports: dict = field(default_factory=dict)


def _eigenbasis(W):
    if isinstance(W, numkit.Eigenbasis):
        return W
    if isinstance(W, DynamicalMatrix):
        return W.eigenbasis()
    return numkit.eigenbasis(numkit.matrix_of(W))


def _mark(report, basis):
    report.path = "eigen" if basis.usable else "fallback"
    report.eigenvector_condition = basis.condition
    report.deflated_modes = basis.deflated_modes


def _lyapunov_q(basis, theta_q, epsilon):
    """The Lyapunov solve of :func:`time_integrated_covariance` on a basis
    in deflated coordinates."""

    def attempt(eps):
        if basis.usable:
            return numkit.solve_lyapunov_eigen(basis, theta_q, eps)
        A = np.asarray(basis.shifted(eps))
        return numkit.solve_sylvester(A, A.conj().T, theta_q)

    regularized = False
    try:
        X, report = attempt(epsilon)
    except NearSingularPencil:
        if epsilon != 0.0:
            raise
        X, report = attempt(DEFAULT_EPSILON)
        regularized = True
    report.regularized = regularized
    _mark(report, basis)
    return X, report


def time_integrated_covariance(W, theta_in, epsilon):
    """Solve (W - eps) X + X (W - eps)^dag = -Theta_in.

    X is the all-time integral of the input correlations evaluated at the
    regularized Laplace point, solved in the eigenbasis of W or, when
    cond_1(V) is too large, by the Schur path (see the module doc), in
    deflated coordinates: Theta_in is rotated in and X out.  If
    epsilon = 0 hits a singular pencil (the generic case: W's spectrum is
    near-imaginary), the solve automatically retries at
    ``DEFAULT_EPSILON`` and flags the report as regularized.

    W may be a DynamicalMatrix, an array or a ``numkit.Eigenbasis`` of W.
    Returns (X, SolveReport); X is a CovarianceMatrix when theta_in is one.
    """
    basis = _eigenbasis(W)
    theta_q = basis.rotate(numkit.matrix_of(theta_in))
    X, report = _lyapunov_q(basis.q, theta_q, epsilon)
    X = basis.rotate(X, copy=False)
    if isinstance(theta_in, CovarianceMatrix):
        X = CovarianceMatrix(matrix=X, layout=theta_in.layout, grid=theta_in.grid)
    return X, report


def _scattering_q(basis, z):
    """S and its report on a basis in deflated coordinates."""
    A = basis.shifted(z)
    A_h = A.conj().T
    if basis.usable:
        S = A_h @ numkit.shifted_inverse(basis, z)
        defect = np.linalg.norm(S @ A - A_h)
        dist = np.abs(basis.values - z)
        report = numkit.SolveReport(
            residual_norm=float(defect / numkit.frobenius_norm(A)),
            condition_estimate=float(basis.condition * dist.max() / dist.min()),
        )
    else:
        # S A = A^dag  <=>  A^T S^T = conj(A)
        A_dense = np.asarray(A)
        St, report = numkit.linear_solve(A_dense.T, A_dense.conj())
        S = St.T
        defect = np.linalg.norm(S @ A - A_h)
    residual = float(defect / max(numkit.frobenius_norm(basis.shifted(0.0)), 1e-300))
    _mark(report, basis)
    return ScatteringMatrix(matrix=S, z_used=complex(z), residual=residual), report


def scattering_matrix(W, z):
    """S = (W^dag - z)(W - z)^(-1) = (W^dag - z) V (Lambda - z)^(-1) V^(-1).

    Formed in deflated coordinates and rotated out; on the fallback path it
    is solved by LU on the transposed system.  Raises SingularMatrix when
    (W - z) is singular at the requested z (min |lambda_i - z| below
    ``numkit.PIVOT_TOL * max|W - z|`` on the eigenbasis path); the caller
    is expected to retry with an epsilon shift.  The report's residual is
    ||S A - A^dag||_F / ||A||_F for A = W - z; its condition estimate is
    cond_1(V) max|lambda - z| / min|lambda - z| on the eigenbasis path and
    the 2-norm cond(A) from linear_solve otherwise.
    """
    basis = _eigenbasis(W)
    smat, report = _scattering_q(basis.q, z)
    smat.matrix = basis.rotate(smat.matrix, copy=False)
    return smat, report


def propagate(theta_in, W, epsilon=DEFAULT_EPSILON):
    """Map the input covariance to the output covariance.

    Output assembly (all operators at the shared regularized shift
    A = W - eps):

        Theta_out = X A^dag + A X + (S X S^dag) A + A^dag (S X S^dag) + Theta_in

    with X the time-integrated input covariance and S the scattering matrix
    at z = eps.  The algebraically reduced form
    Theta_out = (S X S^dag) A + A^dag (S X S^dag) follows by substituting the
    Lyapunov identity; their relative gap is recorded as a diagnostic (it
    measures nothing but the solver residual).

    Everything runs in deflated coordinates (``numkit.Eigenbasis.q``):
    Theta_in is rotated in once, and X, S and Theta_out are rotated out once
    at the end.  There every product with A costs O(d^2), and on the
    eigenbasis path S is a core block plus a diagonal, so S X S^dag costs a
    quarter of two dense products.  (Forming it as A^dag (R X R^dag) A with
    R = (W - eps)^-1 would lose cond(A) digits when an eigenvalue of W lies
    near eps.)
    """
    theta_mat = numkit.matrix_of(theta_in)
    basis = _eigenbasis(W)
    q = basis.q
    theta_q = basis.rotate(theta_mat)

    X, lyap_report = time_integrated_covariance(q, theta_q, epsilon)
    regularized = lyap_report.regularized
    eff_eps = DEFAULT_EPSILON if regularized else epsilon

    smat, scat_report = scattering_matrix(q, eff_eps)
    S = smat.matrix
    A = q.shifted(eff_eps)
    A_h = A.conj().T

    if q.usable:
        core = np.ix_(q.core, q.core)
        G = q.block_congruence(S[core], X, S.diagonal())
    else:
        G = S @ X @ S.conj().T
    # Each d x d temporary is dropped once used: a run's peak memory is here.
    cross = G @ A + A_h @ G
    del G
    theta_out = X @ A_h + A @ X + cross + theta_q
    del theta_q
    gap_norm = np.linalg.norm(theta_out - cross)
    del cross
    out_norm = np.linalg.norm(theta_out)
    identity_gap = float(gap_norm / out_norm) if out_norm > 0 else 0.0
    herm = float(
        np.linalg.norm(theta_out - theta_out.conj().T) / out_norm if out_norm > 0 else 0.0
    )
    X, theta_out = (basis.rotate(M, copy=False) for M in (X, theta_out))
    smat.matrix = basis.rotate(S, copy=False)

    layout = getattr(theta_in, "layout", None)
    grid = getattr(theta_in, "grid", None)
    if layout is None and isinstance(W, DynamicalMatrix):
        layout = W.layout
        grid = W.grid
    if layout is not None:
        theta_out_obj = CovarianceMatrix(matrix=theta_out, layout=layout, grid=grid)
        theta_tilde_obj = CovarianceMatrix(matrix=X, layout=layout, grid=grid)
    else:
        theta_out_obj = theta_out
        theta_tilde_obj = X

    return PropagationResult(
        theta_out=theta_out_obj,
        theta_tilde_in=theta_tilde_obj,
        scattering=smat,
        epsilon_used=float(eff_eps),
        regularized=regularized,
        identity_gap=identity_gap,
        hermiticity_defect=herm,
        reports={"lyapunov": lyap_report, "scattering": scat_report},
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
