"""Linear-algebra kernel contracts, each checked against an independent oracle."""

import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import lu_factor
from scipy.optimize import linear_sum_assignment

from pairspec import kernels, numkit
from pairspec.errors import NearSingularPencil, SingularMatrix
from helpers import (
    dense_scattering,
    paper_system,
    random_covariance,
    random_hermitian,
    random_hurwitz,
    small_system,
)


# --- oracles ---------------------------------------------------------------

def cofactor_determinant(M):
    """Recursive cofactor expansion; only sane for tiny matrices."""
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * cofactor_determinant(minor)
    return total


def taylor_expm(M, t, tol=1e-10):
    """Truncated Taylor series with an explicit remainder bound.

    The tail after N terms is bounded by ||Mt||^(N+1)/(N+1)! * e^||Mt||;
    terms are added until that bound drops below tol.
    """
    Mt = M * t
    norm = np.linalg.norm(Mt, 2)
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, 171):
        term = term @ Mt / k
        out += term
        # Tail after k terms is <= ||Mt||^(k+1)/(k+1)! * e^||Mt||.
        bound = norm ** (k + 1) / math.factorial(k + 1) * np.exp(norm)
        if bound < tol:
            break
    else:
        raise RuntimeError("Taylor tail bound did not reach tolerance")
    return out


def quadrature_sylvester(A, B, C, t_max):
    """Adaptive quadrature of the closed-form solution integral
    X = int_0^inf e^(At) C e^(Bt) dt  (valid for Hurwitz A, B)."""
    def integrand(t):
        return numkit.matrix_exponential(A, t) @ C @ numkit.matrix_exponential(B, t)

    val, _ = quad_vec(integrand, 0.0, t_max, epsabs=1e-10, epsrel=1e-10)
    return val


# --- linear_solve ----------------------------------------------------------

def test_linear_solve_identity():
    B = np.arange(9, dtype=complex).reshape(3, 3) + 1j
    X = numkit.linear_solve(np.eye(3), B)
    assert np.allclose(X, B)


def test_linear_solve_diagonal_inverse():
    A = np.diag([2.0, 4.0]).astype(complex)
    X = numkit.linear_solve(A, np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]))


def test_linear_solve_random_residual():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 4 * np.eye(8)
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    X = numkit.linear_solve(A, B)
    # Re-multiplication is the oracle.
    assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-12


def test_linear_solve_singular_raises():
    A = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        numkit.linear_solve(A, np.eye(2))


def test_linear_solve_rejects_nonfinite():
    A = np.eye(2, dtype=complex)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        numkit.linear_solve(A, np.eye(2))


@pytest.mark.parametrize("d", [2, 7, 130, 259])
def test_lu_has_the_bits_of_scipy_lu_factor(d):
    # numkit.lu calls LAPACK getrf itself; scipy's lu_factor is getrf plus a
    # finiteness check and a warning on an exactly zero pivot.
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A.flags.writeable = False
    before = A.copy()
    (lu, piv), pivots = numkit.lu(A)
    want_lu, want_piv = lu_factor(A)
    assert lu.tobytes() == want_lu.tobytes() and np.array_equal(piv, want_piv)
    assert np.array_equal(pivots, np.abs(np.diag(want_lu)))
    assert A.tobytes() == before.tobytes()


def test_singular_message_names_pivot_tolerance_and_scale():
    with pytest.raises(SingularMatrix, match=r"pivot 1 = 0\.000e\+00 below tolerance "
                                             r"1\.0e-12 \* max\|A\|=1\.000e\+00"):
        numkit.linear_solve(np.ones((2, 2)), np.eye(2))


def test_interleaved_solves_keep_their_errors_and_the_warning_filters(monkeypatch):
    # warnings.catch_warnings() swaps process-wide state, so an LU run inside
    # one spoils another thread's solve in this order: X's regular solve
    # enters its LU, Y's singular solve enters its LU, X leaves, then Y's LU
    # runs.  Y must raise SingularMatrix, not a warning, and the filters
    # must be as they were.
    real = numkit._getrf
    entered = {"X": threading.Event(), "Y": threading.Event()}
    go = {"X": threading.Event(), "Y": threading.Event()}

    def gated(A):
        who = threading.current_thread().name
        entered[who].set()
        if not go[who].wait(10):
            raise TimeoutError(who)
        return real(A)

    monkeypatch.setattr(numkit, "_getrf", gated)
    outcome = {}

    def solve(A):
        try:
            outcome[threading.current_thread().name] = numkit.linear_solve(A, np.eye(2))
        except Exception as exc:
            outcome[threading.current_thread().name] = exc

    regular = np.diag([2.0, 4.0]).astype(complex)
    singular = np.ones((2, 2), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        x = threading.Thread(target=solve, args=(regular,), name="X")
        y = threading.Thread(target=solve, args=(singular,), name="Y")
        x.start()
        assert entered["X"].wait(10)
        y.start()
        assert entered["Y"].wait(10)
        go["X"].set()
        x.join(10)
        go["Y"].set()
        y.join(10)
        after = list(warnings.filters)
    assert not x.is_alive() and not y.is_alive()
    assert isinstance(outcome["Y"], SingularMatrix), repr(outcome["Y"])
    assert np.allclose(outcome["X"], np.diag([0.5, 0.25]))
    assert after == before


# --- solve_sylvester -------------------------------------------------------

def test_sylvester_scalar_shift_case():
    # A = -I: -2X = -C -> X = C/2
    rng = np.random.default_rng(0)
    C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for method in ("kron", "schur"):
        X, report = numkit.solve_sylvester(-np.eye(3), C, method=method)
        assert np.allclose(X, C / 2)
        assert report.residual_norm < 1e-12


@pytest.mark.parametrize("method", ["kron", "schur"])
def test_sylvester_hermitian_rhs(method):
    rng = np.random.default_rng(7)
    A = random_hurwitz(rng, 4)
    C = random_covariance(rng, 4)
    X, report = numkit.solve_sylvester(A, C, method=method)
    assert report.residual_norm < 1e-10
    # Hermitian C forces Hermitian X.
    assert np.linalg.norm(X - X.conj().T) / np.linalg.norm(X) < 1e-10


def test_sylvester_kron_matches_schur():
    rng = np.random.default_rng(12)
    for d in (3, 6, 11):
        A = random_hurwitz(rng, d)
        C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        Xk, _ = numkit.solve_sylvester(A, C, method="kron")
        Xs, _ = numkit.solve_sylvester(A, C, method="schur")
        assert np.linalg.norm(Xk - Xs) / np.linalg.norm(Xk) < 1e-8


@pytest.mark.parametrize("refine_above, trsyl_calls", [(None, 1), (0.0, 2)],
                         ids=["first-pass", "refined"])
def test_sylvester_schur_factors_once(monkeypatch, refine_above, trsyl_calls):
    # One Schur form serves both sides of A X + X A^dag; the triangular solve
    # runs again only when the first pass is above REFINE_ABOVE.
    calls = {"schur": 0, "trsyl": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(numkit, "schur", counting("schur", numkit.schur))
    monkeypatch.setattr(kernels, "sylvester_triangular",
                        counting("trsyl", kernels.sylvester_triangular))
    if refine_above is not None:
        monkeypatch.setattr(numkit, "REFINE_ABOVE", refine_above)
    rng = np.random.default_rng(5)
    A = random_hurwitz(rng, 8)
    C = random_covariance(rng, 8)
    X, report = numkit.solve_sylvester(A, C)
    assert calls == {"schur": 1, "trsyl": trsyl_calls}
    assert report.residual_norm < 1e-12


def test_sylvester_matches_time_integral():
    rng = np.random.default_rng(21)
    A = random_hurwitz(rng, 4, margin=0.6)
    B = A.conj().T
    C = random_covariance(rng, 4)
    X, _ = numkit.solve_sylvester(A, C)
    margin = -max(np.linalg.eigvals(A).real.max(), np.linalg.eigvals(B).real.max())
    expected = quadrature_sylvester(A, B, C, t_max=20.0 / margin)
    assert np.linalg.norm(X - expected) / np.linalg.norm(expected) < 1e-6


def test_sylvester_near_singular_pencil():
    # Anti-Hermitian A puts lambda_i + conj(lambda_j) exactly at zero.
    A = np.diag([1j, 2j, 3j])
    with pytest.raises(NearSingularPencil) as exc_info:
        numkit.solve_sylvester(A, np.eye(3))
    assert exc_info.value.pair is not None
    lam, mu = exc_info.value.pair
    assert abs(lam + mu) < 1e-12


def test_sylvester_rectangular_c_rejected():
    with pytest.raises(ValueError):
        numkit.solve_sylvester(-np.eye(2), np.ones((3, 2)))


def test_sylvester_residual_definition():
    rng = np.random.default_rng(3)
    A = random_hurwitz(rng, 5)
    C = random_covariance(rng, 5)
    X, report = numkit.solve_sylvester(A, C)
    direct = np.linalg.norm(A @ X + X @ A.conj().T + C) / max(1.0, np.linalg.norm(C))
    assert report.residual_norm == pytest.approx(direct, rel=1e-6, abs=1e-18)


# --- eigenbasis solves ------------------------------------------------------

@pytest.mark.parametrize("shift", [0.0, 1e-2])
def test_eigenbasis_lyapunov_matches_kron(shift):
    rng = np.random.default_rng(41)
    for d in (3, 6, 11):
        W = random_hurwitz(rng, d)
        C = random_covariance(rng, d)
        basis = numkit.eigenbasis(W)
        assert basis.usable
        X, report = numkit.solve_lyapunov(basis, C, shift)
        A = W - shift * np.eye(d)
        Xk, _ = numkit.solve_sylvester(A, C, method="kron")
        assert np.linalg.norm(X - Xk) / np.linalg.norm(Xk) < 1e-10
        assert report.residual_norm == pytest.approx(
            numkit.sylvester_residual(A, C, X), rel=1e-12, abs=1e-18
        )
        assert report.residual_norm < 1e-12


def test_eigenbasis_lyapunov_near_singular_pencil():
    # Same instance as the Schur path: lambda_i + conj(lambda_i) = 0 exactly.
    basis = numkit.eigenbasis(np.diag([1j, 2j, 3j]))
    with pytest.raises(NearSingularPencil) as exc_info:
        numkit.solve_lyapunov(basis, np.eye(3), 0.0)
    lam, mu = exc_info.value.pair
    assert abs(lam + mu) < 1e-12


def test_eigenbasis_condition_of_normal_and_defective_matrices():
    rng = np.random.default_rng(43)
    normal = numkit.eigenbasis(-1j * random_hermitian(rng, 6))
    assert 1.0 <= normal.condition < 10.0
    assert np.allclose(normal.vectors @ normal.inverse, np.eye(6))
    # A Jordan block has one eigenvector: V is (numerically) singular.
    jordan = numkit.eigenbasis(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    assert jordan.condition > numkit.EIGEN_COND_MAX
    assert not jordan.usable


def _adjoint_inverse(basis, z):
    """A^dag A^-1 for A = W - z I in W's coordinates, the matrix of the
    ScatteringMatrix numkit.adjoint_inverse returns."""
    return numkit.adjoint_inverse(basis, z).matrix


@pytest.mark.parametrize("W, z", [
    # No arrowhead structure, at a real and a complex shift.
    (random_hurwitz(np.random.default_rng(47), 7), 1e-3),
    (random_hurwitz(np.random.default_rng(47), 7), 0.5 + 0.2j),
    # An arrowhead whose diagonal of A is exactly 0 at the tip, while A is
    # regular (eigenvalues (-3i +/- sqrt 3) / 2, each at distance 1 from z).
    (np.array([[-1j, 1.0], [1.0, -2j]]), -1j),
], ids=["dense", "dense-complex-z", "arrowhead-zero-diagonal"])
def test_adjoint_inverse_takes_one_lu_without_the_woodbury_form(W, z):
    calls = []
    real = numkit.linear_solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    basis = numkit.eigenbasis(W)
    with mock.patch.object(numkit, "linear_solve", counting):
        smat = numkit.adjoint_inverse(basis, z)
    A = W - z * np.eye(W.shape[0])
    assert calls == [1]
    assert smat.diagonal is None and smat.left is None
    assert _rel(smat.right, dense_scattering(A)) < 1e-14
    assert smat.residual < 1e-15


def test_adjoint_inverse_singular_raises():
    basis = numkit.eigenbasis(np.diag([-1j, -2j]))
    for z in (-1j, -2j):
        with pytest.raises(SingularMatrix):
            numkit.adjoint_inverse(basis, z)


def test_defective_matrix_takes_the_schur_route():
    # A Jordan block has one eigenvector, so V is numerically singular and
    # the Lyapunov solve takes the Schur fallback.  A^dag A^-1 needs no
    # eigenvectors: the block is an arrowhead with one zero spoke.
    W = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
    basis = numkit.eigenbasis(W)
    C = np.eye(2, dtype=complex)
    A = W - 1e-3 * np.eye(2)
    X, report = numkit.solve_lyapunov(basis, C, 1e-3)
    Xk, _ = numkit.solve_sylvester(A, C, method="kron")
    assert basis.path == "fallback"
    assert basis.condition > numkit.EIGEN_COND_MAX
    assert _rel(X, Xk) < 1e-12
    assert basis.arrowhead is not None
    assert _rel(_adjoint_inverse(basis, 1e-3), dense_scattering(A)) < 1e-14


# --- structured eigenbasis of an arrowhead W -----------------------------------

def _model(n=5, m_count=1, **kwargs):
    return small_system(n=n, m_count=m_count, **kwargs)[2].matrix


_ARROWHEAD_CASES = {
    **{f"{sign}-M{m}": dict(m_count=m, material_sign=sign)
       for sign in ("paper", "hamiltonian") for m in range(4)},
    "n1": dict(n=1),
    "g0": dict(g=0.0),
    "continuum": dict(continuum_scaling=True),
    "unequal-axes": dict(span=(0.8, 1.6), idler_span=(0.85, 1.75), continuum_scaling=True),
}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _lyapunov_sum(A, X, C):
    """C + A X + X A^dag by the strip kernel the solves run
    (``numkit._residual``)."""
    out = np.empty_like(X, dtype=complex)
    numkit._residual(A, X, C, out)
    return out


def _lyapunov(basis, C, shift):
    """numkit.solve_lyapunov with C and X in W's coordinates: C is rotated
    into the basis's deflated coordinates and X out."""
    X, report = numkit.solve_lyapunov(basis, basis.rotate(C), shift)
    return basis.rotate(X, copy=False), report


@pytest.mark.parametrize("case", _ARROWHEAD_CASES)
def test_arrowhead_products_match_dense(case):
    rng = np.random.default_rng(53)
    W = _model(**_ARROWHEAD_CASES[case])
    arrow = numkit._arrowhead(W)
    assert isinstance(arrow, numkit.Arrowhead)
    d = W.shape[0]
    Y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for s in (0.0, 1e-3, 0.3 - 0.2j):
        A = arrow.shifted(s)
        Ad = W - s * np.eye(d)
        assert np.array_equal(np.asarray(A), Ad)
        for got, want in (
            (A @ Y, Ad @ Y),
            (Y @ A, Y @ Ad),
            (A.conj().T @ Y, Ad.conj().T @ Y),
            (Y @ A.conj().T, Y @ Ad.conj().T),
            (_lyapunov_sum(A, Y, np.zeros((d, d), dtype=complex)), Ad @ Y + Y @ Ad.conj().T),
        ):
            assert _rel(got, want) < 1e-13
        # Subtracting an Arrowhead from an array would densify A, so it is
        # refused.
        with pytest.raises(TypeError):
            Y - A
    # The principal submatrix on indices that hold the tip.
    keep = np.union1d(np.arange(0, d, 2), [arrow.tip])
    assert np.array_equal(np.asarray(arrow.restricted(keep)), W[np.ix_(keep, keep)])


def _random_arrowhead(rng, d, tip):
    def vec():
        return rng.normal(size=d) + 1j * rng.normal(size=d)

    col, row = vec(), vec()
    col[tip] = row[tip] = 0.0
    return numkit.Arrowhead(vec(), col, row, tip)


# d = 9 runs the products in strips of two rows, the last of which absorbs a
# one-row remainder (with a 512-byte strip budget: at the default one a
# matrix this small is one strip); d = 181 in eight strips.
@pytest.mark.parametrize("d, tip", [(9, 0), (9, 5), (181, 3), (181, 180)])
def test_lyapunov_product_keeps_the_tip_of_hermitian_x_exactly_hermitian(d, tip, monkeypatch):
    # The tip row of A X and the tip column of X A^dag are vector products
    # summed alike, so for Hermitian X they are exact conjugates; every
    # other entry sums its two spoke terms before adding them, so it is
    # exactly Hermitian too.
    rng = np.random.default_rng(d + tip)
    assert numkit._strips(9, 9) == [(0, 9)]
    assert len(numkit._strips(181, 181)) == 8
    if d == 9:
        monkeypatch.setattr(numkit, "_STRIP_BYTES", 512)
        assert numkit._strips(9, 9) == [(0, 2), (2, 4), (4, 6), (6, 9)]
    A = _random_arrowhead(rng, d, tip)
    X = random_hermitian(rng, d)
    assert np.array_equal(X, X.conj().T)
    L = _lyapunov_sum(A, X, np.zeros((d, d), dtype=complex))
    assert np.array_equal(L[tip], L[:, tip].conj())
    assert np.array_equal(L, L.conj().T)
    assert _rel(L, np.asarray(A) @ X + X @ np.asarray(A).conj().T) < 1e-14
    # Adding C rounds as adding the whole product would, and the norm is
    # that sum's.
    base = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    target = np.empty_like(base)
    norm = numkit._residual(A, X, base, target)
    assert np.array_equal(target, base + L)
    assert norm == pytest.approx(np.linalg.norm(target), rel=1e-14)


def test_lyapunov_product_of_the_model_arrowhead_is_exactly_hermitian():
    # The deflated arrowhead of the n = 90 model: adding the spoke terms
    # col_i X_tj and X_it conj(col_j) one at a time left max |L - L^dag| at
    # 1.1e-13 (9e-17 of max |L|) for this X.
    basis = numkit.eigenbasis(paper_system(n=90)[2].matrix)
    assert basis.deflated_modes == 90
    X = random_hermitian(np.random.default_rng(90), basis.dim)
    L = _lyapunov_sum(basis.shifted(1e-3), X, np.zeros_like(X))
    assert np.abs(L - L.conj().T).max() == 0.0


# --- Theta_out assembled a row strip at a time -----------------------------------

@pytest.mark.parametrize("offset", ["equal", "half-step"])
@pytest.mark.parametrize("material_sign", ["paper", "hamiltonian"])
@pytest.mark.parametrize("n", [64, 256])
def test_output_covariance_matches_congruence_and_lyapunov_product(n, material_sign, offset):
    # output_covariance adds A^dag G + G A without forming G = S X S^dag.
    # Against G = S X S^dag formed densely from S = diag(Delta) + L R and
    # both products added by the strip kernel of the residual, over these
    # 8 cases at eps in {1e-3, 5e-4} the relative gap was at most 3.6e-16
    # on the paper sign and 5.3e-12 (one BLAS thread) to 7.3e-12 (two) on
    # the hamiltonian sign, whose lossless Theta_out is a small difference
    # of large terms (both assemblies sit as close to its closed form; see
    # test_hamiltonian_sign_matches_the_closed_form); the bounds keep a
    # margin of at least 2.7x.  It writes Theta_out over X, and its gap
    # norm is ||C + A X + X A^dag||_F.
    bound = 1e-15 if material_sign == "paper" else 2e-11
    step = 120.0 / (n - 1)
    shift = 0.5 * step if offset == "half-step" else 0.0
    _, _, W, _, theta = paper_system(n=n, idler_span=(1740.0 + shift, 1860.0 + shift),
                                     material_sign=material_sign)
    basis = numkit.eigenbasis(W.matrix)
    C = basis.rotate(theta.matrix)
    for eps in (1e-3, 5e-4):
        X, _ = numkit.solve_lyapunov(basis, C, eps)
        A = basis.shifted(eps)
        smat = numkit.adjoint_inverse(basis, eps)
        R = _lyapunov_sum(A, X, C)
        S = np.diag(smat.diagonal) + smat.left @ smat.right
        ref = _lyapunov_sum(A.conj().T, S @ X @ S.conj().T, R)
        gap_ref = np.linalg.norm(R)
        theta_out, gap = numkit.output_covariance(A, X, smat, C)
        assert theta_out is X
        assert np.linalg.norm(theta_out - ref) / np.linalg.norm(ref) < bound
        assert abs(gap - gap_ref) <= 1e-14 * gap_ref


def test_solve_lyapunov_refuses_a_wrong_shaped_quotient():
    basis = numkit.eigenbasis(_model())
    d = basis.dim
    with pytest.raises(ValueError, match=rf"quotient must be {d}x{d}, got \(3, 3\)"):
        numkit.solve_lyapunov(basis, np.eye(d), 1e-3, quotient=np.zeros((3, 3)))


def test_lyapunov_quotients_give_each_shift_its_own_first_pass():
    # One congruence of C serves both shifts: each quotient makes the same X
    # and report, bit for bit, as the solve's own first pass at its shift.
    _, _, W, _, theta = paper_system(n=32)
    basis = numkit.eigenbasis(W.matrix)
    C = basis.rotate(theta.matrix)
    shifts = (1e-3, 5e-4)
    quotients = numkit.lyapunov_quotients(basis, C, shifts)
    for shift, quotient in zip(shifts, quotients):
        X, report = numkit.solve_lyapunov(basis, C, shift, quotient=quotient)
        X_own, report_own = numkit.solve_lyapunov(basis, C, shift)
        assert X is quotient
        assert np.array_equal(X, X_own) and report == report_own


@pytest.mark.parametrize("case", _ARROWHEAD_CASES)
def test_structured_eigenbasis_reproduces_w(case):
    W = _model(**_ARROWHEAD_CASES[case])
    basis = numkit.eigenbasis(W)
    V, V_inv = basis.vectors, basis.inverse
    assert _rel(V @ np.diag(basis.values) @ V_inv, W) < 1e-12
    assert _rel(V @ V_inv, np.eye(W.shape[0])) < 1e-12
    assert basis.condition == pytest.approx(
        np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1), rel=1e-12
    )


@pytest.mark.parametrize("shift", [1e-3, 5e-4])
def test_structured_lyapunov_and_inverse_match_dense(shift):
    # Three identical materials exercise a reflection of size 3.
    rng = np.random.default_rng(59)
    W = _model(n=4, m_count=3, sqrt_kappa=0.4)
    d = W.shape[0]
    basis = numkit.eigenbasis(W)
    assert basis.deflated_modes == 4 + 2
    C = random_covariance(rng, d)
    X, report = _lyapunov(basis, C, shift)
    A = W - shift * np.eye(d)
    Xk, _ = numkit.solve_sylvester(A, C, method="kron")
    assert _rel(X, Xk) < 1e-10
    assert report.residual_norm < 1e-12
    assert numkit.sylvester_residual(A, C, X) < 1e-12
    assert _rel(_adjoint_inverse(basis, shift), dense_scattering(A)) < 1e-12


@pytest.mark.parametrize("n, m_count, idler_span, expected", [
    (64, 1, (0.8, 1.6), 64),      # a run: every signal/idler pair
    (64, 2, (0.8, 1.6), 65),      # a sweep point with two identical materials
    (256, 1, (0.8, 1.6), 256),
    (6, 3, (0.8, 1.6), 6 + 2),    # three identical materials leave one
    (6, 2, (0.85, 1.75), 1),      # unequal axes: only the material pair
    (6, 1, (0.85, 1.75), 0),
])
def test_deflated_modes_counts(n, m_count, idler_span, expected):
    basis = numkit.eigenbasis(_model(n=n, m_count=m_count, span=(0.8, 1.6), idler_span=idler_span))
    assert basis.deflated_modes == expected
    assert basis.core.size == 2 * n + 1 + m_count - expected


def test_dense_matrix_has_no_structure():
    # The random generators of the validation suite take the dense route.
    rng = np.random.default_rng(61)
    basis = numkit.eigenbasis(random_hurwitz(rng, 7))
    assert basis.arrowhead is None
    assert basis.deflated_modes == 0
    assert isinstance(basis.shifted(1e-3), np.ndarray)


def test_matrix_of_rejects_what_holds_no_matrix():
    # An arrowhead's factorization holds Q W Q as its arrowhead, not W.
    basis = numkit.eigenbasis(_model())
    assert basis.matrix is None
    for bad in (basis, basis.q, np.zeros(3)):
        with pytest.raises(ValueError, match="no 2-D matrix"):
            numkit.matrix_of(bad)


# --- secular eigensolve of the arrowhead core ---------------------------------

def _dense_route(W):
    """The factorization of W with the core sent to dense eig."""
    with mock.patch.object(numkit, "_secular_eig", return_value=None):
        basis = numkit.eigenbasis(W)
    assert basis.core_method == "eig"
    return basis


def _matched(values, reference):
    """values reordered to pair with reference at the least total distance."""
    _, order = linear_sum_assignment(np.abs(reference[:, None] - values[None, :]))
    return values[order]


@pytest.mark.parametrize("case", _ARROWHEAD_CASES)
def test_secular_core_matches_dense_eig_and_kron(case):
    # n = 4 (and a cavity off the n = 1 midpoint) keeps every photon pole
    # off the material's, which would send the core to eig.
    rng = np.random.default_rng(67)
    W = _model(**{"n": 4, **_ARROWHEAD_CASES[case], **({"omega_c": 1.25} if case == "n1" else {})})
    d = W.shape[0]
    basis = numkit.eigenbasis(W)
    dense = _dense_route(W)
    assert basis.core_method == "secular"
    assert np.abs(_matched(basis.values, dense.values) - dense.values).max() < 1e-12
    assert basis.condition == pytest.approx(dense.condition, rel=1e-8)
    C = random_covariance(rng, d)
    for shift in (1e-3, 5e-4):
        A = W - shift * np.eye(d)
        X, report = _lyapunov(basis, C, shift)
        Xd, _ = _lyapunov(dense, C, shift)
        Xk, _ = numkit.solve_sylvester(A, C, method="kron")
        assert _rel(X, Xk) < 1e-10
        assert _rel(X, Xd) < 1e-10
        assert report.residual_norm < 1e-10
        assert _rel(_adjoint_inverse(basis, shift), dense_scattering(A)) < 1e-12


def test_secular_vectors_are_accurate_near_poles():
    # README-scale core at n = 128: roots sit within 1e-3 of their poles, and
    # the residual is at the rounding level of the entries.
    W = _model(n=128, span=(1740.0, 1860.0), omega_c=1809.0, g=0.5, sqrt_kappa=488.0,
               pump=3609.0, sum_width=8.0, diff_width=30.0)
    basis = numkit.eigenbasis(W)
    assert basis.core_method == "secular"
    assert _rel(basis.vectors @ np.diag(basis.values) @ basis.inverse, W) < 1e-14
    dense = _dense_route(W)
    assert np.abs(_matched(basis.values, dense.values) - dense.values).max() < 1e-9
    assert basis.condition == pytest.approx(dense.condition, rel=1e-8)


def _arrowhead_model(n=4, **kwargs):
    return _model(n=n, span=(0.8, 1.6), idler_span=(0.85, 1.75), **kwargs).copy()


def _assert_dense_route_is_correct(W):
    basis = numkit.eigenbasis(W)
    assert basis.core_method == "eig"
    assert _rel(basis.vectors @ np.diag(basis.values) @ basis.inverse, W) < 1e-12
    C = random_covariance(np.random.default_rng(71), W.shape[0])
    A = W - 1e-3 * np.eye(W.shape[0])
    X, _ = _lyapunov(basis, C, 1e-3)
    Xk, _ = numkit.solve_sylvester(A, C, method="kron")
    assert _rel(X, Xk) < 1e-10


def test_fallback_when_not_an_arrowhead():
    W = random_hurwitz(np.random.default_rng(73), 6)
    assert numkit.eigenbasis(W).arrowhead is None
    _assert_dense_route_is_correct(W)


def test_fallback_when_one_spoke_is_zero():
    W = _arrowhead_model()
    tip = 2 * 4
    W[1, tip] = 0.0          # mode 1 still feeds the tip, but the tip not it
    _assert_dense_route_is_correct(W)


def test_fallback_when_two_poles_coincide():
    # Equal axes pair signal k with idler k; unequal spokes keep the pair
    # from being deflated, leaving two coupled modes with one diagonal.
    W = _model(n=4).copy()
    tip = 2 * 4
    W[4, tip] *= 1.5
    W[tip, 4] *= 1.5
    _assert_dense_route_is_correct(W)


def test_fallback_when_roots_do_not_settle(monkeypatch):
    assert numkit.eigenbasis(_arrowhead_model()).core_method == "secular"
    monkeypatch.setattr(numkit, "SECULAR_MAX_SWEEPS", 0)
    _assert_dense_route_is_correct(_arrowhead_model())


def test_fallback_when_residual_is_too_large(monkeypatch):
    assert numkit.eigenbasis(_arrowhead_model()).core_method == "secular"
    monkeypatch.setattr(numkit, "SECULAR_RESIDUAL_MAX", 0.0)
    _assert_dense_route_is_correct(_arrowhead_model())


def test_modes_with_both_spokes_zero_decouple():
    # g = 0 cuts every photon off the cavity; the core still takes the
    # secular route, with e_k eigenvectors for the photons.
    W = _arrowhead_model(g=0.0)
    basis = numkit.eigenbasis(W)
    assert basis.core_method == "secular"
    photons = np.arange(8)
    assert np.array_equal(basis.values[photons], np.diag(W)[photons])
    assert _rel(basis.vectors @ np.diag(basis.values) @ basis.inverse, W) < 1e-14


# --- svd --------------------------------------------------------------------

def test_svd_diagonal():
    s = numkit.svd(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(s, [3.0, 1.0])


@pytest.mark.parametrize("a,b", [(2.0, 0.5), (1.0, 1.0), (0.3, -1.2)])
def test_svd_symmetric_2x2_analytic(a, b):
    # Analytic singular values of [[a, b], [b, a]] are |a+b|, |a-b|.
    M = np.array([[a, b], [b, a]], dtype=complex)
    s = numkit.svd(M)
    expected = sorted([abs(a + b), abs(a - b)], reverse=True)
    assert np.allclose(s, expected)


def test_svd_values_match_gram_eigenvalues():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    s = numkit.svd(M)
    gram = np.linalg.eigvalsh(M.conj().T @ M)[::-1]
    assert np.max(np.abs(s**2 - gram) / gram) < 1e-12
    assert np.all(np.diff(s) <= 0)


def test_svd_permutation_invariant():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s0 = numkit.svd(M)
    perm = rng.permutation(5)
    s1 = numkit.svd(M[perm][:, perm])
    assert np.allclose(s0, s1)


# --- determinant ------------------------------------------------------------

def test_determinant_identity():
    assert numkit.log_determinant(np.eye(4)) == pytest.approx((0.0, 0.0))


def test_determinant_diagonal_product():
    assert numkit.log_determinant(np.diag([0.5, 0.5])) == pytest.approx((np.log(0.25), 0.0))


def test_determinant_matches_cofactor_expansion():
    rng = np.random.default_rng(17)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    expected = cofactor_determinant(M)
    log_mag, phase = numkit.log_determinant(M)
    assert abs(log_mag - np.log(abs(expected))) < 1e-10
    assert abs(np.exp(1j * phase) - expected / abs(expected)) < 1e-10


def test_determinant_zero_is_valid():
    M = np.zeros((3, 3), dtype=complex)
    assert numkit.log_determinant(M) == (-np.inf, 0.0)


def test_log_determinant_large_dim_no_overflow():
    # det(0.5 I_400) underflows double precision but the log variant is exact.
    d = 400
    log_mag, phase = numkit.log_determinant(0.5 * np.eye(d))
    assert log_mag == pytest.approx(d * np.log(0.5), rel=1e-12)
    assert phase == pytest.approx(0.0, abs=1e-12)


def test_determinant_vs_singular_values():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 2 * np.eye(6)
    log_mag, _ = numkit.log_determinant(M)
    assert abs(log_mag - np.sum(np.log(numkit.svd(M)))) < 1e-8


# --- matrix_exponential ------------------------------------------------------

def test_expm_zero_matrix():
    assert np.allclose(numkit.matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal_phases():
    omega = np.array([1.0, 2.5, 4.0])
    t = 0.7
    E = numkit.matrix_exponential(np.diag(-1j * omega), t)
    assert np.allclose(np.diag(E), np.exp(-1j * omega * t))


def test_expm_matches_taylor_series():
    rng = np.random.default_rng(23)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = numkit.matrix_exponential(M, 0.3)
    want = taylor_expm(M, 0.3, tol=1e-12)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_expm_semigroup_property():
    rng = np.random.default_rng(29)
    M = random_hermitian(rng, 5) * -1j
    s, t = 0.4, 1.1
    lhs = numkit.matrix_exponential(M, s + t)
    rhs = numkit.matrix_exponential(M, s) @ numkit.matrix_exponential(M, t)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-8
