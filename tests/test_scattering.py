"""The core pipeline: Lyapunov solve, scattering matrix, covariance map."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    JointSpectralAmplitude,
    SystemParams,
    assemble_input_covariance,
    build_dynamical_matrix,
    build_grid,
    extract_output_jsa,
    gaussian_jsa,
    jsi_of,
    numkit,
    propagate,
    scattering_matrix,
    schmidt,
    time_integrated_covariance,
    von_neumann_entropy,
)
from pairspec.errors import SingularMatrix
from pairspec.numkit import sylvester_residual
from pairspec.oracle import quadrature_time_integral
from helpers import random_covariance, small_system, tv_distance


# --- time_integrated_covariance ---------------------------------------------

def test_scalar_lyapunov_toy():
    # W = -I, Theta = I at epsilon = 0: -2X = -I so X = I/2.
    W = -np.eye(3, dtype=complex)
    X, report = time_integrated_covariance(W, np.eye(3, dtype=complex), 0.0)
    assert np.allclose(X, np.eye(3) / 2)
    assert not report.regularized


def test_eq13_instance_residual():
    _, _, W, _, theta = small_system(n=1, g=0.3, sqrt_kappa=0.4)
    eps = 1e-3
    X, report = time_integrated_covariance(W, theta, eps)
    A = W.matrix - eps * np.eye(W.dim)
    assert sylvester_residual(A, A.conj().T, theta.matrix, X.matrix) < 1e-8
    assert report.residual_norm < 1e-8


def test_epsilon_zero_autoretries_on_singular_pencil():
    # Anti-Hermitian W at epsilon = 0 is exactly singular; the solve must
    # retry at DEFAULT_EPSILON = 1e-3 and flag it.
    W = np.diag([-1j, -2j, -3j])
    theta = 0.5 * np.eye(3, dtype=complex)
    X, report = time_integrated_covariance(W, theta, 0.0)
    assert report.regularized
    # Diagonal of the solution is theta_ii / (2 eps).
    assert np.allclose(np.diag(X), 0.5 / (2e-3))


def test_matches_time_domain_quadrature():
    _, _, W, _, theta = small_system(n=2, g=0.2, sqrt_kappa=0.0)
    eps = 1e-2
    X, _ = time_integrated_covariance(W, theta, eps)
    A = W.matrix - eps * np.eye(W.dim)
    margin = -np.max(np.linalg.eigvals(A).real)
    quad = quadrature_time_integral(A, theta.matrix, t_max=14.0 / (2 * margin), dt=0.04)
    assert np.linalg.norm(quad.value - X.matrix) / np.linalg.norm(X.matrix) < 1e-5


# --- scattering_matrix --------------------------------------------------------

def test_free_mode_phases():
    # g = sqrt_kappa = 0: S is diagonal with (i w - eps)/(-i w - eps) entries.
    _, _, W, _, _ = small_system(n=2, g=0.0, sqrt_kappa=0.0)
    eps = 1e-3
    smat, _ = scattering_matrix(W, eps)
    S = smat.matrix
    freqs = np.concatenate([W.grid.signal, W.grid.idler, [W.params.omega_c], [W.params.omega_c]])
    expected = (1j * freqs - eps) / (-1j * freqs - eps)
    off = S - np.diag(np.diag(S))
    assert np.abs(off).max() < 1e-12
    assert np.allclose(np.diag(S), expected)
    assert np.allclose(np.abs(np.diag(S)), 1.0)
    # eps -> 0 limit of each phase is -1.
    smat_small, _ = scattering_matrix(W, 1e-9)
    assert np.allclose(np.diag(smat_small.matrix), -1.0, atol=1e-5)


def test_large_z_limit_is_identity():
    _, _, W, _, _ = small_system(n=2, g=0.3, sqrt_kappa=0.4)
    smat, _ = scattering_matrix(W, 1e9)
    assert np.allclose(smat.matrix, np.eye(W.dim), atol=1e-6)


def test_defining_identity_residual():
    _, _, W, _, _ = small_system(n=1, g=0.25, sqrt_kappa=0.35)
    z = 1e-3
    smat, _ = scattering_matrix(W, z)
    A = W.matrix - z * np.eye(W.dim)
    direct = np.linalg.norm(smat.matrix @ A - A.conj().T) / np.linalg.norm(W.matrix)
    assert direct < 1e-10
    assert smat.residual < 1e-10


def test_singular_shift_raises():
    W = np.diag([-1j, -2j])
    with pytest.raises(SingularMatrix):
        scattering_matrix(W, -1j)  # z equal to an eigenvalue makes W - z singular


# --- propagate -----------------------------------------------------------------

def test_g0_output_jsi_equals_input():
    _, _, W, jsa, theta = small_system(n=6, g=0.0, sqrt_kappa=0.4)
    prop = propagate(theta, W, epsilon=1e-3)
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    assert np.abs(j_out - j_in).max() < 1e-8


def test_verbatim_equals_reduced():
    _, _, W, _, theta = small_system(n=5, g=0.15, sqrt_kappa=0.5)
    prop = propagate(theta, W, epsilon=1e-3)
    assert prop.identity_gap < 1e-8


def test_theta_out_hermitian_for_random_hermitian_input():
    rng = np.random.default_rng(31)
    _, _, W, _, theta = small_system(n=4, g=0.2, sqrt_kappa=0.3)
    theta.matrix = random_covariance(rng, W.dim)
    prop = propagate(theta, W, epsilon=1e-3)
    assert prop.hermiticity_defect < 1e-8


def test_propagate_epsilon_zero_regularizes():
    _, _, W, _, theta = small_system(n=3, g=0.1, sqrt_kappa=0.0)
    prop = propagate(theta, W, epsilon=0.0)
    assert prop.regularized
    assert prop.epsilon_used == pytest.approx(1e-3)
    assert prop.scattering.z_used == pytest.approx(1e-3)


def test_g_to_zero_continuity():
    # ||Theta_out(g) - Theta_out(0)|| must decrease monotonically to zero.
    diffs = []
    _, _, W0, _, theta = small_system(n=4, g=0.0, sqrt_kappa=0.3)
    base = propagate(theta, W0, epsilon=1e-3).theta_out.matrix
    for g in (1e-3, 1e-4, 1e-5):
        _, _, Wg, _, theta_g = small_system(n=4, g=g, sqrt_kappa=0.3)
        out = propagate(theta_g, Wg, epsilon=1e-3).theta_out.matrix
        diffs.append(np.linalg.norm(out - base))
    assert diffs[0] > diffs[1] > diffs[2]
    # The approach is linear in g (slope ~ 1/2eps from the amplified
    # gain-loss component), so a decade in g buys about a decade in distance.
    assert diffs[2] < diffs[0] / 10


def test_off_diagonal_mass_emerges_at_resonance():
    # Anti-diagonal input + coupled cavity: output mass in a disk around
    # (omega_c, omega_c) must exceed the input's on the same disk.
    grid, params, W, jsa, theta = small_system(
        n=12, g=0.03, sqrt_kappa=0.15, omega_c=1.35,
        pump=2.4, sum_width=0.04, diff_width=0.5, diff_offset=-0.3,
    )
    prop = propagate(theta, W, epsilon=1e-3)
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    S, I = np.meshgrid(grid.signal, grid.idler, indexing="ij")
    disk = (S - params.omega_c) ** 2 + (I - params.omega_c) ** 2 <= (3 * grid.signal_spacing) ** 2
    assert disk.any()
    mass_in = (j_in / j_in.sum())[disk].sum()
    mass_out = (j_out / j_out.sum())[disk].sum()
    assert mass_out > mass_in


def test_extract_assemble_round_trip():
    _, _, _, jsa, theta = small_system(n=5)
    back = extract_output_jsa(theta)
    assert np.array_equal(back.values, jsa.values)


def test_single_mode_grid_end_to_end():
    # n = 1 exercises the unit-spacing convention through the whole pipeline.
    _, _, W, jsa, theta = small_system(n=1, g=0.1, sqrt_kappa=0.2)
    assert jsa.values.shape == (1, 1)
    prop = propagate(theta, W, epsilon=1e-3)
    out = extract_output_jsa(prop.theta_out)
    assert out.values.shape == (1, 1)
    assert np.isfinite(out.values[0, 0])


def test_epsilon_stability_is_mild_for_stable_spectrum():
    # With sqrt_kappa = 0 (no gain mode) the output is epsilon-stable.
    _, _, W, _, theta = small_system(n=4, g=0.1, sqrt_kappa=0.0)
    out1 = propagate(theta, W, epsilon=1e-3).theta_out.matrix
    out2 = propagate(theta, W, epsilon=5e-4).theta_out.matrix
    rel = np.linalg.norm(out1 - out2) / np.linalg.norm(out1)
    assert rel < 0.05


def test_output_jsi_reports_tv_against_input():
    # Not an identity: a coupled run genuinely moves the JSI somewhere.
    _, _, W, jsa, theta = small_system(n=8, g=0.1, sqrt_kappa=0.3)
    prop = propagate(theta, W, epsilon=1e-3)
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    assert tv_distance(j_in, j_out) > 0.0


# --- eigenbasis route and its fallback ------------------------------------------

def _two_level_system(sqrt_kappa, eps=1e-3):
    # g = 0 isolates the cavity-material pair [[-1.2i, -k], [-k, -1.0i]],
    # whose eigenvalues -1.1i +/- sqrt(k^2 - 0.01) coalesce at k = 0.1.
    grid = build_grid(3, (0.8, 1.6), (0.8, 1.6))
    params = SystemParams(omega_c=1.2, material_freqs=(1.0,), g=0.0, sqrt_kappa=sqrt_kappa)
    W = build_dynamical_matrix(grid, params, material_sign="paper")
    jsa = gaussian_jsa(grid, pump_center=2.4, sum_width=0.1, diff_width=0.35)
    theta = assemble_input_covariance(jsa, 1)
    A = W.matrix - eps * np.eye(W.dim)
    return W, theta, A


def test_exceptional_point_takes_fallback_and_matches_kron():
    W, theta, A = _two_level_system(0.1)
    X, report = time_integrated_covariance(W, theta, 1e-3)
    assert report.path == "fallback"
    assert report.eigenvector_condition > numkit.EIGEN_COND_MAX
    assert report.residual_norm < 1e-8
    assert sylvester_residual(A, A.conj().T, theta.matrix, X.matrix) < 1e-8
    Xk, _ = numkit.solve_sylvester(A, A.conj().T, theta.matrix, method="kron")
    assert np.linalg.norm(X.matrix - Xk) / np.linalg.norm(Xk) < 1e-8
    smat, scat_report = scattering_matrix(W, 1e-3)
    assert scat_report.path == "fallback"
    assert smat.residual < 1e-10


def test_near_exceptional_point_takes_eigen_path():
    W, theta, A = _two_level_system(0.101)
    X, report = time_integrated_covariance(W, theta, 1e-3)
    assert report.path == "eigen"
    assert report.eigenvector_condition <= numkit.EIGEN_COND_MAX
    assert report.residual_norm < 1e-8
    Xk, _ = numkit.solve_sylvester(A, A.conj().T, theta.matrix, method="kron")
    assert np.linalg.norm(X.matrix - Xk) / np.linalg.norm(Xk) < 1e-8
    _, scat_report = scattering_matrix(W, 1e-3)
    assert scat_report.path == "eigen"


_SMALL_MODELS = dict(
    n=st.integers(1, 6),
    m_count=st.integers(0, 3),
    sqrt_kappa=st.floats(0.0, 0.5),
    omega_c=st.floats(1.0, 1.4),
    material_sign=st.sampled_from(["paper", "hamiltonian"]),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(g=st.floats(0.0, 0.5), **_SMALL_MODELS)
def test_property_lyapunov_matches_kron_and_output_is_hermitian(
    n, m_count, g, sqrt_kappa, omega_c, material_sign
):
    _, _, W, _, theta = small_system(
        n=n, m_count=m_count, g=g, sqrt_kappa=sqrt_kappa, omega_c=omega_c,
        material_sign=material_sign,
    )
    eps = 1e-3
    X, _ = time_integrated_covariance(W, theta, eps)
    A = W.matrix - eps * np.eye(W.dim)
    Xk, _ = numkit.solve_sylvester(A, A.conj().T, theta.matrix, method="kron")
    assert np.linalg.norm(X.matrix - Xk) / np.linalg.norm(Xk) < 1e-8
    assert propagate(theta, W, epsilon=eps).hermiticity_defect < 1e-8


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(**_SMALL_MODELS)
def test_property_g0_leaves_jsi_unchanged(n, m_count, sqrt_kappa, omega_c, material_sign):
    _, _, W, jsa, theta = small_system(
        n=n, m_count=m_count, g=0.0, sqrt_kappa=sqrt_kappa, omega_c=omega_c,
        material_sign=material_sign,
    )
    prop = propagate(theta, W, epsilon=1e-3)
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    assert np.abs(j_out - j_in).max() < 1e-8


def test_propagate_factors_a_plain_array_once(monkeypatch):
    calls = []
    real = numkit.eigenbasis

    def counting(W):
        calls.append(W.shape)
        return real(W)

    monkeypatch.setattr(numkit, "eigenbasis", counting)
    _, _, W, _, theta = small_system(n=4, m_count=2)
    prop = propagate(theta, W.matrix, epsilon=1e-3)
    assert len(calls) == 1
    assert prop.reports["lyapunov"].deflated_modes == 4 + 1
    # Both solves accept the factorization itself in place of W.
    basis = real(W.matrix)
    X, _ = time_integrated_covariance(basis, theta, 1e-3)
    smat, _ = scattering_matrix(basis, 1e-3)
    assert np.array_equal(X.matrix, prop.theta_tilde_in.matrix)
    assert np.array_equal(smat.matrix, prop.scattering.matrix)
    assert len(calls) == 1


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    g=st.floats(0.0, 0.5),
    idler_span=st.sampled_from([(0.8, 1.6), (0.9, 1.5), (0.85, 1.75)]),
    continuum_scaling=st.booleans(),
    **_SMALL_MODELS,
)
def test_property_swapping_signal_and_idler_conjugate_transposes_output_jsa(
    n, m_count, g, sqrt_kappa, omega_c, material_sign, idler_span, continuum_scaling
):
    kwargs = dict(n=n, m_count=m_count, g=g, sqrt_kappa=sqrt_kappa, omega_c=omega_c,
                  material_sign=material_sign, continuum_scaling=continuum_scaling,
                  diff_offset=0.05)
    _, _, W, jsa, theta = small_system(span=(0.8, 1.6), idler_span=idler_span, **kwargs)
    swapped, _, W_swapped, _, _ = small_system(span=idler_span, idler_span=(0.8, 1.6), **kwargs)
    theta_swapped = assemble_input_covariance(
        JointSpectralAmplitude(swapped, jsa.values.conj().T), m_count
    )
    F_out = extract_output_jsa(propagate(theta, W, epsilon=1e-3).theta_out).values
    F_out_swapped = extract_output_jsa(
        propagate(theta_swapped, W_swapped, epsilon=1e-3).theta_out
    ).values
    assert np.linalg.norm(F_out_swapped - F_out.conj().T) / np.linalg.norm(F_out) < 1e-8


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(g=st.floats(0.0, 0.5), **_SMALL_MODELS)
def test_property_entropy_is_between_zero_and_log_n(
    n, m_count, g, sqrt_kappa, omega_c, material_sign
):
    _, _, W, _, theta = small_system(
        n=n, m_count=m_count, g=g, sqrt_kappa=sqrt_kappa, omega_c=omega_c,
        material_sign=material_sign,
    )
    prop = propagate(theta, W, epsilon=1e-3)
    S = von_neumann_entropy(schmidt(extract_output_jsa(prop.theta_out)))
    # Slack of 1e-12 nats for the rounding of -sum p ln p.
    assert -1e-12 <= S <= np.log(n) + 1e-12


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(g=st.floats(0.0, 0.5), **_SMALL_MODELS)
def test_property_secular_core_matches_eig_based_solves(
    n, m_count, g, sqrt_kappa, omega_c, material_sign
):
    _, _, W, _, theta = small_system(
        n=n, m_count=m_count, g=g, sqrt_kappa=sqrt_kappa, omega_c=omega_c,
        material_sign=material_sign,
    )
    basis = numkit.eigenbasis(W.matrix)
    with mock.patch.object(numkit, "_secular_eig", return_value=None):
        dense = numkit.eigenbasis(W.matrix)
    assert dense.core_method == "eig"
    for eps in (1e-3, 5e-4):
        X, _ = time_integrated_covariance(basis, theta, eps)
        Xd, _ = time_integrated_covariance(dense, theta, eps)
        S, _ = scattering_matrix(basis, eps)
        Sd, _ = scattering_matrix(dense, eps)
        assert np.linalg.norm(X.matrix - Xd.matrix) / np.linalg.norm(Xd.matrix) < 1e-8
        assert np.linalg.norm(S.matrix - Sd.matrix) / np.linalg.norm(Sd.matrix) < 1e-8


@pytest.mark.parametrize("kwargs", [
    dict(n=6, m_count=1),
    dict(n=5, m_count=3, material_sign="hamiltonian"),
    dict(n=4, m_count=2, idler_span=(0.85, 1.75), continuum_scaling=True),
])
def test_deflated_coordinate_diagnostics_match_dense_recomputation(kwargs):
    # propagate reports residuals measured in deflated coordinates; the same
    # quantities recomputed with dense products on the returned,
    # original-coordinate X, S and Theta_out agree with them.
    _, _, W, _, theta = small_system(**kwargs)
    eps = 1e-3
    prop = propagate(theta, W, epsilon=eps)
    A = W.matrix - eps * np.eye(W.dim)
    X, S, out = prop.theta_tilde_in.matrix, prop.scattering.matrix, prop.theta_out.matrix
    lyap = sylvester_residual(A, A.conj().T, theta.matrix, X)
    scat = np.linalg.norm(S @ A - A.conj().T) / np.linalg.norm(W.matrix)
    G = S @ X @ S.conj().T
    cross = G @ A + A.conj().T @ G
    verbatim = X @ A.conj().T + A @ X + cross + theta.matrix
    gap = np.linalg.norm(verbatim - cross) / np.linalg.norm(verbatim)
    herm = np.linalg.norm(out - out.conj().T) / np.linalg.norm(out)
    assert np.linalg.norm(verbatim - out) / np.linalg.norm(out) < 1e-12
    for reported, dense in ((prop.reports["lyapunov"].residual_norm, lyap),
                            (prop.scattering.residual, scat),
                            (prop.identity_gap, gap),
                            (prop.hermiticity_defect, herm)):
        assert reported < 1e-12 and dense < 1e-12
        assert abs(reported - dense) < 1e-13
