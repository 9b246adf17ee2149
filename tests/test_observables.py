"""Schmidt spectrum, entropy, Wigner function, purity."""

import numpy as np
import pytest

from pairspec import (
    build_grid,
    gaussian_jsa,
    purity,
    schmidt,
    von_neumann_entropy,
    wigner,
)
from pairspec.errors import DegenerateState, NonPositiveDeterminant, SingularCovariance
from pairspec.states import CovarianceMatrix
from pairspec.model import BlockLayout


# --- schmidt -------------------------------------------------------------------

def test_separable_is_rank_one():
    f = np.array([1.0, 2.0, 0.5])
    g = np.array([0.3, 1.0, 0.7])
    spectrum = schmidt(np.outer(f, g).astype(complex))
    assert spectrum.values[0] == pytest.approx(1.0)
    assert np.all(spectrum.values[1:] < 1e-12)


def test_maximally_entangled_equal_values():
    n = 5
    spectrum = schmidt(np.eye(n, dtype=complex) / np.sqrt(n))
    assert np.allclose(spectrum.values, 1.0 / np.sqrt(n))


@pytest.mark.parametrize("a,b", [(1.0, 0.4), (0.8, -0.6)])
def test_symmetric_2x2_analytic(a, b):
    spectrum = schmidt(np.array([[a, b], [b, a]], dtype=complex))
    raw = np.array(sorted([abs(a + b), abs(a - b)], reverse=True))
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(spectrum.values, expected)


def test_schmidt_renormalizes_unnormalized_input():
    F = 7.3 * np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    spectrum = schmidt(F)
    assert np.sum(spectrum.values**2) == pytest.approx(1.0, abs=1e-12)


def test_all_zero_raises():
    with pytest.raises(DegenerateState):
        schmidt(np.zeros((3, 3), dtype=complex))


def test_unitary_mixing_of_signal_modes_preserves_entropy():
    rng = np.random.default_rng(3)
    F = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    s0 = von_neumann_entropy(schmidt(F))
    s1 = von_neumann_entropy(schmidt(q @ F))
    assert s1 == pytest.approx(s0, abs=1e-10)


# --- entropy ---------------------------------------------------------------------

def test_entropy_rank_one_is_zero():
    s = von_neumann_entropy(schmidt(np.outer([1, 2], [3, 4]).astype(complex)))
    assert 0.0 <= s < 1e-10


def test_entropy_equal_modes_is_ln_n():
    n = 7
    s = von_neumann_entropy(schmidt(np.eye(n, dtype=complex)))
    assert s == pytest.approx(np.log(n), abs=1e-12)


def test_entropy_direct_evaluation():
    # (sqrt(0.75), sqrt(0.25)) -> -0.75 ln 0.75 - 0.25 ln 0.25
    from pairspec.observables import SchmidtSpectrum

    s = von_neumann_entropy(SchmidtSpectrum(np.array([np.sqrt(0.75), np.sqrt(0.25)])))
    assert s == pytest.approx(0.5623351446188083, abs=1e-12)


def test_entropy_grows_as_diff_width_shrinks_relative():
    grid = build_grid(24, (1740.0, 1860.0), (1740.0, 1860.0))
    entropies = []
    for diff_width in (20.0, 40.0, 80.0):
        jsa = gaussian_jsa(grid, 3600.0, sum_width=20.0, diff_width=diff_width)
        entropies.append(von_neumann_entropy(schmidt(jsa)))
    # sum_width == diff_width is separable; widening the ratio adds entropy.
    assert entropies[0] < 1e-10
    assert entropies[0] < entropies[1] < entropies[2]


def test_magnitude_variant_differs_for_phased_amplitude():
    rng = np.random.default_rng(11)
    F = rng.normal(size=(5, 5)) * np.exp(1j * rng.normal(size=(5, 5)))
    s_amp = von_neumann_entropy(schmidt(F))
    s_mag = von_neumann_entropy(schmidt(F, use_magnitude=True))
    assert s_amp != pytest.approx(s_mag, abs=1e-6)


# --- wigner ----------------------------------------------------------------------

def test_wigner_identity_at_origin():
    assert wigner(np.eye(2), np.zeros(2)) == pytest.approx(1.0 / (2 * np.pi))


def test_wigner_even_symmetry():
    theta = np.array([[0.9, 0.2], [0.2, 1.1]], dtype=complex)
    alpha = np.array([0.3, -0.7])
    assert wigner(theta, alpha) == pytest.approx(wigner(theta, -alpha), rel=1e-12)


def test_wigner_normalization_by_quadrature():
    theta = np.array([[0.7, 0.15], [0.15, 0.8]], dtype=complex)
    L = 6.0
    axis = np.linspace(-L, L, 121)
    vals = np.array([[wigner(theta, np.array([x, p])) for p in axis] for x in axis])
    integral = np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_wigner_mean_shift():
    theta = np.eye(2, dtype=complex)
    mean = np.array([0.5, -0.2])
    assert wigner(theta, mean, mean=mean) == pytest.approx(1.0 / (2 * np.pi))


def test_wigner_singular_covariance_raises():
    with pytest.raises(SingularCovariance):
        wigner(np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("with_mean", [False, True], ids=["no_mean", "mean"])
def test_wigner_batch_matches_scalar_calls(d, with_mean):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    theta = A @ A.conj().T / d + 0.5 * np.eye(d)
    points = rng.normal(size=(7, d))
    mean = rng.normal(size=d) if with_mean else None
    batch = wigner(theta, points, mean=mean)
    assert batch.shape == (7,)
    for point, value in zip(points, batch):
        assert value == pytest.approx(wigner(theta, point, mean=mean), rel=1e-13)


def test_wigner_grid_keeps_its_shape():
    # 45 x 30 = 1350 points: more than one solve block.
    theta = np.array([[0.7, 0.15], [0.15, 0.8]], dtype=complex)
    grid = np.stack(
        np.meshgrid(np.linspace(-2.0, 2.0, 45), np.linspace(-1.0, 1.0, 30), indexing="ij"),
        axis=-1,
    )
    values = wigner(theta, grid)
    assert values.shape == (45, 30)
    for i, j in ((1, 2), (34, 4), (44, 29)):
        assert values[i, j] == pytest.approx(wigner(theta, grid[i, j]), rel=1e-13)
    assert isinstance(wigner(theta, grid[0, 0]), float)


def test_wigner_batch_singular_covariance_raises():
    with pytest.raises(SingularCovariance):
        wigner(np.diag([1.0, 0.0]), np.zeros((4, 2)))


def test_wigner_wrong_point_dimension_raises():
    with pytest.raises(ValueError):
        wigner(np.eye(2), np.zeros((4, 3)))


# --- purity ----------------------------------------------------------------------

def test_purity_identity_is_one():
    assert purity(np.eye(6)).mu == pytest.approx(1.0)


@pytest.mark.parametrize("c,d", [(2.0, 4), (0.5, 6)])
def test_purity_scalar_covariance(c, d):
    assert purity(c * np.eye(d)).mu == pytest.approx(c ** (-d / 2), rel=1e-12)


def test_purity_unitary_congruence_invariant():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    theta = A @ A.conj().T + 0.5 * np.eye(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    mu0 = purity(theta).mu
    mu1 = purity(q @ theta @ q.conj().T).mu
    assert mu1 == pytest.approx(mu0, rel=1e-10)


def test_purity_uses_log_determinant_for_large_dim():
    d = 300
    result = purity(2.0 * np.eye(d))
    assert result.log_abs_det == pytest.approx(d * np.log(2.0), rel=1e-12)
    assert result.mu == pytest.approx(np.exp(-0.5 * d * np.log(2.0)))


def test_purity_vacuum_at_large_dim():
    # |det| = 2^-998 underflows in linear space; the gate works in log space.
    # slogdet sums 998 logarithms, so mu carries ~1e-11 relative rounding.
    result = purity(0.5 * np.eye(998))
    assert result.log_abs_det == pytest.approx(998 * np.log(0.5), rel=1e-12)
    assert result.mu == pytest.approx(2.0**499, rel=1e-10)


def test_purity_singular_raises():
    theta = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NonPositiveDeterminant):
        purity(theta)


def test_purity_accepts_covariance_wrapper():
    layout = BlockLayout(n_modes=1, n_material=1)
    theta = CovarianceMatrix(matrix=np.eye(4, dtype=complex), layout=layout)
    assert purity(theta).mu == pytest.approx(1.0)


def test_single_mode_purity_matches_wigner_overlap():
    # Overlap convention matched to the normalized Wigner form:
    # mu = (4 pi)^n * int W^2 for n = dim/2 modes.
    theta = np.array([[0.8, 0.25], [0.25, 0.9]], dtype=complex)
    mu = purity(theta).mu
    L = 6.0
    axis = np.linspace(-L, L, 161)
    vals = np.array([[wigner(theta, np.array([x, p])) ** 2 for p in axis] for x in axis])
    overlap = 4.0 * np.pi * np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    assert overlap == pytest.approx(mu, abs=1e-4)
