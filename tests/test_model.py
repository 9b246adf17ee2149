"""Grid construction, dynamical-matrix assembly, and unit conversions."""

import numpy as np
import pytest

from pairspec import (
    SystemParams,
    build_dynamical_matrix,
    build_grid,
    mev_to_nm,
    nm_to_mev,
)
from pairspec.errors import InvalidRange, NonPositiveInput


def test_single_mode_grid_is_midpoint():
    grid = build_grid(1, (1790.0, 1790.0), (1810.0, 1830.0))
    assert grid.signal.tolist() == [1790.0]
    assert grid.idler.tolist() == [1820.0]


def test_three_point_grid():
    grid = build_grid(3, (0.0, 2.0), (0.0, 2.0))
    assert grid.signal.tolist() == [0.0, 1.0, 2.0]


def test_grid_spacing_recomputed():
    grid = build_grid(64, (1740.0, 1860.0), (1740.0, 1860.0))
    assert grid.signal_spacing == pytest.approx(120.0 / 63.0, rel=1e-12)
    assert np.allclose(np.diff(grid.signal), 120.0 / 63.0)


def test_grid_invalid_ranges():
    with pytest.raises(InvalidRange):
        build_grid(0, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(InvalidRange):
        build_grid(4, (2.0, 1.0), (0.0, 1.0))
    with pytest.raises(InvalidRange):
        build_grid(4, (1.0, 1.0), (0.0, 1.0))


def test_eq13_four_by_four_structure():
    # n = 1, M = 1 must reproduce the single-pair generator exactly.
    omega_s, omega_i, omega_c, omega_m = 1.0, 1.1, 1.2, 1.3
    g, sk = 0.25, 0.4
    grid = build_grid(1, (omega_s, omega_s), (omega_i, omega_i))
    params = SystemParams(omega_c=omega_c, material_freqs=(omega_m,), g=g, sqrt_kappa=sk)
    W = build_dynamical_matrix(grid, params).matrix
    expected = np.array(
        [
            [-1j * omega_s, 0, -1j * g, 0],
            [0, -1j * omega_i, -1j * g, 0],
            [-1j * g, -1j * g, -1j * omega_c, -sk],
            [0, 0, -sk, -1j * omega_m],
        ]
    )
    assert np.array_equal(W, expected)


def test_free_evolution_is_diagonal():
    grid = build_grid(3, (1.0, 1.2), (1.3, 1.5))
    params = SystemParams(omega_c=2.0, material_freqs=(2.1,), g=0.0, sqrt_kappa=0.0)
    W = build_dynamical_matrix(grid, params).matrix
    freqs = np.concatenate([grid.signal, grid.idler, [2.0], [2.1]])
    assert np.array_equal(W, np.diag(-1j * freqs))


def test_two_material_modes_hand_oracle():
    # n = 2, M = 2: 7x7 with every photon row coupling only to the cavity and
    # each material row coupling only to the cavity.
    grid = build_grid(2, (1.0, 1.1), (1.2, 1.3))
    params = SystemParams(omega_c=1.5, material_freqs=(1.6, 1.7), g=0.3, sqrt_kappa=0.2)
    W = build_dynamical_matrix(grid, params).matrix
    expected = np.zeros((7, 7), dtype=complex)
    for k, w in enumerate([1.0, 1.1, 1.2, 1.3]):
        expected[k, k] = -1j * w
        expected[k, 4] = -1j * 0.3
        expected[4, k] = -1j * 0.3
    expected[4, 4] = -1j * 1.5
    for j, w in enumerate([1.6, 1.7]):
        m = 5 + j
        expected[4, m] = -0.2
        expected[m, 4] = -0.2
        expected[m, m] = -1j * w
    assert np.array_equal(W, expected)


def test_block_layout_slices():
    grid = build_grid(3, (1.0, 1.2), (1.3, 1.5))
    params = SystemParams(omega_c=2.0, material_freqs=(2.0, 2.0), g=0.1, sqrt_kappa=0.1)
    dm = build_dynamical_matrix(grid, params)
    assert dm.dim == 2 * 3 + 1 + 2
    assert dm.layout.signal == slice(0, 3)
    assert dm.layout.idler == slice(3, 6)
    assert dm.layout.cavity == slice(6, 7)
    assert dm.layout.material == slice(7, 9)


def test_swap_channels_is_a_permutation():
    # Swapping the signal/idler axes permutes W by the same permutation.
    grid = build_grid(3, (1.0, 1.2), (1.4, 1.8))
    swapped = build_grid(3, (1.4, 1.8), (1.0, 1.2))
    params = SystemParams(omega_c=2.0, material_freqs=(2.1,), g=0.2, sqrt_kappa=0.3)
    W = build_dynamical_matrix(grid, params).matrix
    W_swap = build_dynamical_matrix(swapped, params).matrix
    d = W.shape[0]
    P = np.zeros((d, d))
    for k in range(3):
        P[k, 3 + k] = 1.0
        P[3 + k, k] = 1.0
    P[6, 6] = 1.0
    P[7, 7] = 1.0
    assert np.array_equal(W_swap, P @ W @ P.T)


def test_spectrum_imaginary_without_material_coupling():
    grid = build_grid(4, (1.0, 1.6), (1.0, 1.6))
    params = SystemParams(omega_c=1.3, material_freqs=(1.3,), g=0.4, sqrt_kappa=0.0)
    W = build_dynamical_matrix(grid, params).matrix
    eig = np.linalg.eigvals(W)
    assert np.abs(eig.real).max() < 1e-10 * np.linalg.norm(W)


def test_spectrum_gains_real_parts_with_material_coupling():
    grid = build_grid(2, (1.0, 1.2), (1.0, 1.2))
    params = SystemParams(omega_c=1.1, material_freqs=(1.1,), g=0.1, sqrt_kappa=0.5)
    W = build_dynamical_matrix(grid, params).matrix
    eig = np.linalg.eigvals(W)
    # Printed sign convention: the resonant cavity-material pair splits into
    # gain/loss with Re lambda close to +-sqrt_kappa; the builder accepts it.
    assert eig.real.max() > 0.4


def test_hamiltonian_sign_convention_is_antisymmetric():
    grid = build_grid(2, (1.0, 1.2), (1.0, 1.2))
    params = SystemParams(omega_c=1.1, material_freqs=(1.1,), g=0.1, sqrt_kappa=0.5)
    W = build_dynamical_matrix(grid, params, material_sign="hamiltonian").matrix
    eig = np.linalg.eigvals(W)
    # Antisymmetric coupling keeps W anti-Hermitian: purely imaginary spectrum.
    assert np.abs(eig.real).max() < 1e-10 * np.linalg.norm(W)
    assert W[4, 5] == pytest.approx(0.5)
    assert W[5, 4] == pytest.approx(-0.5)


def test_continuum_scaling_multiplies_by_sqrt_spacing():
    grid = build_grid(4, (1.0, 1.6), (1.0, 1.6))
    params = SystemParams(omega_c=1.3, material_freqs=(), g=0.5, sqrt_kappa=0.0)
    bare = build_dynamical_matrix(grid, params).matrix
    scaled = build_dynamical_matrix(grid, params, continuum_scaling=True).matrix
    ratio = scaled[0, 8] / bare[0, 8]
    assert ratio == pytest.approx(np.sqrt(grid.signal_spacing))


def test_mev_nm_paper_values():
    assert mev_to_nm(1809.0) == pytest.approx(685.4, abs=0.1)
    assert mev_to_nm(488.0) == pytest.approx(2540.7, abs=0.1)


def test_mev_nm_round_trip():
    for x in (1.0, 488.0, 1809.0, 3000.0):
        assert nm_to_mev(mev_to_nm(x)) == pytest.approx(x, rel=1e-12)


def test_conversion_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        mev_to_nm(0.0)
    with pytest.raises(NonPositiveInput):
        nm_to_mev(-5.0)


def test_params_validation():
    with pytest.raises(InvalidRange):
        SystemParams(omega_c=-1.0)
    with pytest.raises(InvalidRange):
        SystemParams(omega_c=1.0, g=-0.1)
    with pytest.raises(InvalidRange):
        SystemParams(omega_c=1.0, material_freqs=(0.0,))
    with pytest.raises(InvalidRange):
        SystemParams(omega_c=1.0, epsilon=float("nan"))
    with pytest.raises(InvalidRange):
        SystemParams(omega_c=1.0, g=float("inf"))
