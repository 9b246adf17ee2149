"""Input states: Gaussian amplitudes, grid-file I/O, covariance assembly."""

import numpy as np
import pytest

from pairspec import (
    assemble_input_covariance,
    build_grid,
    gaussian_jsa,
    jsa_from_jsi,
    jsi_of,
    load_jsa,
    load_jsi,
    nm_to_mev,
    save_jsa,
    save_jsi,
)
from pairspec.errors import (
    DegenerateWidth,
    NegativeIntensity,
    NonUniformAxis,
    ParseError,
)
from pairspec import states
from pairspec.states import JointSpectralIntensity
from pairspec.observables import schmidt, von_neumann_entropy


@pytest.fixture
def grid():
    return build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0))


# --- gaussian_jsa ------------------------------------------------------------

def test_equal_widths_factorize(grid):
    jsa = gaussian_jsa(grid, pump_center=3600.0, sum_width=20.0, diff_width=20.0)
    spectrum = schmidt(jsa)
    assert von_neumann_entropy(spectrum) < 1e-10
    assert spectrum.values[0] == pytest.approx(1.0)


def test_peak_at_quoted_cell():
    # pump_center = 3609, diff_offset = -29 puts the peak at (1790, 1819);
    # unit spacing makes both coordinates exact grid points.
    grid = build_grid(121, (1740.0, 1860.0), (1740.0, 1860.0))
    jsa = gaussian_jsa(grid, 3609.0, sum_width=8.0, diff_width=30.0, diff_offset=-29.0)
    i, j = np.unravel_index(np.abs(jsa.values).argmax(), jsa.values.shape)
    assert grid.signal[i] == pytest.approx(1790.0)
    assert grid.idler[j] == pytest.approx(1819.0)


def test_gaussian_is_normalized(grid):
    jsa = gaussian_jsa(grid, 3620.0, sum_width=11.0, diff_width=37.0, diff_offset=4.0)
    assert jsa.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_gaussian_symmetric_under_channel_exchange(grid):
    jsa = gaussian_jsa(grid, 3600.0, sum_width=10.0, diff_width=30.0, diff_offset=0.0)
    assert np.allclose(jsa.values, jsa.values.T)


def test_degenerate_width_raises(grid):
    with pytest.raises(DegenerateWidth):
        gaussian_jsa(grid, 3600.0, sum_width=0.0, diff_width=10.0)
    with pytest.raises(DegenerateWidth):
        gaussian_jsa(grid, 3600.0, sum_width=10.0, diff_width=-1.0)


# --- jsa_from_jsi ------------------------------------------------------------

def test_flat_phase_recovers_positive_amplitude(grid):
    jsa = gaussian_jsa(grid, 3600.0, sum_width=9.0, diff_width=28.0)
    jsi = jsi_of(jsa)
    back = jsa_from_jsi(jsi)
    assert np.allclose(back.values.imag, 0.0)
    assert np.allclose(np.abs(back.values) ** 2, jsi.values, atol=1e-12)


def test_constant_jsi_gives_constant_amplitude(grid):
    n = grid.n
    area = grid.signal_spacing * grid.idler_spacing
    jsi = JointSpectralIntensity(grid, np.full((n, n), 1.0 / (n * n * area)))
    back = jsa_from_jsi(jsi)
    assert np.allclose(back.values, back.values[0, 0])


# --- covariance assembly ------------------------------------------------------

def test_single_mode_covariance_pattern():
    grid = build_grid(1, (1790.0, 1790.0), (1819.0, 1819.0))
    jsa = gaussian_jsa(grid, 3609.0, sum_width=5.0, diff_width=20.0, diff_offset=-29.0)
    f = jsa.values[0, 0]
    theta = assemble_input_covariance(jsa, 1)
    assert theta.dim == 4
    expected = 0.5 * np.eye(4, dtype=complex)
    expected[0, 1] = f
    expected[1, 0] = np.conj(f)
    assert np.array_equal(theta.matrix, expected)


def test_zero_amplitude_gives_vacuum(grid):
    jsa = gaussian_jsa(grid, 3600.0, sum_width=9.0, diff_width=28.0)
    jsa.values[:] = 0.0
    theta = assemble_input_covariance(jsa, 2)
    assert np.array_equal(theta.matrix, 0.5 * np.eye(theta.dim))


def test_covariance_hermitian_for_complex_amplitude(grid):
    rng = np.random.default_rng(4)
    jsa = gaussian_jsa(grid, 3600.0, sum_width=9.0, diff_width=28.0)
    jsa.values = jsa.values * np.exp(1j * rng.normal(size=jsa.values.shape))
    theta = assemble_input_covariance(jsa, 1)
    assert theta.hermiticity_defect() < 1e-12
    assert np.allclose(np.diag(theta.matrix), 0.5)


# --- grid file I/O -------------------------------------------------------------

def test_tiny_grid_file_parses(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "# units: meV\n"
        "wavelength_nm\\omega,1800,1810\n"
        "1700,1,0\n"
        "1710,0,1\n",
        encoding="utf-8",
    )
    jsi = load_jsi(path)
    area = jsi.grid.signal_spacing * jsi.grid.idler_spacing
    assert np.allclose(jsi.values, np.eye(2) / (2.0 * area))
    assert jsi.total_mass() == pytest.approx(1.0)


def test_negative_cell_raises(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "# units: meV\n"
        "wavelength_nm\\omega,1800,1810\n"
        "1700,1,-0.5\n"
        "1710,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(NegativeIntensity):
        load_jsi(path)


def test_missing_units_header_raises(tmp_path):
    path = tmp_path / "nounits.csv"
    path.write_text("wavelength_nm\\omega,1800\n1700,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_jsi(path)


def test_bad_corner_raises(tmp_path):
    path = tmp_path / "corner.csv"
    path.write_text("# units: meV\nomega,1800\n1700,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_jsi(path)


def test_ragged_row_raises(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "# units: meV\nwavelength_nm\\omega,1800,1810\n1700,1\n", encoding="utf-8"
    )
    with pytest.raises(ParseError):
        load_jsi(path)


def test_nonuniform_axis_raises(tmp_path):
    path = tmp_path / "nonuniform.csv"
    path.write_text(
        "# units: meV\n"
        "wavelength_nm\\omega,1800,1810,1820\n"
        "1700,1,0,0\n"
        "1703,0,1,0\n"
        "1710,0,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(NonUniformAxis):
        load_jsi(path)


def test_jsi_round_trip(tmp_path, grid):
    jsa = gaussian_jsa(grid, 3600.0, sum_width=9.0, diff_width=28.0)
    jsi = jsi_of(jsa)
    path = tmp_path / "roundtrip.csv"
    save_jsi(jsi, path)
    back = load_jsi(path)
    assert np.allclose(back.values, jsi.values, rtol=0, atol=1e-12)
    assert np.allclose(back.grid.signal, grid.signal)


def test_jsa_round_trip_complex(tmp_path, grid):
    rng = np.random.default_rng(6)
    jsa = gaussian_jsa(grid, 3600.0, sum_width=9.0, diff_width=28.0)
    jsa.values = jsa.values * np.exp(1j * rng.normal(size=jsa.values.shape))
    path = tmp_path / "jsa.csv"
    save_jsa(jsa, path)
    back = load_jsa(path)
    assert np.allclose(back.values, jsa.values, rtol=0, atol=1e-12)


def test_nm_file_loads_to_increasing_mev(tmp_path):
    # nm axes sorted ascending are descending in energy; the loader flips
    # them back.  Wavelengths are chosen so the energies are uniform.
    energies = [1800.0, 1750.0, 1700.0]
    w = [f"{1239841.98 / e:.12f}" for e in energies]  # ascending nm
    rows = ["# units: nm", "wavelength_nm\\omega," + ",".join(w)]
    vals = np.diag([3.0, 2.0, 1.0])  # 3.0 sits at the smallest nm = 1800 meV
    for i, x in enumerate(w):
        rows.append(",".join([x] + [str(v) for v in vals[i]]))
    path = tmp_path / "nm.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    jsi = load_jsi(path)
    assert np.all(np.diff(jsi.grid.signal) > 0)
    assert jsi.grid.signal[0] == pytest.approx(1700.0, rel=1e-9)
    # Both axes were flipped, so the 3.0 cell lands at the high-energy corner.
    assert jsi.values[2, 2] > jsi.values[0, 0]


def _per_cell_grid(signal, idler, cells, complex_cells):
    """The grid text as the writer formatted it cell by cell."""
    def fmt(x):
        return "{:.17g}".format(float(x))

    def fmt_complex(z):
        z = complex(z)
        return f"{z.real:.17g}{z.imag:+.17g}j"

    cell = fmt_complex if complex_cells else fmt
    lines = ["# units: meV", ",".join(["wavelength_nm\\omega"] + [fmt(w) for w in idler])]
    for r in range(len(signal)):
        lines.append(",".join([fmt(signal[r])] + [cell(v) for v in cells[r]]))
    return "\n".join(lines) + "\n"


_AWKWARD = [-0.0, 0.0, 1e-320, 5e-324, 1e300, -1e300, float("inf"), float("-inf"), float("nan"),
            1.0, 0.1, 2.0 / 3.0, 1e16, 123456789012345678.0, -2.5e-7]


@pytest.mark.parametrize("complex_cells", [False, True])
def test_row_formatter_matches_per_cell_formatting(tmp_path, complex_cells):
    rng = np.random.default_rng(83)
    n = 8
    signal = np.linspace(1740.0, 1860.0, n)
    idler = np.linspace(1745.0, 1875.0, n)
    values = np.exp(rng.normal(scale=20.0, size=(n, n))) * rng.choice([-1.0, 1.0], size=(n, n))
    values.flat[: len(_AWKWARD)] = _AWKWARD
    if complex_cells:
        imag = rng.normal(size=(n, n))
        imag.flat[-len(_AWKWARD):] = _AWKWARD
        values = values + 1j * imag
    path = tmp_path / "grid.csv"
    states._write_grid(str(path), signal, idler, values, "meV",
                       states._COMPLEX_CELL if complex_cells else states._FLOAT_CELL)
    assert path.read_bytes() == _per_cell_grid(signal, idler, values, complex_cells).encode()
