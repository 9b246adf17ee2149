"""Input states: Gaussian amplitudes, grid-file I/O, covariance assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    with pytest.raises(DegenerateWidth, match="^sum_width"):
        gaussian_jsa(grid, 3600.0, sum_width=0.0, diff_width=10.0)
    with pytest.raises(DegenerateWidth, match="^diff_width"):
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


_TWO_BY_TWO = "# units: meV\nwavelength_nm\\omega,1800,1810\n1700,1,0\n{}\n"


def test_ragged_row_message_names_the_file_row():
    # Row 1 is the axis row, so the second data row is row 3.
    with pytest.raises(ParseError, match="row 3 has 2 cells, expected 3"):
        states.parse_grid_text(_TWO_BY_TWO.format("1710,0"))


@pytest.mark.parametrize("row, bad, complex_values", [
    ("1710,0,x", "float: 'x'", False), ("1710,0,x", "complex: 'x'", True),
    ("1710,0,", "float: ''", False), ("1710,x,1", "complex: 'x'", True),
    # The signal axis is real in either kind of file.
    ("1+2j,0,1", "float: '1\\+2j'", False), ("1+2j,0,1", "float: '1\\+2j'", True),
])
def test_non_numeric_cell_message_names_the_file_row(row, bad, complex_values):
    with pytest.raises(ParseError, match=f"row 3 is not numeric: could not convert string to {bad}"):
        states.parse_grid_text(_TWO_BY_TWO.format(row), complex_values=complex_values)


@pytest.mark.parametrize("cell, complex_values", [("1_0", False), ("1_0", True),
                                                  ("1+2J", True), ("j", True)])
def test_number_syntax_is_numpys(cell, complex_values):
    # Python's float() and complex() read these; the grid reader does not.
    with pytest.raises(ParseError, match="row 3 is not numeric"):
        states.parse_grid_text(_TWO_BY_TWO.format(f"1710,0,{cell}"), complex_values=complex_values)


def test_idler_axis_message_names_the_cell():
    text = "# units: meV\nwavelength_nm\\omega,1800,abc\n1700,1,0\n1710,0,1\n"
    with pytest.raises(ParseError, match="idler axis is not numeric: could not convert string to "
                                         "float: 'abc'"):
        states.parse_grid_text(text)


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
# Exact half-even ties at 17 digits: the writer hands these to Python.
_TIES = [0.00390720367431640625, 0.250003814697265625, 8.00000762939453125,
         16.0000152587890625]


def _exactness_values():
    """Values whose 17-digit text is easy to get wrong, then random doubles."""
    powers = np.array([10.0**k for k in range(-307, 309)])
    edges = [
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0,
        # fixed notation runs from decimal exponent -4 to 16
        0.0001, 9.9999999999999991e-05, 0.00010000000000000002, 1e-05,
        9999999999999998.0, 1e16, 99999999999999984.0, 1e17, 100000000000000016.0,
    ]
    bits = np.random.default_rng(83).integers(0, 2**64, size=2**16, dtype=np.uint64)
    return np.concatenate([
        _AWKWARD, _TIES, edges, powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf), bits.view(np.float64),
    ])


@pytest.mark.parametrize("complex_cells", [False, True])
def test_row_formatter_matches_per_cell_formatting(tmp_path, complex_cells):
    values = _exactness_values()
    n = 256
    rows = -(-values.size // n)
    idler = values[:n]
    signal = values[n : n + rows]
    cells = np.resize(values, (rows, n))
    if complex_cells:
        imag = np.random.default_rng(84).permutation(cells.ravel()).reshape(rows, n)
        # Set .imag rather than add 1j * imag: 1j * inf has a nan real part.
        cells = cells.astype(np.complex128)
        cells.imag = imag
    text = states.format_grid(signal, idler, cells, "meV")
    assert text == _per_cell_grid(signal, idler, cells, complex_cells)
    path = tmp_path / "grid.csv"
    states._write_grid(str(path), signal, idler, cells, "meV")
    assert path.read_bytes() == text.encode()
    header = states.format_grid([1.0], _TIES, [_TIES], "meV").splitlines()[1]
    assert header.endswith(
        ",0.0039072036743164062,0.25000381469726562,8.0000076293945312,16.000015258789062")


_GRID_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)


@pytest.mark.parametrize("complex_cells", [False, True])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_property_writer_matches_per_cell_formatting(data, complex_cells):
    def floats(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=st.floats()))

    rows, cols = data.draw(_GRID_SHAPES)
    cells = floats((rows, cols))
    if complex_cells:
        cells = cells.astype(np.complex128)
        cells.imag = floats((rows, cols))
    signal, idler = floats(rows), floats(cols)
    text = states.format_grid(signal, idler, cells, "meV")
    assert text == _per_cell_grid(signal, idler, cells, complex_cells)
