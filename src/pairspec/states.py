"""Input photon-pair states: joint spectral amplitudes/intensities and the
input covariance matrix.

Grid files are UTF-8 CSV with a required "# units: meV" or "# units: nm"
comment line, corner cell ``wavelength_nm\\omega``, first row = idler axis,
first column = signal axis, remaining cells real intensity (JSI) or
``re+imj`` pairs (JSA), every number as ``np.loadtxt`` reads it.  Axes must
be strictly monotone with uniform spacing.
"""

from dataclasses import dataclass

import numpy as np

from . import gridtext, numkit
from .errors import (
    DegenerateWidth,
    InvalidRange,
    NegativeIntensity,
    NonPositiveInput,
    NonUniformAxis,
    ParseError,
)
from .model import HC_MEV_NM, BlockLayout, FrequencyGrid

CORNER_LABEL = "wavelength_nm\\omega"


@dataclass
class JointSpectralAmplitude:
    """Complex pair amplitude F(omega_s, omega_i) on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {self.values.shape}")

    def norm_squared(self):
        """Discrete norm sum |F|^2 * d_omega_s * d_omega_i."""
        return float(
            np.sum(np.abs(self.values) ** 2)
            * self.grid.signal_spacing
            * self.grid.idler_spacing
        )

    def normalized(self):
        nsq = self.norm_squared()
        if nsq == 0.0:
            raise ValueError("cannot normalize an all-zero amplitude")
        return JointSpectralAmplitude(self.grid, self.values / np.sqrt(nsq))


@dataclass
class JointSpectralIntensity:
    """Nonnegative intensity |F|^2 on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {self.values.shape}")

    def total_mass(self):
        return float(
            np.sum(self.values) * self.grid.signal_spacing * self.grid.idler_spacing
        )

    def normalized(self):
        mass = self.total_mass()
        if mass == 0.0:
            raise ValueError("cannot normalize an all-zero intensity")
        return JointSpectralIntensity(self.grid, self.values / mass)


@dataclass
class CovarianceMatrix:
    """Second-moment matrix over the (signal, idler, cavity, material) blocks."""

    matrix: np.ndarray
    layout: BlockLayout
    grid: FrequencyGrid | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {self.matrix.shape}")

    @property
    def dim(self):
        return self.layout.dim

    def hermiticity_defect(self):
        nrm = np.linalg.norm(self.matrix)
        if nrm == 0:
            return 0.0
        return float(numkit.antihermitian_norm(self.matrix) / nrm)


def gaussian_jsa(grid, pump_center, sum_width, diff_width, diff_offset=0.0):
    """Double Gaussian in sum/difference coordinates, normalized.

    F ~ exp(-(s+i-pump_center)^2 / 2 sum_width^2)
      * exp(-(s-i-diff_offset)^2 / 2 diff_width^2)

    sum_width < diff_width squeezes the state along the anti-diagonal
    (energy-conservation ridge); equal widths with zero offset factorize.

    Raises DegenerateWidth, naming the width at fault first, when a width
    is not positive or so narrow that no grid point has a finite exponent.
    """
    for name, width in (("sum_width", sum_width), ("diff_width", diff_width)):
        if width <= 0:
            raise DegenerateWidth(f"{name} must be positive, got {width!r}")
    S, I = np.meshgrid(grid.signal, grid.idler, indexing="ij")
    # A width whose square is subnormal or zero sends its term to -inf (or
    # to NaN, 0/0) off the points where the term vanishes; a peak that is
    # not finite tells.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_sum = -((S + I - pump_center) ** 2) / (2.0 * sum_width**2)
        log_f = log_sum - ((S - I - diff_offset) ** 2) / (2.0 * diff_width**2)
    peak = log_f.max()
    if not np.isfinite(peak):
        name, width = (("diff_width", diff_width) if np.isfinite(log_sum.max())
                       else ("sum_width", sum_width))
        raise DegenerateWidth(f"{name} = {width!r} is too narrow for the grid: "
                              "its exponent is not finite at any grid point")
    # Peak-referenced exponent keeps narrow states away from underflow; with
    # a finite peak every value lies in [0, 1].
    values = np.exp(log_f - peak)
    return JointSpectralAmplitude(grid, values).normalized()


def jsi_of(jsa, normalize=True):
    """Intensity |F|^2 of an amplitude, unit-mass normalized by default."""
    jsi = JointSpectralIntensity(jsa.grid, np.abs(jsa.values) ** 2)
    return jsi.normalized() if normalize else jsi


def jsa_from_jsi(jsi):
    """Flat-phase amplitude sqrt(JSI).

    Phase is experimentally inaccessible in intensity data; zero phase is the
    minimal assumption and is what this function encodes.
    """
    return JointSpectralAmplitude(jsi.grid, np.sqrt(np.maximum(jsi.values, 0.0)))


def assemble_input_covariance(jsa, n_material):
    """Input covariance: vacuum 1/2 on the diagonal, F in the signal-idler
    block and F^dag in the idler-signal block (Hermitian completion), zero
    photon-cavity/material cross terms."""
    if n_material < 0:
        raise ValueError("n_material must be >= 0")
    n = jsa.grid.n
    layout = BlockLayout(n_modes=n, n_material=n_material)
    d = layout.dim
    theta = 0.5 * np.eye(d, dtype=np.complex128)
    theta[layout.signal, layout.idler] = jsa.values
    theta[layout.idler, layout.signal] = jsa.values.conj().T
    return CovarianceMatrix(matrix=theta, layout=layout, grid=jsa.grid)


# ---------------------------------------------------------------------------
# Grid file I/O
# ---------------------------------------------------------------------------

def _axes_to_units(axis_mev, units):
    if units == "meV":
        return axis_mev
    axis_mev = np.asarray(axis_mev, dtype=np.float64)
    if np.any(axis_mev <= 0):
        raise NonPositiveInput(f"energy must be positive, got {axis_mev[axis_mev <= 0][0]}")
    return HC_MEV_NM / axis_mev


def parse_grid_text(text, complex_values=False, source="<string>"):
    """(signal_mev, idler_mev, values, units) of a grid file's text, with
    both axes in increasing energy (rows/columns permuted accordingly), so
    the result always maps onto an increasing FrequencyGrid.

    The grid must be square with finite cells, and an intensity grid (real
    cells) must have no negative cell and nonzero mass.  Cells are checked
    in the file's order, so a bad cell is named by its 0-based data row and
    column in the file."""
    signal_axis, idler_axis, values, units = _parse_in_file_order(text, complex_values, source)
    if values.shape[0] != values.shape[1]:
        raise ParseError(f"{source}: {'amplitude' if complex_values else 'intensity'} grid "
                         f"must be square, got {values.shape[0]} rows of {values.shape[1]} cells")
    # Finiteness before sign: a -inf cell is named as non-finite in an
    # intensity grid too, as in an amplitude grid, which has no sign check.
    if not np.all(np.isfinite(values)):
        r, c = np.argwhere(~np.isfinite(values))[0]
        # A cell with no imaginary part is named by its real value, so a
        # real file reads alike as an intensity and as an amplitude grid.
        cell = values[r, c].real if values[r, c].imag == 0 else values[r, c]
        raise ParseError(f"{source}: non-finite cell {cell} at row {r}, col {c}")
    if not complex_values and np.any(values < 0):
        r, c = np.argwhere(values < 0)[0]
        raise NegativeIntensity(
            f"{source}: negative intensity {values[r, c]:.6g} at row {r}, col {c}"
        )
    if not complex_values and values.sum() == 0.0:
        raise ParseError(f"{source}: intensity grid has zero total mass")
    return (*_ascending(signal_axis, idler_axis, values), units)


def _read(lines, dtype):
    """The comma-separated numbers of ``lines`` by numpy's parser, which
    reads no underscores, capital J or quotes."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype)


def _unreadable(line, cell_dtype):
    """Python's "could not convert string to float: ..." (or complex) for
    the first cell of a comma row that does not read as one number, the
    first cell as a real axis value and the others as ``cell_dtype``; None
    when every cell reads."""
    for c, cell in enumerate(line.split(",")):
        dtype = cell_dtype if c else np.float64
        try:
            # A blank line is no data to loadtxt, which warns instead of raising.
            if cell.strip() and _read([cell], dtype).size == 1:
                continue
        except ValueError:
            pass
        kind = "complex" if dtype is np.complex128 else "float"
        return f"could not convert string to {kind}: {cell!r}"
    return None


def _parse_in_file_order(text, complex_values, source):
    units = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.lower().startswith("units:"):
                units = stripped.split(":", 1)[1].strip()
            continue
        if line.strip():
            rows.append(line)
    if units not in ("meV", "nm"):
        raise ParseError(
            f"{source}: missing or invalid units header; expected a "
            "'# units: meV' or '# units: nm' comment line"
        )
    if len(rows) < 2:
        raise ParseError(f"{source}: expected a header row and at least one data row")
    header = rows[0].split(",")
    if header[0] != CORNER_LABEL:
        raise ParseError(
            f"{source}: corner cell must be {CORNER_LABEL!r}, got {header[0]!r}"
        )
    n_cols = len(header) - 1
    # The corner cell reads as 0, so the axis row is never blank.
    axis_row = "0" + rows[0][len(CORNER_LABEL):]
    try:
        idler_axis = _read([axis_row], np.float64)[1:]
    except ValueError as exc:
        raise ParseError(f"{source}: idler axis is not numeric: "
                         f"{_unreadable(axis_row, np.float64) or exc}") from None
    for r, line in enumerate(rows[1:], start=2):
        if line.count(",") != n_cols:
            raise ParseError(
                f"{source}: row {r} has {line.count(',') + 1} cells, expected {n_cols + 1}"
            )
    cell_dtype = np.complex128 if complex_values else np.float64
    try:
        table = _read(rows[1:], [("axis", np.float64), ("cells", cell_dtype, (n_cols,))])
    except ValueError as exc:
        # Only on failure: find the cell, in a row numbered as in the file.
        for r, line in enumerate(rows[1:], start=2):
            if bad := _unreadable(line, cell_dtype):
                raise ParseError(f"{source}: row {r} is not numeric: {bad}") from None
        raise ParseError(f"{source}: {exc}") from None

    axes = []
    # A copy, so that the axis does not keep the whole table alive.
    for name, axis in (("signal", table["axis"].copy()), ("idler", idler_axis)):
        if units == "nm":
            if np.any(axis <= 0):
                raise ParseError(f"{source}: {name} axis has nonpositive wavelength")
            axis = HC_MEV_NM / axis
        d = np.diff(axis)
        if axis.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise NonUniformAxis(f"{source}: {name} axis is not strictly monotone")
        axes.append(axis)
    return (*axes, table["cells"], units)


def _ascending(signal_axis, idler_axis, values):
    """Both axes in increasing energy, with the rows and columns of values."""
    if signal_axis.size > 1 and signal_axis[0] > signal_axis[-1]:
        signal_axis = signal_axis[::-1]
        values = values[::-1, :]
    if idler_axis.size > 1 and idler_axis[0] > idler_axis[-1]:
        idler_axis = idler_axis[::-1]
        values = values[:, ::-1]
    return signal_axis, idler_axis, np.ascontiguousarray(values)


def grid_file_n(path):
    """The column count of a grid file's axis row (its first line that is
    neither blank nor a comment: one comma per idler point), read without
    the body, so a size check can run before the cells are parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    return line.count(",")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return 0


def _load_grid(path, complex_values):
    """(FrequencyGrid, values) of a grid file, axes in increasing energy,
    its cells checked as :func:`parse_grid_text` checks them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    signal_axis, idler_axis, values, _ = parse_grid_text(text, complex_values, str(path))
    try:
        return FrequencyGrid(signal=signal_axis, idler=idler_axis), values
    except InvalidRange as exc:
        raise NonUniformAxis(f"{path}: {exc}") from exc


def load_jsi(path):
    """Load an intensity grid whose cells are finite and nonnegative, with
    nonzero mass; the result is unit-mass normalized."""
    return JointSpectralIntensity(*_load_grid(path, complex_values=False)).normalized()


def load_jsa(path):
    """Load a complex amplitude grid (re+imj cells, all finite)."""
    return JointSpectralAmplitude(*_load_grid(path, complex_values=True))


def _grid_bytes(signal_mev, idler_mev, cells, units):
    """ASCII of a grid file, a block of rows at a time."""
    sig = np.asarray(_axes_to_units(signal_mev, units), dtype=np.float64)
    idl = np.asarray(_axes_to_units(idler_mev, units), dtype=np.float64)
    cells = np.asarray(cells, dtype=np.complex128 if np.iscomplexobj(cells) else np.float64)
    yield f"# units: {units}\n{CORNER_LABEL}".encode("ascii")
    yield from gridtext.lines(idl[None, :])
    yield from gridtext.lines(cells, sig)


def format_grid(signal_mev, idler_mev, cells, units):
    """Text of a grid file.  A complex ``cells`` array gives re+imj cells,
    a real one real cells; every number reads as "%.17g" prints it."""
    return b"".join(_grid_bytes(signal_mev, idler_mev, cells, units)).decode("ascii")


def _write_grid(path, signal_mev, idler_mev, cells, units):
    with open(path, "wb") as fh:
        fh.writelines(_grid_bytes(signal_mev, idler_mev, cells, units))


def save_jsi(jsi, path, units="meV"):
    _write_grid(path, jsi.grid.signal, jsi.grid.idler, jsi.values, units)


def save_jsa(jsa, path, units="meV"):
    _write_grid(path, jsa.grid.signal, jsa.grid.idler, jsa.values, units)
