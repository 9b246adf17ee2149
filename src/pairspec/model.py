"""Frequency grids, system parameters, and the block dynamical matrix.

Internal energies are meV with hbar = 1 (time in hbar/meV); all paper-quoted
parameters come in meV/nm.  The mode vector is ordered
(signal_1..signal_n, idler_1..idler_n, cavity, material_1..material_M).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, NonPositiveInput

# hc in meV*nm for wavelength <-> energy conversion.
HC_MEV_NM = 1239841.98

_UNIFORMITY_RTOL = 1e-9


def _check_axis(axis, name):
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 1:
        raise InvalidRange(f"{name} axis must be a nonempty 1-D array")
    if axis.size > 1:
        steps = np.diff(axis)
        if np.any(steps <= 0):
            raise InvalidRange(f"{name} axis must be strictly increasing")
        if (steps.max() - steps.min()) > _UNIFORMITY_RTOL * max(steps.max(), 1e-300):
            raise InvalidRange(f"{name} axis spacing is not uniform")
    return axis


@dataclass(frozen=True)
class FrequencyGrid:
    """Discretized signal and idler axes (meV), n modes per channel."""

    signal: np.ndarray
    idler: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signal", _check_axis(self.signal, "signal"))
        object.__setattr__(self, "idler", _check_axis(self.idler, "idler"))
        if self.signal.size != self.idler.size:
            raise InvalidRange("signal and idler axes must have equal length")

    @property
    def n(self):
        return int(self.signal.size)

    @property
    def signal_spacing(self):
        # Unit weight for a single-point axis keeps discrete sums well defined.
        return float(self.signal[1] - self.signal[0]) if self.n > 1 else 1.0

    @property
    def idler_spacing(self):
        return float(self.idler[1] - self.idler[0]) if self.n > 1 else 1.0


@dataclass(frozen=True)
class SystemParams:
    """Cavity/material frequencies and couplings (meV)."""

    omega_c: float
    material_freqs: tuple = ()
    g: float = 0.0
    sqrt_kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "material_freqs", tuple(float(f) for f in self.material_freqs))
        if not np.all(np.isfinite((self.omega_c, self.g, self.sqrt_kappa, *self.material_freqs))):
            raise InvalidRange("system parameters must be finite")
        if self.omega_c <= 0:
            raise InvalidRange("omega_c must be positive")
        if any(f <= 0 for f in self.material_freqs):
            raise InvalidRange("material frequencies must be positive")
        if self.g < 0 or self.sqrt_kappa < 0:
            raise InvalidRange("g and sqrt_kappa must be nonnegative")

    @property
    def n_material(self):
        return len(self.material_freqs)


@dataclass(frozen=True)
class BlockLayout:
    """Index ranges of the (signal, idler, cavity, material) blocks."""

    n_modes: int
    n_material: int

    @property
    def dim(self):
        return 2 * self.n_modes + 1 + self.n_material

    @property
    def signal(self):
        return slice(0, self.n_modes)

    @property
    def idler(self):
        return slice(self.n_modes, 2 * self.n_modes)

    @property
    def cavity(self):
        return slice(2 * self.n_modes, 2 * self.n_modes + 1)

    @property
    def material(self):
        return slice(2 * self.n_modes + 1, self.dim)


@dataclass(frozen=True)
class DynamicalMatrix:
    """Generator of the linearized mode equations dx/dt = W x.

    Holds no factorization: each solve given a DynamicalMatrix factors
    ``matrix`` as it is then.  To share one factorization across solves,
    pass ``numkit.eigenbasis(W.matrix)`` in place of W."""

    matrix: np.ndarray
    layout: BlockLayout
    grid: FrequencyGrid
    params: SystemParams

    @property
    def dim(self):
        return self.layout.dim


def build_grid(n, signal_range, idler_range):
    """Uniform inclusive grids over the given (min, max) meV ranges.

    n = 1 collapses each axis to the midpoint of its range.
    """
    if n < 1:
        raise InvalidRange(f"n must be >= 1, got {n}")
    axes = []
    for lo, hi in (signal_range, idler_range):
        if hi < lo:
            raise InvalidRange(f"range ({lo}, {hi}) is inverted")
        if n == 1:
            axes.append(np.array([(lo + hi) / 2.0]))
        else:
            if hi == lo:
                raise InvalidRange(f"range ({lo}, {hi}) is empty for n={n}")
            axes.append(np.linspace(lo, hi, n))
    return FrequencyGrid(signal=axes[0], idler=axes[1])


def build_dynamical_matrix(grid, params, continuum_scaling=False, material_sign="paper"):
    """Assemble the block generator.

    Photon blocks are diagonal -i*omega; every photon mode couples to the
    cavity with -i*g (times sqrt(channel spacing) when continuum_scaling is
    on); each material mode couples only to the cavity.  material_sign
    selects the cavity-material entries: "paper" writes -sqrt_kappa in both
    positions, "hamiltonian" the antisymmetric +/-sqrt_kappa variant.

    W is therefore an arrowhead with the cavity as its tip.  Signal and
    idler modes of equal frequency and coupling (equal axes) and identical
    materials are exactly equal modes, which the eigenbasis deflates.
    """
    if material_sign not in ("paper", "hamiltonian"):
        raise ValueError(f"material_sign must be 'paper' or 'hamiltonian', got {material_sign!r}")
    n = grid.n
    M = params.n_material
    layout = BlockLayout(n_modes=n, n_material=M)
    d = layout.dim
    W = np.zeros((d, d), dtype=np.complex128)

    W[layout.signal, layout.signal] = np.diag(-1j * grid.signal)
    W[layout.idler, layout.idler] = np.diag(-1j * grid.idler)

    c = 2 * n
    g_sig = params.g * (np.sqrt(grid.signal_spacing) if continuum_scaling else 1.0)
    g_idl = params.g * (np.sqrt(grid.idler_spacing) if continuum_scaling else 1.0)
    W[:n, c] = -1j * g_sig
    W[n : 2 * n, c] = -1j * g_idl
    W[c, :n] = -1j * g_sig
    W[c, n : 2 * n] = -1j * g_idl
    W[c, c] = -1j * params.omega_c

    for j, omega_m in enumerate(params.material_freqs):
        m = 2 * n + 1 + j
        if material_sign == "paper":
            W[c, m] = -params.sqrt_kappa
            W[m, c] = -params.sqrt_kappa
        else:
            W[c, m] = params.sqrt_kappa
            W[m, c] = -params.sqrt_kappa
        W[m, m] = -1j * omega_m

    return DynamicalMatrix(matrix=W, layout=layout, grid=grid, params=params)


def mev_to_nm(energy_mev):
    """Wavelength (nm) of a photon of the given energy (meV)."""
    if energy_mev <= 0:
        raise NonPositiveInput(f"energy must be positive, got {energy_mev}")
    return HC_MEV_NM / energy_mev


def nm_to_mev(wavelength_nm):
    """Energy (meV) of a photon of the given wavelength (nm)."""
    if wavelength_nm <= 0:
        raise NonPositiveInput(f"wavelength must be positive, got {wavelength_nm}")
    return HC_MEV_NM / wavelength_nm
