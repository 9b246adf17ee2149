"""Run configuration: a flat key = value text format with dotted sections.

Example::

    schema_version = 1
    grid.n = 64
    grid.signal_min = 1740
    grid.signal_max = 1860
    grid.idler_min = 1740
    grid.idler_max = 1860
    system.omega_c = 1809
    system.material_freqs = 1809
    system.g = 0.5
    system.sqrt_kappa = 488
    system.epsilon = 1e-3
    input.kind = gaussian
    input.pump_center = 3609
    input.sum_width = 8
    input.diff_width = 30
    input.diff_offset = -29
    output.dir = out

Lines starting with ``#`` are comments.  Unknown keys are rejected.
"""

import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import nm_to_mev

SCHEMA_VERSION = "1"

_KNOWN_KEYS = {
    "schema_version",
    "grid.n",
    "grid.signal_min",
    "grid.signal_max",
    "grid.idler_min",
    "grid.idler_max",
    "grid.units",
    "system.omega_c",
    "system.material_freqs",
    "system.g",
    "system.sqrt_kappa",
    "system.epsilon",
    "input.kind",
    "input.pump_center",
    "input.sum_width",
    "input.diff_width",
    "input.diff_offset",
    "input.path",
    "sweep.parameter",
    "sweep.values",
    "sweep.material_counts",
    "output.dir",
    "flags.continuum_scaling",
    "flags.sign_convention",
    "flags.entropy_variant",
}

# A run holds at most about this many dense d x d complex128 matrices at once
# (tracemalloc peak of execute_run at n = 64, 128 and 256: 14.1, 13.3 and 13.1).
_DENSE_MATRICES_AT_PEAK = 15

_SWEEPABLE = ("sqrt_kappa", "g", "epsilon", "omega_c")
_GAUSSIAN_KEYS = ("input.pump_center", "input.sum_width", "input.diff_width", "input.diff_offset")


@dataclass
class RunConfig:
    # Grid fields are None for file inputs (the file defines the grid).
    n: int | None
    signal_range: tuple | None
    idler_range: tuple | None
    omega_c: float
    material_freqs: tuple
    g: float
    sqrt_kappa: float
    epsilon: float
    input_kind: str
    gaussian: dict | None = None
    input_path: str | None = None
    sweep_parameter: str | None = None
    sweep_values: tuple = ()
    sweep_material_counts: tuple = ()
    output_dir: str = "out"
    continuum_scaling: bool = False
    sign_convention: str = "paper"
    entropy_variant: str = "amplitude"
    raw: dict = field(default_factory=dict)


def parse_config_text(text, source="<config>"):
    """Parse the flat key/value syntax into a raw string dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _get(raw, key, source, default=None, required=False):
    if key in raw:
        return raw[key]
    if required:
        raise ConfigError(f"{source}: missing required key {key!r}")
    return default


def _as_float(raw, key, source, default=None, required=False):
    value = _get(raw, key, source, default=default, required=required)
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: key {key!r} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{source}: key {key!r} must be finite, got {value!r}")
    return number


def _as_int(raw, key, source, required=False, default=None):
    value = _get(raw, key, source, default=default, required=required)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: key {key!r} must be an integer, got {value!r}") from None


def _as_bool(raw, key, source, default=False):
    value = _get(raw, key, source)
    if value is None:
        return default
    lowered = str(value).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{source}: key {key!r} must be a boolean, got {value!r}")


def _as_float_list(raw, key, source):
    value = _get(raw, key, source)
    if value is None or value == "":
        return ()
    try:
        numbers = tuple(float(v.strip()) for v in value.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} must be a comma list of numbers") from None
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{source}: key {key!r} must be a comma list of finite numbers")
    return numbers


def _as_int_list(raw, key, source):
    value = _get(raw, key, source)
    if value is None or value == "":
        return ()
    try:
        return tuple(int(v.strip()) for v in value.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} must be a comma list of integers") from None


def _check_fits_in_memory(n, m_max, source):
    """Refuse a grid whose dense working set exceeds physical memory (not
    checked where the platform does not report it)."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    d = 2 * n + 1 + m_max
    need = _DENSE_MATRICES_AT_PEAK * 16 * d * d
    if need > have:
        raise ConfigError(
            f"{source}: grid.n = {n} needs about {need / 2**30:.3g} GiB for dense "
            f"{d}x{d} matrices, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def config_from_raw(raw, source="<config>"):
    version = _get(raw, "schema_version", source, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    units = _get(raw, "grid.units", source, default="meV")
    if units not in ("meV", "nm"):
        raise ConfigError(f"{source}: grid.units must be 'meV' or 'nm', got {units!r}")

    kind_early = _get(raw, "input.kind", source, required=True)
    grid_required = kind_early == "gaussian"

    n = _as_int(raw, "grid.n", source, required=grid_required)
    if n is not None and n < 1:
        raise ConfigError(f"{source}: grid.n must be >= 1")

    def axis_range(lo_key, hi_key):
        lo = _as_float(raw, lo_key, source, required=grid_required)
        hi = _as_float(raw, hi_key, source, required=grid_required)
        if lo is None or hi is None:
            return None
        if units == "nm":
            # nm ranges invert under conversion to energy.
            lo, hi = sorted((nm_to_mev(lo), nm_to_mev(hi)))
        return (lo, hi)

    signal_range = axis_range("grid.signal_min", "grid.signal_max")
    idler_range = axis_range("grid.idler_min", "grid.idler_max")

    material_freqs = _as_float_list(raw, "system.material_freqs", source)
    epsilon = _as_float(raw, "system.epsilon", source, default="1e-3")
    if epsilon < 0:
        raise ConfigError(f"{source}: system.epsilon must be >= 0")

    kind = _get(raw, "input.kind", source, required=True)
    if kind not in ("gaussian", "file"):
        raise ConfigError(f"{source}: input.kind must be 'gaussian' or 'file', got {kind!r}")
    gaussian = None
    input_path = None
    if kind == "gaussian":
        if "input.path" in raw:
            raise ConfigError(f"{source}: input.kind=gaussian excludes input.path (exactly one input source)")
        gaussian = {
            "pump_center": _as_float(raw, "input.pump_center", source, required=True),
            "sum_width": _as_float(raw, "input.sum_width", source, required=True),
            "diff_width": _as_float(raw, "input.diff_width", source, required=True),
            "diff_offset": _as_float(raw, "input.diff_offset", source, default="0"),
        }
    else:
        for key in _GAUSSIAN_KEYS:
            if key in raw:
                raise ConfigError(f"{source}: input.kind=file excludes {key} (exactly one input source)")
        input_path = _get(raw, "input.path", source, required=True)

    sweep_parameter = _get(raw, "sweep.parameter", source)
    sweep_values = _as_float_list(raw, "sweep.values", source)
    if sweep_parameter is not None:
        if sweep_parameter not in _SWEEPABLE:
            raise ConfigError(
                f"{source}: sweep.parameter must be one of {_SWEEPABLE}, got {sweep_parameter!r}"
            )
        if not sweep_values:
            raise ConfigError(f"{source}: sweep.values is required when sweep.parameter is set")
        if len(set(sweep_values)) != len(sweep_values):
            raise ConfigError(f"{source}: sweep.values must be distinct")

    sweep_material_counts = _as_int_list(raw, "sweep.material_counts", source)
    if n is not None:
        _check_fits_in_memory(n, max((len(material_freqs), *sweep_material_counts)), source)

    sign_convention = _get(raw, "flags.sign_convention", source, default="paper")
    if sign_convention not in ("paper", "hamiltonian"):
        raise ConfigError(f"{source}: flags.sign_convention must be 'paper' or 'hamiltonian'")
    entropy_variant = _get(raw, "flags.entropy_variant", source, default="amplitude")
    if entropy_variant not in ("amplitude", "magnitude"):
        raise ConfigError(f"{source}: flags.entropy_variant must be 'amplitude' or 'magnitude'")

    return RunConfig(
        n=n,
        signal_range=signal_range,
        idler_range=idler_range,
        omega_c=_as_float(raw, "system.omega_c", source, required=True),
        material_freqs=material_freqs,
        g=_as_float(raw, "system.g", source, default="0"),
        sqrt_kappa=_as_float(raw, "system.sqrt_kappa", source, default="0"),
        epsilon=epsilon,
        input_kind=kind,
        gaussian=gaussian,
        input_path=input_path,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        sweep_material_counts=sweep_material_counts,
        output_dir=_get(raw, "output.dir", source, default="out"),
        continuum_scaling=_as_bool(raw, "flags.continuum_scaling", source),
        sign_convention=sign_convention,
        entropy_variant=entropy_variant,
        raw=dict(raw),
    )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_raw(parse_config_text(text, source=str(path)), source=str(path))
