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

Lines starting with ``#`` are comments.  Unknown keys are rejected.  ``KEYS``
lists every key with its parser or allowed values and its default.
"""

import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .model import nm_to_mev
from .scattering import DEFAULT_EPSILON

SCHEMA_VERSION = "1"

# A run holds at most about this many dense d x d complex128 matrices at once,
# with one matrix to spare.  Its eps and eps/2 propagations run at the same
# time beside the shared Theta_in and V_core, V_core^-1: each shift holds one
# matrix (its Theta_out is written over its X), and both first passes come
# from one V^-1 Theta_in V^-dag made before they start.  tracemalloc peaks
# on the README config (tools/peak_memory.py, 35 runs each) are at most
# 6.33, 5.70 and 4.66 for execute_run and 7.95, 5.06 and 3.43 for writing
# its artifacts at n = 64, 128 and 256: the write at n = 64, from the text
# of its three n x n grids, sets this count.
_DENSE_MATRICES_AT_PEAK = 9
# Each sweep point running beside another adds at most this many: a point
# runs no eps/2 shift.  The README sweep (8 points) peaked at 8.7, 5.7 and
# 4.0 matrices with one thread at n = 64, 128 and 256, and each point
# beyond the first added at most 6.5, 5.0 and 3.4 with 2 and 4 threads
# (one run each).  At n = 64 the text of a point's artifacts, not its
# d x d matrices, sets that figure.
_DENSE_MATRICES_PER_SWEEP_POINT = 8


# The largest magnitude of a number (and of epsilon): the square or product
# of two such values stays below 1e300, so the model's products and norms
# stay finite instead of overflowing float64.
NUMBER_MAX = 1e150


# A parser turns a value's text into the value, or raises ValueError naming
# what the text must be.
def _number(text):
    try:
        number = float(text)
    except ValueError:
        raise ValueError("a number") from None
    if not math.isfinite(number):
        raise ValueError("finite")
    if abs(number) > NUMBER_MAX:
        raise ValueError(f"at most {NUMBER_MAX:g} in magnitude")
    return number


def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("an integer") from None


def _boolean(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("a boolean")


def _numbers(text):
    try:
        return tuple(_number(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError("a comma list of finite numbers of magnitude at most "
                         f"{NUMBER_MAX:g}") from None


def _integers(text):
    try:
        return tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError("a comma list of integers") from None


_REQUIRED = object()

# The schema: key -> (parser or tuple of allowed values, default).  Every
# config sets the _REQUIRED keys; a None default is a key that config_from_raw
# requires for one input kind only.
KEYS = {
    "schema_version": ((SCHEMA_VERSION,), _REQUIRED),
    "grid.n": (_integer, None),
    "grid.signal_min": (_number, None),
    "grid.signal_max": (_number, None),
    "grid.idler_min": (_number, None),
    "grid.idler_max": (_number, None),
    "grid.units": (("meV", "nm"), "meV"),
    "system.omega_c": (_number, _REQUIRED),
    "system.material_freqs": (_numbers, ()),
    "system.g": (_number, 0.0),
    "system.sqrt_kappa": (_number, 0.0),
    "system.epsilon": (_number, DEFAULT_EPSILON),
    "input.kind": (("gaussian", "file"), _REQUIRED),
    "input.pump_center": (_number, None),
    "input.sum_width": (_number, None),
    "input.diff_width": (_number, None),
    "input.diff_offset": (_number, 0.0),
    "input.path": (str, None),
    # Each allowed value names the RunConfig field that a sweep point sets.
    "sweep.parameter": (("sqrt_kappa", "g", "epsilon", "omega_c"), None),
    "sweep.values": (_numbers, ()),
    "sweep.material_counts": (_integers, ()),
    "output.dir": (str, "out"),
    "flags.continuum_scaling": (_boolean, False),
    "flags.sign_convention": (("paper", "hamiltonian"), "paper"),
    "flags.entropy_variant": (("amplitude", "magnitude"), "amplitude"),
}


@dataclass
class RunConfig:
    # config_from_raw passes every field, the defaults coming from KEYS.
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
    gaussian: dict | None
    input_path: str | None
    sweep_parameter: str | None
    sweep_values: tuple
    sweep_material_counts: tuple
    output_dir: str
    continuum_scaling: bool
    sign_convention: str
    entropy_variant: str
    raw: dict


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
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _parse_values(raw, source):
    """Each key of KEYS mapped to its parsed value or its default."""
    values = {}
    for key, (parse, default) in KEYS.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"{source}: missing required key {key!r}")
            values[key] = default
            continue
        text = raw[key]
        try:
            if isinstance(parse, tuple):
                if text not in parse:
                    raise ValueError(" or ".join(map(repr, parse)))
                values[key] = text
            else:
                values[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{source}: key {key!r} must be {exc}, got {text!r}") from None
    return values


def check_fits_in_memory(n, m_max, source, points_at_once=1):
    """Refuse a grid whose dense working set exceeds physical memory (not
    checked where the platform does not report it): that of a run, or of
    ``points_at_once`` sweep points running at once."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    d = 2 * n + 1 + m_max
    matrices = _DENSE_MATRICES_AT_PEAK + _DENSE_MATRICES_PER_SWEEP_POINT * (points_at_once - 1)
    need = matrices * 16 * d * d
    if need > have:
        at_once = f" with {points_at_once} sweep points at once" if points_at_once > 1 else ""
        raise ConfigError(
            f"{source}: grid.n = {n}{at_once} needs about {need / 2**30:.3g} GiB for dense "
            f"{d}x{d} matrices, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def check_epsilon(epsilon, source):
    """epsilon, or ConfigError unless it is finite, nonnegative and at most
    NUMBER_MAX."""
    if not 0 <= epsilon <= NUMBER_MAX:
        raise ConfigError(f"{source}: epsilon must be finite and nonnegative, at most "
                          f"{NUMBER_MAX:g}, got {epsilon!r}")
    return epsilon


def config_from_raw(raw, source="<config>"):
    values = _parse_values(raw, source)

    # Exactly one input source: a gaussian takes the grid.* keys and every
    # input.* key but input.path; a file takes input.path alone (the file
    # defines the grid).
    kind = values["input.kind"]
    grid_keys = [key for key in KEYS if key.startswith("grid.")]
    gaussian_keys = [key for key in KEYS
                     if key.startswith("input.") and key not in ("input.kind", "input.path")]
    if kind == "gaussian":
        needed, excluded = grid_keys + gaussian_keys, ["input.path"]
    else:
        needed, excluded = ["input.path"], grid_keys + gaussian_keys
    for key in excluded:
        if key in raw:
            raise ConfigError(f"{source}: input.kind={kind} excludes {key} (exactly one input source)")
    for key in needed:
        if values[key] is None:
            raise ConfigError(f"{source}: missing required key {key!r}")
    gaussian = ({key[len("input."):]: values[key] for key in gaussian_keys}
                if kind == "gaussian" else None)

    n = values["grid.n"]
    if n is not None and n < 1:
        raise ConfigError(f"{source}: grid.n must be >= 1")

    def axis_range(axis):
        lo, hi = values[f"grid.{axis}_min"], values[f"grid.{axis}_max"]
        if lo is None or hi is None:
            return None
        if values["grid.units"] == "nm":
            # nm ranges invert under conversion to energy.
            lo, hi = sorted((nm_to_mev(lo), nm_to_mev(hi)))
            if hi > NUMBER_MAX:
                raise ConfigError(f"{source}: grid.{axis}_min/max convert to {hi:g} meV, "
                                  f"more than {NUMBER_MAX:g}")
        return (lo, hi)

    sweep_values = values["sweep.values"]
    if values["sweep.parameter"] is not None:
        if not sweep_values:
            raise ConfigError(f"{source}: sweep.values is required when sweep.parameter is set")
        if len(set(sweep_values)) != len(sweep_values):
            raise ConfigError(f"{source}: sweep.values must be distinct")
    material_freqs = values["system.material_freqs"]
    counts = values["sweep.material_counts"]
    if len(set(counts)) != len(counts) or min(counts, default=0) < 0:
        raise ConfigError(f"{source}: sweep.material_counts must be distinct and nonnegative")
    if max(counts, default=0) > 0 and not material_freqs:
        raise ConfigError(
            f"{source}: sweep.material_counts requires at least one system.material_freqs entry"
        )

    return RunConfig(
        n=n,
        signal_range=axis_range("signal"),
        idler_range=axis_range("idler"),
        omega_c=values["system.omega_c"],
        material_freqs=material_freqs,
        g=values["system.g"],
        sqrt_kappa=values["system.sqrt_kappa"],
        epsilon=check_epsilon(values["system.epsilon"], f"{source}: system.epsilon"),
        input_kind=kind,
        gaussian=gaussian,
        input_path=values["input.path"],
        sweep_parameter=values["sweep.parameter"],
        sweep_values=sweep_values,
        sweep_material_counts=counts,
        output_dir=values["output.dir"],
        continuum_scaling=values["flags.continuum_scaling"],
        sign_convention=values["flags.sign_convention"],
        entropy_variant=values["flags.entropy_variant"],
        raw=dict(raw),
    )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_raw(parse_config_text(text, source=str(path)), source=str(path))
