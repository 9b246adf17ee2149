"""CLI surface: config parsing, artifacts, determinism, exit codes."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pairspec import (
    assemble_input_covariance,
    build_grid,
    gaussian_jsa,
    jsi_of,
    load_jsi,
    numkit,
    observables,
    scattering,
)
from pairspec import cli as cli_mod
from pairspec.cli import execute_run, main, render_heatmap
from pairspec.config import KEYS, config_from_raw, load_config, parse_config_text
from pairspec.errors import ConfigError, SolverError


BASE_CONFIG = """
schema_version = 1
# Fig-3-style scenario at reduced resolution.
grid.n = 16
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
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- config parsing -----------------------------------------------------------

def test_parse_round_trip():
    raw = parse_config_text(BASE_CONFIG)
    cfg = config_from_raw(raw)
    assert cfg.n == 16
    assert cfg.omega_c == 1809.0
    assert cfg.material_freqs == (1809.0,)
    assert cfg.gaussian["diff_offset"] == -29.0
    assert cfg.epsilon == 1e-3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG + "\nbogus.key = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(BASE_CONFIG + "\ngrid.n = 8\n")


def test_schema_version_required():
    with pytest.raises(ConfigError):
        config_from_raw(parse_config_text("grid.n = 4\ninput.kind = gaussian"))


def test_two_input_sources_rejected():
    with pytest.raises(ConfigError):
        config_from_raw(parse_config_text(BASE_CONFIG + "\ninput.path = x.csv\n"))


def test_sweep_values_must_be_distinct():
    text = BASE_CONFIG + "\nsweep.parameter = sqrt_kappa\nsweep.values = 1, 1\n"
    with pytest.raises(ConfigError):
        config_from_raw(parse_config_text(text))


def test_nm_grid_units_convert(tmp_path):
    text = """
schema_version = 1
grid.n = 4
grid.units = nm
grid.signal_min = 666.58
grid.signal_max = 712.55
grid.idler_min = 666.58
grid.idler_max = 712.55
system.omega_c = 1809
system.g = 0
input.kind = gaussian
input.pump_center = 3609
input.sum_width = 8
input.diff_width = 30
"""
    cfg = load_config(write_config(tmp_path, text))
    lo, hi = cfg.signal_range
    assert lo < hi
    assert lo == pytest.approx(1739.99, abs=0.2)
    assert hi == pytest.approx(1860.0, abs=0.2)


FILE_CONFIG = """
schema_version = 1
system.omega_c = 1809
input.kind = file
input.path = jsi.csv
"""


def _without(text, key):
    return "\n".join(line for line in text.splitlines() if not line.startswith(f"{key} ="))


def _set(text, key, value):
    return _without(text, key) + f"\n{key} = {value}\n"


# (config text, the key its one fault is about)
_REJECTED_CONFIGS = {
    "number-text": (_set(BASE_CONFIG, "system.g", "strong"), "system.g"),
    "number-nan": (_set(BASE_CONFIG, "system.sqrt_kappa", "nan"), "system.sqrt_kappa"),
    "number-list-text": (_set(BASE_CONFIG, "system.material_freqs", "1809, x"),
                         "system.material_freqs"),
    "epsilon-negative": (_set(BASE_CONFIG, "system.epsilon", "-1e-3"), "system.epsilon"),
    "n-not-integer": (_set(BASE_CONFIG, "grid.n", "1.5"), "grid.n"),
    "n-zero": (_set(BASE_CONFIG, "grid.n", "0"), "grid.n"),
    "integer-list-text": (BASE_CONFIG + "\nsweep.material_counts = 1, two\n",
                          "sweep.material_counts"),
    "boolean": (_set(BASE_CONFIG, "flags.continuum_scaling", "maybe"),
                "flags.continuum_scaling"),
    "units": (_set(BASE_CONFIG, "grid.units", "furlong"), "grid.units"),
    "kind": (_set(BASE_CONFIG, "input.kind", "laser"), "input.kind"),
    "sweep-parameter": (BASE_CONFIG + "\nsweep.parameter = grid.n\nsweep.values = 8\n",
                        "sweep.parameter"),
    "sign-convention": (_set(BASE_CONFIG, "flags.sign_convention", "other"),
                        "flags.sign_convention"),
    "entropy-variant": (_set(BASE_CONFIG, "flags.entropy_variant", "other"),
                        "flags.entropy_variant"),
    "schema-version": (_set(BASE_CONFIG, "schema_version", "2"), "schema_version"),
    "gaussian-with-path": (BASE_CONFIG + "\ninput.path = jsi.csv\n", "input.path"),
    "file-with-gaussian-key": (FILE_CONFIG + "input.sum_width = 8\n", "input.sum_width"),
    "file-with-grid-key": (FILE_CONFIG + "grid.n = 4\n", "grid.n"),
    "sweep-values-missing": (BASE_CONFIG + "\nsweep.parameter = g\n", "sweep.values"),
    "sweep-values-repeated": (BASE_CONFIG + "\nsweep.parameter = g\nsweep.values = 1, 2, 1\n",
                              "sweep.values"),
    "unknown-key": (BASE_CONFIG + "\nsystem.gamma = 1\n", "system.gamma"),
    "duplicate-key": (BASE_CONFIG + "\nsystem.g = 0.5\n", "system.g"),
}
for _key in ("schema_version", "system.omega_c", "input.kind", "grid.n", "grid.signal_min",
             "grid.signal_max", "grid.idler_min", "grid.idler_max", "input.pump_center",
             "input.sum_width", "input.diff_width"):
    _REJECTED_CONFIGS[f"gaussian-missing-{_key}"] = (_without(BASE_CONFIG, _key), _key)
for _key in ("schema_version", "system.omega_c", "input.kind", "input.path"):
    _REJECTED_CONFIGS[f"file-missing-{_key}"] = (_without(FILE_CONFIG, _key), _key)


@pytest.mark.parametrize("text, key", _REJECTED_CONFIGS.values(), ids=_REJECTED_CONFIGS.keys())
def test_config_rejection_exits_1_naming_its_key(tmp_path, capsys, text, key):
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "run", write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ConfigError" in err
    assert key in err
    assert not out_dir.exists()


# --- run ------------------------------------------------------------------------

def test_run_emits_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    assert main(["--out", out_dir, "run", cfg_path]) == 0
    for name in (
        "input_jsi.csv",
        "output_jsi.csv",
        "output_jsi_raw.csv",
        "schmidt.csv",
        "metrics.json",
        "input_jsi.pgm",
        "input_jsi.json",
        "output_jsi.pgm",
        "output_jsi.json",
    ):
        assert os.path.exists(os.path.join(out_dir, name)), name
    metrics = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())
    assert metrics["entropy_nats"] > 0
    diag = metrics["diagnostics"]
    assert diag["lyapunov_residual"] < 1e-8
    assert diag["identity_gap"] < 1e-8
    assert "epsilon_half_relative_change" in diag


def test_fig3_scenario_peak_stays_put(tmp_path):
    # Output JSI argmax within 2 grid cells of the input argmax.
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace("grid.n = 16", "grid.n = 32"))
    out_dir = str(tmp_path / "fig3")
    assert main(["--out", out_dir, "run", cfg_path]) == 0
    j_in = load_jsi(os.path.join(out_dir, "input_jsi.csv")).values
    j_out = load_jsi(os.path.join(out_dir, "output_jsi.csv")).values
    am_in = np.array(np.unravel_index(j_in.argmax(), j_in.shape))
    am_out = np.array(np.unravel_index(j_out.argmax(), j_out.shape))
    assert np.abs(am_out - am_in).max() <= 2


def test_g0_run_output_equals_input(tmp_path):
    text = BASE_CONFIG.replace("system.g = 0.5", "system.g = 0")
    cfg_path = write_config(tmp_path, text)
    out_dir = str(tmp_path / "g0")
    assert main(["--out", out_dir, "run", cfg_path]) == 0
    j_in = load_jsi(os.path.join(out_dir, "input_jsi.csv")).values
    j_out = load_jsi(os.path.join(out_dir, "output_jsi.csv")).values
    assert np.abs(j_in - j_out).max() < 1e-8


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["--out", out_a, "run", cfg_path]) == 0
    assert main(["--out", out_b, "run", cfg_path]) == 0
    for name in sorted(os.listdir(out_a)):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


def test_file_input_round_trip(tmp_path):
    # Feed a JSI produced by the Gaussian through the file path at g = 0.
    from pairspec import save_jsi

    grid = build_grid(12, (1740.0, 1860.0), (1740.0, 1860.0))
    jsa = gaussian_jsa(grid, 3609.0, 8.0, 30.0, -29.0)
    jsi_path = tmp_path / "input_grid.csv"
    save_jsi(jsi_of(jsa), jsi_path)
    text = f"""
schema_version = 1
system.omega_c = 1809
system.material_freqs = 1809
system.g = 0
system.sqrt_kappa = 488
input.kind = file
input.path = {jsi_path}
"""
    out_dir = str(tmp_path / "file_run")
    assert main(["--out", out_dir, "run", write_config(tmp_path, text)]) == 0
    j_in = load_jsi(os.path.join(out_dir, "input_jsi.csv")).values
    j_out = load_jsi(os.path.join(out_dir, "output_jsi.csv")).values
    assert np.abs(j_in - j_out).max() < 1e-8


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "config/input error" in capsys.readouterr().err


def test_bad_key_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG + "\nnot.a.key = 3\n")
    assert main(["run", cfg_path]) == 1


@pytest.mark.parametrize(
    "line, bad",
    [
        ("system.g = 0.5", "system.g = nan"),
        ("system.g = 0.5", "system.g = inf"),
        ("system.material_freqs = 1809", "system.material_freqs = nan"),
    ],
    ids=["g-nan", "g-inf", "material_freqs-nan"],
)
def test_nonfinite_number_exits_1(tmp_path, capsys, line, bad):
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace(line, bad))
    assert main(["--out", str(tmp_path / "x"), "run", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err


# Finite values whose squares overflow float64 are config errors, named by
# key; nm axes are checked once converted to energy.
@pytest.mark.parametrize(
    "line, bad, key",
    [
        ("system.g = 0.5", "system.g = 1e200", "system.g"),
        ("system.sqrt_kappa = 488", "system.sqrt_kappa = 1e300", "system.sqrt_kappa"),
        ("system.epsilon = 1e-3", "system.epsilon = 1e300", "system.epsilon"),
        ("grid.signal_max = 1860", "grid.signal_max = 1e300", "grid.signal_max"),
        ("input.diff_width = 30", "input.diff_width = 1e300", "input.diff_width"),
        ("grid.signal_min = 1740\ngrid.signal_max = 1860",
         "grid.units = nm\ngrid.signal_min = 1e-300\ngrid.signal_max = 700\n"
         "grid.idler_min = 680\ngrid.idler_max = 720", "grid.signal_min/max"),
    ],
    ids=["g", "sqrt_kappa", "epsilon", "signal_max", "diff_width", "nm-axis"],
)
def test_overflowing_number_exits_1(tmp_path, capsys, line, bad, key):
    text = BASE_CONFIG.replace(line, bad)
    if "grid.units" in bad:
        text = text.replace("grid.idler_min = 1740\ngrid.idler_max = 1860\n", "")
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "run", write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ConfigError" in err and key in err
    assert not out_dir.exists()


# A width whose square is subnormal (1e-155) or zero (1e-200) leaves no grid
# point with a finite Gaussian exponent; 1e-150 still runs.
@pytest.mark.parametrize("line, key", [("input.sum_width = 8", "input.sum_width"),
                                       ("input.diff_width = 30", "input.diff_width")],
                         ids=["sum_width", "diff_width"])
def test_too_narrow_gaussian_width_exits_1_naming_its_key(tmp_path, capsys, line, key):
    for width in ("1e-155", "1e-200"):
        out_dir = tmp_path / f"out{width}"
        text = BASE_CONFIG.replace(line, f"{key} = {width}")
        assert main(["--out", str(out_dir), "run", write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ConfigError" in err and f"{key} = {width}" in err
        assert not out_dir.exists()
    text = BASE_CONFIG.replace(line, f"{key} = 1e-150")
    assert main(["--out", str(tmp_path / "ok"), "run", write_config(tmp_path, text)]) == 0


def test_large_coupling_below_the_bound_is_a_solver_failure(tmp_path, capsys):
    text = BASE_CONFIG.replace("system.g = 0.5", "system.g = 1e150")
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "run", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NearSingularPencil" in err
    assert not out_dir.exists()


def test_overflowing_epsilon_flag_exits_1(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["--out", str(out_dir), "--epsilon", "1e300", "run", write_config(tmp_path, BASE_CONFIG)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at most 1e+150" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
def test_nonfinite_epsilon_flag_exits_1(tmp_path, capsys, command, bad):
    text = BASE_CONFIG + "\nsweep.parameter = sqrt_kappa\nsweep.values = 100, 200\n"
    out_dir = tmp_path / "x"
    argv = ["--out", str(out_dir), "--epsilon", bad, command, write_config(tmp_path, text)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite and nonnegative" in err
    assert not out_dir.exists()


def test_seed_flag_is_unrecognized(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out_dir), "run", write_config(tmp_path, BASE_CONFIG), "--seed", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out_dir.exists()


def test_zero_mass_file_exits_1(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(
        "# units: meV\nwavelength_nm\\omega,1800,1810\n1700,0,0\n1710,0,0\n",
        encoding="utf-8",
    )
    text = f"""
schema_version = 1
system.omega_c = 1809
input.kind = file
input.path = {path}
"""
    assert main(["run", write_config(tmp_path, text)]) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "{cfg}", "--epsilon", "abc"], 1),
        (["nosuchcommand", "{cfg}"], 1),
        (["sweep", "{cfg}", "--threads", "0"], 1),
        (["sweep", "{cfg}", "--threads", "-3"], 1),
        (["sweep", "--help"], 0),
    ],
    ids=["epsilon-abc", "unknown-subcommand", "threads-0", "threads-negative", "help"],
)
def test_usage_exit_codes(tmp_path, capsys, argv, code):
    # Exit 2 means a solver failure, so argparse's usage errors exit 1.
    cfg_path = write_config(tmp_path, BASE_CONFIG + "\nsweep.parameter = g\nsweep.values = 0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "out")] + [a.format(cfg=cfg_path) for a in argv])
    assert exc.value.code == code
    if code:
        assert "error: argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    from pairspec import cli as cli_mod
    from pairspec.errors import SingularMatrix

    def boom(*args, **kwargs):
        raise SingularMatrix("synthetic failure")

    monkeypatch.setattr(cli_mod.scattering, "propagate", boom)
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    assert main(["--out", str(tmp_path / "x"), "run", cfg_path]) == 2
    assert "solver failure during run" in capsys.readouterr().err


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    env_dir = str(tmp_path / "env_out")
    monkeypatch.setenv("PAIRSPEC_OUT_DIR", env_dir)
    assert main(["run", cfg_path]) == 0
    assert os.path.exists(os.path.join(env_dir, "metrics.json"))


def test_epsilon_flag_overrides(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "eps")
    assert main(["--out", out_dir, "--epsilon", "1e-2", "run", cfg_path]) == 0
    metrics = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())
    assert metrics["diagnostics"]["epsilon_used"] == pytest.approx(1e-2)


# --- sweep -----------------------------------------------------------------------

def test_sweep_entropy_rows(tmp_path):
    text = BASE_CONFIG + (
        "\nsweep.parameter = sqrt_kappa"
        "\nsweep.values = 50, 150, 300, 488"
        "\nsweep.material_counts = 1, 2\n"
    )
    cfg_path = write_config(tmp_path, text)
    out_dir = str(tmp_path / "sweep")
    assert main(["--out", out_dir, "--threads", "2", "sweep", cfg_path]) == 0
    rows = Path(os.path.join(out_dir, "entropy.csv")).read_text().strip().splitlines()
    assert len(rows) == 1 + 4 * 2
    assert rows[0].startswith("parameter,value,material_count,entropy_nats")
    seen = [(float(r.split(",")[1]), int(r.split(",")[2])) for r in rows[1:]]
    assert seen == [(v, m) for v in (50.0, 150.0, 300.0, 488.0) for m in (1, 2)]
    index = json.loads(Path(os.path.join(out_dir, "sweep_index.json")).read_text())
    assert len(index["points"]) == 8
    # Per-point artifacts exist with unique names.
    for entry in index["points"]:
        assert os.path.exists(os.path.join(out_dir, entry["dir"], "metrics.json"))


def test_sweep_threads_do_not_change_results(tmp_path):
    # Every point shares one read-only input; more workers than cores and a
    # 1 us switch interval interleave them as finely as the GIL allows.
    from pairspec import save_jsi

    grid = build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0))
    jsi_path = tmp_path / "input_grid.csv"
    save_jsi(jsi_of(gaussian_jsa(grid, 3609.0, 8.0, 30.0, -29.0)), jsi_path, units="nm")
    text = f"""
schema_version = 1
system.omega_c = 1809
system.material_freqs = 1809
system.sqrt_kappa = 488
input.kind = file
input.path = {jsi_path}
sweep.parameter = g
sweep.values = 0.1, 0.3
sweep.material_counts = 1, 2
"""
    cfg_path = write_config(tmp_path, text)
    out_serial = tmp_path / "s1"
    out_parallel = tmp_path / "s4"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(["--out", str(out_serial), "--threads", "1", "sweep", cfg_path]) == 0
        assert main(["--out", str(out_parallel), "--threads", "4", "sweep", cfg_path]) == 0
    finally:
        sys.setswitchinterval(interval)
    points = json.loads((out_serial / "sweep_index.json").read_text())["points"]
    names = ["entropy.csv", "sweep_index.json"]
    for entry in points:
        files = sorted(os.listdir(out_serial / entry["dir"]))
        assert files == sorted(os.listdir(out_parallel / entry["dir"]))
        names += [os.path.join(entry["dir"], name) for name in files]
    assert len(names) == 2 + 4 * 5
    for name in names:
        assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes(), name


def test_failed_sweep_point_keeps_the_others(tmp_path, monkeypatch, capsys):
    from pairspec import cli as cli_mod
    from pairspec.errors import NearSingularPencil

    real = cli_mod.execute_run

    def failing_at_150(cfg, *args, **kwargs):
        if cfg.sqrt_kappa == 150 and len(cfg.material_freqs) == 2:
            raise NearSingularPencil("synthetic failure", pair=(0j, 0j), gap=0.0)
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "execute_run", failing_at_150)
    text = BASE_CONFIG + (
        "\nsweep.parameter = sqrt_kappa\nsweep.values = 50, 150\nsweep.material_counts = 1, 2\n"
    )
    out_dir = str(tmp_path / "sweep")
    assert main(["--out", out_dir, "--threads", "2", "sweep", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "solver failure during sweep" in err and "NearSingularPencil" in err
    rows = Path(os.path.join(out_dir, "entropy.csv")).read_text().strip().splitlines()
    assert rows[0].endswith(",status")
    assert [r.split(",")[-1] for r in rows[1:]] == ["ok", "ok", "ok", "failed"]
    assert rows[4] == "sqrt_kappa,150,2,,,,,,failed"
    points = json.loads(Path(os.path.join(out_dir, "sweep_index.json")).read_text())["points"]
    assert [p["status"] for p in points] == ["ok", "ok", "ok", "failed"]
    assert points[3]["dir"] is None and "synthetic failure" in points[3]["error"]
    for entry in points[:3]:
        assert entry["error"] is None
        metrics = json.loads(Path(os.path.join(out_dir, entry["dir"], "metrics.json")).read_text())
        # n = 16 signal/idler pairs, plus one of two identical materials.
        assert metrics["diagnostics"]["deflated_modes"] == 16 + entry["material_count"] - 1


def test_any_solver_error_fails_only_its_point(tmp_path, monkeypatch, capsys):
    # The CLI catches solver failures by their base class, so a SolverError
    # no handler names still fails only its own sweep point, and a run with
    # exit 2.
    class StrayFailure(SolverError):
        pass

    real = scattering.propagate

    def failing_with_two_materials(theta, W, epsilon, **kwargs):
        if W.dim == 2 * 16 + 1 + 2:
            raise StrayFailure("synthetic failure")
        return real(theta, W, epsilon=epsilon, **kwargs)

    monkeypatch.setattr(scattering, "propagate", failing_with_two_materials)
    text = BASE_CONFIG + (
        "\nsweep.parameter = sqrt_kappa\nsweep.values = 150\nsweep.material_counts = 1, 2\n"
    )
    out_dir = tmp_path / "sweep"
    assert main(["--out", str(out_dir), "--threads", "2", "sweep", write_config(tmp_path, text)]) == 2
    assert "StrayFailure: synthetic failure" in capsys.readouterr().err
    rows = (out_dir / "entropy.csv").read_text().strip().splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == ["ok", "failed"]
    text = BASE_CONFIG.replace("system.material_freqs = 1809", "system.material_freqs = 1809, 1809")
    assert main(["--out", str(tmp_path / "run"), "run", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "solver failure during run: StrayFailure: synthetic failure\n")


def test_sweep_rejects_bad_point_before_running(tmp_path, capsys):
    text = BASE_CONFIG + "\nsweep.parameter = epsilon\nsweep.values = 1e-3, 0, -1\n"
    cfg_path = write_config(tmp_path, text)
    out_dir = tmp_path / "sweep"
    assert main(["--out", str(out_dir), "sweep", cfg_path]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "freqs, counts, message",
    [
        ("1809, 1800, 1790", "-1, 0, 3", "must be distinct and nonnegative"),
        ("1809", "1, 2, 1", "must be distinct and nonnegative"),
        (None, "0, 2", "requires at least one system.material_freqs entry"),
    ],
    ids=["negative", "repeated", "no-freqs"],
)
def test_bad_material_counts_exit_1(tmp_path, capsys, command, freqs, counts, message):
    text = _without(BASE_CONFIG, "system.material_freqs")
    if freqs is not None:
        text += f"\nsystem.material_freqs = {freqs}"
    text += f"\nsweep.parameter = g\nsweep.values = 0.5\nsweep.material_counts = {counts}\n"
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), command, write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ConfigError" in err
    assert f"sweep.material_counts {message}" in err
    assert not out_dir.exists()


def test_sweep_rejects_bad_input_before_creating_out_dir(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text(
        "# units: meV\nwavelength_nm\\omega,1800,1810\n1700,0,0\n1710,0,0\n",
        encoding="utf-8",
    )
    text = f"""
schema_version = 1
system.omega_c = 1809
input.kind = file
input.path = {path}
sweep.parameter = sqrt_kappa
sweep.values = 100, 200
"""
    out_dir = tmp_path / "sweep"
    assert main(["--out", str(out_dir), "--threads", "2", "sweep", write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero total mass" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "bad, units, message",
    [
        ("nan", "meV", "non-finite cell nan"),
        ("inf", "meV", "non-finite cell inf"),
        ("-inf", "meV", "non-finite cell -inf"),
        ("nan", "nm", "non-finite cell nan"),
        ("-1", "nm", "negative intensity -1"),
    ],
    ids=["nan", "inf", "neg-inf", "nm-nan", "nm-negative"],
)
def test_nonfinite_input_cell_exits_1(tmp_path, capsys, command, bad, units, message):
    from pairspec import save_jsi

    grid = build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0))
    path = tmp_path / "jsi.csv"
    save_jsi(jsi_of(gaussian_jsa(grid, 3609.0, 8.0, 30.0, -29.0)), path, units=units)
    lines = path.read_text(encoding="utf-8").splitlines()
    if units == "nm":
        # Wavelength ascending, as a spectrometer writes it: the loader sorts
        # rows and columns into increasing energy, the reverse of this file.
        rows = [line.split(",") for line in lines[1:]]
        rows = [rows[0][:1] + rows[0][:0:-1]] + [row[:1] + row[:0:-1] for row in rows[:0:-1]]
        lines = lines[:1] + [",".join(row) for row in rows]
    cells = lines[5].split(",")
    cells[4] = bad
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = f"""
schema_version = 1
system.omega_c = 1809
input.kind = file
input.path = {path}
sweep.parameter = sqrt_kappa
sweep.values = 100, 200
"""
    out_dir = tmp_path / "out"
    argv = ["--out", str(out_dir), "--threads", "2", command, write_config(tmp_path, text)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # Data row 3, column 3 of the file, whatever order the loader sorts into.
    assert f"{message} at row 3, col 3" in err
    assert not out_dir.exists()
    # convert refuses what load_jsa refuses, a cell that is not finite, and
    # names it as run does, though it parses every cell as complex; it
    # copies a negative cell as it is.
    converted = tmp_path / "converted.csv"
    if bad == "-1":
        assert main(["convert", str(path), str(converted)]) == 0
        assert f",{bad}," in converted.read_text(encoding="utf-8")
    else:
        assert main(["convert", str(path), str(converted)]) == 1
        assert f"{message} at row 3, col 3" in capsys.readouterr().err
        assert not converted.exists()


# --- convert -----------------------------------------------------------------------

def test_convert_round_trip(tmp_path):
    from pairspec import save_jsi, states

    grid = build_grid(64, (1740.0, 1860.0), (1740.0, 1860.0))
    jsi = jsi_of(gaussian_jsa(grid, 3609.0, 8.0, 30.0, -29.0))
    src = str(tmp_path / "mev.csv")
    save_jsi(jsi, src)
    as_nm = str(tmp_path / "nm.csv")
    back = str(tmp_path / "back.csv")
    assert main(["convert", src, as_nm]) == 0
    assert "# units: nm" in Path(as_nm).read_text().splitlines()[0]
    assert main(["convert", as_nm, back]) == 0
    signal, idler, cells, _ = states.parse_grid_text(Path(src).read_text())
    signal_back, idler_back, cells_back, units = states.parse_grid_text(Path(back).read_text())
    assert units == "meV"
    # Cells come back exactly; an axis value moves by HC/(HC/E) - E, at most
    # one unit in the last place.
    assert np.array_equal(cells_back, cells)
    for axis, axis_back in ((signal, signal_back), (idler, idler_back)):
        assert np.all(np.abs(axis_back - axis) <= np.spacing(axis))


@pytest.mark.parametrize("rows, message", [
    # Descending energy rows: the file's data row 1 is row 0 once sorted.
    ("1800,1810\n1710,1,2\n1700,nan,3", "non-finite cell nan at row 1, col 0"),
    ("1800,1810,1820\n1700,1,2,3\n1710,4,5,6",
     "amplitude grid must be square, got 2 rows of 3 cells"),
], ids=["nan-cell", "not-square"])
def test_convert_refuses_what_load_jsa_refuses(tmp_path, capsys, rows, message):
    src = tmp_path / "mev.csv"
    src.write_text("# units: meV\nwavelength_nm\\omega," + rows + "\n", encoding="utf-8")
    out = tmp_path / "nm.csv"
    assert main(["convert", str(src), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{src}: {message}" in err
    assert not out.exists()


# --- heatmap -----------------------------------------------------------------------

def _read_pgm(path):
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P5"
        cols, rows = map(int, fh.readline().split())
        assert fh.readline().strip() == b"255"
        data = np.frombuffer(fh.read(), dtype=np.uint8).reshape(rows, cols)
    return data


def test_heatmap_constant_is_uniform(tmp_path):
    grid = build_grid(6, (1.0, 2.0), (1.0, 2.0))
    from pairspec.states import JointSpectralIntensity

    jsi = JointSpectralIntensity(grid, np.full((6, 6), 3.7))
    path = str(tmp_path / "flat.pgm")
    render_heatmap(jsi, path)
    data = _read_pgm(path)
    assert np.all(data == 255)
    meta = json.loads((tmp_path / "flat.json").read_text())
    assert meta["n"] == 6


def test_heatmap_peak_is_brightest_pixel(tmp_path):
    grid = build_grid(9, (1.0, 2.0), (1.0, 2.0))
    vals = np.ones((9, 9))
    vals[3, 6] = 10.0
    from pairspec.states import JointSpectralIntensity

    path = str(tmp_path / "peak.pgm")
    render_heatmap(JointSpectralIntensity(grid, vals), path)
    data = _read_pgm(path)
    assert data[3, 6] == 255
    assert (data == 255).sum() == 1


def test_heatmap_bytes_stable(tmp_path):
    grid = build_grid(8, (1.0, 2.0), (1.0, 2.0))
    jsi = jsi_of(gaussian_jsa(grid, 3.0, 0.2, 0.5))
    p1, p2 = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    render_heatmap(jsi, p1)
    render_heatmap(jsi, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


# --- one factorization of W per run ---------------------------------------------

def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(numkit, name, counting(name, getattr(numkit, name)))
    return calls


# A run makes two propagate calls, whose Lyapunov first passes share one
# core congruence of Theta_in (numkit.lyapunov_quotients); each call then
# takes one more to form its X, and S X S^dag takes none (it is a diagonal
# plus a rank-8 update).  The refinement pass adds two only where the first
# pass is above numkit.REFINE_ABOVE.  At n = 41 a photon grid point lands on
# the 1809 meV material, so the core goes to dense eig, whose first pass
# (about 1e-9) is refined.
@pytest.mark.parametrize(
    "n, core_method, congruences", [(64, "secular", 3), (41, "eig", 7)], ids=["secular", "eig"]
)
def test_run_factors_w_once(monkeypatch, n, core_method, congruences):
    calls = _count_calls(monkeypatch, ("eigenbasis", "solve_sylvester", "linear_solve"))
    methods = []
    real = numkit.Eigenbasis.block_congruence

    def counting(self, *args, **kwargs):
        methods.append(self.core_method)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(numkit.Eigenbasis, "block_congruence", counting)
    cfg = config_from_raw(parse_config_text(BASE_CONFIG.replace("grid.n = 16", f"grid.n = {n}")))
    out = execute_run(cfg)
    assert out.epsilon_stability is not None  # the eps/2 check ran
    assert calls == {"eigenbasis": 1, "solve_sylvester": 0, "linear_solve": 0}
    assert methods == [core_method] * congruences
    assert out.prop.lyapunov.residual_norm < 1e-11


def test_sweep_factors_w_once_per_point(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ("eigenbasis", "solve_sylvester", "linear_solve"))
    text = BASE_CONFIG + (
        "\nsweep.parameter = sqrt_kappa\nsweep.values = 150, 488\nsweep.material_counts = 1, 2\n"
    )
    assert main(["--out", str(tmp_path / "sweep"), "sweep", write_config(tmp_path, text)]) == 0
    assert calls == {"eigenbasis": 4, "solve_sylvester": 0, "linear_solve": 0}


# execute_run rotates Theta_in into deflated coordinates once, for both
# shifts, and propagate keeps its results there; a run reads the eps/2
# difference in those coordinates and rotates only the main Theta_out out,
# for the JSI block and purity.
@pytest.mark.parametrize("check, reflections", [(True, 2), (False, 2)], ids=["run", "sweep-point"])
def test_run_rotates_only_what_it_reads(monkeypatch, check, reflections):
    calls = _count_calls(monkeypatch, ("_reflect",))
    cfg = config_from_raw(parse_config_text(_readme_config_block()))
    out = execute_run(cfg, check_epsilon_stability=check)
    assert (out.epsilon_stability is not None) == check
    assert out.prop.basis.deflated_modes > 0
    assert calls == {"_reflect": reflections}


# --- the eps and eps/2 shifts of a run on two threads ---------------------------

# A run propagates eps on its own thread and eps/2 on one helper thread; the
# reference makes the same two propagate calls one after the other.
def _model(cfg):
    """(W, Theta_in) of a run's config, built as execute_run builds them."""
    grid, jsa = cli_mod._build_inputs(cfg)
    params = cli_mod._system_params(cfg)
    W = cli_mod.build_dynamical_matrix(grid, params, continuum_scaling=cfg.continuum_scaling,
                                       material_sign=cfg.sign_convention)
    return W, assemble_input_covariance(jsa, params.n_material)


def _serial_reference(cfg):
    W, theta = _model(cfg)
    main_prop = scattering.propagate(theta, W, epsilon=cfg.epsilon)
    half = scattering.propagate(theta, W, epsilon=main_prop.epsilon_used / 2)
    change = (np.linalg.norm(half.theta_out_q - main_prop.theta_out_q)
              / np.linalg.norm(main_prop.theta_out_q))
    return main_prop, half, float(change)


def _damped(monkeypatch, rate):
    """W - rate I in place of the cavity model's W: a Hurwitz generator
    whose pencil is regular at eps = 0."""
    real = cli_mod.build_dynamical_matrix

    def damped(*args, **kwargs):
        W = real(*args, **kwargs)
        return dataclasses.replace(W, matrix=W.matrix - rate * np.eye(W.dim))

    monkeypatch.setattr(cli_mod, "build_dynamical_matrix", damped)


@pytest.mark.parametrize("epsilon, damping, regularized", [
    ("1e-3", 0.0, False), ("0", 0.0, True), ("0", 0.5, False),
], ids=["eps", "eps0-regularized", "eps0-unregularized"])
def test_run_equals_two_serial_propagations(monkeypatch, epsilon, damping, regularized):
    if damping:
        _damped(monkeypatch, damping)
    cfg = config_from_raw(parse_config_text(
        BASE_CONFIG.replace("system.epsilon = 1e-3", f"system.epsilon = {epsilon}")))
    out = execute_run(cfg)
    ref, half, change = _serial_reference(cfg)
    assert out.prop.lyapunov.regularized == ref.lyapunov.regularized == regularized
    assert out.prop.epsilon_used == ref.epsilon_used
    assert half.epsilon_used == ref.epsilon_used / 2 and not half.lyapunov.regularized
    assert out.epsilon_stability == change
    assert np.array_equal(out.prop.theta_out.matrix, ref.theta_out.matrix)
    assert np.array_equal(out.prop.scattering.matrix, ref.scattering.matrix)
    assert out.prop.layout == ref.layout and out.prop.grid is not None
    for name in ("identity_gap", "hermiticity_defect"):
        assert getattr(out.prop, name) == getattr(ref, name)
    assert out.prop.lyapunov == ref.lyapunov
    assert out.prop.scattering_q.residual == ref.scattering_q.residual


def test_concurrent_runs_match_the_serial_reference():
    # Four runs at once, each with its helper thread: eight threads on the
    # VM's cores, interleaved as finely as the GIL allows.
    from concurrent.futures import ThreadPoolExecutor

    cfg = config_from_raw(parse_config_text(BASE_CONFIG))
    ref, _, change = _serial_reference(cfg)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(execute_run, cfg) for _ in range(4)]
            outs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    for out in outs:
        assert np.array_equal(out.prop.theta_out.matrix, ref.theta_out.matrix)
        assert out.epsilon_stability == change


def test_run_propagates_eps_half_on_one_helper_thread(tmp_path, monkeypatch):
    seen = []
    real = scattering.propagate

    def recording(theta, W, epsilon, **kwargs):
        seen.append((epsilon, threading.current_thread() is threading.main_thread()))
        return real(theta, W, epsilon=epsilon, **kwargs)

    monkeypatch.setattr(scattering, "propagate", recording)
    before = threading.active_count()
    assert main(["--out", str(tmp_path / "run"), "run", write_config(tmp_path, BASE_CONFIG)]) == 0
    assert sorted(seen) == [(5e-4, False), (1e-3, True)]
    assert threading.active_count() == before
    # Sweep points run no eps/2 check, so they start no helper thread.
    seen.clear()
    text = BASE_CONFIG + "\nsweep.parameter = sqrt_kappa\nsweep.values = 150, 488\n"
    assert main(["--out", str(tmp_path / "sweep"), "sweep", write_config(tmp_path, text)]) == 0
    assert seen == [(1e-3, True), (1e-3, True)]
    assert threading.active_count() == before


def _failure_line(cfg, epsilon):
    """The stderr line of a run whose propagate at ``epsilon`` raises."""
    W, theta = _model(cfg)
    with pytest.raises(SolverError) as exc:
        scattering.propagate(theta, W, epsilon=epsilon)
    return f"solver failure during run: {type(exc.value).__name__}: {exc.value}\n"


# At n = 16 the pencil gate is about 1.05e-6 and the gap of the deflated
# signal/idler pairs is 2 eps: 7e-7 passes and its half fails; 1e-7 and its
# half both fail, with different gaps in their messages.
def test_eps_half_failure_exits_2_with_its_own_message(tmp_path, capsys):
    text = BASE_CONFIG.replace("system.epsilon = 1e-3", "system.epsilon = 7e-7")
    cfg_path = write_config(tmp_path, text)
    cfg = load_config(cfg_path)
    expected = _failure_line(cfg, 3.5e-7)
    before = threading.active_count()
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "run", cfg_path]) == 2
    assert capsys.readouterr().err == expected
    assert threading.active_count() == before
    assert not out_dir.exists()


def test_main_failure_wins_over_eps_half_failure(tmp_path, monkeypatch, capsys):
    text = BASE_CONFIG.replace("system.epsilon = 1e-3", "system.epsilon = 1e-7")
    cfg_path = write_config(tmp_path, text)
    cfg = load_config(cfg_path)
    expected = _failure_line(cfg, 1e-7)
    assert expected != _failure_line(cfg, 5e-8)
    # The eps/2 solve fails first; the main solve fails after it.
    real = scattering.propagate
    half_done = threading.Event()

    def ordered(theta, W, epsilon, **kwargs):
        if epsilon == 5e-8:
            try:
                return real(theta, W, epsilon=epsilon, **kwargs)
            finally:
                half_done.set()
        assert half_done.wait(30)
        return real(theta, W, epsilon=epsilon, **kwargs)

    monkeypatch.setattr(scattering, "propagate", ordered)
    before = threading.active_count()
    assert main(["--out", str(tmp_path / "out"), "run", cfg_path]) == 2
    assert capsys.readouterr().err == expected
    assert threading.active_count() == before


def test_run_records_solver_path(tmp_path):
    out_dir = str(tmp_path / "out")
    assert main(["--out", out_dir, "run", write_config(tmp_path, BASE_CONFIG)]) == 0
    diag = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())["diagnostics"]
    assert diag["solver_path"] == "eigen"
    assert 1.0 <= diag["eigenvector_condition"] < 1e5


# g = 0 leaves the cavity-material pair, which coalesces at sqrt_kappa = 4.5
# for a material 9 meV below the cavity.
EXCEPTIONAL_POINT_CONFIG = (BASE_CONFIG.replace("system.g = 0.5", "system.g = 0")
                            .replace("system.material_freqs = 1809", "system.material_freqs = 1800")
                            .replace("system.sqrt_kappa = 488", "system.sqrt_kappa = 4.5"))


def test_run_at_an_exceptional_point_takes_the_fallback(tmp_path):
    # There ||X||_F grows like eps^-3 (1e10 here), so the residual relative
    # to max(1, ||Theta_in||_F) is above the 1e-8 gates although the Schur
    # solve is backward stable.
    cfg_path = write_config(tmp_path, EXCEPTIONAL_POINT_CONFIG)
    out_dir = str(tmp_path / "out")
    assert main(["--out", out_dir, "run", cfg_path]) == 0
    diag = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())["diagnostics"]
    assert diag["solver_path"] == "fallback"
    assert diag["eigenvector_condition"] > numkit.EIGEN_COND_MAX
    assert diag["identity_gap"] < 1e-8 and diag["hermiticity_defect"] < 1e-8
    assert diag["lyapunov_residual"] > 1e-8
    W, theta = _model(load_config(cfg_path))
    X, report = scattering.time_integrated_covariance(W, theta, 1e-3)
    assert report.residual_norm == diag["lyapunov_residual"]
    A = W.matrix - 1e-3 * np.eye(W.dim)
    X, C = X.matrix, theta.matrix
    backward = (np.linalg.norm(A @ X + X @ A.conj().T + C)
                / (2 * np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(C)))
    assert backward < 1e-15


def test_lyapunov_quotients_give_the_fallback_route_none_per_shift():
    # numkit alone reads the route: on the Schur route there is no bracket,
    # so execute_run passes each propagate None and each solve forms its own.
    W, theta = _model(config_from_raw(parse_config_text(EXCEPTIONAL_POINT_CONFIG)))
    basis = numkit.eigenbasis(W.matrix)
    assert basis.path == "fallback"
    quotients = numkit.lyapunov_quotients(basis, basis.rotate(theta.matrix), (1e-3, 5e-4))
    assert quotients == [None, None]


# The runs off the secular eigen route keep the metrics they had while each
# shift made its own V^-1 Theta_in V^-dag and Theta_out was assembled from a
# formed G: the README config at n = 41 (a dense-eig core, whose first pass
# is refined) and the exceptional point above (the Schur fallback).  They
# moved by at most 7.1e-16 relative; 1e-14 is the bound the README run's
# entropy, log|det| and eps/2 change are held to.
@pytest.mark.parametrize("case, path, core_method, entropy, log_abs_det, change", [
    ("n41", "eigen", "eig", 1.2635097045588524, -29.865680995474804, 0.999999038976282),
    ("exceptional-point", "fallback", "secular",
     1.1332434494485792, 28.226897619849517, 7.001134721886604),
])
def test_eig_route_and_fallback_keep_their_metrics(case, path, core_method, entropy,
                                                    log_abs_det, change):
    if case == "n41":
        text = _readme_config_block().replace("grid.n = 64", "grid.n = 41")
    else:
        text = EXCEPTIONAL_POINT_CONFIG
    out = execute_run(config_from_raw(parse_config_text(text)))
    assert (out.prop.basis.path, out.prop.basis.core_method) == (path, core_method)
    for got, want in ((out.entropy, entropy), (out.purity.log_abs_det, log_abs_det),
                      (out.epsilon_stability, change)):
        assert abs(got - want) <= 1e-14 * abs(want)
    assert out.prop.identity_gap < 1e-8 and out.prop.hermiticity_defect < 1e-8
    assert out.prop.scattering_q.residual < 1e-8


# --- memory guard ----------------------------------------------------------------

def test_grid_too_large_for_memory_exits_1(tmp_path, capsys):
    text = BASE_CONFIG.replace("grid.n = 16", "grid.n = 200000")
    cfg_path = write_config(tmp_path, text)
    tracemalloc.start()
    try:
        code = main(["--out", str(tmp_path / "out"), "run", cfg_path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 10 * 2**20  # refused before any grid-sized allocation
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ConfigError" in err and "grid.n = 200000" in err
    assert not os.path.exists(tmp_path / "out")


# The tracemalloc peaks of `pairspec run` in d x d complex matrices: of the
# run, with both shifts live at once, and of writing its artifacts with the
# run's outputs held (tools/peak_memory.py prints both by phase).  Over 35
# runs each the run peaked at 6.33, 5.70 and 4.66 at n = 64, 128 and 256
# (6.76, 6.44 and 5.37 while the eps shift kept X beside Theta_out), and the
# write at 7.95, 5.06 and 3.43, the first write in a process (7.30 at n = 64
# after it).  The bounds keep at most half a matrix over those, and the
# larger peak a matrix to spare under the memory guard's count; at n = 64
# the write sets it.  At small n the row strips of the O(d^2) passes (an
# eighth of the rows each) and the text of the n x n grids weigh more
# against d x d.
_PEAK_BOUNDS = {64: (6.8, 8.0), 128: (6.2, 5.5), 256: (5.0, 3.9)}


@pytest.mark.parametrize("n", sorted(_PEAK_BOUNDS))
def test_run_peak_memory_stays_under_the_guard(n, tmp_path):
    from pairspec import config

    run_bound, write_bound = _PEAK_BOUNDS[n]
    cfg = config_from_raw(parse_config_text(
        _readme_config_block().replace("grid.n = 64", f"grid.n = {n}")))
    d = 2 * n + 1 + len(cfg.material_freqs)
    tracemalloc.start()
    try:
        out = execute_run(cfg)
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli_mod._write_run_artifacts(str(tmp_path / "out"), cfg, out)
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    run_matrices, write_matrices = (peak / (16 * d * d) for peak in (run_peak, write_peak))
    assert run_matrices <= run_bound
    assert write_matrices <= write_bound
    assert max(run_matrices, write_matrices) + 1 <= config._DENSE_MATRICES_AT_PEAK


def test_sweep_memory_guard_counts_the_points_that_run_at_once(tmp_path, capsys, monkeypatch):
    # Physical memory for 20 d x d matrices: enough for a run (9) and a
    # one-thread sweep, not for four points at once (9 + 3 * 8 = 33).
    from pairspec import config

    text = BASE_CONFIG + "sweep.parameter = g\nsweep.values = 0.1, 0.2, 0.3, 0.4\n"
    cfg_path = write_config(tmp_path, text)
    d = 2 * 16 + 1 + 1
    pages = 20 * 16 * d * d // os.sysconf("SC_PAGE_SIZE")
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
    assert config._DENSE_MATRICES_AT_PEAK < 20
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "--threads", "4", "sweep", cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ConfigError" in err and "grid.n = 16 with 4 sweep points at once" in err
    assert not out_dir.exists()
    assert main(["--out", str(out_dir), "--threads", "1", "sweep", cfg_path]) == 0


@pytest.mark.parametrize("kind", ["gaussian", "file"])
def test_memory_guard_runs_once_per_command(tmp_path, monkeypatch, kind):
    # One guard call, in _build_inputs, for a run and for a sweep (with
    # its min(--threads, points) points at once); parsing a config calls none.
    from pairspec import config, save_jsi

    text = BASE_CONFIG
    if kind == "file":
        jsi_path = tmp_path / "jsi.csv"
        save_jsi(jsi_of(gaussian_jsa(build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0)),
                                     3609.0, 8.0, 30.0, -29.0)), jsi_path)
        text = FILE_CONFIG.replace("jsi.csv", str(jsi_path)) + "system.material_freqs = 1809\n"
    text += "sweep.parameter = sqrt_kappa\nsweep.values = 100, 200\nsweep.material_counts = 1, 2\n"
    cfg_path = write_config(tmp_path, text)
    calls = []
    real = config.check_fits_in_memory

    def counting(n, m_max, source, points_at_once=1):
        calls.append((n, m_max, points_at_once))
        return real(n, m_max, source, points_at_once)

    monkeypatch.setattr(config, "check_fits_in_memory", counting)
    monkeypatch.setattr(cli_mod, "check_fits_in_memory", counting)
    load_config(cfg_path)
    assert calls == []
    assert main(["--out", str(tmp_path / "run"), "run", cfg_path]) == 0
    assert calls == [(16, 2, 1)]
    calls.clear()
    assert main(["--out", str(tmp_path / "sweep"), "--threads", "3", "sweep", cfg_path]) == 0
    assert calls == [(16, 2, 3)]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_file_grid_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch, command):
    # A file defines its own grid, so the guard checks it once the file is read.
    from pairspec import save_jsi

    jsi_path = tmp_path / "jsi.csv"
    save_jsi(jsi_of(gaussian_jsa(build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0)),
                                 3609.0, 8.0, 30.0, -29.0)), jsi_path)
    text = FILE_CONFIG.replace("jsi.csv", str(jsi_path)) + (
        "system.material_freqs = 1809\nsweep.parameter = g\nsweep.values = 0.1, 0.2\n"
    )
    cfg_path = write_config(tmp_path, text)
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else real(name))
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), command, cfg_path]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ConfigError" in err and "grid.n = 16" in err
    assert not out_dir.exists()


def test_file_grid_size_is_checked_before_the_body_is_parsed(tmp_path, capsys, monkeypatch):
    # The guard reads n from the axis row, so a file too large for memory is
    # refused without parsing its cells.
    from pairspec import save_jsi

    n = 256
    jsi_path = tmp_path / "jsi.csv"
    save_jsi(jsi_of(gaussian_jsa(build_grid(n, (1740.0, 1860.0), (1740.0, 1860.0)),
                                 3609.0, 8.0, 30.0, -29.0)), jsi_path)
    cfg_path = write_config(tmp_path, FILE_CONFIG.replace("jsi.csv", str(jsi_path)) +
                            "system.material_freqs = 1809\n")
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else real(name))
    out_dir = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["--out", str(out_dir), "run", cfg_path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ConfigError" in err and f"grid.n = {n}" in err
    assert not out_dir.exists()
    assert peak < n * n * 8 / 4  # a quarter of the float64 cell array


# --- README and JSON validity ------------------------------------------------------

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _strict_json(path):
    """Parse JSON, rejecting the Infinity/NaN tokens json.loads would accept."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def _readme_config_block():
    with open(os.path.join(_REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    return readme.split("### Config format", 1)[1].split("```\n", 2)[1]


def test_one_mode_run_reports_positive_zero_entropy(tmp_path, capsys):
    # One Schmidt mode: the entropy is +0.0, printed and written unsigned.
    cfg_path = write_config(tmp_path, _readme_config_block().replace("grid.n = 64", "grid.n = 1"))
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == 0
    assert "entropy=0.000000 nats" in capsys.readouterr().out
    assert '"entropy_nats": 0.0,' in (out_dir / "metrics.json").read_text(encoding="utf-8")


def test_readme_config_block_runs_verbatim(tmp_path):
    block = _readme_config_block()
    assert "grid.n = 64" in block
    cfg_path = write_config(tmp_path, block)
    out_dir = str(tmp_path / "out")
    assert main(["run", cfg_path, "--out", out_dir]) == 0
    metrics = _strict_json(os.path.join(out_dir, "metrics.json"))
    assert metrics["config"]["grid.signal_min"] == "1740"


def test_readme_config_section_names_every_key():
    with open(os.path.join(_REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### Config format", 1)[1].split("\n### ", 1)[0]
    assert [key for key in KEYS if key not in section] == []


def _overflowing_purity(monkeypatch):
    # log|det| = 900 ln 0.2 = -1448.5: 1/sqrt|det| exceeds float64.
    real = observables.purity
    monkeypatch.setattr(observables, "purity", lambda theta: real(0.2 * np.eye(900)))


def test_overflowing_purity_is_written_as_null(tmp_path, monkeypatch, capsys):
    _overflowing_purity(monkeypatch)
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out_dir = str(tmp_path / "out")
    assert main(["run", cfg_path, "--out", out_dir]) == 0
    metrics = _strict_json(os.path.join(out_dir, "metrics.json"))
    assert metrics["purity"]["mu"] is None
    assert metrics["purity"]["log_abs_det"] == pytest.approx(900 * np.log(0.2), rel=1e-12)
    assert "purity mu=overflow" in capsys.readouterr().out


def test_overflowing_purity_leaves_sweep_cell_empty(tmp_path, monkeypatch):
    _overflowing_purity(monkeypatch)
    text = BASE_CONFIG + "\nsweep.parameter = sqrt_kappa\nsweep.values = 100, 200\n"
    out_dir = str(tmp_path / "sweep")
    assert main(["--out", out_dir, "sweep", write_config(tmp_path, text)]) == 0
    rows = Path(os.path.join(out_dir, "entropy.csv")).read_text().strip().splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        assert cells["purity_mu"] == ""
        assert float(cells["purity_log_abs_det"]) == pytest.approx(900 * np.log(0.2))
        assert cells["status"] == "ok"


def test_write_json_refuses_nan():
    from pairspec.cli import _write_json

    with pytest.raises(ValueError):
        _write_json(os.devnull, {"x": float("inf")})


def test_nonfinite_diagnostic_is_written_as_null(tmp_path, monkeypatch):
    # cond_1(V) is inf when V is singular; JSON gets null, not Infinity.
    real = numkit.eigenbasis
    monkeypatch.setattr(
        numkit, "eigenbasis", lambda W: dataclasses.replace(real(W), condition=float("inf"))
    )
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace("grid.n = 16", "grid.n = 4"))
    out_dir = str(tmp_path / "out")
    assert main(["run", cfg_path, "--out", out_dir]) == 0
    metrics = _strict_json(os.path.join(out_dir, "metrics.json"))
    assert metrics["diagnostics"]["eigenvector_condition"] is None
    assert metrics["diagnostics"]["solver_path"] == "fallback"


def test_import_loads_no_scipy_subpackage_beyond_linalg():
    # A scipy subpackage such as scipy.optimize costs more at import than
    # the whole set-up of a run.
    code = (
        "import sys, pairspec; "
        "print(sorted({m.split('.')[1] for m in sys.modules"
        " if m.startswith('scipy.') and not m.split('.')[1].startswith('_')}))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert set(ast.literal_eval(out)) <= {"linalg", "version"}
