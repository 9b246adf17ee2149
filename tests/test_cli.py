"""CLI surface: config parsing, artifacts, determinism, exit codes."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pairspec import build_grid, gaussian_jsa, jsi_of, load_jsi, numkit, observables
from pairspec.cli import execute_run, main, render_heatmap
from pairspec.config import config_from_raw, load_config, parse_config_text
from pairspec.errors import ConfigError


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


def test_sweep_rejects_bad_point_before_running(tmp_path, capsys):
    text = BASE_CONFIG + "\nsweep.parameter = epsilon\nsweep.values = 1e-3, 0, -1\n"
    cfg_path = write_config(tmp_path, text)
    out_dir = tmp_path / "sweep"
    assert main(["--out", str(out_dir), "sweep", cfg_path]) == 1
    assert "nonnegative" in capsys.readouterr().err
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
        ("nan", "nm", "non-finite cell nan"),
        ("-1", "nm", "negative intensity -1"),
    ],
    ids=["nan", "inf", "nm-nan", "nm-negative"],
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
    # convert copies the grid as it is.
    assert main(["convert", str(path), str(tmp_path / "nm.csv")]) == 0
    assert f",{bad}," in (tmp_path / "nm.csv").read_text(encoding="utf-8")


# --- convert -----------------------------------------------------------------------

def test_convert_round_trip(tmp_path):
    from pairspec import save_jsi

    grid = build_grid(8, (1740.0, 1860.0), (1740.0, 1860.0))
    jsi = jsi_of(gaussian_jsa(grid, 3609.0, 8.0, 30.0, -29.0))
    src = str(tmp_path / "mev.csv")
    save_jsi(jsi, src)
    as_nm = str(tmp_path / "nm.csv")
    back = str(tmp_path / "back.csv")
    assert main(["convert", src, as_nm]) == 0
    assert "# units: nm" in Path(as_nm).read_text().splitlines()[0]
    assert main(["convert", as_nm, back]) == 0
    reloaded = load_jsi(back)
    assert np.allclose(reloaded.values, jsi.values, rtol=1e-9)
    assert np.allclose(reloaded.grid.signal, grid.signal, rtol=1e-9)


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


# A run makes two propagate calls.  Each takes two core congruences for the
# Lyapunov first pass and one for S X S^dag; the refinement pass adds two
# only where the first pass is above numkit.REFINE_ABOVE.  At n = 41 a photon
# grid point lands on the 1809 meV material, so the core goes to dense eig,
# whose first pass (about 1e-9) is refined.
@pytest.mark.parametrize(
    "n, core_method, congruences", [(64, "secular", 6), (41, "eig", 10)], ids=["secular", "eig"]
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
    assert out.prop.reports["lyapunov"].residual_norm < 1e-11


def test_sweep_factors_w_once_per_point(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ("eigenbasis", "solve_sylvester", "linear_solve"))
    text = BASE_CONFIG + (
        "\nsweep.parameter = sqrt_kappa\nsweep.values = 150, 488\nsweep.material_counts = 1, 2\n"
    )
    assert main(["--out", str(tmp_path / "sweep"), "sweep", write_config(tmp_path, text)]) == 0
    assert calls == {"eigenbasis": 4, "solve_sylvester": 0, "linear_solve": 0}


def test_run_records_solver_path(tmp_path):
    out_dir = str(tmp_path / "out")
    assert main(["--out", out_dir, "run", write_config(tmp_path, BASE_CONFIG)]) == 0
    diag = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())["diagnostics"]
    assert diag["solver_path"] == "eigen"
    assert 1.0 <= diag["eigenvector_condition"] < 1e5


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


# --- README and JSON validity ------------------------------------------------------

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _strict_json(path):
    """Parse JSON, rejecting the Infinity/NaN tokens json.loads would accept."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def test_readme_config_block_runs_verbatim(tmp_path):
    with open(os.path.join(_REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("### Config format", 1)[1].split("```\n", 2)[1]
    assert "grid.n = 64" in block
    cfg_path = write_config(tmp_path, block)
    out_dir = str(tmp_path / "out")
    assert main(["run", cfg_path, "--out", out_dir]) == 0
    metrics = _strict_json(os.path.join(out_dir, "metrics.json"))
    assert metrics["config"]["grid.signal_min"] == "1740"


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
        numkit, "eigenbasis",
        lambda W: dataclasses.replace(real(W), condition=float("inf"), deflated=None,
                                      reflections=(), arrowhead=None),
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
