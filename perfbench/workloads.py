"""The four benchmark workloads: inputs from the seed, one op, and its check.

Every workload keeps n, M, epsilon, the sign convention and the sweep values
fixed, so the work per op does not depend on the seed.  Seeds of the run and
sweep workloads fold onto ``INSTANCES`` stored instances (instance = seed mod
INSTANCES), so every seed has reference values recorded at the seed commit.
"""

import csv
import json
import os
import shutil

import numpy as np
from pairspec import cli, validation

INSTANCES = 32

# A result fails when a hygiene diagnostic reaches this gate (the repo's
# 1e-8 gates), or when entropy or log|det| differs from the stored
# reference by more than REL_TOL relative to max(1, |reference|).
GATE = 1e-8
REL_TOL = 1e-6

HC_MEV_NM = 1239841.98
AXIS = (1740.0, 1860.0)
SWEEP_VALUES = (60, 100, 150, 200)
SWEEP_COUNTS = (1, 2)


_BASE_CONFIG = {
    "schema_version": "1",
    "system.omega_c": "1809",
    "system.material_freqs": "1809",
    "system.g": "0.5",
    "system.sqrt_kappa": "488",
    "system.epsilon": "1e-3",
    "flags.sign_convention": "paper",
    "output.dir": "out",
}


def _pump(instance):
    """Gaussian pump parameters jittered inside the README range."""
    rng = np.random.default_rng(instance)
    return {
        "pump_center": 3609.0 + rng.uniform(-10.0, 10.0),
        "sum_width": rng.uniform(6.0, 10.0),
        "diff_width": rng.uniform(25.0, 35.0),
        "diff_offset": rng.uniform(-35.0, -23.0),
    }


def _write_config(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def _write_nm_jsi(path, n, pump):
    """Double-Gaussian JSI on a grid uniform in energy, written in nm units
    (descending energy as wavelength ascends)."""
    axis = np.linspace(AXIS[0], AXIS[1], n)
    s, i = np.meshgrid(axis, axis, indexing="ij")
    log_f = (-((s + i - pump["pump_center"]) ** 2) / (2.0 * pump["sum_width"] ** 2)
             - ((s - i - pump["diff_offset"]) ** 2) / (2.0 * pump["diff_width"] ** 2))
    jsi = np.exp(2.0 * (log_f - log_f.max()))[::-1, ::-1]
    nm = HC_MEV_NM / axis[::-1]
    lines = ["# units: nm", ",".join(["wavelength_nm\\omega"] + [f"{w:.17g}" for w in nm])]
    for r in range(n):
        lines.append(",".join([f"{nm[r]:.17g}"] + [f"{v:.17g}" for v in jsi[r]]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _close(got, want):
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _check_diagnostics(metrics, where):
    diag = metrics["diagnostics"]
    for key in ("lyapunov_residual", "identity_gap", "hermiticity_defect"):
        if not diag[key] < GATE:
            return f"{where}: {key} = {diag[key]:.3e} reaches the {GATE:.0e} gate"
    return None


def _check_values(got, want, where):
    for key in ("entropy_nats", "log_abs_det"):
        if not _close(got[key], want[key]):
            return f"{where}: {key} = {got[key]!r} differs from reference {want[key]!r}"
    return None


class Workload:
    """One workload instance: ``op()`` runs the timed call, ``check(result)``
    returns None or a failure message, ``values(result)`` returns what the
    reference stores, and ``residual(result)`` the largest Lyapunov residual."""

    def __init__(self, name, seed, work_dir, n=None):
        self.name = name
        self.seed = seed
        self.instance = seed % INSTANCES
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.reference = None
        os.makedirs(work_dir, exist_ok=True)
        if name in ("run_n64", "run_n256"):
            self.n = n or (64 if name == "run_n64" else 256)
            self._prepare_run()
        elif name == "sweep_kappa_file":
            self.n = n or 64
            self._prepare_sweep()
        elif name == "validate":
            self.n = None
        else:
            raise ValueError(f"unknown workload {name!r}")

    # -- inputs ------------------------------------------------------------
    def _prepare_run(self):
        pump = _pump(self.instance)
        entries = dict(_BASE_CONFIG)
        entries.update({
            "grid.n": str(self.n),
            "grid.signal_min": f"{AXIS[0]:g}",
            "grid.signal_max": f"{AXIS[1]:g}",
            "grid.idler_min": f"{AXIS[0]:g}",
            "grid.idler_max": f"{AXIS[1]:g}",
            "input.kind": "gaussian",
        })
        entries.update({f"input.{k}": f"{v:.17g}" for k, v in pump.items()})
        self.config = os.path.join(self.work_dir, "run.cfg")
        _write_config(self.config, entries)

    def _prepare_sweep(self):
        jsi_path = os.path.join(self.work_dir, "input_nm.csv")
        _write_nm_jsi(jsi_path, self.n, _pump(self.instance))
        entries = dict(_BASE_CONFIG)
        entries.update({
            "input.kind": "file",
            "input.path": jsi_path,
            "sweep.parameter": "sqrt_kappa",
            "sweep.values": ", ".join(str(v) for v in SWEEP_VALUES),
            "sweep.material_counts": ", ".join(str(m) for m in SWEEP_COUNTS),
        })
        self.config = os.path.join(self.work_dir, "sweep.cfg")
        _write_config(self.config, entries)

    # -- the op ------------------------------------------------------------
    def reset(self):
        """Untimed: remove the previous op's artifacts."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        if self.name == "validate":
            return validation.run_validation(self.seed)
        if self.name == "sweep_kappa_file":
            return cli.main(["sweep", self.config, "--threads", "2", "--out", self.out_dir])
        return cli.main(["run", self.config, "--out", self.out_dir])

    # -- outputs -----------------------------------------------------------
    def _sweep_points(self):
        with open(os.path.join(self.out_dir, "sweep_index.json"), encoding="utf-8") as fh:
            index = json.load(fh)["points"]
        with open(os.path.join(self.out_dir, "entropy.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        points = []
        for entry, row in zip(index, rows):
            with open(os.path.join(self.out_dir, entry["dir"], "metrics.json"),
                      encoding="utf-8") as fh:
                metrics = json.load(fh)
            points.append((row, metrics))
        return points, len(index), len(rows)

    def _run_metrics(self):
        with open(os.path.join(self.out_dir, "metrics.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def values(self, result):
        """Reference values of one op's outputs."""
        if self.name in ("run_n64", "run_n256"):
            m = self._run_metrics()
            return {"entropy_nats": m["entropy_nats"], "log_abs_det": m["purity"]["log_abs_det"]}
        if self.name == "sweep_kappa_file":
            points, _, _ = self._sweep_points()
            return [{"value": float(row["value"]), "material_count": int(row["material_count"]),
                     "entropy_nats": float(row["entropy_nats"]),
                     "log_abs_det": float(row["purity_log_abs_det"])} for row, _ in points]
        return None

    def residual(self, result):
        if self.name == "validate":
            return max(r.measured for r in result.results if r.name == "sylvester_residual")
        if self.name == "sweep_kappa_file":
            points, _, _ = self._sweep_points()
            return max(m["diagnostics"]["lyapunov_residual"] for _, m in points)
        return self._run_metrics()["diagnostics"]["lyapunov_residual"]

    def check(self, result):
        """None when the op's outputs pass every check, else the first failure."""
        if self.name == "validate":
            failed = [r.name for r in result.results if not r.passed]
            if failed or not result.results:
                return f"validation checks not PASS: {failed}"
            return None
        if result != 0:
            return f"pairspec exited with code {result}"
        want = self.reference[str(self.instance)]
        got = self.values(result)
        if self.name == "sweep_kappa_file":
            points, n_index, n_rows = self._sweep_points()
            expected = len(SWEEP_VALUES) * len(SWEEP_COUNTS)
            if n_index != expected or n_rows != expected:
                return f"sweep wrote {n_rows} rows and {n_index} points, expected {expected}"
            for (row, metrics), point, ref in zip(points, got, want):
                where = f"point sqrt_kappa={row['value']} M={row['material_count']}"
                if (point["value"], point["material_count"]) != (ref["value"], ref["material_count"]):
                    return f"{where}: row order differs from the reference"
                if not float(row["lyapunov_residual"]) < GATE:
                    return f"{where}: entropy.csv lyapunov_residual reaches the gate"
                problem = _check_diagnostics(metrics, where) or _check_values(point, ref, where)
                if problem:
                    return problem
            return None
        return _check_diagnostics(self._run_metrics(), "run") or _check_values(got, want, "run")
