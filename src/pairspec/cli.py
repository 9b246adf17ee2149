"""Command-line runner: single runs, coupling sweeps, validation, unit conversion.

Subcommands::

    pairspec run <config>      propagate one input and write all artifacts
    pairspec sweep <config>    run every (sweep value, material count) point
    pairspec validate          oracle-equivalence and invariant suite
    pairspec convert IN OUT    rewrite a grid file with nm <-> meV axes

Exit codes: 0 success, 1 config or usage error, 2 solver failure, 3 validation
failure.
A sweep whose points fail in the solver still writes every other point, marks
the failed ones in entropy.csv and sweep_index.json, and exits 2.
The output directory resolves as --out flag > PAIRSPEC_OUT_DIR env var >
config output.dir.
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import observables, scattering, states
from .config import RunConfig, check_epsilon, load_config
from .errors import (
    ConfigError,
    ConvergenceFailure,
    NearSingularPencil,
    NonConvergentIntegral,
    NonPositiveDeterminant,
    PairspecError,
    SingularCovariance,
    SingularMatrix,
    StepOverflow,
)
from .model import SystemParams, build_dynamical_matrix, build_grid
from .states import (
    gaussian_jsa,
    jsa_from_jsi,
    load_jsi,
    parse_grid_text,
    save_jsi,
)
from .validation import run_validation

OUT_DIR_ENV = "PAIRSPEC_OUT_DIR"

_SOLVER_ERRORS = (
    SingularMatrix,
    NearSingularPencil,
    ConvergenceFailure,
    NonPositiveDeterminant,
    SingularCovariance,
    StepOverflow,
    NonConvergentIntegral,
)


@dataclass
class RunOutputs:
    jsi_in: states.JointSpectralIntensity
    jsi_out: states.JointSpectralIntensity
    jsi_out_raw: states.JointSpectralIntensity
    schmidt: observables.SchmidtSpectrum
    entropy: float
    purity: observables.PurityResult
    prop: scattering.PropagationResult
    epsilon_stability: float | None = None


def render_heatmap(jsi, path):
    """8-bit grayscale PGM (P5): rows = signal ascending, columns = idler
    ascending, linear [0, max] -> [0, 255]; axes metadata goes to a sibling
    .json file."""
    values = np.asarray(jsi.values, dtype=float)
    vmax = values.max()
    if vmax > 0:
        pixels = np.rint(values / vmax * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros_like(values, dtype=np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    meta = {
        "rows": "signal ascending",
        "cols": "idler ascending",
        "units": "meV",
        "n": jsi.grid.n,
        "signal_min": float(jsi.grid.signal[0]),
        "signal_max": float(jsi.grid.signal[-1]),
        "idler_min": float(jsi.grid.idler[0]),
        "idler_max": float(jsi.grid.idler[-1]),
        "value_max": float(vmax),
    }
    meta_path = os.path.splitext(path)[0] + ".json"
    _write_json(meta_path, meta)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _build_inputs(cfg: RunConfig):
    if cfg.input_kind == "gaussian":
        grid = build_grid(cfg.n, cfg.signal_range, cfg.idler_range)
        jsa = gaussian_jsa(
            grid,
            pump_center=cfg.gaussian["pump_center"],
            sum_width=cfg.gaussian["sum_width"],
            diff_width=cfg.gaussian["diff_width"],
            diff_offset=cfg.gaussian["diff_offset"],
        )
    else:
        jsi = load_jsi(cfg.input_path)
        grid = jsi.grid
        jsa = jsa_from_jsi(jsi)
    return grid, jsa


def _system_params(cfg: RunConfig):
    return SystemParams(
        omega_c=cfg.omega_c,
        material_freqs=cfg.material_freqs,
        g=cfg.g,
        sqrt_kappa=cfg.sqrt_kappa,
    )


def execute_run(cfg: RunConfig, check_epsilon_stability=True, inputs=None):
    """Run the full pipeline for one configuration; returns RunOutputs.

    ``inputs`` is a ``(grid, jsa)`` pair already built from ``cfg``'s grid and
    input settings (a sweep shares one); None builds it here."""
    params = _system_params(cfg)
    grid, jsa = _build_inputs(cfg) if inputs is None else inputs
    W = build_dynamical_matrix(
        grid,
        params,
        continuum_scaling=cfg.continuum_scaling,
        material_sign=cfg.sign_convention,
    )
    theta_in = states.assemble_input_covariance(jsa, params.n_material)
    prop = scattering.propagate(theta_in, W, epsilon=cfg.epsilon)

    jsa_out = scattering.extract_output_jsa(prop.theta_out)
    jsi_out_raw = states.jsi_of(jsa_out, normalize=False)
    jsi_out = jsi_out_raw.normalized()
    spectrum = observables.schmidt(jsa_out, use_magnitude=cfg.entropy_variant == "magnitude")
    entropy = observables.von_neumann_entropy(spectrum)
    pur = observables.purity(prop.theta_out)

    stability = None
    if check_epsilon_stability:
        half = scattering.propagate(theta_in, W, epsilon=prop.epsilon_used / 2.0)
        denom = np.linalg.norm(prop.theta_out.matrix)
        stability = float(
            np.linalg.norm(half.theta_out.matrix - prop.theta_out.matrix) / denom
        )

    return RunOutputs(
        jsi_in=states.jsi_of(jsa),
        jsi_out=jsi_out,
        jsi_out_raw=jsi_out_raw,
        schmidt=spectrum,
        entropy=entropy,
        purity=pur,
        prop=prop,
        epsilon_stability=stability,
    )


def _metrics_payload(cfg: RunConfig, out: RunOutputs):
    prop = out.prop
    lyap = prop.reports["lyapunov"]
    scat = prop.reports["scattering"]
    payload = {
        "schema_version": 1,
        "entropy_nats": out.entropy,
        "entropy_variant": cfg.entropy_variant,
        "schmidt_modes": int(out.schmidt.values.size),
        "purity": {"mu": out.purity.mu, "log_abs_det": out.purity.log_abs_det},
        "diagnostics": {
            "epsilon_used": prop.epsilon_used,
            "regularized": prop.regularized,
            "identity_gap": prop.identity_gap,
            "hermiticity_defect": prop.hermiticity_defect,
            "lyapunov_residual": lyap.residual_norm,
            "lyapunov_condition": lyap.condition_estimate,
            "solver_path": lyap.path,
            "eigenvector_condition": lyap.eigenvector_condition,
            "deflated_modes": lyap.deflated_modes,
            "scattering_residual": scat.residual_norm,
        },
        "config": dict(cfg.raw),
    }
    if out.epsilon_stability is not None:
        payload["diagnostics"]["epsilon_half_relative_change"] = out.epsilon_stability
    # JSON has no inf or nan: a diagnostic that is not finite (cond_1(V) of a
    # singular V) is written as null.
    for key, value in payload["diagnostics"].items():
        if isinstance(value, float) and not np.isfinite(value):
            payload["diagnostics"][key] = None
    return payload


def _write_run_artifacts(out_dir, cfg: RunConfig, out: RunOutputs, heatmaps=True, input_text=None):
    """``input_text`` is input_jsi.csv already formatted; None formats it here."""
    os.makedirs(out_dir, exist_ok=True)
    if input_text is None:
        save_jsi(out.jsi_in, os.path.join(out_dir, "input_jsi.csv"))
    else:
        with open(os.path.join(out_dir, "input_jsi.csv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(input_text)
    save_jsi(out.jsi_out, os.path.join(out_dir, "output_jsi.csv"))
    save_jsi(out.jsi_out_raw, os.path.join(out_dir, "output_jsi_raw.csv"))
    with open(os.path.join(out_dir, "schmidt.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,coefficient\n")
        for i, r in enumerate(out.schmidt.values):
            fh.write(f"{i},{r:.17g}\n")
    _write_json(os.path.join(out_dir, "metrics.json"), _metrics_payload(cfg, out))
    if heatmaps:
        render_heatmap(out.jsi_in, os.path.join(out_dir, "input_jsi.pgm"))
        render_heatmap(out.jsi_out, os.path.join(out_dir, "output_jsi.pgm"))


def _resolve_out_dir(args, cfg):
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    return cfg.output_dir


def _sweep_points(cfg: RunConfig):
    if cfg.sweep_parameter is None:
        raise ConfigError("config has no sweep.parameter; nothing to sweep")
    counts = cfg.sweep_material_counts or (len(cfg.material_freqs),)
    points = []
    for value in cfg.sweep_values:
        for m in counts:
            points.append((value, m))
    return points


def _point_config(cfg: RunConfig, value, m_count):
    """Derive the per-point parameter set (material frequencies replicate the
    first configured one when the requested count exceeds the list)."""
    freqs = list(cfg.material_freqs)
    if m_count > len(freqs):
        if not freqs:
            raise ConfigError(
                "sweep.material_counts requires at least one system.material_freqs entry"
            )
        freqs = freqs + [freqs[0]] * (m_count - len(freqs))
    freqs = tuple(freqs[:m_count])
    overrides = {
        "sqrt_kappa": cfg.sqrt_kappa,
        "g": cfg.g,
        "epsilon": cfg.epsilon,
        "omega_c": cfg.omega_c,
    }
    overrides[cfg.sweep_parameter] = value
    return dataclasses.replace(
        cfg,
        material_freqs=freqs,
        sqrt_kappa=overrides["sqrt_kappa"],
        g=overrides["g"],
        epsilon=overrides["epsilon"],
        omega_c=overrides["omega_c"],
    )


def _load_config(args):
    """The config file, with a checked --epsilon in place of its epsilon."""
    cfg = load_config(args.config)
    if args.epsilon is not None:
        cfg = dataclasses.replace(cfg, epsilon=check_epsilon(args.epsilon, "--epsilon"))
    return cfg


def cmd_run(args):
    cfg = _load_config(args)
    out_dir = _resolve_out_dir(args, cfg)
    outputs = execute_run(cfg)
    _write_run_artifacts(out_dir, cfg, outputs)
    mu = outputs.purity.mu
    print(f"run complete: entropy={outputs.entropy:.6f} nats, purity mu="
          f"{'overflow' if mu is None else f'{mu:.6g}'}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    out_dir = _resolve_out_dir(args, cfg)
    points = _sweep_points(cfg)
    # Reject a bad point before any point runs or writes its artifacts.
    point_cfgs = [_point_config(cfg, value, m_count) for value, m_count in points]
    for idx, point_cfg in enumerate(point_cfgs):
        _system_params(point_cfg)
        check_epsilon(point_cfg.epsilon, f"{args.config}: sweep point {idx}")
    # No sweep parameter touches grid.* or input.*, so every point shares one
    # input, loaded and formatted here; a bad input file fails before any
    # directory exists.  Read-only arrays make an in-place write from a worker
    # thread raise instead of changing the other points' input.
    inputs = grid, jsa = _build_inputs(cfg)
    for shared in (grid.signal, grid.idler, jsa.values):
        shared.flags.writeable = False
    input_text = states.format_grid(grid.signal, grid.idler, states.jsi_of(jsa).values, "meV")
    os.makedirs(out_dir, exist_ok=True)

    def run_point(indexed):
        idx, (value, m_count) = indexed
        point_cfg = point_cfgs[idx]
        try:
            outputs = execute_run(point_cfg, check_epsilon_stability=False, inputs=inputs)
        except _SOLVER_ERRORS as exc:
            # One failed point must not discard the others.
            return idx, value, m_count, None, None, f"{type(exc).__name__}: {exc}"
        sub = os.path.join(
            out_dir, f"point_{idx:03d}_{cfg.sweep_parameter}_{value:g}_M{m_count}"
        )
        _write_run_artifacts(sub, point_cfg, outputs, heatmaps=False, input_text=input_text)
        return idx, value, m_count, outputs, sub, None

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run_point, enumerate(points)))
    else:
        results = [run_point(item) for item in enumerate(points)]

    # Coordinator writes the index and the entropy table once, in input order.
    # A failed point keeps its row, with empty numbers and status "failed".
    rows = ["parameter,value,material_count,entropy_nats,purity_mu,purity_log_abs_det,"
            "lyapunov_residual,epsilon_used,status"]
    index = []
    failures = []
    for idx, value, m_count, outputs, sub, error in results:
        if error is None:
            lyap = outputs.prop.reports["lyapunov"]
            mu = outputs.purity.mu
            rows.append(
                f"{cfg.sweep_parameter},{value:.17g},{m_count},{outputs.entropy:.17g},"
                f"{'' if mu is None else f'{mu:.17g}'},{outputs.purity.log_abs_det:.17g},"
                f"{lyap.residual_norm:.17g},{outputs.prop.epsilon_used:.17g},ok"
            )
        else:
            rows.append(f"{cfg.sweep_parameter},{value:.17g},{m_count},,,,,,failed")
            failures.append(f"point {idx} ({cfg.sweep_parameter}={value:g}, M={m_count}): {error}")
        index.append({
            "index": idx,
            "value": value,
            "material_count": m_count,
            "dir": os.path.basename(sub) if sub else None,
            "status": "ok" if error is None else "failed",
            "error": error,
        })
    with open(os.path.join(out_dir, "entropy.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_json(os.path.join(out_dir, "sweep_index.json"), {"points": index})
    if failures:
        for line in failures:
            print(f"solver failure during sweep: {line}", file=sys.stderr)
        print(f"sweep finished with {len(failures)} of {len(points)} points failed; "
              f"artifacts in {out_dir}")
        return 2
    print(f"sweep complete: {len(points)} points, artifacts in {out_dir}")
    return 0


def cmd_validate(args):
    report = run_validation()
    for line in report.lines():
        print(line)
    n_fail = sum(1 for r in report.results if not r.passed)
    print(
        f"{len(report.results) - n_fail}/{len(report.results)} checks passed "
        f"in {report.elapsed:.3g} s"
    )
    return 0 if report.passed else 3


def cmd_convert(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    signal_mev, idler_mev, values, units = parse_grid_text(
        text, complex_values=True, source=args.input
    )
    target = "nm" if units == "meV" else "meV"
    cells = values.real if np.all(values.imag == 0) else values
    states._write_grid(args.output, signal_mev, idler_mev, cells, target)
    print(f"wrote {args.output} ({units} -> {target})")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the config-error code
    (argparse exits 2, which here means a solver failure).  Subparsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _thread_count(text):
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return count


def _add_common_flags(parser, suppress=False):
    # The same flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS defaults so they never clobber values
    # parsed at the top level.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--out", default=default, help="output directory (overrides env and config)")
    parser.add_argument("--epsilon", type=float, default=default, help="regularization override (meV)")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=argparse.SUPPRESS if suppress else 1,
        help="sweep worker threads",
    )


def build_parser():
    parser = _Parser(
        prog="pairspec",
        description="Photon-pair spectral propagation through cavity-material systems.",
    )
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)

    p_run = sub.add_parser("run", help="single propagation run", parents=[common])
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run, stage="run")

    p_sweep = sub.add_parser("sweep", help="parameter sweep", parents=[common])
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=cmd_sweep, stage="sweep")

    p_val = sub.add_parser("validate", help="oracle and invariant suite", parents=[common])
    p_val.set_defaults(func=cmd_validate, stage="validate")

    p_conv = sub.add_parser(
        "convert", help="nm <-> meV axis conversion of a grid file", parents=[common]
    )
    p_conv.add_argument("input")
    p_conv.add_argument("output")
    p_conv.set_defaults(func=cmd_convert, stage="convert")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"solver failure during {args.stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (PairspecError, OSError) as exc:
        print(f"config/input error during {args.stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
