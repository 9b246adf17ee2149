"""Span recorder for the traced benchmark run, and the per-layer metric table.

The tracer replaces module attributes with timing wrappers from outside the
program: it wraps the attribute a caller actually looks up (``cli.load_jsi``,
``numkit.schur``, ``kernels.solve_triangular``), so spans nest the way the
real calls do.  Each span records its name, start, end, parent span and op
id; spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

import csv
import functools
import importlib
import statistics
import threading
from time import perf_counter

# (module, attribute) pairs to wrap; the span is named "module.attribute".
WRAPPED = (
    ("cli", "load_config"),
    ("cli", "gaussian_jsa"),
    ("cli", "load_jsi"),
    ("cli", "jsa_from_jsi"),
    ("cli", "build_grid"),
    ("cli", "build_dynamical_matrix"),
    ("cli", "execute_run"),
    ("cli", "_write_run_artifacts"),
    ("cli", "save_jsi"),
    ("cli", "render_heatmap"),
    ("states", "assemble_input_covariance"),
    ("scattering", "propagate"),
    ("scattering", "time_integrated_covariance"),
    ("scattering", "scattering_matrix"),
    ("numkit", "solve_sylvester"),
    ("numkit", "schur"),
    ("numkit", "linear_solve"),
    ("numkit", "log_determinant"),
    ("numkit", "svd"),
    ("kernels", "sylvester_triangular"),
    ("kernels", "solve_triangular"),
    ("observables", "wigner"),
    ("observables", "schmidt"),
    ("observables", "purity"),
    ("oracle", "integrate_sylvester"),
    ("oracle", "quadrature_time_integral"),
)

# Per-layer metrics, each a per-op value (median over the ops of the traced
# run).  kind: "count" = calls, "total" = inclusive time, "self" = time not
# covered by child spans.  "moves" names the end-to-end metric and workloads
# the layer should move; "unchanged_on" is the predicted no-change control.
LAYERS = (
    ("scattering.lyapunov_s", "total", ("scattering.time_integrated_covariance",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("numkit.sylvester_calls", "count", ("numkit.solve_sylvester",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("numkit.sylvester_self_s", "self", ("numkit.solve_sylvester",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("numkit.schur_calls", "count", ("numkit.schur",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("numkit.schur_s", "total", ("numkit.schur",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("kernels.tri_recursion_calls", "count", ("kernels.sylvester_triangular",),
     "op_p50_s, peak_rss_mb", "run_n256 most", "validate"),
    ("kernels.tri_recursion_self_s", "self", ("kernels.sylvester_triangular",),
     "op_p50_s, peak_rss_mb", "run_n256 most", "validate"),
    ("kernels.trsm_calls", "count", ("kernels.solve_triangular",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("kernels.trsm_s", "total", ("kernels.solve_triangular",),
     "op_p50_s", "run_n64, run_n256, sweep_kappa_file", "validate"),
    ("scattering.propagate_calls", "count", ("scattering.propagate",),
     "op_p50_s", "run_n64, run_n256 (epsilon/2 check)", "sweep_kappa_file (1 per point)"),
    ("scattering.assembly_s", "self", ("scattering.propagate",),
     "op_p50_s", "run_n64, run_n256 (epsilon/2 check)", "sweep_kappa_file (1 per point)"),
    ("scattering.smatrix_s", "total", ("scattering.scattering_matrix",),
     "op_p50_s", "run_n64", "run_n256 (no condition estimate)"),
    ("numkit.linear_solve_calls", "count", ("numkit.linear_solve",),
     "op_p50_s", "validate, run_n64", "run_n256"),
    ("numkit.linear_solve_s", "total", ("numkit.linear_solve",),
     "op_p50_s", "validate, run_n64", "run_n256"),
    ("observables.wigner_calls", "count", ("observables.wigner",),
     "op_p50_s", "validate", "run_n64, run_n256, sweep_kappa_file"),
    ("observables.wigner_self_s", "self", ("observables.wigner",),
     "op_p50_s", "validate", "run_n64, run_n256, sweep_kappa_file"),
    ("numkit.logdet_s", "total", ("numkit.log_determinant",),
     "op_p50_s", "validate", "run_n64, run_n256, sweep_kappa_file"),
    ("oracle.rk4_s", "total", ("oracle.integrate_sylvester",),
     "op_p50_s", "validate", "run_n64, run_n256, sweep_kappa_file"),
    ("oracle.quadrature_s", "total", ("oracle.quadrature_time_integral",),
     "op_p50_s", "validate", "run_n64, run_n256, sweep_kappa_file"),
    ("numkit.svd_s", "total", ("numkit.svd",),
     "op_p50_s", "run_n256", "validate"),
    ("observables.schmidt_s", "total", ("observables.schmidt",),
     "op_p50_s", "run_n256", "validate"),
    ("observables.purity_s", "total", ("observables.purity",),
     "op_p50_s", "run_n256", "validate"),
    ("config.load_s", "total", ("cli.load_config",),
     "op_p50_s", "sweep_kappa_file", "run_n64, run_n256"),
    ("states.input_s", "total",
     ("cli.gaussian_jsa", "cli.load_jsi", "cli.jsa_from_jsi", "states.assemble_input_covariance"),
     "op_p50_s", "sweep_kappa_file", "run_n64, run_n256"),
    ("model.build_s", "total", ("cli.build_grid", "cli.build_dynamical_matrix"),
     "none (under 1 ms; no-change control)", "none", "all"),
    ("cli.artifacts_s", "total", ("cli._write_run_artifacts",),
     "op_p50_s", "run_n256, run_n64", "validate"),
    ("cli.execute_run_s", "total", ("cli.execute_run",),
     "op_p50_s", "sweep_kappa_file", "run_n64, run_n256"),
)

# Metrics computed from something other than one span name.
EXTRA_LAYERS = (
    # Sum of point spans (execute_run plus its artifact write) over op wall time.
    ("cli.sweep_concurrency", "op_p50_s", "sweep_kappa_file", "run_n64, run_n256"),
    # Largest Lyapunov residual any op reported (metrics.json; for validate
    # the measured sylvester_residual check).  Guards the 1e-8 gate.
    ("scattering.lyapunov_residual_max", "none (guard against the 1e-8 gate)", "all", "-"),
    # Median traced op time; minus the untraced op_p50_s it is the tracing overhead.
    ("trace.op_p50_s", "none (tracing overhead = this minus op_p50_s)", "all", "-"),
)

_POINT_SPANS = ("cli.execute_run", "cli._write_run_artifacts")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0


class Tracer:
    """In-memory span recorder; ``install`` wraps every entry in WRAPPED."""

    def __init__(self):
        self.spans = []
        self.op_span = None
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def install(self):
        for module_name, attr in WRAPPED:
            module = importlib.import_module(f"pairspec.{module_name}")
            self._wrap(module, attr, f"{module_name}.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # Calls on a worker thread of the program start with an empty
            # stack; they hang off the op span.
            parent = stack[-1] if stack else tracer.op_span
            span = Span(name, parent, parent.op if parent is not None else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start

        self._restore.append((module, attr, original))
        setattr(module, attr, traced)

    def begin_op(self, op_id):
        self.op_span = Span("op", None, op_id)
        self.spans.append(self.op_span)
        self.op_span.start = perf_counter()

    def end_op(self):
        self.op_span.end = perf_counter()
        self.op_span = None

    def write_csv(self, path, origin):
        """One row per span; times in seconds from ``origin``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s"])
            for i, span in enumerate(self.spans):
                parent = "" if span.parent is None else index[id(span.parent)]
                out.writerow([i, parent, span.op, span.name,
                              f"{span.start - origin:.9f}", f"{span.end - origin:.9f}"])

    def layer_metrics(self):
        """Per-op medians of every span-derived per-layer metric, plus the
        sweep concurrency and the traced op median."""
        ops = {}
        for span in self.spans:
            per_op = ops.setdefault(span.op, {})
            if span.name == "op":
                per_op["op"] = span.end - span.start
                continue
            agg = per_op.setdefault(span.name, [0, 0.0, 0.0])
            duration = span.end - span.start
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - span.child
        column = {"count": 0, "total": 1, "self": 2}
        values = {name: [] for name, *_ in LAYERS}
        concurrency = []
        for per_op in ops.values():
            for name, kind, span_names, *_ in LAYERS:
                values[name].append(sum(per_op.get(s, (0, 0.0, 0.0))[column[kind]]
                                        for s in span_names))
            busy = sum(per_op.get(s, (0, 0.0, 0.0))[1] for s in _POINT_SPANS)
            concurrency.append(busy / per_op["op"])
        metrics = {name: statistics.median(v) for name, v in values.items()}
        metrics["cli.sweep_concurrency"] = statistics.median(concurrency)
        metrics["trace.op_p50_s"] = statistics.median(p["op"] for p in ops.values())
        return metrics
