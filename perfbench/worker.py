"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` with OPENBLAS/OMP/MKL threads pinned to 1 in the
environment.  The pin is checked before numpy loads and again in every BLAS
library numpy and scipy loaded; the process fails loudly when it is not in
effect.  The last line of standard output is one JSON object.

Modes: ``probe`` stops after set-up and reports only ``setup_s``;
``measure`` runs ops for ``--seconds``; ``record`` prints the reference
values of instances 0..K-1.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def fail(message):
    print(f"perfbench worker: {message}", file=sys.stderr)
    sys.exit(3)


# (thread getter, config getter) of the OpenBLAS builds numpy and scipy ship.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_threads():
    """(library, OpenBLAS config, threads) for every OpenBLAS numpy and scipy
    loaded; the thread count is what the library will actually use."""
    import numpy
    import scipy

    found = []
    for mod in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), mod.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for threads_symbol, config_symbol in _OPENBLAS_SYMBOLS:
                if hasattr(lib, threads_symbol) and hasattr(lib, config_symbol):
                    get_threads = getattr(lib, threads_symbol)
                    get_config = getattr(lib, config_symbol)
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found.append({"library": mod.__name__,
                                  "config": get_config().decode(),
                                  "threads": get_threads()})
                    break
    return found


def environment(blas):
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
    }


def measure(workload, seconds, tracer):
    durations = []
    failures = []
    residual_max = 0.0
    start = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        while True:
            workload.reset()
            if tracer is not None:
                tracer.begin_op(len(durations))
            problem = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    result = workload.op()
            except Exception as exc:  # a raising op is a failed op, not a crash
                problem = f"op raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            durations.append(t1 - t0)
            if problem is None:
                try:
                    problem = workload.check(result)
                    residual_max = max(residual_max, workload.residual(result))
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    problem = f"outputs unreadable: {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(problem)
            if t1 - start >= seconds:
                break
    return durations, failures, residual_max


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "measure", "record"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--instances", type=int, default=0)
    args = parser.parse_args(argv)

    bad = {name: os.environ.get(name) for name in PINNED if os.environ.get(name) != "1"}
    if bad:
        fail(f"thread pin missing before numpy import: {bad}")
    if not os.path.isdir(os.path.join(SRC, "pairspec")):
        fail(f"no pairspec sources under {SRC}")
    sys.path.insert(0, SRC)

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import pairspec
    import workloads

    if not os.path.abspath(pairspec.__file__).startswith(SRC + os.sep):
        fail(f"pairspec imported from {pairspec.__file__}, not from {SRC}")
    blas = blas_threads()
    if not blas or any(entry["threads"] != 1 for entry in blas):
        fail(f"BLAS thread pin not in effect: {blas or 'no OpenBLAS library found'}")

    if args.mode == "record":
        values = {}
        for instance in range(args.instances):
            wl = workloads.Workload(args.workload, instance, args.work_dir, n=args.n)
            wl.reset()
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                result = wl.op()
            if result != 0:
                fail(f"instance {instance} exited with code {result}")
            values[str(instance)] = wl.values(result)
            # The hygiene gates hold for every stored instance, or recording stops.
            wl.reference = values
            problem = wl.check(result)
            if problem is not None:
                fail(f"instance {instance} fails its checks: {problem}")
        print(json.dumps(values))
        return 0

    workload = workloads.Workload(args.workload, args.seed, args.work_dir, n=args.n)
    if args.reference is not None and args.workload != "validate":
        with open(args.reference, encoding="utf-8") as fh:
            workload.reference = json.load(fh)[args.workload]
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    origin = time.perf_counter()
    durations, failures, residual_max = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": setup_s,
        "durations": durations,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "residual_max": residual_max,
        "env": environment(blas),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write_csv(os.path.join(args.work_dir, "spans.csv"), origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
