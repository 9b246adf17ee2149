"""Pipeline benchmark for pairspec.

One run (the form the benchmark contract in BENCHMARK.json uses)::

    python3 perfbench/run.py --workload run_n64 --seed 3 --seconds 20 --trace 0

spawns fresh worker processes with OPENBLAS/OMP/MKL threads pinned to 1:
four set-up probes and one measuring process, which calls the workload's op
in a closed loop (one caller) for ``--seconds`` and checks every op's
outputs.  It prints every metric by name and unit, then one JSON line.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
op calls run under the span tracer (tracing.py) and the metrics are the
per-layer ones, per op.

Repeat mode reruns every workload, round-robin, and prints each metric's
median and quartiles across runs (the steadiness check and an A/A
comparison); ``--traced K`` adds K traced runs per workload and reports the
tracing overhead, ``--compare FILE`` reports how far each median moved from
an earlier record, and ``--record FILE`` writes it all as JSON::

    python3 perfbench/run.py --repeat 10 --seed 1 --traced 3 \
        --compare first.json --record perfbench/baseline.json

``--record-references`` stores entropy and log|det| of every instance, for
the output checks; run it only on the commit the references belong to.

Exit codes: 0 all ops correct, 1 some op failed (the result is still
printed), 2 the benchmark could not run (no result is printed).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(HERE, "_work")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("run_n64", "run_n256", "sweep_kappa_file", "validate")
REFERENCED = ("run_n64", "run_n256", "sweep_kappa_file")
SETUP_PROBES = 4
DEADLINE_S = 175.0
TAIL_BEYOND = 10
# Kept out of every run made while building the benchmark; use it to confirm
# a claim on inputs the change was not tuned on.
HELD_OUT_SEED = 31


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(mode, workload, work_dir, timeout, extra=()):
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--work-dir", work_dir, *extra, "--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with code "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are too
    few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def run_once(workload, seed, seconds, trace, n=None, reference=REFERENCE, work_dir=None):
    """One benchmark run; returns the worker's record plus the metrics."""
    deadline = time.monotonic() + DEADLINE_S
    work_dir = work_dir or os.path.join(WORK_DIR, workload)
    common = ["--seed", str(seed)] + (["--n", str(n)] if n else [])
    if workload in REFERENCED:
        common += ["--reference", reference]
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn("probe", workload, work_dir, deadline - time.monotonic(), common)
        setups.append(probe["setup_s"])
    rec = spawn("measure", workload, work_dir, deadline - time.monotonic(),
                common + ["--seconds", str(seconds), "--trace", str(trace)])
    setups.append(rec["setup_s"])
    rec["setups"] = setups
    rec["attempted"] = len(rec["durations"])
    rec["failed"] = len(rec["failures"])
    if trace:
        metrics = dict(rec["layers"])
        metrics["scattering.lyapunov_residual_max"] = rec["residual_max"]
    else:
        metrics = {
            "op_p50_s": statistics.median(rec["durations"]),
            "op_tail_s": tail(rec["durations"])[0],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    rec["metrics"] = metrics
    return rec


def describe_env(env):
    blas = "; ".join(f"{' '.join(b['config'].split()[:2])} ({b['library']}) "
                     f"threads={b['threads']}" for b in env["blas"])
    return (f"environment: {blas}; nproc {env['nproc']}; python {env['python']}; "
            f"numpy {env['numpy']}; scipy {env['scipy']}; "
            f"numba imports: {'yes' if env['numba_imports'] else 'no'}")


def print_run(rec, units, workload, seed, seconds, trace):
    n = rec["attempted"]
    print(f"workload {workload}, seed {seed}, {seconds:g} s closed loop with 1 caller, "
          f"trace {trace}")
    print(describe_env(rec["env"]))
    notes = {
        "op_p50_s": f"median of {n} ops",
        "setup_s": f"median of {len(rec['setups'])} processes",
        "peak_rss_mb": "measuring process",
    }
    if not trace:
        _, pct, beyond = tail(rec["durations"])
        notes["op_tail_s"] = (f"p{pct:.1f} of {n} ops, {beyond} beyond" if beyond
                              else f"maximum of {n} ops; too few for {TAIL_BEYOND} beyond")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {rec['metrics'][name]:.6g} {unit}{note}")
    print(f"fail_ratio = {rec['failed']}/{n}")
    for message in rec["failures"][:5]:
        print(f"failed op: {message}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(entry, first, bounds):
    """A/A check: how far each end-to-end median moved from an earlier set of
    runs, as a share of the earlier median (positive = worse)."""
    drift = {}
    for name, now in entry["end_to_end"].items():
        before = first["end_to_end"][name]["median"]
        drift[name] = (now["median"] - before) / before
        verdict = "within bound" if drift[name] <= bounds[name] else "WORSE THAN BOUND"
        print(f"A/A {name:<12} earlier median {before:.6g}, now {now['median']:.6g}: "
              f"{drift[name]:+.3f} (bound {bounds[name]}) {verdict}")
    return {"earlier_medians": {k: v["median"] for k, v in first["end_to_end"].items()},
            "drift": drift}


def repeat(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    chosen = args.workload or list(WORKLOADS)
    runs = {w: [] for w in chosen}
    traced = {w: [] for w in chosen}
    for i in range(args.repeat):
        for w in chosen:
            rec = run_once(w, args.seed + i, args.seconds, 0, n=args.n, reference=args.reference)
            runs[w].append(rec)
            print(f"[{w} seed {args.seed + i}] " + ", ".join(
                f"{k}={v:.6g}" for k, v in rec["metrics"].items())
                + f", failed {rec['failed']}/{rec['attempted']}", flush=True)
    for i in range(args.traced):
        for w in chosen:
            traced[w].append(run_once(w, args.seed + i, args.seconds, 1, n=args.n,
                                      reference=args.reference))
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    summary = {}
    for w in chosen:
        recs = runs[w]
        entry = {"why": next(x["why"] for x in bench["workloads"] if x["name"] == w),
                 "seeds": [args.seed + i for i in range(args.repeat)],
                 "env": recs[0]["env"], "end_to_end": {}}
        print(f"\n== {w}: {len(recs)} runs of {args.seconds:g} s, seeds "
              f"{args.seed}..{args.seed + args.repeat - 1}")
        print(describe_env(recs[0]["env"]))
        for name, unit in e2e_units.items():
            values = [r["metrics"][name] for r in recs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO NOISY")
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "bound": bounds[name],
                                         "values": values}
            print(f"{name:<12} median {med:.6g} {unit}  quartiles [{q1:.6g}, {q3:.6g}]  "
                  f"spread {spread:.3f} of median (bound {bounds[name]}) {verdict}")
        pooled = [d for r in recs for d in r["durations"]]
        value, pct, beyond = tail(pooled)
        entry["pooled_tail"] = {"value_s": value, "percentile": pct, "beyond": beyond,
                                "samples": len(pooled)}
        print(f"pooled tail  p{pct:.2f} = {value:.6g} s over {len(pooled)} ops "
              f"({beyond} beyond)")
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        entry["fail_ratio"] = f"{failed}/{attempted}"
        print(f"fail_ratio   {failed}/{attempted}")
        for message in [m for r in recs for m in r["failures"]][:5]:
            print(f"failed op: {message}")
        if traced[w]:
            layers = {}
            for name, unit in layer_units.items():
                values = [r["metrics"][name] for r in traced[w]]
                layers[name] = {"unit": unit, "median": statistics.median(values)}
            overhead = layers["trace.op_p50_s"]["median"] - entry["end_to_end"]["op_p50_s"]["median"]
            entry["per_layer"] = layers
            entry["tracing_overhead_s"] = overhead
            t_failed = sum(r["failed"] for r in traced[w])
            t_attempted = sum(r["attempted"] for r in traced[w])
            entry["traced_fail_ratio"] = f"{t_failed}/{t_attempted}"
            print(f"traced ({len(traced[w])} run(s), fail_ratio {t_failed}/{t_attempted}); "
                  f"tracing overhead {overhead:+.6g} s per op "
                  f"({overhead / entry['end_to_end']['op_p50_s']['median']:+.1%})")
            for name, item in layers.items():
                print(f"  {name:<36} {item['median']:.6g} {item['unit']}")
        if earlier and w in earlier["workloads"]:
            entry["aa"] = compare(entry, earlier["workloads"][w], bounds)
        summary[w] = entry
    if args.record:
        from tracing import LAYERS, EXTRA_LAYERS

        targets = [{"metric": name, "moves": moves, "on": on, "unchanged_on": same}
                   for name, _, _, moves, on, same in LAYERS]
        targets += [{"metric": name, "moves": moves, "on": on, "unchanged_on": same}
                    for name, moves, on, same in EXTRA_LAYERS]
        record = {
            "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
            "machine": {"platform": platform.platform(), "processor": platform.machine()},
            "held_out_seed": HELD_OUT_SEED,
            "run_seconds": args.seconds,
            "workloads": summary,
            "layer_targets": targets,
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.record}")
    return 0


def record_references(args):
    values = {}
    instances = args.instances
    for w in args.workload or list(REFERENCED):
        work_dir = os.path.join(args.work_dir or WORK_DIR, w)
        extra = ["--instances", str(instances)] + (["--n", str(args.n)] if args.n else [])
        values[w] = spawn("record", w, work_dir, None, extra)
        print(f"recorded {instances} instances of {w}", flush=True)
    record = {"instances": instances, **values}
    with open(args.reference, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.reference}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable in repeat mode; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="repeat mode: runs per workload")
    parser.add_argument("--traced", type=int, default=0, help="repeat mode: traced runs per workload")
    parser.add_argument("--record", default=None, help="repeat mode: write the summary here")
    parser.add_argument("--compare", default=None,
                        help="repeat mode: an earlier --record file to compare medians with")
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--instances", type=int, default=32)
    parser.add_argument("--reference", default=REFERENCE, help="reference values file")
    parser.add_argument("--n", type=int, default=None, help="grid size override (smoke test)")
    parser.add_argument("--work-dir", default=None,
                        help="directory for one run's inputs and artifacts")
    args = parser.parse_args(argv)

    try:
        bench = spec()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.record_references:
            return record_references(args)
        if args.repeat:
            return repeat(args, bench)
        if not args.workload or len(args.workload) != 1:
            parser.error("a single run needs exactly one --workload")
        workload = args.workload[0]
        rec = run_once(workload, args.seed, args.seconds, args.trace, n=args.n,
                       reference=args.reference, work_dir=args.work_dir)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    print_run(rec, units, workload, args.seed, args.seconds, args.trace)
    correct = rec["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": rec["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
