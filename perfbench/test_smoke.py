"""Smoke test of the benchmark harness at a tiny grid (n=8).

Run with ``python3 -m pytest perfbench/test_smoke.py``.  It checks that every
metric BENCHMARK.json names is printed with its unit, in both the untraced
and the traced run, and that a deliberately wrong reference value turns every
op into a failed op.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

WORKLOADS = ("run_n64", "sweep_kappa_file")


def bench(*args):
    return subprocess.run([sys.executable, RUN, *map(str, args)], capture_output=True,
                          text=True, timeout=170)


def tiny_run(workload, reference, work_dir, trace=0):
    proc = bench("--workload", workload, "--seed", 0, "--seconds", 0.3, "--trace", trace,
                 "--n", 8, "--reference", reference, "--work-dir", work_dir)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reference")
    path = tmp / "reference.json"
    args = ["--record-references", "--n", 8, "--instances", 1, "--reference", path,
            "--work-dir", tmp / "work"]
    for workload in WORKLOADS:
        args += ["--workload", workload]
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, key, reference, tmp_path):
    code, lines, result = tiny_run(workload, reference, tmp_path, trace)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[3] for line in lines[:-1]
               if len(line.split()) > 3 and line.split()[1] == "="}
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_every_op(workload, reference, tmp_path):
    with open(reference, encoding="utf-8") as fh:
        data = json.load(fh)
    stored = data[workload]["0"]
    (stored[-1] if isinstance(stored, list) else stored)["entropy_nats"] += 1e-3
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(data), encoding="utf-8")
    code, _, result = tiny_run(workload, wrong, tmp_path / "work")
    assert code == 1
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
