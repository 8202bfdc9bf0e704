"""Self-test of the end-to-end benchmark on small traces (a few minutes)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = run.load_benchmark()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def record(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--json", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())


def test_record_has_every_metric_for_every_workload(record):
    assert set(record["workloads"]) == set(run.WORKLOADS)
    for name, doc in record["workloads"].items():
        assert doc["failed"] == 0, (name, doc["failures"])
        assert doc["traced_failures"] == [], name
        for metric in SPEC["end_to_end"]:
            assert doc["metrics"][metric["name"]]["value"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            assert metric["name"] in doc["layers"], (name, metric)
    meta = record["meta"]
    for key in ("git_sha", "seed", "rounds", "python", "numpy", "scipy", "nproc",
                "probe_p50_s", "probe_ref_s"):
        assert key in meta


def test_layer_times_add_up_to_the_traced_wall(record):
    parts = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] == "s" and not m["name"].startswith("traced.")
        and m["name"] not in run.SETUP_LAYERS
    ]
    for name, doc in record["workloads"].items():
        layers = doc["layers"]
        wall = layers["traced.wall_s"]
        assert abs(sum(layers[p] for p in parts) - wall) <= 0.05 * wall, name


def test_compare_passes_a_record_against_itself_and_flags_a_slowdown(record, tmp_path):
    def save(doc: dict, name: str) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def with_wall(scale: float) -> dict:
        doc = json.loads(json.dumps(record))
        for workload in doc["workloads"].values():
            wall = workload["metrics"]["wall_p50_s"]
            value = wall["value"] * scale
            wall.update(value=value, median_p25=value, median_p75=value)  # resolved
        return doc

    same = save(record, "same.json")
    assert run.compare(same, same, SPEC) == 0
    assert run.compare(save(with_wall(1.0), "base.json"), save(with_wall(1.5), "slow.json"), SPEC) == 1


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_oracle_rejects_wrong_answers_and_broken_inputs(workload, tmp_path):
    bench = run.Bench(tmp_path)
    job = run.set_up(bench, run.WORKLOADS[workload], 7, run.QUICK_TRACES, repeats=1)
    assert run.sample(bench, job).ok, job.failures

    right = job.truth
    job.truth = dataclasses.replace(right, hot_ranks=right.hot_ranks[1:] + right.hot_ranks[:1])
    assert not run.sample(bench, job).ok
    job.truth = right

    data = job.trace.read_bytes()
    job.trace.write_bytes(data[: len(data) // 2])
    job.attempted, job.failures, job.samples = 0, [], []
    run.measure(bench, [job], rounds=2, seconds=None)
    assert run.e2e_metrics(job, UNITS)["failed_frac"]["value"] == 1.0


def test_probe_never_imports_repro():
    code = (
        "import runpy, sys; runpy.run_path(sys.argv[1]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE / "probe.py")],
        env=run.child_env(), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "warm-cache", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
