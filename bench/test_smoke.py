"""Smoke test of the benchmark: every workload at a tiny size, answers checked.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def worker(workload, tmp_path, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "7", "--tmp", str(tmp_path), "--tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_answers_correctly(workload, tmp_path):
    out = worker(workload, tmp_path)
    assert out["problems"] == [] and out["failed"] == []
    assert out["latencies"] and min(out["latencies"]) >= 0
    assert out["setup_s"] > 0 and out["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_pass_times_layers(workload, tmp_path):
    out = worker(workload, tmp_path, "--trace", "--probes")
    assert out["problems"] == []
    layers = out["trace"]["layers"]
    assert layers["query"]["calls"] == len(out["latencies"])
    assert all(layer["self_s"] >= 0 for layer in layers.values())
    metrics = run.layer_metrics(out["trace"], 1.0, out["probes"])
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert set(out["probes"]) == {"deep-negation-parse", "deep-diamond-sat",
                                  "valuation-as-list", "worlds-as-string"}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.PASSES) == set(run.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
