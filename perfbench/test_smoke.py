"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every named metric is emitted with a unit and a sample
count, that the traced run's counts repeat exactly and stay at zero on the
layers a workload must not touch, and that the benchmark refuses to run
without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import E2E, GATED  # noqa: E402
from tracing import GATED_LAYERS, LAYER_METRICS  # noqa: E402

WORKLOADS = ("analytic", "simulate", "figure")


def _run(workload, trace, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return res


def _parse(res):
    assert res.returncode == 0, res.stderr[-2000:]
    lines = res.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last, report


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(k, E2E[k][0]) for k in GATED]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(k, LAYER_METRICS[k]) for k in GATED_LAYERS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    last, report = _parse(_run(workload, 0))
    assert set(last["metrics"]) == set(GATED)
    for name, m in last["metrics"].items():
        assert m["value"] > 0 and m["unit"] == E2E[name][0]
    (wl,) = report["workloads"]
    want = {k for k, (_, names) in E2E.items() if workload in names}
    assert set(wl["metrics"]) == want
    for name, m in wl["metrics"].items():
        assert m["unit"] == E2E[name][0] and m["n"] >= 1
    assert wl["metrics"]["failed_ratio"]["value"] == 0.0
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "thread_env",
                "git_commit", "seed"):
        assert key in report["machine"]


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if LAYER_METRICS[k] == "count" and not k.startswith("montecarlo.window")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_metrics(workload):
    last, report = _parse(_run(workload, 1))
    assert set(last["metrics"]) == set(GATED_LAYERS)
    (wl,) = report["workloads"]
    assert set(wl["layers"]) == set(LAYER_METRICS)
    metrics = {k: {"value": v} for k, v in wl["layers"].items()}
    assert metrics["trace.overhead_ratio"]["value"] > 0
    counts = _counts(metrics)
    if workload == "simulate":
        assert all(v == 0 for k, v in counts.items()
                   if k.startswith(("specfun.", "radar.")))
        assert counts["montecarlo.mc_coverage.calls"] == 3
    if workload == "analytic":
        assert all(v == 0 for k, v in counts.items() if k.startswith("montecarlo."))
        assert counts["specfun.beta_incomplete.calls"] > 0
    if workload == "figure":
        assert metrics["harness.write_rows.bytes"]["value"] > 0
    # the counts of a traced run repeat exactly for a seed
    _, again = _parse(_run(workload, 1))
    layers = {k: {"value": v} for k, v in again["workloads"][0]["layers"].items()}
    assert _counts(layers) == counts


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = _run("simulate", 0, cwd=bare)
        assert res.returncode != 0
        assert res.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
