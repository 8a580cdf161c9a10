"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

The stage sequence must reproduce what ``assistlearn run`` computes, every
workload must print every listed metric with its unit and no failure, and
the bench must refuse to run without the package's source.
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
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402
from assistlearn import learners  # noqa: E402
from assistlearn.harness import ExperimentConfig, run_experiment  # noqa: E402

SMALL_CHAIN = dataclasses.replace(
    w.EXPERIMENTS["chain_predict_tcp"], name="small-chain", n_train=300,
    n_test=200, rounds=5)
SMALL_SPLIT = dataclasses.replace(
    w.EXPERIMENTS["split_net_tcp"], name="small-split", n_train=300,
    n_test=100, rounds=4, learner="dense_net:hidden=4,batch=32")


def _stages(spec, seed):
    fx = w.setup(spec, seed)
    try:
        trained = w.learn(fx)
        curves = w.predict(fx, trained)
    finally:
        fx.close()
    return w.outcome(fx, trained, curves)


@pytest.mark.parametrize("spec", [SMALL_CHAIN, SMALL_SPLIT], ids=["chain", "split"])
def test_stage_sequence_reproduces_run_experiment(spec):
    seed = 5
    report = run_experiment(ExperimentConfig.from_dict(spec.config(seed)))
    rep = report.replications[0]
    result = _stages(spec, seed)
    assert list(result.test_rmse) == [r["test_rmse"] for r in rep["rounds"]]
    assert result.chosen_round == rep["chosen_round"]


def test_traced_stages_give_the_untraced_result():
    plain = _stages(SMALL_CHAIN, 3)
    tracer = tracing.install(tracing.Tracer())
    try:
        traced = _stages(SMALL_CHAIN, 3)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert learners.fit_learner.__name__ == "fit_learner"
    assert not hasattr(learners.fit_learner, "__wrapped__")
    sums = tracer.layer_metrics()
    assert sums["learners.fit_calls"] > 0 and sums["transport.connections"] > 0
    assert sums["core.rows_for_ids"] > 0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {x["name"] for x in spec["workloads"]} <= set(bench.WORKLOADS)


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate 0 " in proc.stdout
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for key in units:
        assert any(line.startswith(f"{key} ") for line in lines), key
    if trace:
        for key in bench.PRINTED_ONLY:
            assert any(line.startswith(f"layer {key} ") for line in lines), key
        assert any(line.startswith("accounting stage.") for line in lines)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "chain_boost_inproc", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
