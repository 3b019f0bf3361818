"""Smoke test of the benchmark at a tiny size.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pushsim import engine, faultnet, harness, objectives, rng  # noqa: E402

TINY = {"quad_async": {"runs": 2, "horizon": 300},
        "svm_sync": {"runs": 2, "horizon": 300},
        "audit_small": {"runs": 1, "horizon": 60}}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def prep(request):
    tiny = replace(workloads.WORKLOADS[request.param], **TINY[request.param])
    return ops.prepare(ROOT, tiny)


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_have_names_and_units(prep, tmp_path):
    result = worker.measure(prep, seed=3, seconds=0, trace=False,
                            outdir=tmp_path / "op")
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (True, 1, 0)
    setup = run.spawn_worker(prep.workload.name, 3, 0, 0, True,
                             run.SETUP_TIMEOUT_S)["setup_s"]
    units = dict(_units(result["metrics"]), setup_s="s")
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert setup > 0
    assert all(v > 0 for v, _ in result["metrics"].values())


def test_traced_run_is_bit_identical_and_reports_every_layer(prep,
                                                             tmp_path):
    originals = (rng.stream, harness.run_experiment, engine.run_protocol,
                 engine.realize_chunk,
                 objectives.SvmObjective.batch_local_gradients)
    result = worker.measure(prep, seed=4, seconds=0, trace=True,
                            outdir=tmp_path / "op",
                            spans_path=tmp_path / "spans.csv")
    untraced, traced = result["ops"]
    assert not untraced["traced"] and traced["traced"]
    assert untraced["sha256"] == traced["sha256"]
    assert result["correct"] and result["failed"] == 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["per_layer"]}
    assert (rng.stream, harness.run_experiment, engine.run_protocol,
            engine.realize_chunk,
            objectives.SvmObjective.batch_local_gradients) == originals
    assert engine.realize_chunk is faultnet.realize_chunk
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert len(spans) > 1
    m = result["metrics"]
    assert m["trace.unattributed_s"][0] >= 0
    assert m["trace.unattributed_s"][0] < 0.05 * m["trace.op_s"][0]
    expect_layer = ("audit.matrix_s" if prep.workload.audit
                    else "objectives.grad_s")
    assert m[expect_layer][0] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad_async",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
