"""Fast self-test of the benchmark harness on a 64-bit group.

    python3 -m pytest perfbench/selftest.py -q

Runs every workload through ``run.py --smoke`` (the same code paths as a
full run, served process orchestration and span wrappers included, on a
64-bit group and a few batches), and checks the result line against
``BENCHMARK.json``, the traced run's JSONL against
``benchmarks/harness.summarize_trace``, the span folding, the output
checks, the scaling to reference speed, and that the benchmark refuses
to run without the program.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]

from harness import summarize_trace  # noqa: E402
from perfbench import run, spans, workloads  # noqa: E402
from perfbench.speed import (  # noqa: E402
    REFERENCE_S,
    Speed,
    Timed,
    cpu_jiffies,
    steal_share,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    config = json.loads(lines[0].removeprefix("config "))
    assert config["group_bits"] == 64 and config["seed"] == 3
    if trace:
        path = next(line.split()[1].rstrip(":") for line in lines
                    if line.startswith("trace "))
        folded = summarize_trace(path)
        assert folded[spans.ITERATION]["count"] >= 1
        metrics = {n: v["value"] for n, v in result["metrics"].items()}
        assert metrics["fe.feip_decrypts"] > 0
        assert metrics["entities.febo_keys"] > 0
        if workload == "served":
            # spans from all three processes were folded
            for name in ("rpc.key_fetch", "entities.derive_feip",
                         "serialization.unpack", "rpc.upload",
                         "parallel.dispatch", "fe.encrypt"):
                assert folded[name]["count"] >= 1, name
            assert metrics["rpc.key_wire_s"] > 0


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        spans.per_layer_names()
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cold-epoch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fold_attributes_self_time_and_other_processes():
    def span(proc, span_id, parent, name, start, end, n=1, phase="timed"):
        return {"proc": proc, "id": span_id, "parent": parent, "op": 1,
                "name": name, "start_s": start, "end_s": end,
                "dur_s": end - start, "n": n, "phase": phase}

    records = [
        span("train", 1, None, spans.ITERATION, 0.0, 1.0),
        span("train", 2, 1, "secure_layers.secure_forward", 0.1, 0.5),
        span("train", 3, 2, "rpc.key_fetch", 0.1, 0.3, n=8),
        span("train", 4, 2, "fe.feip_decrypt", 0.3, 0.5, n=80),
        span("authority", 1, None, "entities.derive_febo", 0.15, 0.25, n=8),
        # a set-up iteration is not a timed one
        span("train", 5, None, spans.ITERATION, 2.0, 3.0, phase="setup"),
        span("train", 6, 5, "fe.feip_decrypt", 2.1, 2.2, n=80),
    ]
    out = spans.fold(records)
    assert out["cryptonn.residual_s"] == pytest.approx(0.6)
    assert out["secure_layers.self_s"] == pytest.approx(0.0)
    assert out["fe.feip_decrypts"] == 80
    assert out["fe.feip_decrypts.total"] == 160
    assert out["entities.febo_keys"] == 8
    assert out["rpc.key_wire_s"] == pytest.approx(0.1)


def test_predict_check_counts_wrong_scores():
    model = workloads.build_mlp(workloads.FEATURES, 8, workloads.CLASSES, 0)
    x = np.random.default_rng(0).uniform(-1, 1, size=(20, 8))

    def exact(idx):
        return workloads.plaintext_scores(model, x[idx])

    def off_by_one_step(idx):
        return exact(idx) + 0.01

    for predict, failures in ((exact, 0), (off_by_one_step, 3)):
        predictor = workloads.Predictor(predict, model, x,
                                        np.random.default_rng(1), Speed())
        predictor.until(0, 3)
        assert (predictor.attempted, predictor.failed) == (3, failures)


def test_end_to_end_metrics_scale_every_duration():
    setups = Timed()
    setups.add(2.0, 0.5)
    spans_of = Timed()
    for raw in (0.1, 0.2, 0.3):
        spans_of.add(raw, 0.5)
    scaled, raw = workloads.end_to_end(60, spans_of, spans_of, spans_of, 30,
                                       spans_of, setups, 50.0)
    assert raw["train_samples_per_s"] == pytest.approx(100.0)
    assert scaled["train_samples_per_s"] == pytest.approx(200.0)
    assert scaled["iter_p50_s"] == pytest.approx(0.1)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 50.0
    speed = Speed()
    assert speed.scale([REFERENCE_S * 2, REFERENCE_S * 4, REFERENCE_S]) == \
        pytest.approx(0.5)


def test_steal_share_scales_out_stolen_core_time():
    assert steal_share((100, 5), (180, 25)) == pytest.approx(0.8)
    assert steal_share((100, 5), (100, 5)) == 1.0
    busy, stolen = cpu_jiffies()
    assert busy >= 0 and stolen >= 0
    latencies = Timed()
    for raw in (0.1, 0.2):
        latencies.add(raw, 0.5)
    latencies.rescale(0.8, first=1)
    assert latencies.scaled == pytest.approx([0.05, 0.08])
    assert latencies.raw == [0.1, 0.2]
