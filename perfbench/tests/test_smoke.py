"""Smoke tests of the benchmark at tiny size.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer, layer_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    """Run the benchmark at tiny size; returns (record, result)."""
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, result = bench(workload, 1, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["failed_frac"] == 0.0
    assert record["env"]["blas_threads"] in (None, 1) and record["env"]["ofa_threads"] == 1
    assert set(record["unscaled"]) == set(result["metrics"])
    assert len(record["scale"]["passes"]) == record["passes"]["untraced"]


@pytest.mark.parametrize("workload", ["pretrain", "probe"])
def test_traced_counts_repeat_for_a_seed_and_inputs_follow_the_seed(workload):
    first, result = bench(workload, 1, 1)
    assert_metrics(result, SPEC["per_layer"])
    again, result_again = bench(workload, 1, 1)
    other, result_other = bench(workload, 2, 1)
    assert first["exact_counts"] == again["exact_counts"] == other["exact_counts"]
    assert first["exact_counts"][1] > 0  # matmul flops
    exact = ("ndtensor.tape_nodes", "ndtensor.matmul_gflop", "ndtensor.gather_mbytes", "checkpoint.bytes")
    values = [[r["metrics"][name]["value"] for name in exact] for r in (result, result_again, result_other)]
    assert values[0] == values[1] == values[2]
    assert values[0][3] > 0
    assert first["inputs_digest"] == again["inputs_digest"] != other["inputs_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datagen", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_scaled_times_follow_the_reference_kernel():
    from calibrate import NOMINAL_S, scale

    assert scale(NOMINAL_S, NOMINAL_S) == 1.0
    assert scale(2 * NOMINAL_S, 2 * NOMINAL_S) == 0.5  # a machine at half speed
    setups = [{"wall_s": 2.0, "scale": 0.5}]
    passes = [{"wall_s": 4.0, "scale": 0.5, "items": 8, "steps": [("a", 1.0), ("b", 3.0)]}]
    scaled, raw = run.end_to_end(setups, passes), run.end_to_end(setups, passes, scaled=False)
    assert (scaled["setup_s"], scaled["wall_s"], scaled["items_per_s"]) == (1.0, 2.0, 4.0)
    assert (raw["setup_s"], raw["wall_s"], raw["items_per_s"]) == (2.0, 4.0, 2.0)
    assert (scaled["step_ms_p50"], scaled["step_ms_tail"]) == (1000.0, 1500.0)


def test_every_parameter_has_a_layer():
    from ofanet.model import ModelDims, build_ofanet, named_parameters
    from ofanet.modalities import builtin_modalities

    net = build_ofanet(ModelDims(), builtin_modalities(), 0)
    assert {layer_of(name) for name, _ in named_parameters(net)} == set(LAYERS) - {"other"} - {
        layer for layer in LAYERS if layer.startswith("loss.")
    }


def test_tracer_puts_the_originals_back():
    from ofanet import model, ndtensor, probe, trainer

    before = (ndtensor.matmul, model.forward_features, probe.forward_features, trainer.mim_forward_batch)
    with Tracer().active():
        assert ndtensor.matmul is not before[0]
        assert probe.forward_features is model.forward_features is not before[1]
    assert (ndtensor.matmul, model.forward_features, probe.forward_features, trainer.mim_forward_batch) == before
