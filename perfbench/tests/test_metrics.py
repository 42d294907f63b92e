"""Metric names: BENCHMARK.json, what a run emits, and the layer arithmetic."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from layers import PER_LAYER_UNITS, layer_metrics
from shims import Recorder

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(kind):
    return [metric["name"] for metric in SPEC[kind]]


def test_metric_names_and_units_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert NAME.match(workload["name"]), workload


def test_per_layer_table_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


def _run(workload, trace, tmp_path):
    result = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", "5",
            "--seconds", "0.5", "--trace", str(trace),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_emits_every_listed_metric(workload, trace, tmp_path):
    line = _run(workload, trace, tmp_path)
    kind = "per_layer" if trace else "end_to_end"
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        SPEC["command"] + ["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_layer_metrics_from_a_fake_recording():
    recorder = Recorder()
    recorder.calls.update({"batch.scene": 2, "core.assemble": 10, "core.health": 10})
    recorder.inclusive.update({"core.assemble": 0.010, "core.health": 0.002})
    recorder.self_time["batch.scene"] = 0.004
    recorder.pair[("core.assemble", "digital.backend")] = 0.005
    recorder.pair[("core.assemble", "core.health")] = 0.002
    recorder.counters.update({"batch.rows": 10, "trace_cache.hits": 3, "trace_cache.misses": 1})
    recorder.calls["core.health.stale_fallback"] = 1
    metrics = layer_metrics(recorder, 10, 0.02, {"fleet.shed_frac.deadline": 0.25}, 0.05)
    assert set(metrics) == set(PER_LAYER_UNITS)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["batch.scene.rows_per_call"] == 5.0
    assert value["batch.scene.calls"] == pytest.approx(0.2)
    assert value["batch.scene.self_us_per_item"] == pytest.approx(400.0)
    assert value["core.assemble.self_us_per_item"] == pytest.approx(300.0)
    assert value["batch.trace_cache.hit_frac"] == 0.75
    assert value["core.health.fallback_frac"] == pytest.approx(0.1)
    assert value["fleet.shed_frac"] == 0.25
    assert value["trace.overhead_frac"] == 0.05
    assert value["trace.us_per_item"] == pytest.approx(2000.0)
    assert value["factory.memo_hit_frac"] == 0.0
