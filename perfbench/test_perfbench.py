"""Tests of the benchmark itself, on the tiny smoke scale (seconds to run).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import streameval.interp  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import one_iteration, per_layer  # noqa: E402
from workloads import WORKLOADS, check_reference  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(name: str, seed: int, tmp_path: Path, tracer=None):
    workload = WORKLOADS[name](seed, "tiny")
    workload.prepare(tmp_path)
    return one_iteration(workload, tmp_path / "iteration", tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_deterministic(name, tmp_path):
    first = run_tiny(name, 3, tmp_path)
    second = run_tiny(name, 3, tmp_path)
    assert first.failures == []
    assert first.attempted > 0
    assert first.digests and first.digests == second.digests
    assert first.values == second.values
    other = run_tiny(name, 4, tmp_path)
    assert other.digests != first.digests


def test_broken_interpolation_is_counted(tmp_path, monkeypatch):
    original = streameval.interp.interpolate_instance

    def off_by_a_micron(*args):
        box = original(*args)
        return box.moved_to(box.center.x + 1e-6, box.center.y)

    monkeypatch.setattr(streameval.interp, "interpolate_instance", off_by_a_micron)
    it = run_tiny("densify", 3, tmp_path)
    assert any("1e-9" in f for f in it.failures)


def test_failed_stage_is_counted(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(streameval, "sv_pipeline", broken)
    it = run_tiny("sweep-lib", 3, tmp_path)
    assert any("deliberately broken" in f for f in it.failures)


def test_reference_mismatch_is_counted(tmp_path):
    it = run_tiny("pipeline-long", 3, tmp_path)
    entry = {"values": dict(it.values), "digests": dict(it.digests)}
    assert check_reference(it, entry) is False
    assert it.failures == []
    entry["values"]["raw.map_s"] += 1e-6
    entry["values"]["sv.tp"] += 1
    entry["digests"]["raw.report.json"] = "0" * 64
    assert check_reference(it, entry) is True
    assert len(it.failures) == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_cover_per_layer(name, tmp_path):
    tracer = Tracer()
    untraced = run_tiny(name, 5, tmp_path)
    runs = []
    for _ in range(2):
        it = run_tiny(name, 5, tmp_path, tracer)
        runs.append((it, *tracer.summary()))
    assert runs[0][2] == runs[1][2]
    metrics = per_layer(runs, [untraced])
    assert {m["name"] for m in BENCH["per_layer"]} <= set(metrics)
    # tracing leaves the package as it found it
    assert streameval.interp.bev_iou.__module__ == "streameval.geom"
    assert not hasattr(streameval.interp.bev_iou, "__wrapped__")


def test_per_class_frame_counts_each_threshold_and_the_tp_pass(tmp_path):
    tracer = Tracer()
    it = run_tiny("sweep-lib", 5, tmp_path, tracer)
    metrics = per_layer([(it, *tracer.summary())], [it])
    assert metrics["metrics.match_boxes.per_class_frame"] == 5.0


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    out = run_cli(ROOT, "--workload", "pipeline-long", "--seed", "2", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in spec]


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli(tmp_path, "--workload", "densify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
