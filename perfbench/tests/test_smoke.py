"""Smoke tests of the benchmark on tiny worlds.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end at tiny size, untraced and traced, and
must print every metric declared in BENCHMARK.json with its unit. The
world generator must be deterministic.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import world  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(world.WORKLOADS)
    assert set(run.PLAN) == set(world.WORKLOADS)


@pytest.mark.parametrize("workload", world.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == "0":
        for name in ("setup_s", "annotate_s", "annotate_ms_p50", "peak_rss_mb",
                     "top1_hit_share", "annotated_share"):
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", world.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    world.build_world(workload, 5, tmp_path / "a", "tiny")
    world.build_world(workload, 5, tmp_path / "b", "tiny")
    world.build_world(workload, 6, tmp_path / "c", "tiny")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert len(files) == 8
    for rel in files:
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel
    assert not filecmp.cmp(tmp_path / "a" / "tweets.jsonl", tmp_path / "c" / "tweets.jsonl",
                           shallow=False)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(4) == 50
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    samples = list(range(1, 101))
    assert run.nearest_rank(samples, 90) == 90  # ten samples above it


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = bench("--workload", "stream_scan", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
