"""Golden annotations: seeded runs whose output must not change.

Each file in tests/golden holds the annotations.jsonl of one run:
  - the test fixture at (sample_size, seed) = (10000, 0), (800, 0) and
    (400, 9), as the hashtag list sochi2014, randomchat and as a trending
    scan at min_users 1, 5 and 50;
  - the tiny seed-1 benchmark worlds, annotated as perfbench/job.py does.
Strings, windows, titles, provenance and reasons must match exactly, and
floats within 1e-12 relative, so a different libm or numpy fails only on
a real change. After an intended change, regenerate the files with

    PYTHONPATH=src python tests/golden/regen.py

and state in CHANGES.md which lines changed, by how much and why.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from trendtag.corpus import load_tweets_jsonl
from trendtag.pipeline import PipelineConfig, run_annotate
from trendtag.wiki import load_snapshot
from test_pipeline import world_config

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-12
FIXTURE_HASHTAGS = ["sochi2014", "randomchat"]
FIXTURE_RUNS = [f"fixture-{size}-{seed}-{mode}"
                for size, seed in [(10_000, 0), (800, 0), (400, 9)]
                for mode in ("list", "scan1", "scan5", "scan50")]
WORLD_RUNS = [f"tiny-{w}-1" for w in ("stream_scan", "event_annotate",
                                      "wide_candidates")]


def annotation_lines(corpus, snapshot, config, hashtags) -> list[str]:
    return [a.to_json_line() for a in run_annotate(corpus, snapshot, config, hashtags)]


def fixture_run(name, corpus, snapshot) -> list[str]:
    """A FIXTURE_RUNS name's lines, on the fixture world of tests/world.py."""
    size, seed, mode = name.split("-")[1:]
    config = world_config(sample_size=int(size), seed=int(seed))
    if mode == "list":
        return annotation_lines(corpus, snapshot, config, FIXTURE_HASHTAGS)
    config.burst.min_users = int(mode.removeprefix("scan"))
    return annotation_lines(corpus, snapshot, config, None)


def perfbench_worlds():
    """perfbench/world.py, under a module name that tests/world.py does not take."""
    module = sys.modules.get("perfbench_world")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_world",
                                                      ROOT / "perfbench" / "world.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def world_run(name, out_dir: Path) -> list[str]:
    """A WORLD_RUNS name's lines: the benchmark world is generated into
    out_dir and annotated with its workload's sample_size and hashtags."""
    size, workload, seed = name.split("-")
    manifest = perfbench_worlds().build_world(workload, int(seed), out_dir, size)
    config = PipelineConfig(sample_size=manifest["spec"]["sample_size"])
    hashtags = (None if manifest["spec"]["scan"]
                else [e["hashtag"] for e in manifest["events"]])
    corpus, _ = load_tweets_jsonl(out_dir / "tweets.jsonl")
    return annotation_lines(corpus, load_snapshot(out_dir / "wiki"), config, hashtags)


def first_difference(want, got, path: str) -> str | None:
    """Where two decoded JSON values first differ, or None."""
    if type(want) is not type(got):
        return f"{path}: want {want!r}, got {got!r}"
    if isinstance(want, float):
        if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{path}: want {want!r}, got {got!r}"
    elif isinstance(want, dict):
        if list(want) != list(got):
            return f"{path}: want keys {list(want)}, got {list(got)}"
        for key in want:
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found:
                return found
    elif isinstance(want, list):
        if len(want) != len(got):
            return f"{path}: want {len(want)} items, got {len(got)}"
        for i, (w, g) in enumerate(zip(want, got)):
            found = first_difference(w, g, f"{path}[{i}]")
            if found:
                return found
    elif want != got:
        return f"{path}: want {want!r}, got {got!r}"
    return None


def check_against_golden(name: str, lines: list[str]) -> None:
    want = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(want), f"{name}: want {len(want)} lines, got {len(lines)}"
    for number, (w, g) in enumerate(zip(want, lines), start=1):
        found = first_difference(json.loads(w), json.loads(g), f"line {number}")
        assert found is None, f"{name}.jsonl {found}"


@pytest.mark.parametrize("name", FIXTURE_RUNS)
def test_fixture_annotations(name, world_corpus, world_snapshot):
    check_against_golden(name, fixture_run(name, world_corpus, world_snapshot))


@pytest.mark.parametrize("name", WORLD_RUNS)
def test_benchmark_world_annotations(name, tmp_path):
    check_against_golden(name, world_run(name, tmp_path))


def test_every_golden_file_has_a_run():
    assert sorted(p.stem for p in GOLDEN.glob("*.jsonl")) == sorted(
        FIXTURE_RUNS + WORLD_RUNS)


class TestFirstDifference:
    def test_float_within_tolerance_passes(self):
        assert first_difference({"r": 0.1}, {"r": 0.1 * (1 + 1e-13)}, "line 1") is None

    @pytest.mark.parametrize("want,got,where", [
        ({"r": 0.1}, {"r": 0.1 * (1 + 1e-11)}, "line 1.r"),
        ({"e": [{"t": "A"}, {"t": "B"}]}, {"e": [{"t": "A"}, {"t": "C"}]},
         "line 1.e[1].t"),
        ({"e": [1.0]}, {"e": [1.0, 2.0]}, "line 1.e: want 1 items"),
        ({"w": None}, {"w": 0.5}, "line 1.w"),
        ({"a": 1, "b": 2}, {"a": 1}, "line 1: want keys"),
    ])
    def test_first_differing_field_named(self, want, got, where):
        assert first_difference(want, got, "line 1").startswith(where)
