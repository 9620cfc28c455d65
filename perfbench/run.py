"""The trendtag benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload event_annotate --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It makes (or reuses) the seeded
synthetic world of the workload, checks that the world has the shape the
workload needs, then starts fresh measured processes (perfbench/job.py)
one after another: a closed loop with a single client. Each process
loads the world through the package's own file loaders and annotates it
as ``trendtag annotate --out`` does.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the job once untraced and once with every layer wrapped, checks that both
wrote the same annotations, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed correctness check
still prints it, with "correct": false, and exits with code 1. A missing
package, a world of the wrong shape or a tracer failure exits with code
2 or 3 and prints no result.

BLAS runs with at most two threads (OPENBLAS_NUM_THREADS and friends are
set in the measured processes), and string hashing is fixed, so runs of
one seed differ only by the machine's own noise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import world as worlds  # noqa: E402

BLAS_THREADS = min(2, os.cpu_count() or 1)
DEADLINE_S = 175  # seconds; a slower run stops its process and exits without a result
KEEP_WORLDS = 3  # cached worlds kept per workload and size

# Per workload: how many annotate passes one measured job makes after its
# set-up, the seconds such a job takes on the seed code (2-core x86 VM,
# Python 3.11, numpy 2.4), which sets how many jobs fit in --seconds, and
# how many set-ups a run times. stream_scan repeats its short pass: one
# pass gives only two latency samples, and runs of it spread widely.
PLAN = {
    "stream_scan": {"drains": 2, "job_s": 12.0, "setups": 3},
    "event_annotate": {"drains": 1, "job_s": 27.0, "setups": 3},
    "wide_candidates": {"drains": 1, "job_s": 27.5, "setups": 3},
}
TINY_JOB_S = 1.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it under the
    nearest-rank rule; never below the median."""
    p = 50
    while p < 99 and n - math.ceil((p + 1) * n / 100) >= 10:
        p += 1
    return p


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def ensure_world(cache: Path, workload: str, seed: int, size: str) -> Path:
    """The world for (workload, seed, size), generated on first use."""
    root = cache / "worlds"
    path = root / f"{size}-{workload}-{seed}"
    if not (path / "manifest.json").is_file():
        tmp = root / f".tmp-{path.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        worlds.build_world(workload, seed, tmp, size)
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
        old = sorted(root.glob(f"{size}-{workload}-*"), key=lambda p: p.stat().st_mtime)
        for stale in old[:-KEEP_WORLDS]:
            shutil.rmtree(stale, ignore_errors=True)
    return path


class Runner:
    """Starts measured processes one at a time and reads their results."""

    def __init__(self, world: Path, run_dir: Path, deadline: float):
        self.world = world
        self.run_dir = run_dir
        self.deadline = deadline  # time.monotonic() by which every process has ended
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))

    def __call__(self, mode: str, shape: bool = False, drains: int = 1) -> dict:
        self.count += 1
        out_dir = self.run_dir / f"{self.count:02d}-{mode}"
        out_dir.mkdir(parents=True)
        out = out_dir / "result.json"
        cmd = [sys.executable, str(HERE / "job.py"), "--world", str(self.world),
               "--mode", mode, "--drains", str(drains), "--out", str(out)
               ] + (["--shape"] if shape else [])
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process stopped at the {DEADLINE_S} s deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(out.read_text())


def probe_setup(runner: Runner, world: Path) -> dict:
    """One timed set-up; the first on a world also checks its shape."""
    marker = world / "shape.json"
    if marker.is_file():
        return runner("setup")
    result = runner("setup", shape=True)
    marker.write_text(json.dumps(result["shape"], indent=1))
    return result


def correctness(jobs) -> tuple[bool, list[str]]:
    problems = []
    for j in jobs:
        if j["failed"]:
            problems.append(f"failed hashtags by cause: {j['failures']}")
        if j["top1_hits"] != j["attempted"]:
            problems.append(f"planted targets ranked first: {j['top1_hits']} "
                            f"of {j['attempted']}")
    digests = {d for j in jobs for d in j["digests"]}
    if len(digests) > 1:
        problems.append("annotations differ between runs of the same seed: "
                        + ", ".join(sorted(d[:12] for d in digests)))
    return not problems, problems


def end_to_end(setups, jobs) -> tuple[dict, dict]:
    setup_s = statistics.median(setups)
    annotate_s = statistics.median(x for j in jobs for x in j["annotate_s"])
    latencies = [x for j in jobs for x in j["latencies_ms"]]
    p = tail_percentile(len(latencies))
    first = jobs[0]
    metrics = {
        "setup_s": setup_s,
        "annotate_s": annotate_s,
        "tweets_per_s": first["accepted"] / (setup_s + annotate_s),
        "hashtags_per_s": first["written"] / annotate_s,
        "annotate_ms_p50": statistics.median(latencies),
        "annotate_ms_tail": nearest_rank(latencies, p),
        "peak_rss_mb": statistics.median(j["maxrss_mb"] for j in jobs),
        "map15": first["map15"],
        "p_at_5": first["p_at_5"],
        "top1_hit_share": first["top1_hits"] / first["attempted"],
        "annotated_share": 1 - first["failed"] / first["attempted"],
    }
    detail = {"jobs": len(jobs), "drains": sum(len(j["annotate_s"]) for j in jobs),
              "setups": len(setups),
              "latency_samples": len(latencies), "tail_percentile": p,
              "threads_in_job": first["threads"], "failures": first["failures"]}
    return metrics, detail


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    root = HERE.parent
    if not (root / "src" / "trendtag" / "__init__.py").is_file():
        print("run from the root of a trendtag checkout: src/trendtag is missing",
              file=sys.stderr)
        return 2
    cache = HERE / ".cache"
    world = ensure_world(cache, args.workload, args.seed, args.size)
    run_dir = cache / "runs" / f"{args.size}-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(world, run_dir, deadline)
    manifest = json.loads((world / "manifest.json").read_text())
    print(f"world: {args.size} {args.workload} seed={args.seed}: "
          f"{manifest['tweets']} tweets, {manifest['entities']} entities, "
          f"{len(manifest['events'])} planted events")

    setups = [probe_setup(runner, world)["setup_s"]]
    if args.trace:
        plain, traced = runner("job"), runner("trace")
        jobs = [plain, traced]
        ok, problems = correctness(jobs)
        untraced_s = plain["setup_s"] + plain["annotate_s"][0]
        traced_s = traced["setup_s"] + traced["annotate_s"][0]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        metrics["bench.blas_threads"] = BLAS_THREADS
        metrics["bench.threads"] = traced["threads"]
        print(f"trace: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; "
              f"spans in {run_dir}")
    else:
        plan = PLAN[args.workload]
        job_s = TINY_JOB_S if args.size == "tiny" else plan["job_s"]
        n_jobs = max(1, round(args.seconds / job_s))
        jobs = [runner("job", drains=plan["drains"]) for _ in range(n_jobs)]
        setups += [j["setup_s"] for j in jobs]
        while len(setups) < plan["setups"]:
            setups.append(runner("setup")["setup_s"])
        ok, problems = correctness(jobs)
        metrics, detail = end_to_end(setups, jobs)
        print("plan: " + json.dumps(detail, sort_keys=True))
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(units) - set(metrics))}, "
                         f"undeclared {sorted(set(metrics) - set(units))}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": ok,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="trendtag benchmark")
    p.add_argument("--workload", choices=worlds.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; sets how many jobs a run times")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny worlds are for the smoke tests")
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
