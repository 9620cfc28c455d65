"""Alternating base/change pairs of the benchmark, written to BENCH_<sha>.json.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload stream_scan --pairs 10 --seed 1

Run it from the root of a git checkout. It exports --base with
`git archive` into a temporary directory, then runs perfbench/run.py
--pairs times in that tree (the base) and as often in the working tree
(the change), one pair at a time; the base goes first in odd pairs, the
change in even ones. perfbench/run.py is called as it is, so the workload,
its world, its metrics and its correctness gate are the benchmark's own.

BENCH_<short sha of HEAD>.json, in the current directory unless --out
says otherwise, holds for each workload and end-to-end metric each
side's median, quartiles and runs, and the number of pairs the change
won by the direction BENCHMARK.json declares; every run's correct,
attempted and failed counts; and the machine's environment. Tracked files
that differ from HEAD are listed under "dirty". --workload may repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tree of rev, written under into with git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One perfbench/run.py result, run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--size", size], cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"run.py in {tree} exited with code {proc.returncode}:\n"
                         + proc.stderr)
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the values in run order."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per metric: both sides' summaries and the pairs the change won."""
    table = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        b = [run["metrics"][name] for run in base]
        c = [run["metrics"][name] for run in change]
        table[name] = {"unit": metric["unit"], "better": metric["better"],
                       "base": summary(b), "change": summary(c),
                       "change_won": sum(sign * (y - x) > 0 for x, y in zip(b, c))}
    return table


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "machine": platform.platform(),
            "string_hashing": "PYTHONHASHSEED=0 in the measured processes"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--seconds", type=float,
                   help="run.py --seconds; BENCHMARK.json's run_seconds by default")
    p.add_argument("--out", type=Path, help="directory of the BENCH file")
    args = p.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel"))
    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    head = git("rev-parse", "--short", "HEAD")
    report = {"base": git("rev-parse", args.base), "change": git("rev-parse", "HEAD"),
              "dirty": git("diff", "--name-only", "HEAD").splitlines(),
              "seed": args.seed, "size": args.size, "seconds": seconds,
              "pairs": args.pairs, "order": "base first in odd pairs",
              "environment": environment(), "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                sides = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
                for side in sides:
                    tree = base_tree if side == "base" else root
                    runs[side].append(bench(tree, workload, args.seed, seconds, args.size))
                    m = runs[side][-1]["metrics"]
                    print(f"{workload} pair {pair + 1} {side}: peak_rss_mb "
                          f"{m['peak_rss_mb']:.1f} setup_s {m['setup_s']:.3f} "
                          f"annotate_s {m['annotate_s']:.4f}", file=sys.stderr)
            report["workloads"][workload] = {
                "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                                for r in rs] for side, rs in runs.items()},
                "metrics": compare(runs["base"], runs["change"], declared["end_to_end"])}
    out = (args.out or Path.cwd()) / f"BENCH_{head}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
