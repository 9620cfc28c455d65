"""One measured process of the trendtag benchmark.

Run from the root of a checkout, in a fresh interpreter, so that its
peak RSS belongs to this workload alone:

    python3 perfbench/job.py --world DIR --mode job --out RESULT.json

Modes:
  setup  time wiki.load_snapshot plus corpus.load_tweets_jsonl only;
         with --shape, then check the world's shape (untimed).
  job    set up, then follow ``trendtag annotate``: drain
         pipeline.run_annotate into pipeline.write_annotations (--drains
         times). Score the annotations against the world's gold labels.
  trace  the same job with every layer wrapped by the tracer, plus the
         probes that make each layer's counters meaningful on every
         workload (a trending scan where the job annotates a list, and an
         in-process ``trendtag ingest --out``).

The result is written as JSON to --out. A shape or tracer failure exits
with a message and code 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import trendtag.cli  # noqa: E402,F401  (loaded so the tracer patches its bindings)
from trendtag import corpus, pipeline, wiki  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402


class ShapeError(RuntimeError):
    """The generated world does not have the shape its workload needs."""


def setup(world: Path):
    t0 = time.perf_counter()
    snapshot = wiki.load_snapshot(world / "wiki")
    tweets, report = corpus.load_tweets_jsonl(world / "tweets.jsonl")
    return snapshot, tweets, report, time.perf_counter() - t0


def annotate(tweets, snapshot, config, hashtags, out_path):
    """Drain run_annotate into write_annotations as ``trendtag annotate --out``
    does, stamping the time each annotation is yielded."""
    stamps, annotations = [], []

    def stream():
        for ann in pipeline.run_annotate(tweets, snapshot, config, hashtags):
            stamps.append(time.perf_counter())
            annotations.append(ann)
            yield ann

    t0 = time.perf_counter()
    pipeline.write_annotations(stream(), out_path)
    elapsed = time.perf_counter() - t0
    gaps = np.diff([t0] + stamps) if stamps else np.array([])
    return annotations, elapsed, gaps


def score(annotations, manifest, world: Path, config) -> dict:
    """Failures by cause, top-1 hits of the planted targets, MAP@15, P@5."""
    planted = {e["hashtag"]: e["target"] for e in manifest["events"]}
    causes: Counter = Counter()
    seen = set()
    hits = 0
    for ann in annotations:
        if ann.hashtag not in planted:
            causes["unplanted-hashtag"] += 1
            continue
        seen.add(ann.hashtag)
        if ann.reason is not None or not ann.entities:
            causes[f"reason:{ann.reason}"] += 1
        elif ann.entities[0].title == planted[ann.hashtag]:
            hits += 1
    causes["missing"] += len(planted) - len(seen)
    causes = +causes
    report = pipeline.evaluate(annotations, pipeline.load_gold(world / "gold.tsv"),
                               config.relevance_threshold, config.map_cutoff)
    return {"attempted": len(planted), "failures": dict(causes),
            "failed": sum(causes.values()), "top1_hits": hits,
            "map15": report["macro"]["map"], "p_at_5": report["macro"]["p_at_5"]}


def check_shape(manifest, tweets, snapshot, config) -> dict:
    """Raise ShapeError unless the world exercises what its workload is for."""
    spec = manifest["spec"]
    planted = [e["hashtag"] for e in manifest["events"]]
    found: dict = {"events": []}
    if spec["scan"]:
        # Which hashtags reach the rolling-median outlier scan?
        reached, current = set(), [None]
        detect, outliers = pipeline.detect_bursts, corpus.outlier_series

        def detect_spy(c, tag, *a, **k):
            current[0] = tag
            return detect(c, tag, *a, **k)

        def outliers_spy(*a, **k):
            reached.add(current[0])
            return outliers(*a, **k)

        pipeline.detect_bursts, corpus.outlier_series = detect_spy, outliers_spy
        try:
            trending = {b.hashtag for b in pipeline.trending_hashtags(tweets, config)}
        finally:
            pipeline.detect_bursts, corpus.outlier_series = detect, outliers
        if trending != set(planted):
            raise ShapeError(f"trending set {sorted(trending)} != planted {sorted(planted)}")
        expected = set(planted) | set(manifest["evergreen"])
        if reached != expected:
            raise ShapeError(f"hashtags reaching the outlier scan: {len(reached)}, "
                             f"expected the {len(expected)} planted and evergreen ones")
        found["scanned"] = len(reached)
    lo, hi = spec["candidate_band"]
    for tag in planted:
        burst = corpus.detect_bursts(tweets, tag, config.burst, force=True)[0]
        cands = pipeline.build_candidates(burst, tweets, snapshot, config.sample_size,
                                          config.expansion_cap, config.seed)
        n = len(cands.provenance)
        if not lo <= n <= hi:
            raise ShapeError(f"#{tag}: {n} candidates, outside [{lo}, {hi}]")
        if spec["oversampled"] and len(burst.tweet_ids) <= config.sample_size:
            raise ShapeError(f"#{tag}: burst of {len(burst.tweet_ids)} tweets does "
                             f"not exceed sample_size {config.sample_size}")
        found["events"].append({"hashtag": tag, "burst_tweets": len(burst.tweet_ids),
                                "candidates": n, "seeds": len(cands.seeds)})
    return found


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def run_job(world, manifest, out_dir, config, hashtags, drains=1):
    """Set up once, then drain the annotate path `drains` times. Stores are
    immutable after load, so every drain does the same work and must write
    the same bytes."""
    snapshot, tweets, report, setup_s = setup(world)
    annotate_s, latencies, digests = [], [], set()
    for _ in range(drains):
        annotations, elapsed, gaps = annotate(tweets, snapshot, config, hashtags,
                                              out_dir / "annotations.jsonl")
        if hashtags is None:
            gaps = gaps[1:]  # the first gap holds the trending scan
        annotate_s.append(elapsed)
        latencies += [float(g) * 1e3 for g in gaps]
        digests.add(hashlib.sha256((out_dir / "annotations.jsonl").read_bytes()).hexdigest())
    result = {"setup_s": setup_s, "annotate_s": annotate_s, "latencies_ms": latencies,
              "accepted": report.accepted, "written": len(annotations),
              "digests": sorted(digests), "threads": thread_count(),
              **score(annotations, manifest, world, config)}
    return result, tweets, annotations


# ---- traced run ----------------------------------------------------------

class Records:
    """What the hooks read off the traced functions' results."""

    def __init__(self):
        self.ingest = None
        self.snapshot = None
        self.trending = 0
        self.candidates: list[tuple[int, int, int]] = []  # sampled, seeds, size
        self.mentions = 0
        self.graphs: list[tuple[int, int, int]] = []      # nodes, edges, dangling
        self.ipl: list[tuple[int, bool, int]] = []        # iterations, converged, k
        self.walk_unconverged = 0
        self.reasons: Counter = Counter()

    def install(self, tracer: Tracer) -> None:
        def on_ingest(result, *a, **k):
            self.ingest = result[1]

        def on_snapshot(result, *a, **k):
            self.snapshot = result

        def on_trending(result, *a, **k):
            self.trending = len(result)

        def on_candidates(c, *a, **k):
            self.candidates.append((len(c.sampled_tweet_ids), len(c.seeds),
                                    len(c.provenance)))

        def on_match(result, *a, **k):
            self.mentions += len(result)

        def on_graph(g, *a, **k):
            self.graphs.append((g.size, int(np.count_nonzero(g.matrix)),
                                int(g.dangling.sum())))

        def on_ipl(r, *a, **k):
            self.ipl.append((r.iterations, r.converged, len(r.ranking)))

        def on_walk(result, *a, **k):
            self.walk_unconverged += not result[1]

        def on_annotation(ann, *a, **k):
            self.reasons[ann.reason or "annotated"] += 1

        hashtag_of = lambda corpus_, snapshot_, hashtag, *a, **k: hashtag  # noqa: E731
        for module, attr, hook, hot, tag_from in [
            ("corpus", "load_tweets_jsonl", on_ingest, False, None),
            ("corpus", "detect_bursts", None, False, None),
            ("corpus", "hashtag_series", None, True, None),
            ("wiki", "load_snapshot", on_snapshot, False, None),
            ("wiki", "link_prior", None, True, None),
            ("wiki", "temporal_context", None, True, None),
            ("wiki", "view_series", None, True, None),
            ("linking", "build_candidates", on_candidates, False, None),
            ("linking", "longest_match", on_match, True, None),
            ("similarity", "mention_similarity", None, False, None),
            ("similarity", "context_similarity", None, True, None),
            ("similarity", "temporal_similarity", None, True, None),
            ("influence", "milne_witten", None, True, None),
            ("influence", "build_influence_graph", on_graph, False, None),
            ("influence", "ipl", on_ipl, False, None),
            ("influence", "random_walk", on_walk, True, None),
            ("pipeline", "annotate_hashtag", on_annotation, False, hashtag_of),
            ("pipeline", "trending_hashtags", on_trending, False, None),
            ("pipeline", "write_annotations", None, False, None),
            ("cli", "main", None, False, None),
        ]:
            tracer.install(module, attr, f"{module}.{attr}", hook, hot, tag_from)


def layer_metrics(tracer: Tracer, rec: Records, n_hashtags: int) -> dict:
    """Per-layer metrics of one traced job, named as in BENCHMARK.json."""
    st = tracer.stats
    snap = rec.snapshot
    sizes = [c[2] for c in rec.candidates]
    nodes = [g[0] for g in rec.graphs]
    ipl_calls = len(rec.ipl)
    return {
        "corpus.load_tweets_s": st["corpus.load_tweets_jsonl"].total,
        "corpus.tweets_accepted": rec.ingest.accepted,
        "corpus.tweets_rejected": rec.ingest.rejected,
        "corpus.tweets_duplicate": rec.ingest.duplicates,
        "corpus.detect_bursts_s": st["corpus.detect_bursts"].total,
        "corpus.detect_bursts_calls": st["corpus.detect_bursts"].calls,
        "corpus.hashtags": n_hashtags,
        "corpus.trending": rec.trending,
        "corpus.hashtag_series_s": st["corpus.hashtag_series"].total,
        "wiki.load_snapshot_s": st["wiki.load_snapshot"].total,
        "wiki.entities": snap.entity_count,
        "wiki.lexicon_forms": len(snap.lexicon),
        "wiki.dropped_rows": sum(asdict(snap.report).values()),
        "wiki.link_prior_calls": st["wiki.link_prior"].calls,
        "wiki.link_prior_s": st["wiki.link_prior"].total,
        "wiki.temporal_context_s": st["wiki.temporal_context"].total,
        "wiki.view_series_s": st["wiki.view_series"].total,
        "linking.build_candidates_s": st["linking.build_candidates"].total,
        "linking.sampled_tweets": sum(c[0] for c in rec.candidates),
        "linking.mentions": rec.mentions,
        "linking.seeds": sum(c[1] for c in rec.candidates),
        "linking.candidates_p50": statistics.median(sizes),
        "linking.candidates_max": max(sizes),
        "linking.expanded_share": 1 - sum(c[1] for c in rec.candidates) / sum(sizes),
        "similarity.mention_s": st["similarity.mention_similarity"].total,
        "similarity.mention_calls": st["similarity.mention_similarity"].calls,
        "similarity.context_s": st["similarity.context_similarity"].total,
        "similarity.context_calls": st["similarity.context_similarity"].calls,
        "similarity.temporal_s": st["similarity.temporal_similarity"].total,
        "similarity.temporal_calls": st["similarity.temporal_similarity"].calls,
        "influence.milne_witten_calls": st["influence.milne_witten"].calls,
        "influence.milne_witten_s": st["influence.milne_witten"].total,
        "influence.graph_s": st["influence.build_influence_graph"].total,
        "influence.nodes_p50": statistics.median(nodes),
        "influence.nodes_max": max(nodes),
        "influence.edges": statistics.median(g[1] for g in rec.graphs),
        "influence.dangling_share": sum(g[2] for g in rec.graphs) / sum(nodes),
        "influence.ipl_s": st["influence.ipl"].total,
        "influence.ipl_self_s": st["influence.ipl"].self_time,
        "influence.ipl_iterations": statistics.median(r[0] for r in rec.ipl),
        "influence.ipl_converged_share": sum(r[1] for r in rec.ipl) / ipl_calls,
        "influence.walk_calls": st["influence.random_walk"].calls / ipl_calls,
        "influence.walk_s": st["influence.random_walk"].total,
        "influence.walk_unconverged": rec.walk_unconverged,
        "influence.topk_share": statistics.fmean(
            r[2] / n for r, n in zip(rec.ipl, nodes)),
        "pipeline.annotate_hashtag_s": st["pipeline.annotate_hashtag"].total,
        "pipeline.self_s": st["pipeline.annotate_hashtag"].self_time,
        "pipeline.trending_hashtags_s": st["pipeline.trending_hashtags"].total,
        "pipeline.write_s": st["pipeline.write_annotations"].self_time,
        "pipeline.reason.annotated": rec.reasons["annotated"],
        "pipeline.reason.not-trending": rec.reasons["not-trending"],
        "pipeline.reason.no-candidates": rec.reasons["no-candidates"],
        "pipeline.reason.other": sum(rec.reasons.values()) - sum(
            rec.reasons[r] for r in ("annotated", "not-trending", "no-candidates")),
    }


def run_trace(world, manifest, out_dir, config, hashtags):
    tracer, rec = Tracer(), Records()
    rec.install(tracer)
    result, tweets, annotations = run_job(world, manifest, out_dir, config, hashtags)
    if hashtags is not None:
        pipeline.trending_hashtags(tweets, config)  # probe: the scan this job skipped
    result["layers"] = layer_metrics(tracer, rec, len(tweets.hashtags()))
    result["layers"]["pipeline.reason.missing"] = (
        (len(hashtags) if hashtags is not None else rec.trending) - len(annotations))

    pickle_path = out_dir / "snapshot.pkl"
    t0 = time.perf_counter()
    trendtag.cli.main(["ingest", "--wiki-dir", str(world / "wiki"),
                       "--out", str(pickle_path)])
    result["layers"]["cli.ingest_s"] = time.perf_counter() - t0
    result["layers"]["cli.pickle_mb"] = pickle_path.stat().st_size / 2 ** 20
    pickle_path.unlink()

    tracer.require_called(tracer.stats)
    tracer.check_nesting()
    result["layers"]["trace.wrapped_calls"] = sum(s.calls for s in tracer.stats.values())
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in tracer.span_records())
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one measured benchmark process")
    p.add_argument("--world", required=True, type=Path)
    p.add_argument("--mode", choices=("setup", "job", "trace"), required=True)
    p.add_argument("--shape", action="store_true",
                   help="with --mode setup: check the world's shape afterwards")
    p.add_argument("--drains", type=int, default=1,
                   help="with --mode job: annotate passes after the one set-up")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    manifest = json.loads((args.world / "manifest.json").read_text())
    config = pipeline.PipelineConfig(sample_size=manifest["spec"]["sample_size"])
    hashtags = None if manifest["spec"]["scan"] else [e["hashtag"] for e in manifest["events"]]
    out_dir = args.out.parent
    try:
        if args.mode == "setup":
            snapshot, tweets, _, setup_s = setup(args.world)
            result = {"setup_s": setup_s}
            if args.shape:
                result["shape"] = check_shape(manifest, tweets, snapshot, config)
        elif args.mode == "job":
            result = run_job(args.world, manifest, out_dir, config, hashtags,
                             args.drains)[0]
        else:
            result = run_trace(args.world, manifest, out_dir, config, hashtags)
    except (ShapeError, TracerError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
