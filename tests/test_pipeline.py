"""End-to-end annotation runs and ranking evaluation."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from datetime import timedelta

import numpy as np
import pytest

import trendtag
import trendtag.corpus as corpus_module
import trendtag.pipeline as pipeline
from trendtag.corpus import detect_bursts, load_tweets
from trendtag.influence import build_influence_graph, random_walk, top_k_indices
from trendtag.linking import build_candidates
from trendtag.pipeline import (PipelineConfig, RankedAnnotation, RankedEntity,
                               annotate_hashtag, average_precision, evaluate,
                               precision_at, run_annotate, similarity_components,
                               trending_hashtags, write_annotations,
                               read_annotations)
from trendtag.similarity import mention_similarity, normalize_scores
from world import CITY, N_DAYS, START, TARGET, gold_labels, tweet_records


def reference_ap(ranking, relevant, cutoff):
    """Independent AP implementation: enumerate hits, average precisions."""
    if not relevant:
        return 0.0
    precisions = []
    for rank in range(1, min(len(ranking), cutoff) + 1):
        if ranking[rank - 1] in relevant:
            hits = len([t for t in ranking[:rank] if t in relevant])
            precisions.append(hits / rank)
    return sum(precisions) / min(len(relevant), cutoff)


def annotation(hashtag, titles):
    entities = [RankedEntity(t, 1.0 / (i + 1), 0, 0, 0, 0, "seed")
                for i, t in enumerate(titles)]
    return RankedAnnotation(hashtag, None, None, (1 / 3, 1 / 3, 1 / 3), entities)


class TestMetrics:
    def test_hand_worked_ap(self):
        # ranking [B, A], only A relevant: hit at rank 2 with precision 1/2
        assert average_precision(["B", "A"], {"A"}, 15) == pytest.approx(0.5)
        assert precision_at(["B", "A"], {"A"}, 5) == pytest.approx(0.2)

    def test_all_top5_relevant(self):
        ranking = list("abcde")
        assert precision_at(ranking, set(ranking), 5) == 1.0

    def test_empty_ranking(self):
        assert average_precision([], {"A"}, 15) == 0.0
        assert precision_at([], {"A"}, 5) == 0.0

    def test_random_instances_match_reference(self):
        rng = random.Random(99)
        titles = [f"e{i}" for i in range(30)]
        for _ in range(100):
            ranking = rng.sample(titles, rng.randint(0, 20))
            relevant = set(rng.sample(titles, rng.randint(0, 10)))
            cutoff = rng.choice([5, 10, 15])
            assert average_precision(ranking, relevant, cutoff) == \
                reference_ap(ranking, relevant, cutoff)
            k = rng.choice([5, 15])
            assert precision_at(ranking, relevant, k) == \
                sum(1 for t in ranking[:k] if t in relevant) / k


class TestEvaluate:
    def gold(self):
        return {("h1", "A"): 2, ("h1", "B"): 0, ("h2", "A"): 1}

    def test_report_shape(self):
        report = evaluate([annotation("h1", ["B", "A"])], self.gold())
        assert report["hashtags"]["h1"]["ap"] == pytest.approx(0.5)
        assert report["macro"]["map"] == pytest.approx(0.25)  # h2 scores 0
        assert report["excluded"] == []

    def test_judged_hashtag_without_annotation_counts_as_missing(self):
        gold = {("a", "A"): 2, ("b", "B"): 2}
        report = evaluate([annotation("a", ["A"])], gold)
        assert report["missing"] == ["b"]
        assert "b" not in report["hashtags"]
        assert report["macro"] == {"p_at_5": pytest.approx(0.1),
                                   "p_at_15": pytest.approx(1 / 30),
                                   "map": pytest.approx(0.5)}
        both = evaluate([annotation("a", ["A"]), annotation("b", [])], gold)
        assert both["missing"] == []
        assert both["macro"]["map"] == pytest.approx(0.5)

    def test_unjudged_hashtag_excluded_and_reported(self):
        report = evaluate([annotation("h9", ["A"])], self.gold())
        assert report["hashtags"] == {}
        assert report["excluded"] == ["h9"]

    def test_relevance_threshold_binarization(self):
        gold = {("h1", "A"): 1, ("h1", "B"): 2}
        loose = evaluate([annotation("h1", ["A", "B"])], gold,
                         relevance_threshold=1)
        strict = evaluate([annotation("h1", ["A", "B"])], gold,
                          relevance_threshold=2)
        assert loose["macro"]["p_at_5"] == pytest.approx(0.4)
        assert strict["macro"]["p_at_5"] == pytest.approx(0.2)

    def test_unjudged_pairs_count_as_non_relevant(self):
        report = evaluate([annotation("h1", ["Z", "A"])], self.gold())
        assert report["hashtags"]["h1"]["p_at_5"] == pytest.approx(0.2)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], {}, relevance_threshold=3)


def world_config(**kw):
    config = PipelineConfig(**kw)
    config.burst.min_users = 50
    config.burst.variance_threshold = 100.0
    config.burst.trending_fraction_threshold = 5.0
    return config


def test_every_exported_name_resolves():
    assert [name for name in trendtag.__all__
            if not hasattr(trendtag, name)] == []


class TestAnnotateHashtag:
    def test_engineered_entity_ranks_first(self, world_corpus, world_snapshot):
        ann = annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                               world_config(sample_size=800))
        assert ann.reason is None
        assert ann.entities[0].title == TARGET
        assert sum(ann.weights) == pytest.approx(1.0, abs=1e-9)
        titles = [e.title for e in ann.entities]
        assert CITY in titles

    def test_component_rows_follow_graph_nodes(self, world_corpus,
                                               world_snapshot):
        config = world_config(sample_size=800)
        burst = detect_bursts(world_corpus, "sochi2014", config.burst)[0]
        candidates = build_candidates(burst, world_corpus, world_snapshot,
                                      config.sample_size,
                                      config.expansion_cap, config.seed)
        raw = similarity_components(burst, candidates, world_corpus,
                                    world_snapshot, config)
        graph = build_influence_graph(candidates.entities, world_snapshot)
        f_m = mention_similarity(candidates)
        assert raw.shape == (graph.size, 3)
        assert len(set(f_m.values())) > 2  # a permuted row order would show
        assert raw[:, 0].tolist() == [f_m[title] for title in graph.nodes]
        ann = annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                               config)
        assert [e.f_m for e in ann.entities] == \
            [f_m[e.title] for e in ann.entities]

    def test_not_trending_reason(self, world_corpus, world_snapshot):
        ann = annotate_hashtag(world_corpus, world_snapshot, "randomchat",
                               world_config())
        assert ann.reason == "not-trending"
        assert ann.entities == []

    def test_explicit_hashtag_bypasses_filter(self, world_corpus,
                                              world_snapshot):
        anns = list(run_annotate(world_corpus, world_snapshot,
                                 world_config(sample_size=200),
                                 hashtags=["#randomchat"]))
        assert len(anns) == 1
        assert anns[0].reason != "not-trending"

    def test_unknown_hashtag_flagged(self, world_corpus, world_snapshot):
        anns = list(run_annotate(world_corpus, world_snapshot, world_config(),
                                 hashtags=["doesnotexist"]))
        assert anns[0].reason == "not-trending"

    def test_failed_hashtag_yields_error_record(self, tmp_path, monkeypatch):
        def flaky(corpus, snapshot, tag, config=None, force=False):
            if tag == "boom":
                raise KeyError(tag)
            return RankedAnnotation(tag, None, None, None, [],
                                    reason="not-trending")

        monkeypatch.setattr(pipeline, "annotate_hashtag", flaky)
        anns = list(run_annotate(None, None, PipelineConfig(),
                                 hashtags=["#boom", "#calm"]))
        assert [(a.hashtag, a.reason) for a in anns] == [
            ("boom", "error:KeyError"), ("calm", "not-trending")]
        assert anns[0].entities == [] and anns[0].weights is None
        path = tmp_path / "annotations.jsonl"
        write_annotations(anns, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"hashtag": "boom", "window": None,
                                        "weights": None, "entities": [],
                                        "reason": "error:KeyError"}
        assert [a.reason for a in read_annotations(path)] == [
            "error:KeyError", "not-trending"]

    def test_trending_detection_finds_fixture_hashtag(self, world_corpus):
        bursts = trending_hashtags(world_corpus, world_config())
        assert [b.hashtag for b in bursts] == ["sochi2014"]

    def test_scan_filters_each_hashtag_before_the_outlier_scan(self, monkeypatch):
        """trending_hashtags calls detect_bursts once per hashtag in sorted
        order, and only hashtags that pass the variance and user filters
        reach outlier_series (the benchmark's shape check relies on both)."""
        config = world_config()
        records = tweet_records()

        def add(tag, day, n, users):
            for j in range(n):
                records.append({"id": f"{tag}{len(records)}", "text": f"x #{tag}",
                                "timestamp": f"{day.isoformat()}T08:00:00Z",
                                "user_id": f"{tag}{j % users}"})

        for offset in range(N_DAYS):
            day = START + timedelta(days=offset)
            add("seesaw", day, 20 if offset % 2 else 60, 100)  # volatile, never a burst
            add("solo", day, 200 if offset == 30 else 1, 1)     # one user
        corpus, _ = load_tweets(records)

        called, reached = [], []
        detect, outliers = pipeline.detect_bursts, corpus_module.outlier_series

        def detect_spy(c, tag, *a, **k):
            called.append(tag)
            return detect(c, tag, *a, **k)

        def outliers_spy(*a, **k):
            reached.append(called[-1])
            return outliers(*a, **k)

        monkeypatch.setattr(pipeline, "detect_bursts", detect_spy)
        monkeypatch.setattr(corpus_module, "outlier_series", outliers_spy)
        trending = [b.hashtag for b in trending_hashtags(corpus, config)]

        assert called == ["randomchat", "seesaw", "sochi2014", "solo"]
        tweets = [corpus.get(tid) for tid in corpus.ids]
        passing = []
        for tag in called:
            mine = [t for t in tweets if tag in t.hashtags]
            series = np.zeros(N_DAYS)
            for t in mine:
                series[(t.day - START).days] += 1
            if (np.var(series) >= config.burst.variance_threshold
                    and len({t.user_id for t in mine}) >= config.burst.min_users):
                passing.append(tag)
        assert passing == ["seesaw", "sochi2014"]
        assert reached == passing
        assert trending == ["sochi2014"]


class TestRankingQuality:
    """MAP@15 on the fixture, which the benchmark worlds (saturated near
    1.0) cannot see: the fused ranking must not fall below today's value
    and must beat a text-only ranking (no temporal signal)."""

    def text_only_ranking(self, corpus, snapshot, config):
        burst = detect_bursts(corpus, "sochi2014", config.burst)[0]
        candidates = build_candidates(burst, corpus, snapshot,
                                      config.sample_size,
                                      config.expansion_cap, config.seed)
        raw = similarity_components(burst, candidates, corpus, snapshot,
                                    config)
        graph = build_influence_graph(candidates.entities, snapshot)
        f_m = normalize_scores(raw[:, 0])
        f_c = normalize_scores(raw[:, 1])
        r, _ = random_walk(graph, 0.5 * f_m + 0.5 * f_c, config.learner.tau)
        return [graph.nodes[i]
                for i in top_k_indices(r, graph.nodes, config.learner.k)]

    def test_fused_map_holds_and_beats_text_only(self, world_corpus,
                                                 world_snapshot):
        config = world_config()
        gold = gold_labels()
        ann = annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                               config)
        fused = evaluate([ann], gold, cutoff=15)["macro"]["map"]
        relevant = {title for (tag, title), grade in gold.items()
                    if tag == "sochi2014" and grade >= 1}
        text_only = average_precision(
            self.text_only_ranking(world_corpus, world_snapshot, config),
            relevant, 15)
        assert fused >= 0.42457  # 0.424579 at the default config
        assert fused > text_only


class TestSerialization:
    def test_round_trip(self, tmp_path, world_corpus, world_snapshot):
        anns = [annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                                 world_config(sample_size=300))]
        path = tmp_path / "annotations.jsonl"
        write_annotations(anns, path)
        back = read_annotations(path)
        assert [a.to_json_line() for a in back] == [a.to_json_line() for a in anns]
        # serialize -> parse -> serialize is lossless
        write_annotations(back, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()

    def test_determinism_across_runs(self, tmp_path, world_corpus,
                                     world_snapshot):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            anns = run_annotate(world_corpus, world_snapshot,
                                world_config(sample_size=400, seed=5))
            path = tmp_path / name
            write_annotations(anns, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_bytes_independent_of_hash_seed(self, tmp_path):
        # set iteration order follows PYTHONHASHSEED; the output must not,
        # and neither may the influence graphs' edge arrays
        script = ("import sys\n"
                  "import trendtag.pipeline as pipeline\n"
                  "from test_pipeline import world_config\n"
                  "from world import build_corpus, build_wiki\n"
                  "graphs = []\n"
                  "build = pipeline.build_influence_graph\n"
                  "def spy(*args):\n"
                  "    graphs.append(build(*args))\n"
                  "    return graphs[-1]\n"
                  "pipeline.build_influence_graph = spy\n"
                  "pipeline.write_annotations(\n"
                  "    pipeline.run_annotate(build_corpus(), build_wiki(),\n"
                  "                          world_config(sample_size=800)),\n"
                  "    sys.argv[1])\n"
                  "with open(sys.argv[2], 'wb') as fh:\n"
                  "    for g in graphs:\n"
                  "        fh.write(g.src.tobytes() + g.dst.tobytes()\n"
                  "                 + g.weight.tobytes())\n")
        src = Path(pipeline.__file__).parents[1]
        path = os.pathsep.join([str(src), str(Path(__file__).parent)])
        outputs, edges = [], []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash{hash_seed}.jsonl"
            arrays = tmp_path / f"hash{hash_seed}.edges"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            subprocess.run([sys.executable, "-c", script, str(out), str(arrays)],
                           env=env, check=True, timeout=300)
            outputs.append(out.read_bytes())
            edges.append(arrays.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]
        assert edges[0] and edges[0] == edges[1]

    def test_evaluation_on_world(self, world_corpus, world_snapshot):
        anns = [annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                                 world_config(sample_size=500))]
        report = evaluate(anns, gold_labels())
        assert report["hashtags"]["sochi2014"]["p_at_5"] > 0
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == report
