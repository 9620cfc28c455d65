"""Acceptance gate: one test per release criterion.

Each test prints a single [AC-nn] PASS/FAIL line so the gate can be read
off the pytest -s output at a glance. Criteria with runtime budgets
measure and assert their own wall-clock time.
"""

import functools
import itertools
import random
import time
from datetime import timedelta

import numpy as np
import pytest

from trendtag.corpus import detect_bursts, hashtag_series, outlier_series
from trendtag.influence import (InfluenceGraph, build_influence_graph, ipl,
                                milne_witten, random_walk, top_k_indices)
from trendtag.linking import build_candidates, longest_match
from trendtag.pipeline import (annotate_hashtag, average_precision,
                               precision_at, run_annotate, similarity_components,
                               write_annotations, _component_or_uniform)
from trendtag.similarity import (best_shift_scale, context_similarity,
                                 language_model, shifted,
                                 temporal_similarity)
from trendtag.wiki import build_snapshot

from test_corpus import corpus_from_series, spike_config
from test_influence import (frozen_loss, random_distribution, random_graph,
                            random_simplex, walk_columns)
from test_linking import brute_force_match
from test_pipeline import reference_ap, world_config
from test_similarity import grid_best_delta
from world import TARGET, build_world
from collections import Counter


def criterion(number, name):
    """Print one PASS/FAIL line per criterion, then let pytest report it."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[AC-{number:02d}] {name}: FAIL")
                raise
            print(f"[AC-{number:02d}] {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "walk linearity in the teleport vector")
def test_walk_linearity():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(5, 50)
        graph = random_graph(rng, n)
        f = [random_distribution(rng, n) for _ in range(3)]
        w = random_simplex(rng)
        mixed, _ = random_walk(graph, w[0] * f[0] + w[1] * f[1] + w[2] * f[2])
        combo = sum(w[i] * random_walk(graph, f[i])[0] for i in range(3))
        assert np.max(np.abs(mixed - combo)) < 1e-8
    assert time.perf_counter() - start < 10.0


@criterion(2, "analytic gradient vs central finite differences")
def test_gradient_matches_finite_differences():
    rng = random.Random(103)
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        n = rng.randint(4, 25)
        graph = random_graph(rng, n)
        components = np.column_stack(
            [random_distribution(rng, n) for _ in range(3)])
        walks = walk_columns(graph, *components.T)
        omega = random_simplex(rng)
        scores = walks @ omega
        top = top_k_indices(scores, graph.nodes, min(5, n))
        residual = (components @ omega)[top] - scores[top]
        analytic = residual @ (components[top] - walks[top])
        h = 1e-6
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            fd = (frozen_loss(omega + step, components, walks, top)
                  - frozen_loss(omega - step, components, walks, top)) / (2 * h)
            if abs(fd) > 1e-9:
                assert abs(analytic[axis] - fd) / abs(fd) < 1e-4
                checked += 1
    assert checked > 100
    assert time.perf_counter() - start < 10.0


@criterion(3, "closed-form scale matches grid search; shift/scale invariance")
def test_closed_form_scale():
    rng = np.random.default_rng(107)
    for _ in range(500):
        n = int(rng.integers(2, 15))
        h = rng.uniform(0.1, 10, n)
        e = rng.uniform(0, 10, n)
        q = int(rng.integers(-3, 4))
        match = best_shift_scale(h, e, q)
        delta, _ = grid_best_delta(h, e, q, lo=0.0, hi=abs(match.scale) + 1.0,
                                   step=1e-4)
        assert abs(match.scale - delta) <= 1e-3
    for _ in range(50):
        # three zeros of padding each side keep every shift in range lossless
        base = np.array([0, 0, 0, 2, 7, 3, 0, 0, 0], dtype=float)
        scale = float(rng.uniform(0.01, 50))
        q = int(rng.integers(-3, 4))
        assert temporal_similarity(base, scale * shifted(base, q),
                                   shift_range=3) == \
            pytest.approx(1.0, abs=1e-9)


@criterion(4, "longest-match equals the brute-force span matcher")
def test_longest_match_equivalence():
    rng = random.Random(109)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        lexicon = {" ".join(rng.choice(alphabet)
                            for _ in range(rng.randint(1, 5)))
                   for _ in range(rng.randint(0, 14))}
        assert longest_match(tokens, lexicon) == \
            brute_force_match(tokens, lexicon)


@criterion(5, "walk matches the hand-solved linear system; outputs sum to 1")
def test_walk_correctness():
    # two nodes, one-way edge a -> b, dangling column completed uniformly
    matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
    dangling = np.array([False, True])
    graph = InfluenceGraph.from_matrix(("a", "b"), matrix, dangling)
    tau, s = 0.5, np.array([0.5, 0.5])
    complete = matrix + np.full((2, 1), 0.5) @ dangling.reshape(1, 2).astype(float)
    oracle = np.linalg.solve(np.eye(2) - tau * complete, (1 - tau) * s)
    r, converged = random_walk(graph, s, tau=tau)
    assert converged
    assert r == pytest.approx(oracle, abs=1e-9)
    assert r == pytest.approx([0.4, 0.6], abs=1e-9)

    rng = random.Random(113)
    for _ in range(100):
        n = rng.randint(2, 40)
        graph = random_graph(rng, n)
        r, _ = random_walk(graph, random_distribution(rng, n),
                           tau=rng.choice([0.0, 0.5, 0.85, 0.99]))
        assert r.sum() == pytest.approx(1.0, abs=1e-9)


@criterion(6, "relatedness worked examples and symmetry")
def test_relatedness_formula():
    def make(e, i1, i2, inter):
        entities = ["A", "B"] + [f"x{k}" for k in range(e - 2)]
        links = [(f"x{k}", "A") for k in range(i1)]
        links += [(f"x{k}", "B") for k in range(inter)]
        links += [(f"x{k}", "B") for k in range(i1, i1 + i2 - inter)]
        return build_snapshot([(x, "ARTICLE") for x in entities], [], links,
                              [], [])

    worked = [
        # (|E|, |in1|, |in2|, overlap) -> 1 - (log hi - log inter)/(log E - log lo)
        ((1000, 100, 10, 5), 0.3494),
        ((200, 30, 20, 10), 0.5229),
        ((100, 10, 10, 10), 1.0),
    ]
    for (e, i1, i2, inter), expected in worked:
        snap = make(e, i1, i2, inter)
        assert milne_witten("A", "B", snap) == pytest.approx(expected, abs=1e-4)

    snap = make(60, 12, 7, 4)
    for a, b in itertools.combinations(snap.entities, 2):
        assert milne_witten(a, b, snap) == milne_witten(b, a, snap)


@criterion(7, "context similarity identity and worked divergence case")
def test_context_similarity_cases():
    tokens = Counter({"a": 4, "b": 1})
    assert context_similarity(tokens, tokens, language_model(tokens)) == 1.0
    fc = context_similarity(Counter({"a": 8, "b": 2}), Counter({"a": 8, "b": 2}),
                            language_model(Counter({"a": 5, "b": 5})))
    assert fc == pytest.approx(0.8247, abs=1e-4)


@criterion(8, "end-to-end fixture: engineered entity ranks first")
def test_end_to_end_fixture():
    start = time.perf_counter()
    corpus, snapshot = build_world()
    config = world_config(sample_size=800)

    annotation = annotate_hashtag(corpus, snapshot, "sochi2014", config)
    assert annotation.reason is None
    assert annotation.entities[0].title == TARGET
    alpha, beta, gamma = annotation.weights
    assert min(annotation.weights) >= 0
    assert alpha + beta + gamma == pytest.approx(1.0, abs=1e-9)

    # rebuild the learner inputs to inspect the loss trajectory
    burst = detect_bursts(corpus, "sochi2014", config.burst)[0]
    candidates = build_candidates(burst, corpus, snapshot, config.sample_size,
                                  config.expansion_cap, config.seed)
    raw = similarity_components(burst, candidates, corpus, snapshot, config)
    f_m, f_c, f_t = (_component_or_uniform(raw[:, j]) for j in range(3))
    graph = build_influence_graph(candidates.entities, snapshot)
    result = ipl(f_m, f_c, f_t, graph, config.learner)
    assert result.ranking[0][0] == TARGET
    for prev, cur in zip(result.history, result.history[1:]):
        if prev.top_k == cur.top_k:
            assert cur.loss <= prev.loss + 1e-12
    assert time.perf_counter() - start < 60.0


@criterion(9, "burst peak equals brute-force argmax; flat series rejected")
def test_burst_detection():
    values = [2] * 15 + [80] + [2] * 12 + [30] + [2] * 10
    corpus = corpus_from_series(values, users_per_day=3)
    config = spike_config()
    burst = detect_bursts(corpus, "tag", config)[0]
    series = hashtag_series(corpus, "tag", corpus.start_day, corpus.end_day)
    p = outlier_series(series, config)
    brute = max(range(len(p)), key=lambda i: (p[i], -i))
    assert burst.peak_day == corpus.start_day + timedelta(days=brute)

    flat = corpus_from_series([3] * 20, users_per_day=3)
    assert detect_bursts(flat, "tag", spike_config()) == []


@criterion(10, "evaluation metrics match an independent reference")
def test_metrics_reference():
    assert average_precision(["B", "A"], {"A"}, 15) == 0.5
    rng = random.Random(127)
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


@criterion(11, "seeded annotation runs are byte-identical")
def test_determinism(tmp_path, world_corpus, world_snapshot):
    outputs = []
    for name in ("first.jsonl", "second.jsonl"):
        annotations = run_annotate(world_corpus, world_snapshot,
                                   world_config(sample_size=400, seed=9))
        path = tmp_path / name
        write_annotations(annotations, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
