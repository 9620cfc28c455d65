"""Mention, context, and temporal similarity measures."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendtag.linking import CandidateSet
from trendtag.similarity import (best_shift_scale, context_similarity,
                                 language_model, mention_similarity,
                                 normalize_scores, shifted,
                                 temporal_similarity)
from trendtag.wiki import build_snapshot, link_prior


def grid_best_delta(ts_h, ts_e, q, lo=0.0, hi=5.0, step=1e-3):
    """Grid-search oracle for the least-squares scale."""
    h = np.asarray(ts_h, float)
    e = shifted(np.asarray(ts_e, float), q)
    deltas = np.arange(lo, hi + step, step)
    dists = np.linalg.norm(h[None, :] - deltas[:, None] * e[None, :], axis=1)
    best = int(np.argmin(dists))
    return deltas[best], dists[best] / np.linalg.norm(h)


class TestMentionSimilarity:
    def snapshot(self):
        pages = [("City", "ARTICLE"), ("Olympics", "ARTICLE")]
        anchors = [("sochi", "City", 3), ("sochi", "Olympics", 1),
                   ("games", "Olympics", 7)]
        return build_snapshot(pages, anchors, [], [], [])

    def candidates(self, mention_counts, provenance=None, snapshot=None):
        """A candidate set whose priors are link_prior over the snapshot."""
        snapshot = snapshot or self.snapshot()
        cs = CandidateSet(hashtag="h")
        for e, counts in mention_counts.items():
            cs.mention_counts[e] = Counter(counts)
            cs.provenance[e] = "seed"
            for m in counts:
                cs.priors[m] = link_prior(snapshot, m)
        for e, p in (provenance or {}).items():
            cs.provenance[e] = p
        return cs

    def test_single_mention(self):
        cs = self.candidates({"City": {"sochi": 5}})
        fm = mention_similarity(cs)
        assert fm["City"] == pytest.approx(0.75)

    def test_weighted_combination(self):
        # Olympics: LP(sochi)=0.25 with q=0.6, LP(games)=1.0 with q=0.4
        cs = self.candidates({"Olympics": {"sochi": 6, "games": 4}})
        fm = mention_similarity(cs)
        assert fm["Olympics"] == pytest.approx(0.25 * 0.6 + 1.0 * 0.4)

    def test_expansion_only_entity_scores_zero(self):
        cs = self.candidates({"City": {"sochi": 1}},
                             provenance={"Olympics": "expanded-from:City"})
        fm = mention_similarity(cs)
        assert fm["Olympics"] == 0.0

    def test_monotone_in_link_prior(self):
        # raising the anchor count of an entity cannot lower its f_m
        def fm_with(count):
            pages = [("A", "ARTICLE"), ("B", "ARTICLE")]
            anchors = [("m", "A", count), ("m", "B", 5)]
            snap = build_snapshot(pages, anchors, [], [], [])
            cs = self.candidates({"A": {"m": 3}}, snapshot=snap)
            return mention_similarity(cs)["A"]

        values = [fm_with(c) for c in (1, 3, 10, 50)]
        assert values == sorted(values)

    def test_linearity_in_mention_frequencies(self):
        rng = random.Random(9)
        for _ in range(100):
            priors = {f"m{i}": rng.random() for i in range(rng.randint(1, 6))}
            counts = {m: rng.randint(1, 20) for m in priors}
            total = sum(counts.values())
            direct = sum(priors[m] * counts[m] / total for m in priors)
            merged = sum(priors[m] * q for m, q in
                         {m: c / total for m, c in counts.items()}.items())
            assert direct == pytest.approx(merged)


class TestLanguageModel:
    def test_maximum_likelihood(self):
        lm = language_model(Counter({"a": 3, "b": 1}))
        assert lm == {"a": 0.75, "b": 0.25}

    def test_empty_source(self):
        assert language_model(Counter()) == {}

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(min_value=1, max_value=30), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, counts):
        assert sum(language_model(Counter(counts)).values()) == \
            pytest.approx(1.0, abs=1e-12)


class TestContextSimilarity:
    def test_identity_gives_one(self):
        tokens = Counter({"a": 4, "b": 1})
        assert context_similarity(tokens, tokens, language_model(tokens)) == pytest.approx(1.0)

    def test_empty_temporal_with_lambda_one(self):
        fc = context_similarity(Counter(), Counter({"a": 2}),
                                language_model(Counter({"a": 2})), lam=1.0)
        assert fc == 0.0

    def test_worked_kl_example(self):
        # common vocabulary {a, b}; entity (0.8, 0.2) vs hashtag (0.5, 0.5)
        fc = context_similarity(Counter({"a": 8, "b": 2}),
                                Counter({"a": 8, "b": 2}),
                                language_model(Counter({"a": 5, "b": 5})))
        kl = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert fc == pytest.approx(math.exp(-kl))
        assert fc == pytest.approx(0.8247, abs=1e-4)

    def test_disjoint_vocabulary_gives_zero(self):
        assert context_similarity(Counter({"a": 1}), Counter({"a": 1}),
                                  language_model(Counter({"z": 1}))) == 0.0

    def test_mixture_weight_matters(self):
        temporal = Counter({"match": 10})
        background = Counter({"other": 10, "match": 1})
        hashtag = language_model(Counter({"match": 10}))
        high = context_similarity(temporal, background, hashtag, lam=0.9)
        low = context_similarity(temporal, background, hashtag, lam=0.1)
        assert high >= low

    @given(st.dictionaries(st.sampled_from("abcde"),
                           st.integers(min_value=0, max_value=9)),
           st.dictionaries(st.sampled_from("abcde"),
                           st.integers(min_value=0, max_value=9)),
           st.floats(min_value=0, max_value=1))
    @settings(max_examples=80, deadline=None)
    def test_bounded_zero_one(self, entity_counts, hashtag_counts, lam):
        fc = context_similarity(Counter(entity_counts), Counter(entity_counts),
                                language_model(Counter(hashtag_counts)),
                                lam=lam)
        assert 0.0 <= fc <= 1.0 + 1e-12


class TestBestShiftScale:
    def test_worked_example(self):
        match = best_shift_scale([2, 4], [1, 2], 0)
        assert match.scale == pytest.approx(2.0)
        assert match.distance == pytest.approx(0.0)
        delta, dist = grid_best_delta([2, 4], [1, 2], 0)
        assert match.scale == pytest.approx(delta, abs=1e-3)

    def test_all_zero_entity_series(self):
        match = best_shift_scale([1, 2, 3], [0, 0, 0], 0)
        assert match.scale == 0.0
        assert match.distance == pytest.approx(1.0)

    def test_identity(self):
        match = best_shift_scale([3, 1, 4], [3, 1, 4], 0)
        assert match.scale == pytest.approx(1.0)
        assert match.distance == pytest.approx(0.0)

    def test_shift_moves_series(self):
        assert list(shifted(np.array([1., 2., 3.]), 1)) == [0, 1, 2]
        assert list(shifted(np.array([1., 2., 3.]), -1)) == [2, 3, 0]

    def test_closed_form_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(2, 12)
            h = rng.uniform(0.1, 10, n)
            e = rng.uniform(0, 10, n)
            q = int(rng.integers(-3, 4))
            match = best_shift_scale(h, e, q)
            _, grid_dist = grid_best_delta(h, e, q, hi=2 * abs(match.scale) + 1,
                                           step=1e-4)
            assert match.distance <= grid_dist + 1e-3


class TestTemporalSimilarity:
    def test_scaled_copy_is_perfect(self):
        h = np.array([1.0, 5.0, 2.0, 0.5])
        assert temporal_similarity(h, 3.7 * h) == pytest.approx(1.0, abs=1e-9)

    def test_shift_absorbed(self):
        h = np.array([0, 0, 5, 1, 0, 0], dtype=float)
        e = np.array([5, 1, 0, 0, 0, 0], dtype=float)
        assert temporal_similarity(h, e, shift_range=3) == \
            pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_shift_penalized(self):
        ft = temporal_similarity([1, 0, 0], [0, 0, 1], shift_range=0)
        assert ft == pytest.approx(math.exp(-1.0))

    def test_flat_hashtag_series(self):
        assert temporal_similarity([0, 0, 0], [1, 2, 3]) == 0.0

    @given(st.floats(min_value=0.01, max_value=100),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_scale_shift_invariance(self, scale, q):
        h = np.array([0, 0, 0, 2, 7, 3, 0, 0, 0], dtype=float)
        e = shifted(h, q) * scale
        assert temporal_similarity(h, e, shift_range=3) == \
            pytest.approx(1.0, abs=1e-9)


class TestBatchedTemporalSimilarity:
    """f_t over an m x w stack equals the per-row definition."""

    @staticmethod
    def reference(h, e, shift_range):
        """Per-row, per-shift loop: the least-squares fit written out, which
        best_shift_scale must also give."""
        if not np.any(h):
            return 0.0
        distances = []
        for q in range(-shift_range, shift_range + 1):
            s = shifted(e, q)
            delta = (h @ s) / (s @ s) if s @ s > 0 else 0.0
            distances.append(np.linalg.norm(h - delta * s) / np.linalg.norm(h))
            assert abs(best_shift_scale(h, e, q).distance - distances[-1]) <= 1e-12
        return math.exp(-min(distances))

    def check(self, h, rows, shift_range):
        batched = temporal_similarity(h, rows, shift_range)
        assert batched.shape == (len(rows),)
        for row, value in zip(rows, batched):
            assert abs(value - self.reference(h, row, shift_range)) <= 1e-12
            assert abs(value - temporal_similarity(h, row, shift_range)) <= 1e-12

    def test_random_series(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w = int(rng.integers(1, 15))
            m = int(rng.integers(1, 30))
            h = rng.uniform(0, 50, w) * (rng.random(w) < 0.8)
            h[rng.integers(w)] += 1.0  # non-zero norm
            rows = rng.uniform(0, 500, (m, w)) * (rng.random((m, w)) < 0.7)
            self.check(h, rows, int(rng.integers(0, 5)))

    def test_all_zero_entity_rows(self):
        h = np.array([1.0, 4.0, 9.0, 2.0, 0.0, 1.0, 3.0])
        rows = np.zeros((4, 7))
        rows[1] = [0, 2, 8, 3, 1, 0, 0]
        self.check(h, rows, 3)
        assert temporal_similarity(h, rows)[0] == pytest.approx(math.exp(-1.0))

    def test_zero_norm_hashtag(self):
        rows = np.random.default_rng(3).uniform(0, 9, (5, 7))
        assert temporal_similarity(np.zeros(7), rows).tolist() == [0.0] * 5
        self.check(np.zeros(7), rows, 3)


class TestNormalizeScores:
    def test_sums_to_one(self):
        assert normalize_scores([1, 3]).tolist() == [0.25, 0.75]

    def test_all_zero_stays_zero(self):
        assert normalize_scores([0, 0]).tolist() == [0, 0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_scores([1, -1])
