"""Tweet tokenization, longest-match linking, and candidate building."""

import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trendtag.linking as linking
from trendtag.corpus import load_tweets
from trendtag.linking import (build_candidates, longest_match, sample_tokens,
                              segment_hashtag)
from trendtag.corpus import detect_bursts, BurstConfig
from trendtag.pipeline import PipelineConfig, annotate_hashtag
from trendtag.wiki import build_snapshot, key_prefixes, link_prior

from world import incoming, outgoing


def brute_force_match(tokens, lexicon, max_n=5):
    """Reference matcher: prefer longer spans, scan left to right, never
    re-match inside a taken span."""
    matches = []
    i = 0
    while i < len(tokens):
        found = None
        for n in range(min(max_n, len(tokens) - i), 0, -1):
            gram = " ".join(tokens[i:i + n])
            if gram in lexicon:
                found = (gram, i, n)
                break
        if found:
            matches.append((found[0], found[1]))
            i += found[2]
        else:
            i += 1
    return matches


_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_AT_MENTION_RE = re.compile(r"@\w+")
_EMOTICON_RE = re.compile(r"""[:;=8][\-o^']?[)(\][dDpPoO/\\|*]""")
_WORD_RE = re.compile(r"#?\w+")


def reference_tokens(text, vocab):
    """Reference tokenizer: one tweet at a time, each hashtag body
    segmented where it occurs."""
    text = _URL_RE.sub(" ", text)
    text = _AT_MENTION_RE.sub(" ", text)
    text = _EMOTICON_RE.sub(" ", text)
    tokens = []
    for raw in _WORD_RE.findall(text):
        if raw.startswith("#"):
            tokens.extend(segment_hashtag(raw[1:], vocab))
        else:
            tokens.append(raw.lower())
    return tokens


def split_at_barrier(tokens):
    texts = [[]]
    for token in tokens:
        if token == "\n":
            texts.append([])
        else:
            texts[-1].append(token)
    return texts


TEXT_PIECES = ["\n", "\r\n", " ", "\t", "http://x.co/a", "https://y.z/b?c=d",
               "www.w.org", "@x", "@bob_2", ":)", ":-(", ";P", "8)", "=|", "##a",
               "#", "#Sochi2014", "#stra\u00dfe", "\u0130stanbul", "\u00df",
               "Stra\u00dfe", "so", "chi", "a", "new york", "x:", "-"]


# the equivalence properties run at least this many examples, and more under
# `pytest --hypothesis-profile=ci`
EXAMPLES = max(300, settings.default.max_examples)


class TestSampleTokens:
    @given(st.lists(st.lists(st.one_of(st.sampled_from(TEXT_PIECES),
                                       st.text(max_size=3)),
                             max_size=12).map("".join),
                    min_size=1, max_size=6),
           st.sets(st.sampled_from(["a", "so", "chi", "sochi", "2014", "stra",
                                    "\u00df", "e", "i\u0307stanbul"])))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_equals_per_text_reference(self, texts, vocab):
        assert split_at_barrier(sample_tokens(texts, vocab)) == \
            [reference_tokens(text, vocab) for text in texts]

    def test_barrier_between_texts_only(self):
        assert sample_tokens(["a\nb #so", "", "c"], {"so"}) == \
            ["a", "b", "so", "\n", "\n", "c"]

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_chunks_meet_at_a_barrier(self, monkeypatch, chunk):
        """Texts split in chunks give the tokens of one split."""
        texts = ["a\nb #so", "", "c", "#sochi :) d", "", "e www.x.y"]
        whole = sample_tokens(texts, {"so", "chi"})
        monkeypatch.setattr(linking, "_CHUNK", chunk)
        assert sample_tokens(texts, {"so", "chi"}) == whole
        assert split_at_barrier(whole) == [reference_tokens(t, {"so", "chi"})
                                           for t in texts]


class TestTweetTokens:
    def test_filter_rules(self):
        vocab = {"sochi"}
        assert sample_tokens(["watch @bob http://x.co #sochi now"],
                             vocab) == ["watch", "sochi", "now"]

    def test_emoticons_removed(self):
        assert sample_tokens(["great :) game :-( yes"], set()) == \
            ["great", "game", "yes"]

    def test_case_folded(self):
        assert sample_tokens(["Sochi GAMES"], set()) == ["sochi", "games"]

    def test_hashtag_segmentation(self):
        vocab = {"winter", "olympics"}
        assert sample_tokens(["#winterolympics"], vocab) == ["winter", "olympics"]

    def test_unsegmentable_hashtag_kept_whole(self):
        assert sample_tokens(["#qqqzzz"], {"winter"}) == ["qqqzzz"]


class TestSegmentHashtag:
    def test_greedy_longest_prefix(self):
        vocab = {"win", "winter", "olympics", "o"}
        assert segment_hashtag("winterolympics", vocab) == ["winter", "olympics"]

    def test_partial_failure_returns_whole(self):
        vocab = {"winter"}
        assert segment_hashtag("winterxlympics", vocab) == ["winterxlympics"]


class TestLongestMatch:
    def test_prefers_longest(self):
        lexicon = {"winter olympics", "winter", "olympics"}
        assert longest_match(["winter", "olympics"], lexicon) == \
            [("winter olympics", 0)]

    def test_no_match(self):
        assert longest_match(["x", "y"], {"winter"}) == []

    def test_trigram_absorbs_overlaps(self):
        lexicon = {"new york city", "new york", "york city", "city"}
        assert longest_match(["new", "york", "city"], lexicon) == \
            [("new york city", 0)]

    def test_scan_resumes_after_match(self):
        lexicon = {"a b", "b c", "c"}
        assert longest_match(["a", "b", "c"], lexicon) == \
            [("a b", 0), ("c", 2)]

    def test_random_instances_match_brute_force(self):
        rng = random.Random(42)
        alphabet = ["a", "b", "c", "d", "e"]
        for _ in range(1000):
            tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 10))]
            lexicon = set()
            for _ in range(rng.randint(0, 12)):
                n = rng.randint(1, 4)
                lexicon.add(" ".join(rng.choice(alphabet) for _ in range(n)))
            assert longest_match(tokens, lexicon) == \
                brute_force_match(tokens, lexicon)


class TestKeyPrefixes:
    def test_every_word_prefix_maps_to_its_key_or_none(self):
        keys = {"new york city", "new york", "york", "a b c", "a"}
        assert key_prefixes(keys) == {
            "new york city": "new york city", "new york": "new york",
            "new": None, "york": "york", "a b c": "a b c", "a b": None,
            "a": "a"}

    def test_random_instances_with_prefixes_match_brute_force(self):
        rng = random.Random(7)
        alphabet = ["a", "b", "c", "d", "e", "f"]
        for _ in range(1000):
            tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 14))]
            lexicon = set()
            for _ in range(rng.randint(0, 15)):
                n = rng.randint(1, 8)  # keys longer than max_n too
                lexicon.add(" ".join(rng.choice(alphabet) for _ in range(n)))
            max_n = rng.randint(1, 6)
            prefixes = key_prefixes(lexicon)
            expected = brute_force_match(tokens, lexicon, max_n)
            assert longest_match(tokens, lexicon, max_n, prefixes) == expected
            assert longest_match(tokens, lexicon, max_n) == expected

    @given(st.lists(st.sampled_from(["x", "y", "z", "xy", ""]), max_size=12),
           st.sets(st.lists(st.sampled_from(["x", "y", "z", "xy", ""]),
                            min_size=1, max_size=7).map(" ".join), max_size=12),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_property_prefixes_match_brute_force(self, tokens, lexicon, max_n):
        assert longest_match(tokens, lexicon, max_n,
                             key_prefixes(lexicon)) == \
            brute_force_match(tokens, lexicon, max_n)

    def test_snapshot_prefixes_built_once(self, world_snapshot):
        prefixes = world_snapshot.key_prefixes
        assert prefixes is world_snapshot.key_prefixes
        assert prefixes == key_prefixes(world_snapshot.lexicon)
        # a matched mention is the lexicon's own key string, not a copy
        lexicon_keys = {id(k) for k in world_snapshot.lexicon}
        assert all(id(prefixes[k]) in lexicon_keys for k in world_snapshot.lexicon)

    def test_no_match_crosses_the_barrier(self):
        lexicon = {"new york", "new", "york"}
        assert longest_match(["new", "\n", "york"], lexicon) == \
            [("new", 0), ("york", 2)]


def reference_candidates(burst, corpus, snapshot, sample_size, seed):
    """Per-tweet, per-occurrence linking: every matched occurrence looks up
    its link prior and counts once for each entity with positive prior."""
    ids = sorted(burst.tweet_ids)
    if len(ids) > sample_size:
        ids = sorted(random.Random(seed).sample(ids, sample_size))
    provenance, mention_counts, token_counts = {}, {}, Counter()
    every = range(len(corpus))
    text_of = dict(zip(corpus.ids(every), corpus.texts(every)))
    for tid in ids:
        tokens = reference_tokens(text_of[tid], snapshot.unigram_vocab)
        token_counts.update(tokens)
        for mention, _ in brute_force_match(tokens, snapshot.lexicon):
            for entity, prior in link_prior(snapshot, mention).items():
                if prior > 0:
                    provenance[entity] = "seed"
                    mention_counts.setdefault(entity, Counter())[mention] += 1
    return tuple(ids), provenance, mention_counts, token_counts


def make_world():
    pages = [("City", "ARTICLE"), ("Olympics", "ARTICLE"),
             ("Stadium", "ARTICLE"), ("Park", "ARTICLE"), ("Coast", "ARTICLE")]
    anchors = [("sochi", "City", 3), ("sochi", "Olympics", 1),
               ("stadium", "Stadium", 2)]
    links = [("City", "Olympics"), ("Olympics", "City"),
             ("Stadium", "City"), ("Park", "City"), ("Coast", "City"),
             ("Stadium", "Olympics"), ("Park", "Olympics")]
    snapshot = build_snapshot(pages, anchors, links, [], [])
    records = [
        {"id": f"t{i}", "timestamp": f"2014-02-{10 + i % 3:02d}T00:00:00Z",
         "text": "watch sochi now #tag", "user_id": f"u{i}"}
        for i in range(100)
    ]
    corpus, _ = load_tweets(records)
    config = BurstConfig(min_users=1, variance_threshold=0.1,
                         trending_fraction_threshold=0.1, w=7)
    burst = detect_bursts(corpus, "tag", config, force=True)[0]
    return burst, corpus, snapshot


class TestBuildCandidates:
    def test_seeds_and_mention_stats(self):
        burst, corpus, snapshot = make_world()
        cs = build_candidates(burst, corpus, snapshot, sample_size=1000)
        assert set(cs.seeds) == {"City", "Olympics"}
        assert cs.mention_counts["City"] == Counter({"sochi": 100})
        assert cs.mention_frequencies("City") == {"sochi": 1.0}
        assert cs.mention_frequencies("Olympics") == {"sochi": 1.0}

    def test_expansion_cap_keeps_highest_related(self):
        burst, corpus, snapshot = make_world()
        uncapped = build_candidates(burst, corpus, snapshot, sample_size=1000,
                                    expansion_cap=50)
        capped = build_candidates(burst, corpus, snapshot, sample_size=1000,
                                  expansion_cap=2)
        assert len(capped.entities) < len(uncapped.entities)
        for e in capped.entities:
            if capped.provenance[e] != "seed":
                assert e in uncapped.entities

    def test_expanded_entities_are_adjacent_to_a_seed(self):
        burst, corpus, snapshot = make_world()
        cs = build_candidates(burst, corpus, snapshot, sample_size=1000)
        for e, prov in cs.provenance.items():
            if prov.startswith("expanded-from:"):
                seed = prov.split(":", 1)[1]
                assert snapshot.code[e] in (incoming(snapshot, seed)
                                            + outgoing(snapshot, seed))

    def test_mentioned_neighbor_stays_seed(self):
        burst, corpus, snapshot = make_world()
        cs = build_candidates(burst, corpus, snapshot, sample_size=1000)
        # City and Olympics are graph-adjacent yet both mentioned
        assert cs.provenance["City"] == "seed"
        assert cs.provenance["Olympics"] == "seed"

    def test_saturating_sample_uses_all_tweets(self):
        burst, corpus, snapshot = make_world()
        cs = build_candidates(burst, corpus, snapshot, sample_size=10_000)
        assert len(cs.sampled_tweet_ids) == len(burst.tweet_ids)

    def test_deterministic_under_fixed_seed(self):
        burst, corpus, snapshot = make_world()
        a = build_candidates(burst, corpus, snapshot, sample_size=10, seed=3)
        b = build_candidates(burst, corpus, snapshot, sample_size=10, seed=3)
        assert a.sampled_tweet_ids == b.sampled_tweet_ids
        assert a.provenance == b.provenance
        assert a.mention_counts == b.mention_counts

    def test_q_values_sum_to_one_per_entity(self, world_corpus, world_snapshot):
        config = BurstConfig(min_users=1, variance_threshold=1,
                             trending_fraction_threshold=1)
        burst = detect_bursts(world_corpus, "sochi2014", config)[0]
        cs = build_candidates(burst, world_corpus, world_snapshot,
                              sample_size=500, seed=1)
        assert not cs.is_empty()
        for e in cs.entities:
            freqs = cs.mention_frequencies(e)
            if freqs:
                assert sum(freqs.values()) == pytest.approx(1.0)

    def test_empty_burst_flagged(self):
        burst, corpus, snapshot = make_world()
        empty = burst.__class__(burst.hashtag, burst.window_start,
                                burst.window_end, burst.peak_day,
                                burst.peak_outlier_fraction, (), ())
        cs = build_candidates(empty, corpus, snapshot)
        assert cs.is_empty()


class TestSampledIds:
    """The sample is drawn from the burst's ids in sorted order, whatever
    order the tweets were loaded in, and the sampled tweets' texts are the
    ones linked."""

    @given(st.lists(st.text("abc0123456789", min_size=1, max_size=6),
                    min_size=2, max_size=60, unique=True),
           st.integers(min_value=1, max_value=70),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_equals_sample_of_sorted_ids(self, ids, sample_size, seed):
        assume(ids != sorted(ids))
        corpus, _ = load_tweets([
            {"id": tid, "timestamp": "2014-02-10T00:00:00Z",
             "text": f"w{tid} #tag", "user_id": "u0"} for tid in ids])
        burst = detect_bursts(corpus, "tag", BurstConfig(), force=True)[0]
        snapshot = build_snapshot([("A", "ARTICLE")], [], [], [], [])
        cs = build_candidates(burst, corpus, snapshot, sample_size=sample_size,
                              seed=seed)
        expected = sorted(ids)
        if len(ids) > sample_size:
            expected = sorted(random.Random(seed).sample(expected, sample_size))
        assert cs.sampled_tweet_ids == tuple(expected)
        assert cs.sample_token_counts == Counter(
            [f"w{tid}" for tid in expected] + ["tag"] * len(expected))


class TestLinkOncePerMention:
    @staticmethod
    def fixture_burst(corpus):
        config = BurstConfig(min_users=1, variance_threshold=1,
                             trending_fraction_threshold=1)
        return detect_bursts(corpus, "sochi2014", config)[0]

    def assert_matches_reference(self, burst, corpus, snapshot, sample_size, seed):
        cs = build_candidates(burst, corpus, snapshot, sample_size=sample_size,
                              seed=seed)
        ids, provenance, mention_counts, token_counts = reference_candidates(
            burst, corpus, snapshot, sample_size, seed)
        assert cs.sampled_tweet_ids == ids
        assert cs.sample_token_counts == token_counts
        seeds = [(e, p) for e, p in cs.provenance.items() if p == "seed"]
        assert seeds == list(provenance.items())  # same keys, same order
        assert [(e, list(c.items())) for e, c in cs.mention_counts.items()] == \
            [(e, list(c.items())) for e, c in mention_counts.items()]
        assert {m for c in mention_counts.values() for m in c} <= set(cs.priors)
        assert cs.priors == {m: link_prior(snapshot, m) for m in cs.priors}
        return cs

    def test_small_world_matches_reference(self):
        burst, corpus, snapshot = make_world()
        self.assert_matches_reference(burst, corpus, snapshot, 1000, 0)

    @pytest.mark.parametrize("sample_size,seed", [(10_000, 0), (500, 1), (50, 7)])
    def test_fixture_matches_reference(self, world_corpus, world_snapshot,
                                       sample_size, seed):
        burst = self.fixture_burst(world_corpus)
        cs = self.assert_matches_reference(burst, world_corpus, world_snapshot,
                                           sample_size, seed)
        assert len({m for c in cs.mention_counts.values() for m in c}) > 1

    def test_each_hashtag_body_segmented_once(self, monkeypatch, world_corpus,
                                              world_snapshot):
        calls = Counter()

        def spy(body, vocab):
            calls[body] += 1
            return segment_hashtag(body, vocab)

        monkeypatch.setattr(linking, "segment_hashtag", spy)
        burst = self.fixture_burst(world_corpus)
        cs = build_candidates(burst, world_corpus, world_snapshot)
        assert calls["sochi2014"] == 1
        assert set(calls.values()) == {1}
        assert len(cs.sampled_tweet_ids) > len(calls)

    def test_link_prior_once_per_distinct_mention(
            self, monkeypatch, world_corpus, world_snapshot):
        calls = Counter()

        def spy(snapshot, mention, *args, **kwargs):
            calls[mention] += 1
            return link_prior(snapshot, mention, *args, **kwargs)

        # every trendtag module that binds link_prior, as the bench tracer does
        for name, module in list(sys.modules.items()):
            if (name.startswith("trendtag")
                    and getattr(module, "link_prior", None) is link_prior):
                monkeypatch.setattr(module, "link_prior", spy)
        config = PipelineConfig(sample_size=500, seed=1)
        annotation = annotate_hashtag(world_corpus, world_snapshot, "sochi2014",
                                      config, force=True)
        assert annotation.entities
        burst = detect_bursts(world_corpus, "sochi2014", config.burst,
                              force=True)[0]
        _, _, mention_counts, _ = reference_candidates(
            burst, world_corpus, world_snapshot, 500, 1)
        distinct = {m for c in mention_counts.values() for m in c}
        assert set(calls) == distinct
        assert set(calls.values()) == {1}
