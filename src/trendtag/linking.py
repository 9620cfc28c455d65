"""Mention detection in tweets and candidate entity set construction.

Tweets are stripped of URLs, @-mentions and emoticons; hashtag bodies are
segmented against the lexicon vocabulary. N-grams (n <= 5) are matched to
lexicon surface forms with a longest-match scan, and the directly
mentioned entities are expanded with their most related link-graph
neighbors.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import HashtagBurst, TweetCorpus
from .influence import milne_witten
from .wiki import WikiSnapshot, distinct, gather, key_prefixes, link_prior

MAX_NGRAM = 5

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_AT_MENTION_RE = re.compile(r"@\w+")
_EMOTICON_RE = re.compile(r"""[:;=8][\-o^']?[)(\][dDpPoO/\\|*]""")
_TOKEN_RE = re.compile(r"#?\w+|\n")  # a raw word, or the barrier between texts


def segment_hashtag(body: str, vocab) -> list[str]:
    """Greedy longest-prefix segmentation of a hashtag body against a vocabulary.

    If the body cannot be fully segmented it is kept as a single token.
    """
    body = body.lower()
    parts: list[str] = []
    i = 0
    while i < len(body):
        for j in range(len(body), i, -1):
            if body[i:j] in vocab:
                parts.append(body[i:j])
                i = j
                break
        else:
            return [body]
    return parts


def tweet_tokens(text: str, vocab=frozenset()) -> list[str]:
    """Lowercased tokens with URLs, @-mentions and emoticons removed.

    Hashtags lose their '#' and their bodies are segmented against vocab.
    """
    return sample_tokens([text], vocab)


def sample_tokens(texts, vocab=frozenset()) -> list[str]:
    """tweet_tokens of each text in turn, with a "\n" token between texts.

    The texts are cleaned and split as one string. None of the patterns
    matches a newline, so once each text's own newlines are spaces no
    match spans two texts. Each distinct raw word is mapped to its tokens
    once, so a hashtag body is segmented once per call.
    """
    text = "\n".join(t.replace("\n", " ") for t in texts)
    text = _URL_RE.sub(" ", text)
    text = _AT_MENTION_RE.sub(" ", text)
    text = _EMOTICON_RE.sub(" ", text)
    words: dict[str, list[str]] = {"\n": ["\n"]}
    tokens: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        raw = match[0]
        parts = words.get(raw)
        if parts is None:
            parts = words[raw] = (segment_hashtag(raw[1:], vocab)
                                  if raw[0] == "#" else [raw.lower()])
        tokens += parts
    return tokens


def longest_match(tokens: list[str], lexicon, max_n: int = MAX_NGRAM,
                  prefixes: dict[str, str | None] | None = None
                  ) -> list[tuple[str, int]]:
    """Longest-match scan: at each position take the longest n-gram
    (n <= max_n) that is a lexicon key, then resume after it; a matched
    span is not re-matched at smaller n. Returns (mention, start index)
    pairs in scan order.

    A gram grows one token at a time while it is a word prefix of some
    key (see wiki.key_prefixes), so a token that starts no key, such as
    the "\n" between two texts of sample_tokens, ends every gram. This
    finds every match as long as no token contains a space. prefixes is
    built from the lexicon when None, a pass over all keys: callers
    scanning many texts pass it in.
    """
    if prefixes is None:
        prefixes = key_prefixes(lexicon)
    get = prefixes.get
    matches: list[tuple[str, int]] = []
    end = len(tokens)
    i = 0
    while i < end:
        gram, j = tokens[i], i
        mention, after = None, i + 1
        while (key := get(gram, False)) is not False:  # False: starts no key
            if key is not None:
                mention, after = key, j + 1
            j += 1
            if j == end or j - i == max_n:
                break
            gram = f"{gram} {tokens[j]}"
        if mention is not None:
            matches.append((mention, i))
        i = after
    return matches


@dataclass
class CandidateSet:
    """Seed and expanded entities for one hashtag burst, with mention stats."""

    hashtag: str
    provenance: dict[str, str] = field(default_factory=dict)  # entity -> seed | expanded-from:<e>
    mention_counts: dict[str, Counter] = field(default_factory=dict)  # entity -> mention -> count
    sampled_tweet_ids: tuple[str, ...] = ()
    sample_token_counts: Counter = field(default_factory=Counter)
    priors: dict[str, dict[str, float]] = field(default_factory=dict)  # mention -> link_prior

    @property
    def entities(self) -> list[str]:
        return sorted(self.provenance)

    @property
    def seeds(self) -> list[str]:
        return sorted(e for e, p in self.provenance.items() if p == "seed")

    def is_empty(self) -> bool:
        return not self.provenance

    def mention_frequencies(self, entity: str) -> dict[str, float]:
        """q(m): each mention's share of all mention occurrences for the entity."""
        counts = self.mention_counts.get(entity)
        if not counts:
            return {}
        total = sum(counts.values())
        return {m: c / total for m, c in counts.items()}


def build_candidates(burst: HashtagBurst, corpus: TweetCorpus,
                     snapshot: WikiSnapshot, sample_size: int = 10_000,
                     expansion_cap: int = 50, seed: int = 0) -> CandidateSet:
    """Link a seeded random sample of the burst's tweets and expand the result.

    Every entity with a positive link prior for a matched mention becomes a
    seed; each seed contributes up to expansion_cap link-graph neighbors
    ranked by relatedness to the seed. Mention statistics are computed over
    the same sample.
    """
    result = CandidateSet(hashtag=burst.hashtag)
    ids = sorted(burst.tweet_ids)
    if not ids:
        return result
    if len(ids) > sample_size:
        ids = sorted(random.Random(seed).sample(ids, sample_size))
    result.sampled_tweet_ids = tuple(ids)

    # one pass over the whole sample; no match crosses the "\n" barriers
    tokens = sample_tokens(map(corpus.text, ids), snapshot.unigram_vocab)
    result.sample_token_counts = Counter(tokens)
    result.sample_token_counts.pop("\n", None)
    mentions = Counter(m for m, _ in longest_match(
        tokens, snapshot.lexicon, prefixes=snapshot.key_prefixes))
    # Distinct mentions in first-seen order: entities and each entity's
    # mentions are inserted in the order a per-occurrence scan would use.
    for mention, count in mentions.items():
        result.priors[mention] = link_prior(snapshot, mention)
        for entity, prior in result.priors[mention].items():
            if prior > 0:
                result.provenance[entity] = "seed"
                result.mention_counts.setdefault(entity, Counter())[mention] = count

    # (seed, neighbor) pairs: each seed's in- and out-links, less itself,
    # ranked by relatedness, then by code (title order), per seed
    seeds = result.seeds
    codes = np.array([snapshot.code[e] for e in seeds], dtype=np.int64)
    n = snapshot.entity_count
    ins, in_seed = gather(snapshot.in_ptr, snapshot.in_src, codes)
    outs, out_seed = gather(snapshot.out_ptr, snapshot.out_dst, codes)
    pairs = distinct(np.concatenate([in_seed, out_seed]) * n
                     + np.concatenate([ins, outs]))
    seed, neighbor = pairs // n, pairs % n
    other = neighbor != codes[seed]
    seed, neighbor = seed[other], neighbor[other]
    mw = milne_witten(codes[seed], neighbor, snapshot)
    order = np.lexsort((neighbor, -mw, seed))  # seed stays sorted
    seed, neighbor = seed[order], neighbor[order]
    kept = np.arange(len(seed)) - np.searchsorted(seed, seed) < expansion_cap
    origins = [f"expanded-from:{e}" for e in seeds]
    for s, nb in zip(seed[kept].tolist(), neighbor[kept].tolist()):
        result.provenance.setdefault(snapshot.entities[nb], origins[s])
    return result
