"""Mention detection in tweets and candidate entity set construction.

Tweets are stripped of URLs, @-mentions and emoticons; hashtag bodies are
segmented against the lexicon vocabulary. N-grams (n <= 5) are matched to
lexicon surface forms with a longest-match scan, and the directly
mentioned entities are expanded with their most related link-graph
neighbors.
"""

from __future__ import annotations

import functools
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from .corpus import HashtagBurst, TweetCorpus
from .influence import milne_witten
from .wiki import WikiSnapshot, first_word_lengths, link_prior

MAX_NGRAM = 5

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_AT_MENTION_RE = re.compile(r"@\w+")
_EMOTICON_RE = re.compile(r"""[:;=8][\-o^']?[)(\][dDpPoO/\\|*]""")
_TOKEN_RE = re.compile(r"#?\w+")


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
    return _tokenize(text, functools.partial(segment_hashtag, vocab=vocab))


def _tokenize(text: str, segment) -> list[str]:
    """tweet_tokens with the hashtag segmenter passed in as segment(body)."""
    text = _URL_RE.sub(" ", text)
    text = _AT_MENTION_RE.sub(" ", text)
    text = _EMOTICON_RE.sub(" ", text)
    tokens: list[str] = []
    for raw in _TOKEN_RE.findall(text):
        if raw.startswith("#"):
            tokens.extend(segment(raw[1:]))
        else:
            tokens.append(raw.lower())
    return tokens


def longest_match(tokens: list[str], lexicon, max_n: int = MAX_NGRAM,
                  first_words: dict[str, int] | None = None
                  ) -> list[tuple[str, int]]:
    """Longest-match scan: at each position try n-grams from max_n down to 1.

    The first n-gram present in the lexicon is taken and the scan resumes
    after it; a matched span is not re-matched at smaller n. Returns
    (mention, start index) pairs in scan order.

    first_words (see wiki.first_word_lengths) caps n at the most words of
    a key starting with the token, so a token that starts no key is passed
    over at once. The cap drops only n-grams that cannot match, as long as
    no token contains a space. When None it is built from the lexicon, a
    pass over all keys: callers scanning many tweets pass it in.
    """
    if first_words is None:
        first_words = first_word_lengths(lexicon)
    matches: list[tuple[str, int]] = []
    end = len(tokens)
    i = 0
    while i < end:
        longest = first_words.get(tokens[i])
        if longest is None:
            i += 1
            continue
        for n in range(min(max_n, longest, end - i), 0, -1):
            gram = " ".join(tokens[i:i + n])
            if gram in lexicon:
                matches.append((gram, i))
                i += n
                break
        else:
            i += 1
    return matches


@dataclass
class CandidateSet:
    """Seed and expanded entities for one hashtag burst, with mention stats."""

    hashtag: str
    provenance: dict[str, str] = field(default_factory=dict)  # entity -> seed | expanded-from:<e>
    mention_counts: dict[str, Counter] = field(default_factory=dict)  # entity -> mention -> count
    sampled_tweet_ids: tuple[str, ...] = ()
    sample_token_counts: Counter = field(default_factory=Counter)

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

    vocab = snapshot.unigram_vocab
    first_words = snapshot.first_word_lengths
    # every sampled tweet carries the burst's hashtag: segment each body once
    segment = functools.cache(functools.partial(segment_hashtag, vocab=vocab))
    mentions: Counter = Counter()
    for tid in ids:
        tokens = _tokenize(corpus.get(tid).text, segment)
        result.sample_token_counts.update(tokens)
        mentions.update(m for m, _ in longest_match(tokens, snapshot.lexicon,
                                                     first_words=first_words))
    # Distinct mentions in first-seen order: entities and each entity's
    # mentions are inserted in the order a per-occurrence scan would use.
    for mention, count in mentions.items():
        for entity, prior in link_prior(snapshot, mention).items():
            if prior > 0:
                result.provenance[entity] = "seed"
                result.mention_counts.setdefault(entity, Counter())[mention] = count

    for entity in result.seeds:
        neighbors = sorted(snapshot.neighbors(entity) - {entity})
        ranked = sorted(neighbors,
                        key=lambda nb: (-milne_witten(entity, nb, snapshot), nb))
        for nb in ranked[:expansion_cap]:
            result.provenance.setdefault(nb, f"expanded-from:{entity}")
    return result
