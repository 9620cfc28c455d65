"""Annotate trending microblog hashtags with Wikipedia entities.

The pipeline detects hashtag bursts, links tweet n-grams to a Wikipedia
anchor lexicon, scores candidate entities with mention, context, and
temporal similarities, and fuses the three with weights learned by an
influence random walk.
"""

from .corpus import (BurstConfig, HashtagBurst, Tweet, TweetCorpus,
                     detect_bursts, hashtag_series, load_tweets,
                     load_tweets_jsonl, outlier_fraction, outlier_series)
from .influence import (InfluenceGraph, IPLConfig, IPLResult,
                        build_influence_graph, ipl,
                        milne_witten, project_simplex, random_walk)
from .linking import (CandidateSet, build_candidates, longest_match,
                      segment_hashtag, tweet_tokens)
from .pipeline import (PipelineConfig, RankedAnnotation, RankedEntity,
                       annotate_hashtag, evaluate, load_gold, read_annotations,
                       run_annotate, trending_hashtags, write_annotations)
from .similarity import (ShiftScaleMatch, best_shift_scale, context_similarity,
                         language_model, mention_similarity, normalize_scores,
                         temporal_similarity)
from .wiki import (WikiSnapshot, build_snapshot, link_prior, load_snapshot,
                   temporal_context, view_series)

__all__ = [
    "BurstConfig", "CandidateSet", "HashtagBurst", "InfluenceGraph",
    "IPLConfig", "IPLResult", "PipelineConfig", "RankedAnnotation",
    "RankedEntity", "ShiftScaleMatch", "Tweet", "TweetCorpus",
    "WikiSnapshot", "annotate_hashtag", "best_shift_scale",
    "build_candidates", "build_influence_graph", "build_snapshot",
    "context_similarity", "detect_bursts", "evaluate",
    "hashtag_series", "ipl", "language_model", "link_prior", "load_gold",
    "load_snapshot", "load_tweets", "load_tweets_jsonl", "longest_match",
    "mention_similarity", "milne_witten", "normalize_scores",
    "outlier_fraction", "outlier_series", "project_simplex", "random_walk",
    "read_annotations", "run_annotate", "segment_hashtag", "temporal_context",
    "temporal_similarity",
    "trending_hashtags", "tweet_tokens", "view_series",
    "write_annotations",
]
