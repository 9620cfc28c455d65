"""End-to-end annotation runs, serialization, and ranking evaluation."""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import date
from typing import Iterable, Iterator

import numpy as np

from .corpus import (BurstConfig, HashtagBurst, TweetCorpus, check_field_types,
                     detect_bursts, hashtag_series)
from .influence import IPLConfig, build_influence_graph, ipl
from .linking import CandidateSet, build_candidates
from .similarity import (context_similarity, language_model,
                         mention_similarity, normalize_scores,
                         temporal_similarity)
from .textutil import tokenize
from .wiki import WikiSnapshot, temporal_context, view_series

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    """Settings of a run. Each setting has one home: the burst filters and
    window in `burst`, the learner's settings in `learner`, the rest here."""

    lam: float = 0.9
    shift_range: int = 3
    sample_size: int = 10_000
    expansion_cap: int = 50
    seed: int = 0
    relevance_threshold: int = 1
    map_cutoff: int = 15
    burst: BurstConfig = field(default_factory=BurstConfig)
    learner: IPLConfig = field(default_factory=IPLConfig)

    def __post_init__(self):
        check_field_types(self)
        if self.sample_size < 1 or self.map_cutoff < 1:
            raise ValueError("sample_size and map_cutoff must be >= 1")
        if self.expansion_cap < 0 or self.shift_range < 0:
            raise ValueError("expansion_cap and shift_range must be >= 0")
        if not 0 <= self.lam <= 1:
            raise ValueError("lam must be in [0, 1]")
        if self.relevance_threshold not in (1, 2):
            raise ValueError("relevance_threshold must be 1 or 2")


@dataclass
class RankedEntity:
    title: str
    r: float
    f: float
    f_m: float
    f_c: float
    f_t: float
    provenance: str


_WEIGHT_KEYS = ("alpha", "beta", "gamma")  # of f_m, f_c and f_t in the fusion


@dataclass
class RankedAnnotation:
    hashtag: str
    window_start: date | None
    window_end: date | None
    weights: tuple[float, float, float] | None
    entities: list[RankedEntity]
    reason: str | None = None  # set when the hashtag is unannotatable

    def to_json_line(self) -> str:
        """This annotation's line of annotations.jsonl, without the newline."""
        obj = {
            "hashtag": self.hashtag,
            "window": None if self.window_start is None else {
                "start": self.window_start.isoformat(),
                "end": self.window_end.isoformat(),
            },
            "weights": None if self.weights is None
            else dict(zip(_WEIGHT_KEYS, self.weights)),
            "entities": [asdict(e) for e in self.entities],
        }
        if self.reason is not None:
            obj["reason"] = self.reason
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json_line(cls, line: str) -> "RankedAnnotation":
        obj = json.loads(line)
        window = obj.get("window")
        weights = obj.get("weights")
        return cls(
            hashtag=obj["hashtag"],
            window_start=date.fromisoformat(window["start"]) if window else None,
            window_end=date.fromisoformat(window["end"]) if window else None,
            weights=tuple(weights[k] for k in _WEIGHT_KEYS) if weights else None,
            entities=[RankedEntity(**e) for e in obj.get("entities", [])],
            reason=obj.get("reason"),
        )


def _component_or_uniform(raw: np.ndarray) -> np.ndarray:
    """Normalize a raw component over the candidates; an all-zero component
    falls back to uniform so the fused teleport vector stays a distribution."""
    if raw.sum() <= 0:
        return np.full(len(raw), 1.0 / len(raw))
    return normalize_scores(raw)


def similarity_components(burst: HashtagBurst, candidates: CandidateSet,
                          corpus: TweetCorpus, snapshot: WikiSnapshot,
                          config: PipelineConfig) -> np.ndarray:
    """Raw f_m, f_c, f_t of a burst's candidates as an n x 3 array. Row i
    is candidates.entities[i]: the sorted candidate titles, which are also
    the influence graph's nodes."""
    entities = candidates.entities
    f_m = mention_similarity(candidates)
    p_hashtag = language_model(candidates.sample_token_counts)
    counts = hashtag_series(corpus, burst.hashtag, burst.window_start,
                            burst.window_end)
    f_c, views = [], []
    for e in entities:
        ctx = temporal_context(snapshot, e, burst.window_start, burst.window_end)
        background = snapshot.latest_text(e)
        f_c.append(context_similarity(ctx, Counter(tokenize(background)),
                                      p_hashtag, config.lam))
        views.append(view_series(snapshot, e, burst.window_start,
                                 burst.window_end))
    f_t = temporal_similarity(counts, np.array(views), config.shift_range)
    return np.column_stack([[f_m[e] for e in entities], f_c, f_t])


def annotate_hashtag(corpus: TweetCorpus, snapshot: WikiSnapshot, hashtag: str,
                     config: PipelineConfig | None = None,
                     force: bool = False) -> RankedAnnotation:
    """Full per-hashtag pipeline: burst -> candidates -> similarities -> learner.

    force=True bypasses the trending filters (used for explicit hashtag
    lists). Unannotatable hashtags come back with an empty entity list and
    a reason code.
    """
    config = config or PipelineConfig()
    bursts = detect_bursts(corpus, hashtag, config.burst, force=force)
    if not bursts:
        return RankedAnnotation(hashtag, None, None, None, [],
                                reason="not-trending")
    burst = bursts[0]
    candidates = build_candidates(burst, corpus, snapshot,
                                  config.sample_size, config.expansion_cap,
                                  config.seed)
    if candidates.is_empty():
        return RankedAnnotation(hashtag, burst.window_start, burst.window_end,
                                None, [], reason="no-candidates")
    raw = similarity_components(burst, candidates, corpus, snapshot, config)
    f_m, f_c, f_t = (_component_or_uniform(raw[:, j]) for j in range(3))
    graph = build_influence_graph(candidates.entities, snapshot)
    result = ipl(f_m, f_c, f_t, graph, config.learner)
    index = {e: i for i, e in enumerate(graph.nodes)}
    ranked = []
    for title, score in result.ranking:
        i = index[title]
        ranked.append(RankedEntity(title, score, float(result.fused[i]),
                                   *raw[i].tolist(),
                                   candidates.provenance[title]))
    return RankedAnnotation(hashtag, burst.window_start, burst.window_end,
                            result.weights, ranked)


def trending_hashtags(corpus: TweetCorpus,
                      config: PipelineConfig | None = None) -> list[HashtagBurst]:
    """Bursts of every hashtag passing the trending filters."""
    config = config or PipelineConfig()
    found = []
    for tag in corpus.hashtags():
        found.extend(detect_bursts(corpus, tag, config.burst))
    return found


def run_annotate(corpus: TweetCorpus, snapshot: WikiSnapshot,
                 config: PipelineConfig | None = None,
                 hashtags: list[str] | None = None) -> Iterator[RankedAnnotation]:
    """Annotate an explicit hashtag list (trending filter bypassed) or every
    trending hashtag. A hashtag whose annotation raises is logged and comes
    back as an empty record with reason "error:<ExceptionType>", so every
    target yields exactly one record, in order."""
    config = config or PipelineConfig()
    if hashtags is None:
        targets = [(b.hashtag, False) for b in trending_hashtags(corpus, config)]
    else:
        targets = [(h.lower().lstrip("#"), True) for h in hashtags]
    for tag, force in targets:
        try:
            yield annotate_hashtag(corpus, snapshot, tag, config, force=force)
        except Exception as exc:
            log.exception("annotation failed for #%s; continuing", tag)
            yield RankedAnnotation(tag, None, None, None, [],
                                   reason=f"error:{type(exc).__name__}")


def write_annotations(annotations: Iterable[RankedAnnotation], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ann in annotations:
            fh.write(ann.to_json_line() + "\n")


def _parse_lines(path, parse) -> Iterator:
    """parse(line) of each non-blank line of a UTF-8 file; a line that is
    not UTF-8, or that parse rejects, raises ValueError naming path:line."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
                if line.strip():
                    yield parse(line)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc


def read_annotations(path) -> list[RankedAnnotation]:
    return list(_parse_lines(path, RankedAnnotation.from_json_line))


def _gold_row(line: str) -> tuple[tuple[str, str], int]:
    tag, title, grade = line.split("\t")  # ValueError unless 3 columns
    if int(grade) not in (0, 1, 2):
        raise ValueError(f"grade must be 0, 1, or 2: {grade}")
    return (tag.lower().lstrip("#"), title), int(grade)


def load_gold(path) -> dict[tuple[str, str], int]:
    """gold.tsv rows: hashtag <tab> entity_title <tab> grade (0, 1, or 2).
    A malformed row raises ValueError naming path:line."""
    return dict(_parse_lines(path, _gold_row))


def average_precision(ranking: list[str], relevant: set[str],
                      cutoff: int) -> float:
    """AP at a rank cutoff, normalized by min(#relevant, cutoff)."""
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i, title in enumerate(ranking[:cutoff], start=1):
        if title in relevant:
            hits += 1
            total += hits / i
    return total / min(len(relevant), cutoff)


def precision_at(ranking: list[str], relevant: set[str], k: int) -> float:
    return sum(1 for t in ranking[:k] if t in relevant) / k


def evaluate(annotations: Iterable[RankedAnnotation],
             gold: dict[tuple[str, str], int],
             relevance_threshold: int = 1, cutoff: int = 15) -> dict:
    """P@5, P@15, and MAP against graded gold labels.

    Labels are binarized at the relevance threshold; unjudged pairs count
    as non-relevant; hashtags absent from the gold set are excluded and
    reported. A judged hashtag with no annotation is listed as missing and
    scores 0 on every metric of the macro averages.
    """
    if relevance_threshold not in (1, 2):
        raise ValueError("relevance_threshold must be 1 or 2")
    judged_tags = {tag for tag, _ in gold}
    per_hashtag: dict[str, dict] = {}
    excluded: list[str] = []
    for ann in annotations:
        if ann.hashtag not in judged_tags:
            excluded.append(ann.hashtag)
            continue
        relevant = {title for (tag, title), grade in gold.items()
                    if tag == ann.hashtag and grade >= relevance_threshold}
        ranking = [e.title for e in ann.entities]
        per_hashtag[ann.hashtag] = {
            "p_at_5": precision_at(ranking, relevant, 5),
            "p_at_15": precision_at(ranking, relevant, 15),
            "ap": average_precision(ranking, relevant, cutoff),
        }
    macro = {
        key: (sum(h[key] for h in per_hashtag.values()) / len(judged_tags)
              if judged_tags else 0.0)
        for key in ("p_at_5", "p_at_15", "ap")
    }
    return {
        "hashtags": per_hashtag,
        "macro": {"p_at_5": macro["p_at_5"], "p_at_15": macro["p_at_15"],
                  "map": macro["ap"]},
        "excluded": sorted(excluded),
        "missing": sorted(judged_tags - set(per_hashtag)),
        "relevance_threshold": relevance_threshold,
        "cutoff": cutoff,
    }
