"""The three entity-hashtag similarity measures.

f_m aggregates link priors over the mentions of the entity, f_c compares
language models of entity contexts and tweet text via KL divergence, and
f_t matches the shapes of the hashtag and page-view time series under
optimal shifting and scaling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linking import CandidateSet

KL_FLOOR = 1e-10


def normalize_scores(values) -> np.ndarray:
    """Scale a non-negative vector to sum 1; an all-zero vector stays zero."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0):
        raise ValueError("scores must be non-negative")
    total = arr.sum()
    return arr / total if total > 0 else arr


def mention_similarity(candidates: CandidateSet) -> dict[str, float]:
    """f_m per entity: sum over its mentions of link prior times mention frequency.

    The link priors are the ones `build_candidates` computed while linking.
    Expansion-only entities have no mentions and score 0.
    """
    scores: dict[str, float] = {}
    for entity in candidates.entities:
        total = 0.0
        for mention, q in candidates.mention_frequencies(entity).items():
            total += candidates.priors[mention].get(entity, 0.0) * q
        scores[entity] = total
    return scores


def language_model(counts: Counter) -> dict[str, float]:
    """Maximum-likelihood unigram model; empty source gives an empty model."""
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {w: c / total for w, c in counts.items() if c > 0}


def context_similarity(temporal_counts: Counter, background_counts: Counter,
                       p_hashtag: dict[str, float], lam: float = 0.9) -> float:
    """f_c = exp(-KL) between the entity's mixture model and the tweet model.

    The entity model mixes the temporal (revision-diff) and background
    (current article) language models with weight lam. p_hashtag is the
    tweet model, `language_model` of the burst sample's token counts; it
    is the same for every candidate of a burst, so the caller builds it
    once. Both distributions are renormalized over the common vocabulary;
    an empty common vocabulary yields 0.
    """
    if not 0 <= lam <= 1:
        raise ValueError("lam must be in [0, 1]")
    p_temporal = language_model(temporal_counts)
    p_background = language_model(background_counts)
    mixture = {}
    for w in set(p_temporal) | set(p_background):
        p = lam * p_temporal.get(w, 0.0) + (1 - lam) * p_background.get(w, 0.0)
        if p > 0:
            mixture[w] = p
    # sorted, so the float sums do not follow the process's string hashes
    common = sorted(set(mixture) & set(p_hashtag))
    if not common:
        return 0.0
    z_e = sum(mixture[w] for w in common)
    z_h = sum(p_hashtag[w] for w in common)
    kl = 0.0
    for w in common:
        pe = mixture[w] / z_e
        ph = max(p_hashtag[w] / z_h, KL_FLOOR)
        ratio = max(pe / ph, KL_FLOOR)
        kl += pe * math.log(ratio)
    return math.exp(-kl)


@dataclass(frozen=True)
class ShiftScaleMatch:
    shift: int
    scale: float
    distance: float


def shifted(series, q: int) -> np.ndarray:
    """Series delayed by q positions along the last axis; out-of-range
    positions are zero. A 2-d input shifts each row."""
    series = np.asarray(series)
    out = np.zeros_like(series, dtype=float)
    n = series.shape[-1]
    if abs(q) >= n:
        return out
    if q >= 0:
        out[..., q:] = series[..., :n - q]
    else:
        out[..., :n + q] = series[..., -q:]
    return out


def _fit_rows(h: np.ndarray, rows: np.ndarray, q: int):
    """Least-squares scale and relative distance of each row, shifted by q,
    against h (which must have non-zero norm)."""
    e = shifted(rows, q)
    denom = np.einsum("ij,ij->i", e, e)
    num = e @ h
    delta = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    distance = np.linalg.norm(h - delta[:, None] * e, axis=1) / np.linalg.norm(h)
    return delta, distance


def best_shift_scale(ts_h, ts_e, q: int) -> ShiftScaleMatch:
    """Least-squares scale for a fixed shift: argmin over delta of
    ||ts_h - delta * shifted(ts_e, q)|| / ||ts_h||."""
    h = np.asarray(ts_h, dtype=float)
    if np.linalg.norm(h) == 0:
        raise ValueError("hashtag series has zero norm")
    delta, distance = _fit_rows(h, np.asarray(ts_e, dtype=float)[None, :], q)
    return ShiftScaleMatch(q, float(delta[0]), float(distance[0]))


def temporal_similarity(ts_h, ts_e, shift_range: int = 3):
    """f_t = exp(-min over shifts of the shift/scale distance); 0 for a flat hashtag.

    ts_e is one entity series (returns a float) or an m x w stack of them,
    one per row (returns the m scores as an array, all in one pass).
    """
    h = np.asarray(ts_h, dtype=float)
    rows = np.asarray(ts_e, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    if np.linalg.norm(h) == 0:
        f = np.zeros(len(rows))
    else:
        dist = np.min([_fit_rows(h, rows, q)[1]
                       for q in range(-shift_range, shift_range + 1)], axis=0)
        f = np.exp(-dist)
    return float(f[0]) if single else f
