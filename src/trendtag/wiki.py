"""Read-only stores derived from a simplified Wikipedia snapshot.

Four stores are built from flat files: the anchor lexicon (surface form
-> weighted entity candidates), the entity link graph, per-entity
revision histories for temporal contexts, and daily page-view counts
with redirect views folded into their targets.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import iter_jsonl, parse_timestamp
from .textutil import normalize_surface, tokenize

log = logging.getLogger(__name__)

ARTICLE = "ARTICLE"
DISAMBIG = "DISAMBIG"
LIST = "LIST"


@dataclass
class BuildReport:
    dropped_pages: int = 0
    dropped_anchors: int = 0
    dropped_links: int = 0
    dropped_revisions: int = 0
    dropped_pageviews: int = 0


class WikiSnapshot:
    """Immutable bundle of the lexicon, link graph, revisions, and page views."""

    def __init__(self, entities, lexicon, out_links, in_links,
                 revisions, latest_text, pageviews, report: BuildReport):
        self.entities: frozenset[str] = entities
        # surface form -> tuple of (entity, link count), count-descending
        self.lexicon: dict[str, tuple[tuple[str, int], ...]] = lexicon
        self.out_links: dict[str, frozenset[str]] = out_links
        self.in_links: dict[str, frozenset[str]] = in_links
        # entity -> tuple of (utc datetime, text), strictly increasing
        self.revisions: dict[str, tuple[tuple[datetime, str], ...]] = revisions
        self.latest_text: dict[str, str] = latest_text
        self.pageviews: dict[str, dict[date, int]] = pageviews
        self.report = report

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    def incoming(self, entity: str) -> frozenset[str]:
        return self.in_links.get(entity, frozenset())

    def outgoing(self, entity: str) -> frozenset[str]:
        return self.out_links.get(entity, frozenset())

    def neighbors(self, entity: str) -> frozenset[str]:
        return self.incoming(entity) | self.outgoing(entity)

    @cached_property
    def unigram_vocab(self) -> frozenset[str]:
        """All single words occurring in lexicon keys; drives hashtag segmentation."""
        return frozenset(w for key in self.lexicon for w in key.split())

    @cached_property
    def first_word_lengths(self) -> dict[str, int]:
        """First word of each lexicon key -> most words of a key starting
        with it; bounds the n-grams the longest-match scan tries."""
        return first_word_lengths(self.lexicon)


def first_word_lengths(keys) -> dict[str, int]:
    """Map the first word of each key to the most words of any key
    starting with it (words are separated by single spaces)."""
    lengths: dict[str, int] = {}
    for key in keys:
        words = key.split(" ")
        if len(words) > lengths.get(words[0], 0):
            lengths[words[0]] = len(words)
    return lengths


def _resolve_all(kinds: dict[str, str], redirects: dict[str, str]):
    """Resolve every title through its redirect chain; cycles drop the page."""
    resolved: dict[str, str | None] = {}
    dropped = 0
    for title in list(kinds) + list(redirects):
        if title in resolved:
            continue
        seen = []
        cur = title
        while cur in redirects:
            if cur in seen:
                cur = None  # redirect cycle
                break
            seen.append(cur)
            cur = redirects[cur]
        if cur is not None and cur not in kinds:
            cur = None  # dangling target
        if cur is None:
            dropped += 1
        resolved[title] = cur
    return resolved, dropped


def build_snapshot(pages: Iterable[tuple[str, str]],
                   anchors: Iterable[tuple[str, str, int]],
                   links: Iterable[tuple[str, str]],
                   revisions: Iterable[dict],
                   pageviews: Iterable[tuple[str, date, int]],
                   report: BuildReport | None = None) -> WikiSnapshot:
    """Assemble all stores; redirects are resolved everywhere.

    Disambiguation and list pages are excluded from the entity space, but
    disambiguation titles contribute lexicon entries pointing to the
    entities their pages link to. Drops are added to `report` (a fresh one
    when None), so a caller can pass in the rows it skipped while parsing.
    """
    report = report if report is not None else BuildReport()
    kinds: dict[str, str] = {}
    redirects: dict[str, str] = {}
    for title, flags in pages:
        if flags.startswith("REDIRECT:"):
            redirects[title] = flags.split(":", 1)[1]
        else:
            kinds[title] = flags
    resolve, dropped = _resolve_all(kinds, redirects)
    report.dropped_pages += dropped

    def as_article(title: str) -> str | None:
        t = resolve.get(title)
        return t if t is not None and kinds.get(t) == ARTICLE else None

    entities = frozenset(t for t, k in kinds.items() if k == ARTICLE)

    # Link graph (article-to-article, redirect-resolved, no self-links).
    # Disambiguation pages keep their raw out-links for lexicon building.
    out_links: dict[str, set[str]] = {}
    in_links: dict[str, set[str]] = {}
    disambig_targets: dict[str, set[str]] = {}
    for src, dst in links:
        s_res = resolve.get(src)
        d = as_article(dst)
        if s_res is not None and kinds.get(s_res) == DISAMBIG and d is not None:
            disambig_targets.setdefault(s_res, set()).add(d)
            continue
        s = as_article(src)
        if s is None or d is None or s == d:
            report.dropped_links += 1
            continue
        out_links.setdefault(s, set()).add(d)
        in_links.setdefault(d, set()).add(s)

    # Lexicon: article titles, redirect titles, anchors, disambiguation titles.
    counts: dict[str, Counter] = {}

    def add(surface: str, entity: str, n: int):
        key = normalize_surface(surface)
        if key:
            counts.setdefault(key, Counter())[entity] += n

    for title in entities:
        add(title, title, 1)
    for title in redirects:
        target = as_article(title)
        if target is not None:
            add(title, target, 1)
    for anchor, target, n in anchors:
        e = as_article(target)
        if e is None or n < 1:
            report.dropped_anchors += 1
            continue
        add(anchor, e, n)
    for title, targets in disambig_targets.items():
        for e in sorted(targets):
            add(title, e, 1)

    lexicon = {
        key: tuple(sorted(c.items(), key=lambda kv: (-kv[1], kv[0])))
        for key, c in counts.items()
    }

    rev_raw: dict[str, list[tuple[datetime, str]]] = {}
    for rec in revisions:
        try:
            e = as_article(rec["title"])
            dt = parse_timestamp(rec["timestamp"])
            text = rec["text"]
        except (KeyError, TypeError, ValueError, OverflowError, OSError):
            report.dropped_revisions += 1
            continue
        if e is None or not isinstance(text, str):
            report.dropped_revisions += 1
            continue
        rev_raw.setdefault(e, []).append((dt, text))
    revs: dict[str, tuple[tuple[datetime, str], ...]] = {}
    latest_text: dict[str, str] = {}
    for e, pairs in rev_raw.items():
        pairs.sort(key=lambda p: p[0])
        ordered = []
        for dt, text in pairs:
            if ordered and ordered[-1][0] == dt:
                report.dropped_revisions += 1  # duplicate timestamp, keep first
                continue
            ordered.append((dt, text))
        revs[e] = tuple(ordered)
        latest_text[e] = ordered[-1][1]

    views: dict[str, dict[date, int]] = {}
    for title, day, n in pageviews:
        e = as_article(title)
        if e is None or n < 0:
            report.dropped_pageviews += 1
            continue
        per = views.setdefault(e, {})
        per[day] = per.get(day, 0) + n  # redirect folding is additive

    return WikiSnapshot(
        entities, lexicon,
        {e: frozenset(s) for e, s in out_links.items()},
        {e: frozenset(s) for e, s in in_links.items()},
        revs, latest_text, views, report)


def _read_tsv(path, ncols, report: BuildReport, field: str):
    """Yield the lines of path that have exactly ncols tab-separated fields;
    every other non-empty line is logged and counted in report.<field>."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != ncols:
                log.warning("skipping malformed line in %s: %r", path, line)
                setattr(report, field, getattr(report, field) + 1)
                continue
            yield parts


def _parse_tsv(path, ncols, parse, report: BuildReport, field: str):
    """Yield parse(row) for each row of _read_tsv; a row that parse rejects
    with ValueError is logged and counted in report.<field> too."""
    for row in _read_tsv(path, ncols, report, field):
        try:
            yield parse(row)
        except ValueError:
            log.warning("skipping unparsable row in %s: %r", path, row)
            setattr(report, field, getattr(report, field) + 1)


def load_snapshot(wiki_dir) -> WikiSnapshot:
    """Stream pages.tsv, anchors.tsv, links.tsv, revisions.jsonl and
    pageviews.tsv into build_snapshot, each file read once.

    Rows skipped while parsing (wrong column count, unparsable count or
    day) are counted in the report's dropped_* field of their file.
    """
    d = Path(wiki_dir)
    report = BuildReport()
    anchors = _parse_tsv(d / "anchors.tsv", 3,
                         lambda r: (r[0], r[1], int(r[2])),
                         report, "dropped_anchors")
    pageviews = _parse_tsv(d / "pageviews.tsv", 3,
                           lambda r: (r[0], date.fromisoformat(r[1]), int(r[2])),
                           report, "dropped_pageviews")
    return build_snapshot(_read_tsv(d / "pages.tsv", 2, report, "dropped_pages"),
                          anchors,
                          _read_tsv(d / "links.tsv", 2, report, "dropped_links"),
                          iter_jsonl(d / "revisions.jsonl"), pageviews, report)


def link_prior(snapshot: WikiSnapshot, mention: str) -> dict[str, float]:
    """Probability of each candidate entity given a surface form: its link
    counts normalized over the candidate entities of the mention."""
    entries = snapshot.lexicon.get(normalize_surface(mention))
    if not entries:
        return {}
    raw = {e: float(n) for e, n in entries}
    total = sum(raw.values())
    return {e: v / total for e, v in raw.items()}


def added_tokens(old_text: str, new_text: str) -> Counter:
    """Token-level multiset difference: tokens of new minus tokens of old."""
    diff = Counter(tokenize(new_text))
    diff.subtract(Counter(tokenize(old_text)))
    return Counter({t: n for t, n in diff.items() if n > 0})


def temporal_context(snapshot: WikiSnapshot, entity: str,
                     start_day: date, end_day: date,
                     lag_days: int = 1) -> Counter:
    """Tokens added by revisions during the period (extended by the lag).

    The last revision before the period serves as the diff base. An entity
    with no in-period revisions yields an empty context.
    """
    if end_day < start_day:
        raise ValueError("empty period")
    revs = snapshot.revisions.get(entity, ())
    hi = end_day + timedelta(days=lag_days)
    inside = [text for dt, text in revs if start_day <= dt.date() <= hi]
    if not inside:
        return Counter()
    before = [text for dt, text in revs if dt.date() < start_day]
    base = before[-1] if before else ""
    context: Counter = Counter()
    prev = base
    for text in inside:
        context.update(added_tokens(prev, text))
        prev = text
    return context


def view_series(snapshot: WikiSnapshot, entity: str,
                start_day: date, end_day: date) -> np.ndarray:
    """Daily page views over the period, one float per day from start_day;
    missing days are 0."""
    if end_day < start_day:
        raise ValueError("empty period")
    per = snapshot.pageviews.get(entity, {})
    n = (end_day - start_day).days + 1
    values = np.zeros(n)
    for i in range(n):
        values[i] = per.get(start_day + timedelta(days=i), 0)
    return values
