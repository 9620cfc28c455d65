"""Read-only stores derived from a simplified Wikipedia snapshot.

Four stores are built from flat files: the anchor lexicon (surface form
-> weighted entity candidates), the entity link graph, per-entity
revision histories for temporal contexts, and daily page-view counts
with redirect views folded into their targets. Every day in the stores
is a UTC day ordinal (`date.toordinal()`), as in the tweet corpus.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import distinct, iter_jsonl, parse_timestamp
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
    """Immutable bundle of the lexicon, link graph, revisions, and page
    views; revisions and page views are dated by UTC day ordinal.

    Entities are numbered 0..N-1 in title order, so sorting codes sorts
    titles. The link graph is held twice in CSR form over those codes:
    the in-links of entity c are in_src[in_ptr[c]:in_ptr[c + 1]] and its
    out-links out_dst[out_ptr[c]:out_ptr[c + 1]], each slice sorted.
    """

    def __init__(self, entities, code, lexicon, in_ptr, in_src, out_ptr,
                 out_dst, revisions, pageviews, report: BuildReport):
        self.entities: tuple[str, ...] = entities  # sorted titles
        self.code: dict[str, int] = code  # title -> its index in entities
        # surface form -> tuple of (entity, link count), count-descending
        self.lexicon: dict[str, tuple[tuple[str, int], ...]] = lexicon
        self.in_ptr: np.ndarray = in_ptr
        self.in_src: np.ndarray = in_src
        self.out_ptr: np.ndarray = out_ptr
        self.out_dst: np.ndarray = out_dst
        # entity -> tuple of (day ordinal, text), strictly increasing timestamps
        self.revisions: dict[str, tuple[tuple[int, str], ...]] = revisions
        # entity -> day ordinal -> views
        self.pageviews: dict[str, dict[int, int]] = pageviews
        self.report = report

    def latest_text(self, entity: str) -> str:
        """Text of the entity's last revision; "" when it has none."""
        revs = self.revisions.get(entity)
        return revs[-1][1] if revs else ""

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    @cached_property
    def in_key(self) -> np.ndarray:
        """dst * N + src of each in-link, in CSR order, hence sorted:
        searchsorted in it tests a link in O(log E)."""
        n = self.entity_count
        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.in_ptr))
        return dst * n + self.in_src

    @cached_property
    def log_table(self) -> np.ndarray:
        """math.log(k) for k in 0..N, with 0 standing for log 0."""
        return np.array([0.0] + [math.log(k) for k in
                                 range(1, self.entity_count + 1)])

    @cached_property
    def unigram_vocab(self) -> frozenset[str]:
        """All single words occurring in lexicon keys; drives hashtag segmentation."""
        return frozenset(w for key in self.lexicon for w in key.split())

    @cached_property
    def key_prefixes(self) -> dict[str, str | None]:
        """Each word prefix of a lexicon key -> that key when it is one;
        drives the longest-match scan."""
        return key_prefixes(self.lexicon)


def gather(ptr: np.ndarray, items: np.ndarray, codes) -> tuple[np.ndarray, np.ndarray]:
    """The CSR slices items[ptr[c]:ptr[c + 1]] of each code c, concatenated,
    and for each item the position in codes of the slice it came from."""
    codes = np.asarray(codes, dtype=np.int64)
    starts = ptr[codes].astype(np.int64)
    lengths = ptr[codes + 1] - starts
    owner = np.repeat(np.arange(len(codes)), lengths)
    offsets = starts - (np.cumsum(lengths) - lengths)  # slice start - landing
    return items[np.arange(len(owner)) + offsets[owner]], owner


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointers and int32 columns of (row, col) pairs sorted by row, then col."""
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols.astype(np.int32)


def key_prefixes(keys) -> dict[str, str | None]:
    """Map every word prefix of each key (words are separated by single
    spaces) to the key's own string when the prefix is itself a key, and
    to None when it only starts one."""
    prefixes: dict[str, str | None] = {key: key for key in keys}
    for key in keys:
        i = key.find(" ")
        while i != -1:
            prefixes.setdefault(key[:i], None)
            i = key.find(" ", i + 1)
    return prefixes


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
    entities their pages link to. A title listed twice keeps its first
    row; a link listed twice is stored once and counted as dropped. Drops
    are added to `report` (a fresh one when None), so a caller can pass in
    the rows it skipped while parsing.
    """
    report = report if report is not None else BuildReport()
    kinds: dict[str, str] = {}
    redirects: dict[str, str] = {}
    for title, flags in pages:
        if title in kinds or title in redirects:
            report.dropped_pages += 1  # a repeated title keeps its first row
        elif flags.startswith("REDIRECT:"):
            redirects[title] = flags.split(":", 1)[1]
        else:
            kinds[title] = flags
    resolve, dropped = _resolve_all(kinds, redirects)
    report.dropped_pages += dropped
    # title -> the article it resolves to (absent when it resolves to none)
    as_article = {t: a for t, a in resolve.items() if kinds.get(a) == ARTICLE}.get
    entities = tuple(sorted(t for t, k in kinds.items() if k == ARTICLE))
    codes = {t: i for i, t in enumerate(entities)}
    code = codes.get

    # Link graph (article-to-article, redirect-resolved, no self-links),
    # as entity codes; a repeated link is dropped. Disambiguation pages
    # keep their raw out-links for lexicon building.
    srcs, dsts = array("i"), array("i")
    disambig_targets: dict[str, set[int]] = {}
    for src, dst in links:
        s_res = resolve.get(src)
        d = code(as_article(dst))
        if s_res is not None and kinds.get(s_res) == DISAMBIG and d is not None:
            disambig_targets.setdefault(s_res, set()).add(d)
            continue
        s = code(as_article(src))
        if s is None or d is None or s == d:
            report.dropped_links += 1
            continue
        srcs.append(s)
        dsts.append(d)
    n = len(entities)
    out_key = distinct(np.asarray(srcs, dtype=np.int64) * n + np.asarray(dsts))
    report.dropped_links += len(srcs) - len(out_key)
    in_key = np.sort(out_key % n * n + out_key // n)
    out_ptr, out_dst = _csr(out_key // n, out_key % n, n)
    in_ptr, in_src = _csr(in_key // n, in_key % n, n)

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
        for e in sorted(targets):  # code order is title order
            add(title, entities[e], 1)

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
    revs: dict[str, tuple[tuple[int, str], ...]] = {}
    for e, pairs in rev_raw.items():
        pairs.sort(key=lambda p: p[0])
        # a duplicate timestamp keeps its first revision
        kept = [p for i, p in enumerate(pairs) if i == 0 or p[0] != pairs[i - 1][0]]
        report.dropped_revisions += len(pairs) - len(kept)
        revs[e] = tuple((dt.date().toordinal(), text) for dt, text in kept)

    views: dict[str, dict[int, int]] = {}
    for title, day, n in pageviews:
        e = as_article(title)
        if e is None or n < 0:
            report.dropped_pageviews += 1
            continue
        per = views.setdefault(e, {})
        d = day.toordinal()
        per[d] = per.get(d, 0) + n  # redirect folding is additive

    return WikiSnapshot(entities, codes, lexicon, in_ptr, in_src, out_ptr,
                        out_dst, revs, views, report)


def _read_tsv(path, ncols, report: BuildReport, field: str, parse=None):
    """Yield each non-empty line of path as its ncols tab-separated fields,
    or as parse(fields) when parse is given. A line that is not UTF-8, has
    another column count, or that parse rejects with ValueError is logged
    and counted in report.<field>."""
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                parts = raw.decode("utf-8").rstrip("\r\n").split("\t")
                if parts == [""]:
                    continue  # a blank line
                if len(parts) != ncols:
                    raise ValueError("wrong column count")
                yield parts if parse is None else parse(parts)
            except ValueError:
                log.warning("skipping malformed line in %s: %r", path, raw)
                setattr(report, field, getattr(report, field) + 1)


def load_snapshot(wiki_dir) -> WikiSnapshot:
    """Stream pages.tsv, anchors.tsv, links.tsv, revisions.jsonl and
    pageviews.tsv into build_snapshot, each file read once.

    Rows skipped while parsing (not UTF-8, wrong column count, unparsable
    count or day) are counted in the report's dropped_* field of their file.
    """
    d = Path(wiki_dir)
    report = BuildReport()
    anchors = _read_tsv(d / "anchors.tsv", 3, report, "dropped_anchors",
                        lambda r: (r[0], r[1], int(r[2])))
    pageviews = _read_tsv(d / "pageviews.tsv", 3, report, "dropped_pageviews",
                          lambda r: (r[0], date.fromisoformat(r[1]), int(r[2])))
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
    return Counter(tokenize(new_text)) - Counter(tokenize(old_text))


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
    lo = start_day.toordinal()
    hi = end_day.toordinal() + lag_days
    inside = [text for day, text in revs if lo <= day <= hi]
    if not inside:
        return Counter()
    before = [text for day, text in revs if day < lo]
    prev = before[-1] if before else ""  # the diff base
    context: Counter = Counter()
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
    return np.array([per.get(d, 0) for d in
                     range(start_day.toordinal(), end_day.toordinal() + 1)],
                    dtype=float)
