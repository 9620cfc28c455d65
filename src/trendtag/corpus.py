"""Tweet corpus loading, daily hashtag time series, and burst detection.

A hashtag is trending when its daily tweet count spikes far above the
local median (the outlier fraction), its series is volatile enough, and
it was adopted by enough distinct users. The burst period is a fixed-size
window of days centered on the peak.

The corpus is held as columns with one row per tweet, plus an index from
each hashtag to its tweets' rows sorted by day, so the burst scan reads
one array slice per hashtag; a series is a bincount of its day offsets.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, fields
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_HASHTAG_RE = re.compile(r"#(\w+)")


def extract_hashtags(text: str) -> list[str]:
    """'#'-prefixed tokens of the text, lowercased, '#' stripped."""
    return [tag.lower() for tag in _HASHTAG_RE.findall(text)]


def parse_timestamp(ts) -> datetime:
    """Epoch seconds or ISO-8601 instant -> aware UTC datetime.

    An ISO string without an offset is read as UTC. Bools and other types
    raise ValueError; an out-of-range epoch raises OverflowError or OSError.
    """
    if isinstance(ts, bool):
        raise ValueError(f"bad timestamp: {ts!r}")
    if isinstance(ts, (int, float)):
        return datetime.fromtimestamp(ts, tz=timezone.utc)
    if isinstance(ts, str):
        dt = datetime.fromisoformat(ts.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    raise ValueError(f"bad timestamp: {ts!r}")


def check_field_types(config) -> None:
    """Raise TypeError unless each int or float field of a config dataclass
    holds its default's type; an int also fills a float field, a bool neither."""
    for f in fields(config):
        value, want = getattr(config, f.name), type(f.default)
        allowed = {int: int, float: (int, float)}.get(want)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise TypeError(f"{f.name} must be {want.__name__}, not {value!r}")


@dataclass
class BurstConfig:
    n_min: int = 10
    median_window_days: int = 61
    trending_fraction_threshold: float = 15.0
    variance_threshold: float = 900.0
    min_users: int = 500
    w: int = 7

    def __post_init__(self):
        check_field_types(self)
        if min(self.n_min, self.trending_fraction_threshold,
               self.variance_threshold, self.min_users, self.w) <= 0:
            raise ValueError("all burst thresholds must be positive")
        if self.median_window_days <= 0 or self.median_window_days % 2 == 0:
            raise ValueError("median_window_days must be a positive odd number")


@dataclass(frozen=True)
class HashtagBurst:
    hashtag: str
    window_start: date
    window_end: date
    peak_day: date
    peak_outlier_fraction: float
    tweet_ids: tuple[str, ...]  # sorted
    rows: tuple[int, ...]  # the corpus rows of tweet_ids, in the same order

    @property
    def window_days(self) -> int:
        return (self.window_end - self.window_start).days + 1


@dataclass
class IngestReport:
    """What a load did with each record: accepted, dropped as a duplicate
    id (the first occurrence wins), or rejected by its first fault in this
    order: not a JSON object (bad_json), one of id, timestamp, text and
    user_id absent (missing_field), a timestamp parse_timestamp refuses
    (bad_timestamp), a text that is not a string (bad_text)."""
    accepted: int = 0
    duplicates: int = 0
    bad_json: int = 0
    missing_field: int = 0
    bad_timestamp: int = 0
    bad_text: int = 0

    @property
    def rejected(self) -> int:
        """Malformed records of every cause."""
        return self.bad_json + self.missing_field + self.bad_timestamp + self.bad_text


class TweetCorpus:
    """Immutable after load; one row per tweet, in load order.

    Columns: `ids` and `texts` (lists), `days` (UTC day ordinals) and
    `users` (codes of the user ids, in first-seen order), both int32
    arrays. A CSR index maps each hashtag to the rows of the tweets
    carrying it, once per tweet and sorted by day, so a hashtag's series,
    users and burst tweets are array operations on one slice. The row is
    a tweet's only handle: no per-tweet objects and no id map are kept.
    """

    def __init__(self, ids: list[str], texts: list[str],
                 days: np.ndarray, users: np.ndarray,
                 tag_code: dict[str, int], tag_ptr: np.ndarray,
                 tag_rows: np.ndarray):
        self.ids = ids
        self.texts = texts
        self.days = days
        self.users = users
        self._tag = tag_code  # hashtag -> code, in sorted hashtag order
        self._tag_ptr = tag_ptr
        self._tag_rows = tag_rows
        for column in (days, users, tag_ptr, tag_rows):
            column.setflags(write=False)
        self.start_day = date.fromordinal(int(days.min())) if len(days) else None
        self.end_day = date.fromordinal(int(days.max())) if len(days) else None

    def __len__(self) -> int:
        return len(self.ids)

    def hashtags(self) -> list[str]:
        return list(self._tag)

    def rows(self, hashtag: str) -> np.ndarray:
        """Rows of the tweets carrying the hashtag, sorted by day."""
        code = self._tag.get(hashtag)
        if code is None:
            return self._tag_rows[:0]
        return self._tag_rows[self._tag_ptr[code]:self._tag_ptr[code + 1]]


def load_tweets(records: Iterable[dict | None]) -> tuple[TweetCorpus, IngestReport]:
    """Build a corpus from raw records, counting malformed ones by cause.

    A record that is not a dict (iter_jsonl yields None for a line it
    cannot decode) is bad JSON. Duplicate ids keep the first occurrence.
    """
    report = IngestReport()
    seen: set[str] = set()
    ids: list[str] = []
    texts: list[str] = []
    days = array("i")
    users = array("i")
    user_code: dict[str, int] = {}
    tag_code: dict[str, int] = {}  # first-seen order until the index is built
    pair_tag = array("i")  # one (hashtag, row) pair per distinct hashtag of a tweet
    pair_row = array("i")
    for rec in records:
        if not isinstance(rec, dict):
            report.bad_json += 1
            continue
        try:
            tid, ts, text, user = rec["id"], rec["timestamp"], rec["text"], rec["user_id"]
        except KeyError:
            report.missing_field += 1
            continue
        try:
            day = parse_timestamp(ts).date().toordinal()
        except (ValueError, OverflowError, OSError):
            report.bad_timestamp += 1
            continue
        if not isinstance(text, str):
            report.bad_text += 1
            continue
        tid = str(tid)
        if tid in seen:
            report.duplicates += 1
            continue
        seen.add(tid)
        row = len(ids)
        ids.append(tid)
        texts.append(text)
        days.append(day)
        users.append(user_code.setdefault(str(user), len(user_code)))
        for tag in set(extract_hashtags(text)):
            pair_tag.append(tag_code.setdefault(tag, len(tag_code)))
            pair_row.append(row)
        report.accepted += 1
    del seen, user_code  # freed before the index build allocates its arrays

    day_col = np.array(days, dtype=np.int32)
    sorted_code = {tag: i for i, tag in enumerate(sorted(tag_code))}
    recode = np.array([sorted_code[tag] for tag in tag_code], dtype=np.int32)
    codes = recode[np.array(pair_tag, dtype=np.intp)]
    rows = np.array(pair_row, dtype=np.int32)
    order = np.lexsort((day_col[rows], codes))  # by hashtag, then day, then row
    tag_ptr = np.zeros(len(sorted_code) + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=len(sorted_code)), out=tag_ptr[1:])
    corpus = TweetCorpus(ids, texts, day_col, np.array(users, dtype=np.int32),
                         sorted_code, tag_ptr, rows[order])
    return corpus, report


def iter_jsonl(path) -> Iterator[dict | None]:
    """The JSON value of each non-blank line; None for a line that is not
    valid UTF-8 JSON, so the caller counts it and the rest still loads.

    Lines go straight to the decoder's raw_decode, skipping the checks
    json.loads wraps around it: the strip has removed the whitespace at
    both ends, and a value that ends before the line does is trailing data.
    """
    decode = json.JSONDecoder().raw_decode
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    value, end = decode(line)
                    yield value if end == len(line) else None
            except ValueError:  # not UTF-8, not JSON, or an over-long integer
                yield None


def load_tweets_jsonl(path) -> tuple[TweetCorpus, IngestReport]:
    return load_tweets(iter_jsonl(path))


def hashtag_series(corpus: TweetCorpus, hashtag: str,
                   start_day: date, end_day: date) -> np.ndarray:
    """Daily tweet counts for a hashtag over an inclusive date range, one
    float per day from start_day; days without tweets are 0."""
    if end_day < start_day:
        raise ValueError("empty date range")
    first = start_day.toordinal()
    n = end_day.toordinal() - first + 1
    days = corpus.days[corpus.rows(hashtag)]
    lo, hi = np.searchsorted(days, (first, first + n))
    return np.bincount(days[lo:hi] - first, minlength=n).astype(float)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as np.unique gives them; np.unique's
    first call in a process imports numpy.ma, which takes 15-40 ms."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def outlier_series(values: np.ndarray,
                   config: BurstConfig | None = None) -> np.ndarray:
    """Outlier fraction of every day of a daily count series,
    |n_t - n_b| / max(n_b, n_min), in one array pass. n_b is the median
    of a window of median_window_days centered on the day and clipped at
    the series boundaries."""
    config = config or BurstConfig()
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return np.zeros(0)
    half = config.median_window_days // 2
    # Row i is day i's full window over the NaN-padded series; sorting puts
    # the pads after the `count` real values of its clipped window.
    padded = np.pad(values, half, constant_values=np.nan)
    windows = np.sort(sliding_window_view(padded, 2 * half + 1), axis=1)
    day = np.arange(n)
    count = np.minimum(day + half + 1, n) - np.maximum(day - half, 0)
    lower = windows[day, (count - 1) // 2]
    upper = windows[day, count // 2]
    n_b = np.where(count % 2 == 1, lower, (lower + upper) / 2)  # as np.median
    return np.abs(values - n_b) / np.maximum(n_b, config.n_min)


def detect_bursts(corpus: TweetCorpus, hashtag: str,
                  config: BurstConfig | None = None,
                  force: bool = False) -> list[HashtagBurst]:
    """Find the burst window of a hashtag, or [] if it is not trending.

    With force=True the trending filters (variance, user count, outlier
    threshold) are bypassed and a burst is returned for any hashtag with
    at least one tweet. One burst per hashtag: the global argmax of the
    outlier fraction, ties broken by the earlier day.
    """
    config = config or BurstConfig()
    rows = corpus.rows(hashtag)
    if not len(rows):
        return []
    if not force and len(rows) < config.min_users:
        return []  # fewer tweets than min_users means fewer distinct users
    series = hashtag_series(corpus, hashtag, corpus.start_day, corpus.end_day)
    if not force:
        if float(np.var(series)) < config.variance_threshold:
            return []
        if len(distinct(corpus.users[rows])) < config.min_users:
            return []
    p = outlier_series(series, config)
    peak = int(np.argmax(p))  # argmax returns the first (earliest) maximum
    if not force and p[peak] < config.trending_fraction_threshold:
        return []
    w = config.w
    start = peak - w // 2
    n = len(series)
    if n >= w:
        start = min(max(start, 0), n - w)
    window_start = corpus.start_day + timedelta(days=start)
    window_end = window_start + timedelta(days=w - 1)
    lo, hi = np.searchsorted(corpus.days[rows], (window_start.toordinal(),
                                                 window_end.toordinal() + 1))
    in_window = sorted(rows[lo:hi].tolist(), key=corpus.ids.__getitem__)
    return [HashtagBurst(hashtag, window_start, window_end,
                         corpus.start_day + timedelta(days=peak), float(p[peak]),
                         tuple(corpus.ids[r] for r in in_window), tuple(in_window))]
