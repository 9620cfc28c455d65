"""Tweet corpus loading, daily hashtag time series, and burst detection.

A hashtag is trending when its daily tweet count spikes far above the
local median (the outlier fraction), its series is volatile enough, and
it was adopted by enough distinct users. The burst period is a fixed-size
window of days centered on the peak.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator

import numpy as np

_HASHTAG_RE = re.compile(r"#(\w+)")


def extract_hashtags(text: str) -> list[str]:
    """'#'-prefixed tokens of the text, lowercased, '#' stripped."""
    return [m.group(1).lower() for m in _HASHTAG_RE.finditer(text)]


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


def timestamp_to_day(ts) -> date:
    """Epoch seconds or ISO-8601 instant -> UTC calendar day."""
    return parse_timestamp(ts).date()


@dataclass(frozen=True, slots=True)
class Tweet:
    id: str
    day: date
    text: str
    user_id: str
    hashtags: tuple[str, ...]


@dataclass
class BurstConfig:
    n_min: int = 10
    median_window_days: int = 61
    trending_fraction_threshold: float = 15.0
    variance_threshold: float = 900.0
    min_users: int = 500
    w: int = 7

    def __post_init__(self):
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
    tweet_ids: tuple[str, ...]

    @property
    def window_days(self) -> int:
        return (self.window_end - self.window_start).days + 1


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    duplicates: int = 0


class TweetCorpus:
    """Immutable after load; indexed by tweet id and by hashtag."""

    def __init__(self, tweets: dict[str, Tweet]):
        self._tweets = tweets
        self._by_hashtag: dict[str, list[str]] = {}
        for tid, tw in tweets.items():
            for tag in set(tw.hashtags):
                self._by_hashtag.setdefault(tag, []).append(tid)
        days = [tw.day for tw in tweets.values()]
        self.start_day: date | None = min(days) if days else None
        self.end_day: date | None = max(days) if days else None

    def __len__(self) -> int:
        return len(self._tweets)

    def __contains__(self, tweet_id: str) -> bool:
        return tweet_id in self._tweets

    def get(self, tweet_id: str) -> Tweet:
        return self._tweets[tweet_id]

    def hashtags(self) -> list[str]:
        return sorted(self._by_hashtag)

    def tweets_with(self, hashtag: str) -> list[Tweet]:
        return [self._tweets[t] for t in self._by_hashtag.get(hashtag, [])]

    def users_of(self, hashtag: str) -> set[str]:
        return {t.user_id for t in self.tweets_with(hashtag)}


def load_tweets(records: Iterable[dict]) -> tuple[TweetCorpus, IngestReport]:
    """Build a corpus from raw records, skipping malformed ones.

    Duplicate ids keep the first occurrence.
    """
    report = IngestReport()
    tweets: dict[str, Tweet] = {}
    for rec in records:
        try:
            tid = str(rec["id"])
            day = timestamp_to_day(rec["timestamp"])
            text = rec["text"]
            user = str(rec["user_id"])
            if not isinstance(text, str):
                raise ValueError("text must be a string")
        except (KeyError, TypeError, ValueError, OverflowError, OSError):
            report.rejected += 1
            continue
        if tid in tweets:
            report.duplicates += 1
            continue
        tweets[tid] = Tweet(tid, day, text, user, tuple(extract_hashtags(text)))
        report.accepted += 1
    return TweetCorpus(tweets), report


def iter_jsonl(path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                yield {}  # counted as rejected downstream


def load_tweets_jsonl(path) -> tuple[TweetCorpus, IngestReport]:
    return load_tweets(iter_jsonl(path))


def hashtag_series(corpus: TweetCorpus, hashtag: str,
                   start_day: date, end_day: date) -> np.ndarray:
    """Daily tweet counts for a hashtag over an inclusive date range, one
    float per day from start_day; days without tweets are 0."""
    if end_day < start_day:
        raise ValueError("empty date range")
    n = (end_day - start_day).days + 1
    values = np.zeros(n)
    for tw in corpus.tweets_with(hashtag):
        i = (tw.day - start_day).days
        if 0 <= i < n:
            values[i] += 1
    return values


def outlier_fraction(values: np.ndarray, day_index: int,
                     config: BurstConfig | None = None) -> float:
    """Deviation of a day's count from its local median, |n_t - n_b| / max(n_b, n_min).

    The median window is centered on the day and clipped at the series
    boundaries.
    """
    config = config or BurstConfig()
    if not 0 <= day_index < len(values):
        raise IndexError("day_index outside series")
    half = config.median_window_days // 2
    lo = max(0, day_index - half)
    hi = min(len(values), day_index + half + 1)
    n_b = float(np.median(values[lo:hi]))
    n_t = float(values[day_index])
    return abs(n_t - n_b) / max(n_b, config.n_min)


def outlier_series(values: np.ndarray,
                   config: BurstConfig | None = None) -> np.ndarray:
    """Outlier fraction of every day of a daily count series."""
    config = config or BurstConfig()
    return np.array([outlier_fraction(values, i, config)
                     for i in range(len(values))])


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
    if corpus.start_day is None:
        return []
    series = hashtag_series(corpus, hashtag, corpus.start_day, corpus.end_day)
    if series.sum() == 0:
        return []
    if not force:
        if float(np.var(series)) < config.variance_threshold:
            return []
        if len(corpus.users_of(hashtag)) < config.min_users:
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
    ids = sorted(t.id for t in corpus.tweets_with(hashtag)
                 if window_start <= t.day <= window_end)
    return [HashtagBurst(hashtag, window_start, window_end,
                         corpus.start_day + timedelta(days=peak),
                         float(p[peak]), tuple(ids))]
