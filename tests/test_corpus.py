"""Corpus loading, hashtag time series, and burst detection."""

import json
import tempfile
import tracemalloc
from array import array
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendtag.corpus as corpus_module
from trendtag.corpus import (BurstConfig, StringColumn, detect_bursts,
                             extract_hashtags, hashtag_series, load_tweets,
                             load_tweets_jsonl, outlier_series, parse_timestamp,
                             repeated_rows)
from world import Row, tweet_rows

DAY0 = date(2014, 2, 1)


def rec(tid, day_offset, text, user="u1"):
    day = DAY0 + timedelta(days=day_offset)
    return {"id": tid, "timestamp": day.isoformat() + "T10:00:00Z",
            "text": text, "user_id": user}


def corpus_from_series(values, hashtag="tag", users_per_day=1,
                       id_of=lambda serial: f"t{serial}"):
    """One corpus whose daily counts for `hashtag` equal `values`; the
    tweet with serial number s has the id id_of(s)."""
    records = []
    serial = 0
    for offset, count in enumerate(values):
        for j in range(int(count)):
            records.append(rec(id_of(serial), offset, f"x #{hashtag}",
                               user=f"u{j % max(users_per_day, 1)}"))
            serial += 1
    # anchor tweets pin the corpus date range even when edges are zero
    records.append(rec("pad-first", 0, "pad"))
    records.append(rec("pad-last", len(values) - 1, "pad"))
    corpus, _ = load_tweets(records)
    return corpus


def tweet(corpus, tid):
    return next(t for t in tweet_rows(corpus) if t.id == tid)


class TestLoadTweets:
    def test_duplicate_ids_first_wins(self):
        corpus, report = load_tweets([
            rec("a", 0, "first #x"), rec("a", 1, "second #y"), rec("b", 0, "#z"),
        ])
        assert len(corpus) == 2
        assert tweet(corpus, "a").hashtags == ("x",)
        assert report.duplicates == 1

    def test_hashtag_extraction(self):
        corpus, _ = load_tweets([rec("a", 0, "Go #Sochi2014!")])
        assert tweet(corpus, "a").hashtags == ("sochi2014",)
        assert extract_hashtags("a #B #b c") == ["b", "b"]

    def test_undecodable_line_counted_as_bad_json(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        lines = [json.dumps(rec("a", 0, "ok #x")).encode(),
                 b'{"id": "b", "timestamp": 0, "text": "\xff", "user_id": "u"}',
                 json.dumps(rec("c", 1, "ok #y")).encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        corpus, report = load_tweets_jsonl(path)
        assert (report.accepted, report.bad_json, report.rejected) == (2, 1, 1)
        assert corpus.ids(range(len(corpus))) == ["a", "c"]

    def test_empty_stream(self):
        corpus, report = load_tweets([])
        assert len(corpus) == 0
        assert corpus.start_day is None
        assert report.accepted == 0

    def test_malformed_records_counted_and_skipped(self):
        corpus, report = load_tweets([
            {"id": "a"},                                # missing fields
            {"id": "b", "timestamp": "nonsense", "text": "x", "user_id": "u"},
            rec("c", 0, "ok #fine"),
            {},
        ])
        assert len(corpus) == 1
        assert report.rejected == 3

    def test_epoch_and_iso_timestamps_agree(self):
        assert parse_timestamp(1391947200).date() == parse_timestamp(
            "2014-02-09T12:00:00Z").date()

    def test_day_bucketing_is_utc(self):
        # 23:30 UTC-5 is the next day in UTC
        assert parse_timestamp("2014-02-09T23:30:00-05:00").date() == date(2014, 2, 10)

    @pytest.mark.parametrize("line", [b'{"id": 1} x', b"{} {}", b"1 2",
                                      b'["a"],', b'{"id": "b"}}'])
    def test_trailing_data_counted_as_bad_json(self, tmp_path, line):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(json.dumps(rec("a", 0, "ok")).encode() + b"\n"
                         + line + b"\n")
        corpus, report = load_tweets_jsonl(path)
        assert (report.accepted, report.bad_json, report.rejected) == (1, 1, 1)
        assert corpus.ids(range(len(corpus))) == ["a"]

    def test_surrounding_whitespace_ignored(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        line = json.dumps(rec("a", 0, "ok #x")).encode()
        path.write_bytes(b"  \t" + line + b" \r\n\n \n")
        corpus, report = load_tweets_jsonl(path)
        assert (report.accepted, report.rejected) == (1, 0)


FIELDS = ("id", "timestamp", "text", "user_id")
REJECT_CAUSES = ("bad_json", "missing_field", "bad_timestamp", "bad_text")


def reference_load(records):
    """Row loader: one Row per accepted record, each rejected record
    counted under its first fault (as IngestReport documents); users are
    coded in first-accepted order."""
    counts: Counter = Counter()
    tweets: dict[str, Row] = {}
    user_code: dict[str, int] = {}
    for rec in records:
        if not isinstance(rec, dict):
            counts["bad_json"] += 1
            continue
        if any(key not in rec for key in FIELDS):
            counts["missing_field"] += 1
            continue
        try:
            day = parse_timestamp(rec["timestamp"]).date()
        except (ValueError, OverflowError, OSError):
            counts["bad_timestamp"] += 1
            continue
        text = rec["text"]
        if not isinstance(text, str):
            counts["bad_text"] += 1
            continue
        tid = str(rec["id"])
        if tid in tweets:
            counts["duplicates"] += 1
            continue
        user = user_code.setdefault(str(rec["user_id"]), len(user_code))
        tweets[tid] = Row(tid, day, text, user, tuple(extract_hashtags(text)))
        counts["accepted"] += 1
    return tweets, counts


TIMESTAMPS = st.sampled_from([
    "2014-02-01T10:00:00Z", "2014-02-01T23:30:00-05:00",
    "2014-02-03T01:00:00+03:00", "2014-02-05", 1391947200, 1391947200.5,
    True, False, None, "nonsense", 10 ** 20, [1],
])
# texts the UTF-8 buffer must give back unchanged: accents, an emoji, line
# breaks, NUL, the empty string and a lone surrogate
ODD_TEXTS = ["é #é", "\U0001F600 #a", "a\nb", "#b\r\n", "\x00", "", "\ud800 #a"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(["#a", "#A", "#b", "#Sochi2014", "go", "#a!"]),
             max_size=4).map(" ".join),
    st.sampled_from([*ODD_TEXTS, 5, None]))
# ids the id column must give back unchanged and compare as strings: ids
# that are prefixes of one another, accents, an emoji, a lone surrogate, a
# fullwidth letter (after the emoji in code-point order, before it in
# UTF-16 order), and integers, which also name the strings "7" and "70"
ODD_IDS = ["a", "ab", "abc", "b", "c", "é", "éa", "\U0001F600", "\ud800",
           "a\ud800", "\uff54", 7, 70, "7", "70"]
# the row oracle's examples; --hypothesis-profile=ci raises them to 1000
EXAMPLES = max(200, settings.default.max_examples)
RECORDS = st.one_of(
    st.fixed_dictionaries({"id": st.sampled_from(ODD_IDS),
                           "timestamp": TIMESTAMPS, "text": TEXTS,
                           "user_id": st.sampled_from(["u1", "u2", 3])}),
    st.sampled_from([None, {}, {"id": "a"}, {"id": "b", "timestamp": 0, "text": "#a"}]),
)


class TestLoaderMatchesRowLoader:
    @given(st.lists(RECORDS, max_size=25))
    @example([{"id": "a", "timestamp": "bad", "text": "#a", "user_id": "u"},
              {"id": "a", "timestamp": 0, "text": "#a #A #a", "user_id": "u"},
              {"id": "a", "timestamp": 0, "text": "dup", "user_id": "u"}])
    # a dropped copy is the first record to carry hashtag #a
    @example([{"id": "a", "timestamp": 0, "text": "", "user_id": "u"},
              {"id": "a", "timestamp": 0, "text": "#a", "user_id": "u"}])
    # a dropped copy is the first record of user 3, so users renumber
    @example([{"id": "a", "timestamp": 0, "text": "#a", "user_id": "u1"},
              {"id": "a", "timestamp": 0, "text": "#b", "user_id": 3},
              {"id": "b", "timestamp": 0, "text": "", "user_id": "u2"},
              {"id": "c", "timestamp": 0, "text": "#b", "user_id": 3},
              {"id": 7, "timestamp": 0, "text": "\ud800 #a", "user_id": "u2"},
              {"id": "7", "timestamp": 0, "text": "#c", "user_id": "u1"}])
    # two dropped copies with texts: every later text moves down by both
    @example([{"id": "a", "timestamp": 0, "text": "#a", "user_id": "u1"},
              {"id": "a", "timestamp": 0, "text": "é", "user_id": "u1"},
              {"id": "a", "timestamp": 0, "text": "#b go", "user_id": "u2"},
              {"id": "b", "timestamp": 0, "text": "#a", "user_id": "u1"},
              {"id": "c", "timestamp": 0, "text": "go", "user_id": "u1"}])
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_counts_and_tweets_equal(self, records):
        corpus, report = load_tweets(records)
        tweets, counts = reference_load(records)
        for cause in ("accepted", "duplicates", *REJECT_CAUSES):
            assert getattr(report, cause) == counts[cause], cause
        assert report.rejected == sum(counts[c] for c in REJECT_CAUSES)
        assert len(corpus) == len(tweets)
        assert corpus.ids(range(len(corpus))) == list(tweets)
        assert tweet_rows(corpus) == list(tweets.values())
        assert corpus.texts(range(len(corpus))) == [t.text for t in tweets.values()]
        assert corpus.hashtags() == sorted(
            {tag for t in tweets.values() for tag in t.hashtags})
        days = [t.day for t in tweets.values()]
        assert corpus.start_day == (min(days) if days else None)
        assert corpus.end_day == (max(days) if days else None)
        for tag in corpus.hashtags():
            rows = corpus.rows(tag).tolist()
            assert sorted(rows) == [i for i, t in enumerate(tweets.values())
                                    if tag in t.hashtags]
            assert [days[r] for r in rows] == sorted(days[r] for r in rows)
        backwards = list(range(len(corpus)))[::-1] * 2
        assert corpus.texts(backwards) == [list(tweets.values())[r].text
                                           for r in backwards]

    @given(st.lists(RECORDS, max_size=25), st.randoms(use_true_random=False))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_ids_read_back_in_any_row_order(self, records, rng):
        corpus, _ = load_tweets(records)
        tweets = list(reference_load(records)[0].values())
        rows = list(range(len(corpus))) * 2
        rng.shuffle(rows)
        assert corpus.ids(rows) == [tweets[r].id for r in rows]
        assert corpus.texts(rows) == [tweets[r].text for r in rows]

    @given(st.lists(st.sampled_from([str(i) for i in ODD_IDS]), max_size=30),
           st.booleans())
    # every hash ties, and the dropped copy repeats row 0, the first row
    # with its id: a finder that read only the second row of each tie misses it
    @example(["ab", "a", "ab"], True)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_repeat_finder_compares_ids_on_equal_hashes(self, ids, equal_hashes):
        """With every hash equal, distinct ids are all kept and equal ids
        drop every copy after the first."""
        hashes = np.zeros(len(ids), dtype=np.int64) if equal_hashes else \
            np.array([hash(i) for i in ids], dtype=np.int64)
        encoded = [tid.encode("utf-8", "surrogatepass") for tid in ids]
        column = StringColumn(bytearray(b"".join(encoded)),
                              array("q", [0, *accumulate(map(len, encoded))]))
        assert repeated_rows(column, hashes) == [
            r for r, tid in enumerate(ids) if tid in ids[:r]]

    def test_jsonl_surrogate_escapes_read_back(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text('{"id": "a", "timestamp": 0, "text": "x \\ud83d #y", "user_id": "u"}\n'
                        '{"id": "a", "timestamp": 0, "text": "dup", "user_id": "u"}\n'
                        '{"id": "b", "timestamp": 0, "text": "\\ud83d\\ude00", "user_id": "u"}\n',
                        encoding="ascii")
        corpus, report = load_tweets_jsonl(path)
        assert (report.accepted, report.duplicates) == (2, 1)
        assert corpus.texts([1, 0]) == ["\U0001F600", "x \ud83d #y"]
        assert corpus.hashtags() == ["y"]


class TestLoadMemory:
    def test_peak_per_row_bound(self, tmp_path):
        """The ids and the texts are one UTF-8 buffer each and no id set
        is built: a 5,050-line load of accented and emoji texts (50
        duplicates) peaks at about 146 B a row, against about 186 B with a
        list of id objects and about 440 B with lists of ids and texts and
        a set of seen ids."""
        path = tmp_path / "tweets.jsonl"
        lines = [json.dumps({"id": f"{i:08d}", "timestamp": f"2016-01-{1 + i % 28:02d}",
                             "text": f"café \U0001F600 word{i % 97} #tag{i % 50}",
                             "user_id": f"u{i % 3000}"}, ensure_ascii=False)
                 for i in range(5_000)]
        lines += lines[::100]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            corpus, report = load_tweets_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.accepted, report.duplicates) == (5_000, 50)
        assert peak / len(lines) < 165, f"{peak / len(lines):.0f} B a row"


# lines that are not a JSON object alone: bad JSON, trailing data, bytes
# that are not UTF-8, and JSON values of other types
FAULTY_LINES = st.sampled_from([
    b"{", b"not json", b'{"id": 1} x', b"{} {}", b"1 2", b"[1, 2", b"\xff\xfe",
    b'{"id": "z", "timestamp": 0, "text": "\xff", "user_id": "u"}',
    b'"a string"', b"null", b"[]", b"10",
])
BLANK_LINES = st.sampled_from([b"", b" ", b"\t", b" \r"])


def jsonl_lines(records):
    """(line, is_blank) pairs: JSON-dumped records, faulty lines and blank
    lines, mixed."""
    return st.lists(st.one_of(
        records.map(lambda r: (json.dumps(r).encode(), False)),
        FAULTY_LINES.map(lambda line: (line, False)),
        BLANK_LINES.map(lambda line: (line, True))), max_size=40)


class TestEveryLineCounted:
    @given(jsonl_lines(RECORDS))
    @settings(max_examples=150, deadline=None)
    def test_accepted_duplicates_and_rejects_cover_the_lines(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tweets.jsonl"
            path.write_bytes(b"\n".join(line for line, _ in lines))
            corpus, report = load_tweets_jsonl(path)
        counted = report.accepted + report.duplicates + report.rejected
        assert counted == sum(not blank for _, blank in lines)
        assert len(corpus) == report.accepted


class TestParseTimestamp:
    def test_returns_aware_utc_datetime(self):
        dt = parse_timestamp("2014-02-09T23:30:00-05:00")
        assert dt == datetime(2014, 2, 10, 4, 30, tzinfo=timezone.utc)
        assert dt.utcoffset() == timedelta(0)

    def test_epoch_naive_and_zulu_forms_agree(self):
        expected = datetime(2014, 2, 9, 12, tzinfo=timezone.utc)
        assert parse_timestamp(1391947200) == expected
        assert parse_timestamp(1391947200.0) == expected
        assert parse_timestamp("2014-02-09T12:00:00Z") == expected
        assert parse_timestamp("2014-02-09T12:00:00") == expected
        # forms datetime.fromisoformat accepts only from Python 3.11 on
        for ts in ("2014-02-09T12:00:00+0000", "2014-02-09T12:00:00.0Z",
                   "2014-02-09T12:00:00.00000Z", "20140209T120000Z"):
            assert parse_timestamp(ts) == expected

    @pytest.mark.parametrize("bad", [True, False, None, [1], "nonsense"])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_timestamp(bad)


class TestHashtagSeries:
    def test_direct_count(self):
        corpus = corpus_from_series([5, 0, 2])
        series = hashtag_series(corpus, "tag", DAY0, date(2014, 2, 3))
        assert list(series) == [5, 0, 2]

    def test_unknown_hashtag_all_zero(self):
        corpus = corpus_from_series([1, 1, 1])
        series = hashtag_series(corpus, "nope", DAY0, date(2014, 2, 3))
        assert list(series) == [0, 0, 0]

    def test_single_day_range(self):
        corpus = corpus_from_series([3])
        series = hashtag_series(corpus, "tag", DAY0, DAY0)
        assert len(series) == 1 and series[0] == 3

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_series_sum_equals_corpus_count(self, counts):
        corpus = corpus_from_series(counts)
        series = hashtag_series(corpus, "tag", DAY0,
                                DAY0 + timedelta(days=len(counts) - 1))
        assert series.sum() == len(corpus.rows("tag"))


def random_corpus(tweets):
    """One tweet per (day offset from DAY0, hashtags) pair."""
    records = [rec(f"t{i}", offset, " ".join(f"#{t}" for t in tags) or "none")
               for i, (offset, tags) in enumerate(tweets)]
    return load_tweets(records)[0]


CORPUS_TWEETS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.lists(st.sampled_from(["p", "q", "r"]), max_size=3)),
    min_size=1, max_size=40)


class TestSeriesMatchesTweetLoop:
    @given(CORPUS_TWEETS, st.sampled_from(["p", "q", "r", "unknown"]),
           st.integers(min_value=-5, max_value=15),
           st.integers(min_value=1, max_value=25))
    @settings(max_examples=150, deadline=None)
    def test_series_equals_per_tweet_count(self, tweets, tag, first, length):
        corpus = random_corpus(tweets)
        start = DAY0 + timedelta(days=first)
        end = start + timedelta(days=length - 1)
        expected = np.zeros(length)
        for tw in tweet_rows(corpus):
            if tag in tw.hashtags and start <= tw.day <= end:
                expected[(tw.day - start).days] += 1
        series = hashtag_series(corpus, tag, start, end)
        assert series.dtype == np.float64
        np.testing.assert_array_equal(series, expected)


def reference_outlier_fraction(values, day_index, config):
    """Deviation of a day's count from its local median,
    |n_t - n_b| / max(n_b, n_min), with the median window centered on the
    day and clipped at the series boundaries: the day-by-day reference."""
    half = config.median_window_days // 2
    lo = max(0, day_index - half)
    hi = min(len(values), day_index + half + 1)
    n_b = float(np.median(values[lo:hi]))
    n_t = float(values[day_index])
    return abs(n_t - n_b) / max(n_b, config.n_min)


def outlier_fraction(values, day_index):
    """One day's outlier fraction, as outlier_series computes it."""
    return float(outlier_series(values)[day_index])


class TestOutlierFraction:
    def test_hand_example(self):
        # median of the window is 10, n_t = 100 -> |100-10|/max(10,10) = 9
        series = np.array([10.0] * 30 + [100.0] + [10.0] * 30)
        assert outlier_fraction(series, 30) == pytest.approx(9.0)

    def test_no_deviation(self):
        series = np.full(10, 7.0)
        assert outlier_fraction(series, 4) == 0.0

    def test_floor_engages_when_median_zero(self):
        series = np.array([0.0] * 40 + [40.0] + [0.0] * 40)
        assert outlier_fraction(series, 40) == pytest.approx(4.0)

    def test_window_clipped_at_boundary(self):
        series = np.array([2.0, 2.0, 50.0])
        # clipped window is the whole series; median 2
        assert outlier_fraction(series, 2) == pytest.approx(48 / 10)

    @given(st.integers(min_value=10, max_value=500),
           st.integers(min_value=0, max_value=490))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_peak_count(self, n_t, bump):
        base = [10.0] * 61
        a = np.array(base[:30] + [float(n_t)] + base[31:])
        b = np.array(base[:30] + [float(n_t + bump)] + base[31:])
        assert outlier_fraction(b, 30) >= outlier_fraction(a, 30)


def per_day_outliers(values, config):
    return np.array([reference_outlier_fraction(values, i, config)
                     for i in range(len(values))])


class TestOutlierSeriesMatchesPerDay:
    def test_every_length_exact(self):
        """Lengths 1 to 150, under and over the 61-day median window."""
        config = BurstConfig()
        rng = np.random.default_rng(0)
        for n in range(1, 151):
            values = rng.integers(0, 60, n).astype(float)
            values[rng.integers(0, n)] += 500  # one spike
            np.testing.assert_array_equal(outlier_series(values, config),
                                          per_day_outliers(values, config),
                                          err_msg=f"length {n}")

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=150),
           st.sampled_from([1, 3, 7, 61, 201]),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=150, deadline=None)
    def test_windows_and_floors_exact(self, values, window, n_min):
        values = np.array(values)
        config = BurstConfig(median_window_days=window, n_min=n_min)
        np.testing.assert_array_equal(outlier_series(values, config),
                                      per_day_outliers(values, config))

    def test_empty_series(self):
        assert outlier_series(np.zeros(0)).shape == (0,)


def spike_config(**kw):
    defaults = dict(min_users=1, variance_threshold=1.0,
                    trending_fraction_threshold=2.0)
    defaults.update(kw)
    return BurstConfig(**defaults)


class TestDetectBursts:
    def test_flat_series_rejected_by_variance(self):
        corpus = corpus_from_series([3] * 20)
        assert detect_bursts(corpus, "tag", spike_config()) == []

    def test_spike_detected_and_centered(self):
        values = [2] * 15 + [80] + [2] * 15
        corpus = corpus_from_series(values, users_per_day=3)
        config = spike_config()
        bursts = detect_bursts(corpus, "tag", config)
        assert len(bursts) == 1
        burst = bursts[0]
        series = hashtag_series(corpus, "tag", corpus.start_day, corpus.end_day)
        brute_peak = int(np.argmax(outlier_series(series, config)))
        assert burst.peak_day == DAY0 + timedelta(days=brute_peak)
        assert burst.window_days == config.w
        assert burst.window_start <= burst.peak_day <= burst.window_end

    def test_tie_broken_by_earlier_day(self):
        values = [2] * 8 + [60] + [2] * 8 + [60] + [2] * 8
        corpus = corpus_from_series(values, users_per_day=3)
        bursts = detect_bursts(corpus, "tag", spike_config())
        assert bursts[0].peak_day == date(2014, 2, 9)

    def test_user_filter(self):
        values = [2] * 10 + [80] + [2] * 10
        corpus = corpus_from_series(values, users_per_day=1)
        assert detect_bursts(corpus, "tag", spike_config(min_users=5000)) == []

    def test_threshold_filter(self):
        values = [2] * 10 + [80] + [2] * 10
        corpus = corpus_from_series(values, users_per_day=3)
        config = spike_config(trending_fraction_threshold=1000.0)
        assert detect_bursts(corpus, "tag", config) == []

    def test_force_bypasses_filters(self):
        corpus = corpus_from_series([3] * 20)
        bursts = detect_bursts(corpus, "tag", spike_config(), force=True)
        assert len(bursts) == 1

    def test_window_clamped_at_series_edge(self):
        values = [80] + [2] * 20
        corpus = corpus_from_series(values, users_per_day=3)
        burst = detect_bursts(corpus, "tag", spike_config())[0]
        assert burst.window_start == corpus.start_day
        assert burst.window_days == 7

    def test_window_tweet_ids(self):
        values = [2] * 15 + [80] + [2] * 15
        corpus = corpus_from_series(values, users_per_day=3)
        burst = detect_bursts(corpus, "tag", spike_config())[0]
        tweets = tweet_rows(corpus)
        expected = sum(1 for t in tweets if "tag" in t.hashtags
                       and burst.window_start <= t.day <= burst.window_end)
        assert len(burst.tweet_ids) == expected

    @pytest.fixture
    def series_calls(self, monkeypatch):
        calls = []

        def spy(corpus, hashtag, *args):
            calls.append(hashtag)
            return hashtag_series(corpus, hashtag, *args)

        monkeypatch.setattr(corpus_module, "hashtag_series", spy)
        return calls

    def test_fewer_tweets_than_min_users_rejected_before_series(self, series_calls):
        corpus = corpus_from_series([0] * 10 + [19] + [0] * 10, users_per_day=19)
        assert detect_bursts(corpus, "tag", spike_config(min_users=20)) == []
        assert series_calls == []
        bursts = detect_bursts(corpus, "tag", spike_config(min_users=20), force=True)
        assert bursts[0].peak_day == DAY0 + timedelta(days=10)
        assert series_calls == ["tag"]

    @pytest.mark.parametrize("users_per_day,variance_threshold,trending", [
        (20, 1.0, True), (19, 1.0, False), (20, 1000.0, False)])
    def test_min_users_tweets_reach_variance_and_user_filters(
            self, series_calls, users_per_day, variance_threshold, trending):
        corpus = corpus_from_series([0] * 10 + [20] + [0] * 10,
                                    users_per_day=users_per_day)
        config = spike_config(min_users=20, variance_threshold=variance_threshold)
        assert bool(detect_bursts(corpus, "tag", config)) == trending
        assert series_calls == ["tag"]

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=3,
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_peak_matches_brute_force_scan(self, counts):
        if sum(counts) == 0:
            return
        corpus = corpus_from_series(counts)
        config = spike_config()
        bursts = detect_bursts(corpus, "tag", config, force=True)
        series = hashtag_series(corpus, "tag", corpus.start_day, corpus.end_day)
        p = outlier_series(series, config)
        best = max(range(len(p)), key=lambda i: (p[i], -i))
        assert bursts[0].peak_day == DAY0 + timedelta(days=best)
        assert bursts[0].window_start <= bursts[0].peak_day <= bursts[0].window_end


# tweet id forms: "{}" and None (an integer id) give bare digit strings, so
# "1" is a prefix of "10"; the others prefix an accent, an emoji, a lone
# surrogate or a fullwidth letter
ID_FORMS = [None, "{}", "t{}", "é{}", "\U0001F600{}", "\ud800{}", "\uff54{}"]


class TestBurstIdsMatchReferenceFilter:
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=20),
           st.sampled_from([1, 3, 7]),
           st.lists(st.sampled_from(ID_FORMS), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_window_ids(self, counts, w, forms):
        """Includes corpora shorter than the window, whose window reaches
        past the corpus's last day. The ids mix the forms, one per serial
        number in turn, and sort as strings: by code point."""
        def id_of(serial):
            form = forms[serial % len(forms)]
            return serial if form is None else form.format(serial)

        corpus = corpus_from_series(counts, id_of=id_of)
        bursts = detect_bursts(corpus, "tag", spike_config(w=w), force=True)
        if sum(counts) == 0:
            assert bursts == []
            return
        burst = bursts[0]
        assert burst.window_days == w
        expected = sorted(
            t.id for t in tweet_rows(corpus)
            if "tag" in t.hashtags
            and burst.window_start <= t.day <= burst.window_end)
        assert list(burst.tweet_ids) == expected
        assert corpus.ids(burst.rows) == expected
        # code-point order is the order of the UTF-8 bytes the column holds
        assert expected == sorted(expected, key=lambda tid: tid.encode(
            "utf-8", "surrogatepass"))


class TestValidation:
    def test_even_median_window_rejected(self):
        with pytest.raises(ValueError):
            BurstConfig(median_window_days=60)
