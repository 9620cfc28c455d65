"""Burst detection walkthrough.

Builds a two-month synthetic tweet stream in which one hashtag spikes for
a week and another chugs along flat, then shows how the outlier fraction
separates them and where the burst window lands.

Run with: python3 demos/burst_detection.py
"""

from datetime import date, timedelta

from trendtag import (BurstConfig, detect_bursts, hashtag_series, load_tweets,
                      outlier_series)

START = date(2014, 2, 1)


def make_records():
    """60 days of tweets: #spiky has a mid-month surge, #steady never moves."""
    records = []
    serial = 0

    def tweet(day, text, user):
        nonlocal serial
        records.append({"id": f"t{serial}", "timestamp": day.isoformat(),
                        "text": text, "user_id": user})
        serial += 1

    surge = {0: 30, 1: 90, 2: 260, 3: 120, 4: 40}  # offsets from Feb 14
    for offset in range(60):
        day = START + timedelta(days=offset)
        for j in range(8 + surge.get(offset - 13, 0)):
            tweet(day, "big news today #spiky", f"user{(serial * 7) % 900}")
        for j in range(8):
            tweet(day, "same as always #steady", f"user{j}")
    return records


def main():
    corpus, report = load_tweets(make_records())
    print(f"loaded {report.accepted} tweets "
          f"({report.rejected} rejected, {report.duplicates} duplicates)\n")

    config = BurstConfig(min_users=50, variance_threshold=100.0,
                         trending_fraction_threshold=5.0, w=7)

    for tag in corpus.hashtags():
        series = hashtag_series(corpus, tag, corpus.start_day, corpus.end_day)
        p = outlier_series(series, config)
        print(f"#{tag}: daily counts range {series.min():.0f}"
              f"-{series.max():.0f}, max outlier fraction {p.max():.2f}")

        bursts = detect_bursts(corpus, tag, config)
        if not bursts:
            print("  -> not trending (fails the variance/user/outlier filters)\n")
            continue
        burst = bursts[0]
        print(f"  -> TRENDING: peak {burst.peak_day} "
              f"(p = {burst.peak_outlier_fraction:.2f}), "
              f"window {burst.window_start} .. {burst.window_end} "
              f"({burst.window_days} days, {len(burst.tweet_ids)} tweets)")

        # sketch the series around the window
        lo = (burst.window_start - corpus.start_day).days
        hi = (burst.window_end - corpus.start_day).days
        for i in range(max(lo - 2, 0), min(hi + 3, len(series))):
            marker = " <- window" if lo <= i <= hi else ""
            bar = "#" * int(series[i] / 4)
            day = corpus.start_day + timedelta(days=i)
            print(f"  {day} {series[i]:4.0f} {bar}{marker}")
        print()


if __name__ == "__main__":
    main()
