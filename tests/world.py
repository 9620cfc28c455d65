"""Synthetic corpus + snapshot fixture for end-to-end tests.

The world is engineered so that one entity ("2014 Winter Olympics") is
unambiguously the most prominent for the hashtag #sochi2014: it has the
dominant anchor counts, in-window revision additions sharing the tweet
vocabulary, a page-view series matching the hashtag burst shape, and the
candidate link structure funnels influence mass toward it (every related
article links back to it, and venues co-link athletes and the games so
the relatedness weights are non-zero).
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from typing import NamedTuple

from trendtag.corpus import extract_hashtags, load_tweets
from trendtag.wiki import build_snapshot

TARGET = "2014 Winter Olympics"
CITY = "Sochi"
START = date(2014, 2, 1)
N_DAYS = 59
PEAK = date(2014, 2, 13)
BURST_EXTRA = {  # extra tweets per day around the peak, on top of baseline
    -3: 40, -2: 100, -1: 240, 0: 580, 1: 220, 2: 100, 3: 40,
}
BASELINE = 40

TOPIC_WORDS = ["hockey", "gold", "medal", "ceremony", "figure", "skating",
               "final", "team", "russia", "games", "olympic", "podium"]
NOISE_WORDS = ["today", "watch", "love", "great", "wow", "live", "game",
               "night", "best", "see", "go", "now"]

ATHLETES = [f"Athlete {i:02d}" for i in range(20)]
VENUES = [f"Sochi Venue {i}" for i in range(6)]
FILLER = [f"Background Topic {i:02d}" for i in range(60)]


def tweet_records(seed: int = 7) -> list[dict]:
    rng = random.Random(seed)
    records = []
    serial = 0

    def add_tweet(day: date, text: str):
        nonlocal serial
        records.append({
            "id": f"t{serial:07d}",
            "timestamp": day.isoformat() + "T12:00:00+00:00",
            "text": text,
            "user_id": f"u{serial % 700}",
        })
        serial += 1

    for offset in range(N_DAYS):
        day = START + timedelta(days=offset)
        extra = BURST_EXTRA.get((day - PEAK).days, 0)
        for _ in range(BASELINE + extra):
            words = rng.sample(TOPIC_WORDS, 3) + rng.sample(NOISE_WORDS, 2)
            rng.shuffle(words)
            athlete = rng.choice(ATHLETES)
            text = (f"{words[0]} {athlete.lower()} sochi {words[1]} "
                    f"{words[2]} #sochi2014 {words[3]} {words[4]}")
            add_tweet(day, text)
        # unrelated chatter so the corpus is not single-topic
        for _ in range(10):
            add_tweet(day, f"{rng.choice(NOISE_WORDS)} nothing much "
                           f"{rng.choice(NOISE_WORDS)} #randomchat")
    return records


class Row(NamedTuple):
    id: str
    day: date
    text: str
    user: int  # the user's code: users are numbered in first-seen order
    hashtags: tuple[str, ...]


def tweet_rows(corpus) -> list[Row]:
    """Each corpus row as a tuple, built from the columns."""
    return [Row(tid, date.fromordinal(int(day)), text, int(user),
                tuple(extract_hashtags(text)))
            for tid, text, day, user in zip(corpus.ids(range(len(corpus))),
                                            corpus.texts(range(len(corpus))),
                                            corpus.days, corpus.users)]


def incoming(snapshot, title) -> list[int]:
    """Sorted codes of the entities linking to title; [] for a non-entity."""
    return _csr_slice(snapshot.in_ptr, snapshot.in_src, snapshot.code.get(title))


def outgoing(snapshot, title) -> list[int]:
    """Sorted codes of the entities title links to; [] for a non-entity."""
    return _csr_slice(snapshot.out_ptr, snapshot.out_dst, snapshot.code.get(title))


def _csr_slice(ptr, items, code) -> list[int]:
    return [] if code is None else items[ptr[code]:ptr[code + 1]].tolist()


def build_corpus(seed: int = 7):
    corpus, report = load_tweets(tweet_records(seed))
    assert report.rejected == 0
    return corpus


def _tweet_like_text(rng, n_words):
    words = []
    for _ in range(n_words):
        pool = TOPIC_WORDS if rng.random() < 0.75 else NOISE_WORDS + ["sochi"]
        words.append(rng.choice(pool))
    return " ".join(words)


def wiki_tables(seed: int = 11):
    """Raw (pages, anchors, links, revisions, pageviews) tables."""
    rng = random.Random(seed)
    entities = [TARGET, CITY, "Russia", "Ice hockey"] + ATHLETES + VENUES + FILLER
    pages = [(e, "ARTICLE") for e in entities]
    pages.append(("Sochi 2014", f"REDIRECT:{TARGET}"))
    pages.append(("Sochi Olympics", f"REDIRECT:{TARGET}"))

    anchors = [
        ("sochi", TARGET, 40),
        ("sochi", CITY, 15),
        ("sochi 2014", TARGET, 25),
        ("olympics", TARGET, 30),
        ("russia", "Russia", 20),
        ("hockey", "Ice hockey", 18),
    ]
    for i, athlete in enumerate(ATHLETES):
        anchors.append((athlete.lower(), athlete, 5))
        # surnames are ambiguous: the name sometimes links elsewhere
        anchors.append((athlete.lower(), FILLER[i % len(FILLER)], 2))

    links = []
    for other in ATHLETES + VENUES + [CITY, "Russia", "Ice hockey"]:
        links.append((TARGET, other))   # the prominent article links out
    n_a = len(ATHLETES)
    for i, athlete in enumerate(ATHLETES):
        links.append((athlete, TARGET))
        links.append((athlete, CITY))  # athlete pages mention the host city
        links.append((athlete, "Russia"))
        links.append((athlete, "Ice hockey"))
        links.append((athlete, VENUES[i % len(VENUES)]))
        # teammates reference each other, so athlete in-link sets overlap
        # with the target's (all of them link to the target)
        for j in range(1, 3):
            links.append((athlete, ATHLETES[(i + j) % n_a]))
    for i, venue in enumerate(VENUES):
        links.append((venue, TARGET))
        links.append((venue, CITY))
        # venues co-link athletes and the games: shared in-linkers give
        # the athlete-target relatedness a non-empty intersection
        for j in range(3):
            links.append((venue, ATHLETES[(3 * i + j) % n_a]))
    links.append((CITY, TARGET))
    links.append((CITY, "Russia"))
    for venue in VENUES:
        links.append((CITY, venue))  # the host city page lists its venues
    links.append(("Russia", CITY))
    links.append(("Ice hockey", "Russia"))
    for i, filler in enumerate(FILLER):
        links.append((filler, "Russia"))
        links.append((filler, FILLER[(i + 1) % len(FILLER)]))

    revisions = []
    base_text = {
        TARGET: "the winter games are held in sochi russia venue construction",
        CITY: ("sochi sochi sochi city black sea coast resort tourism climate "
               "subtropical russia russia port railway"),
        "Russia": ("russia russia russia country europe asia population moscow "
                   "federation team government"),
        "Ice hockey": ("ice hockey hockey hockey rink puck stick skates league "
                       "championship team team game"),
    }
    for e in entities:
        text = base_text.get(
            e, f"article about {e.lower()} background facts history "
               f"{rng.choice(TOPIC_WORDS)} reference notes")
        revisions.append({"title": e, "timestamp": "2014-01-05T00:00:00+00:00",
                          "text": text})
    # in-window additions for the target mirror the tweet vocabulary
    grown = base_text[TARGET]
    for i, day_offset in enumerate(range(-2, 3)):
        day = PEAK + timedelta(days=day_offset)
        grown = grown + " " + _tweet_like_text(rng, 30)
        revisions.append({"title": TARGET,
                          "timestamp": day.isoformat() + f"T0{i + 1}:00:00+00:00",
                          "text": grown})
    # a stale off-window edit elsewhere
    revisions.append({"title": CITY, "timestamp": "2014-03-25T00:00:00+00:00",
                      "text": base_text[CITY] + " infrastructure airport"})

    pageviews = []
    for offset in range(N_DAYS):
        day = START + timedelta(days=offset)
        burst = BURST_EXTRA.get((day - PEAK).days, 0)
        pageviews.append((TARGET, day, 3 * (BASELINE + burst)))
        pageviews.append((CITY, day, 120 + burst))
        pageviews.append(("Russia", day, 300))
        for athlete in ATHLETES[:5]:
            pageviews.append((athlete, day, 15 + (5 if burst else 0)))
    return pages, anchors, links, revisions, pageviews


def build_wiki(seed: int = 11):
    return build_snapshot(*wiki_tables(seed))


def build_world():
    return build_corpus(), build_wiki()


def gold_labels() -> dict[tuple[str, str], int]:
    gold = {("sochi2014", TARGET): 2, ("sochi2014", CITY): 1,
            ("sochi2014", "Russia"): 1, ("sochi2014", "Ice hockey"): 1}
    for athlete in ATHLETES[:5]:
        gold[("sochi2014", athlete)] = 1
    for filler in FILLER:
        gold[("sochi2014", filler)] = 0
    return gold
