"""Seeded synthetic worlds for the trendtag benchmark.

A world is a tweet stream plus a simplified Wikipedia snapshot, written
in the formats the package's own loaders read:

    tweets.jsonl
    wiki/pages.tsv, wiki/anchors.tsv, wiki/links.tsv,
    wiki/revisions.jsonl, wiki/pageviews.tsv
    gold.tsv
    manifest.json   (planted events and the shape the world must have)

Every planted event has one target entity that the pipeline should rank
first. The target dominates the event's anchor counts, its article grows
during the burst with the tweets' vocabulary, its page views follow the
burst, and the participants' articles link back to it. Around the target
sit participants with ambiguous names (each name also links to one or
more filler articles), venues, and leaf articles hanging off every seed,
which is what the candidate expansion picks up.

Sizes are fixed per workload and do not depend on the seed; the seed
only moves names, words, users, peak days and per-day noise. The same
(workload, size, seed) gives the same bytes.

Run directly to write one world:

    python3 perfbench/world.py --workload event_annotate --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import zlib
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path

START = date(2016, 1, 4)
BURST_PROFILE = (40, 100, 240, 580, 220, 100, 40)  # extra tweets, peak-3 .. peak+3
EVENT_BASELINE = 3  # tweets per day of an event hashtag outside its burst
NOISE_WORDS = ("today", "watch", "love", "great", "wow", "live", "night",
               "best", "see", "go", "now", "really", "just", "big", "news",
               "again", "here", "check", "this", "out", "people", "time")
VENUES = 4  # per event
EXTRAS = ("https://t.co/{w}", "@{w}", ":)", ";-)", "www.{w}.com", ":D")


@dataclass(frozen=True)
class EventShape:
    participants: int      # named people around the target
    fillers_per_name: int  # extra entities each participant name links to
    leaves: int            # leaf articles linked from every participant/filler
    chained: bool          # leaves link onward, making the graph dense
    burst_scale: int       # multiplier on BURST_PROFILE


@dataclass(frozen=True)
class WorldSpec:
    days: int
    events: tuple[EventShape, ...]
    evergreen: int          # weekly-periodic hashtags that never trend
    longtail: int           # flat hashtags, about longtail_tweets each
    longtail_tweets: int
    plain_tweets: int       # tweets without a hashtag
    background_entities: int
    users: int
    sample_size: int = 10_000       # PipelineConfig.sample_size for the run
    candidate_band: tuple[int, int] = (1, 10 ** 9)
    oversampled: bool = False  # every burst must exceed sample_size
    scan: bool = False      # run_annotate(hashtags=None) instead of a list


def _events(n, shape_of):
    return tuple(shape_of(i) for i in range(n))


SPECS = {
    "stream_scan": {
        "full": WorldSpec(
            days=90,
            events=_events(3, lambda i: EventShape(4, 1, 6, False, 1)),
            evergreen=30, longtail=3000, longtail_tweets=50,
            plain_tweets=37_000, background_entities=2000, users=60_000,
            candidate_band=(20, 150), scan=True),
        "tiny": WorldSpec(
            days=70,
            events=_events(2, lambda i: EventShape(3, 1, 3, False, 1)),
            evergreen=3, longtail=100, longtail_tweets=20,
            plain_tweets=500, background_entities=50, users=3000,
            candidate_band=(10, 80), scan=True),
    },
    "event_annotate": {
        "full": WorldSpec(
            days=60,
            events=_events(20, lambda i: EventShape(6 + i % 5, 1, 12, False, 1)),
            evergreen=5, longtail=600, longtail_tweets=40,
            plain_tweets=10_000, background_entities=5000, users=40_000,
            candidate_band=(150, 450)),
        "tiny": WorldSpec(
            days=40,
            events=_events(3, lambda i: EventShape(3 + i % 2, 1, 5, False, 1)),
            evergreen=1, longtail=30, longtail_tweets=10,
            plain_tweets=300, background_entities=50, users=3000,
            candidate_band=(20, 120)),
    },
    "wide_candidates": {
        "full": WorldSpec(
            days=60,
            events=_events(2, lambda i: EventShape(12, 4, 16, True, 9)),
            evergreen=2, longtail=400, longtail_tweets=30,
            plain_tweets=5000, background_entities=20_000, users=40_000,
            candidate_band=(1000, 2000), oversampled=True),
        "tiny": WorldSpec(
            days=40,
            events=_events(1, lambda i: EventShape(6, 3, 8, True, 1)),
            evergreen=1, longtail=30, longtail_tweets=10,
            plain_tweets=300, background_entities=200, users=3000,
            sample_size=300, candidate_band=(100, 400), oversampled=True),
    },
}

WORKLOADS = tuple(SPECS)


def burst_extra(shape: EventShape, peak: int, d: int) -> int:
    """Tweets an event adds on day d on top of its baseline."""
    off = d - peak
    return BURST_PROFILE[off + 3] * shape.burst_scale if -3 <= off <= 3 else 0


class _Names:
    """Unique pronounceable pseudo-words, so names never collide with
    each other or with the fixed English noise words."""

    ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
              "v", "z", "br", "dr", "gr", "kr", "pl", "st", "tr", "sk")
    VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
    CODAS = ("", "n", "r", "s", "x", "l", "m", "k")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set(NOISE_WORDS) | {"games"}

    def word(self, syllables: int = 3) -> str:
        rng = self.rng
        while True:
            w = "".join(rng.choice(self.ONSETS) + rng.choice(self.VOWELS)
                        for _ in range(syllables)) + rng.choice(self.CODAS)
            if w not in self.used:
                self.used.add(w)
                return w


@dataclass
class _Event:
    hashtag: str
    name: str          # surface word of the target
    target: str
    host: str
    host_word: str
    participants: list[tuple[str, str]]  # (title, surface)
    fillers: list[str]
    venues: list[str]
    topic: list[str]
    peak: int          # day index of the burst peak


class _Writer:
    def __init__(self, spec: WorldSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.names = _Names(rng)
        self.pages: list[tuple[str, str]] = []
        self.anchors: list[tuple[str, str, int]] = []
        self.links: list[tuple[str, str]] = []
        self.revisions: list[dict] = []
        self.pageviews: list[tuple[str, date, int]] = []
        self.gold: list[tuple[str, str, int]] = []

    def title(self, words: int = 2) -> str:
        return " ".join(self.names.word().capitalize() for _ in range(words))

    def article(self, title: str, text: str | None, day: date | None = None):
        self.pages.append((title, "ARTICLE"))
        if text is not None:
            when = (day or START - timedelta(days=30)).isoformat()
            self.revisions.append({"title": title, "timestamp": when + "T00:00:00Z",
                                   "text": text})

    def words(self, pool, n):
        return " ".join(self.rng.choice(pool) for _ in range(n))

    # ---- wiki side -------------------------------------------------------

    def plant_event(self, shape: EventShape, peak: int) -> _Event:
        rng = self.rng
        spec = self.spec
        name = self.names.word()
        host_word = self.names.word()
        ev = _Event(
            hashtag=name + "games", name=name, target=name.capitalize() + " Games",
            host=host_word.capitalize(), host_word=host_word,
            participants=[], fillers=[], venues=[],
            topic=[self.names.word(2) for _ in range(10)], peak=peak)
        for _ in range(shape.participants):
            title = self.title(2)
            ev.participants.append((title, title.lower()))
        ev.venues = [f"{ev.host} {self.names.word(2).capitalize()} Arena"
                     for _ in range(VENUES)]
        people = [t for t, _ in ev.participants]

        # Articles and their first revisions.
        grown = f"the {name} games are held in {host_word} {self.words(NOISE_WORDS, 6)}"
        self.article(ev.target, grown)
        self.article(ev.host, f"{host_word} {host_word} city coast resort "
                              f"{self.words(NOISE_WORDS, 8)}")
        for t in people + ev.venues:
            self.article(t, f"{t.lower()} {self.words(ev.topic, 2)} "
                            f"{self.words(NOISE_WORDS, 6)}")

        # The target's article grows with the event's vocabulary during the burst.
        for off in range(-2, 3):
            grown += " " + self.words(ev.topic, 24) + " " + name
            day = START + timedelta(days=peak + off)
            self.revisions.append({"title": ev.target,
                                   "timestamp": f"{day.isoformat()}T0{off + 3}:00:00Z",
                                   "text": grown})

        # Lexicon: the target owns its name; names are ambiguous.
        self.anchors += [(name, ev.target, 40), (name + " games", ev.target, 25),
                         (name, ev.host, 6), (host_word, ev.host, 15),
                         (host_word, ev.target, 10)]
        seeds = []
        for title, surface in ev.participants:
            self.anchors.append((surface, title, 5))
            seeds.append(title)
            for _ in range(shape.fillers_per_name):
                filler = f"{title.split()[1]} {self.names.word(2).capitalize()}"
                self.article(filler, f"{filler.lower()} {self.words(NOISE_WORDS, 5)}")
                self.anchors.append((surface, filler, 2))
                ev.fillers.append(filler)
                seeds.append(filler)

        # Link structure that funnels influence toward the target.
        n = len(people)
        for i, p in enumerate(people):
            self.links += [(ev.target, p), (p, ev.target), (p, ev.host),
                           (p, ev.venues[i % len(ev.venues)])]
            for j in (1, 2):
                if n > j:
                    self.links.append((p, people[(i + j) % n]))
        for k, v in enumerate(ev.venues):
            self.links += [(ev.target, v), (v, ev.target), (v, ev.host),
                           (ev.host, v)]
            for j in range(3):
                self.links.append((v, people[(3 * k + j) % n]))
        self.links += [(ev.host, ev.target), (ev.target, ev.host)]

        # Leaf articles hanging off every participant and filler.
        for s in seeds:
            leaves = [f"{s} {self.names.word(2).capitalize()}"
                      for _ in range(shape.leaves)]
            for i, leaf in enumerate(leaves):
                self.article(leaf, f"{leaf.lower()} {self.words(NOISE_WORDS, 4)}"
                             if i % 2 == 0 else None)
                self.links.append((s, leaf))
                if shape.chained:
                    self.links.append((leaf, s))
                    if i + 1 < len(leaves):
                        self.links.append((leaf, leaves[i + 1]))

        # Page views: the target follows the burst, the host mildly.
        for d in range(spec.days):
            day = START + timedelta(days=d)
            extra = burst_extra(shape, peak, d)
            self.pageviews.append((ev.target, day, 3 * (EVENT_BASELINE + extra)
                                   + rng.randint(0, 5)))
            self.pageviews.append((ev.host, day, 120 + extra // 3 + rng.randint(0, 20)))
            for p in people[:3]:
                self.pageviews.append((p, day, 15 + rng.randint(0, 6)))

        self.gold.append((ev.hashtag, ev.target, 2))
        for t in [ev.host] + people:
            self.gold.append((ev.hashtag, t, 1))
        for t in ev.fillers:
            self.gold.append((ev.hashtag, t, 0))
        return ev

    def background(self):
        """Unrelated articles: they make the snapshot bigger, never candidates."""
        titles = [self.title(2) for _ in range(self.spec.background_entities)]
        rng = self.rng
        for i, t in enumerate(titles):
            self.article(t, f"{t.lower()} {self.words(NOISE_WORDS, 8)}"
                         if i % 3 else None)
            self.links.append((t, titles[(i + 1) % len(titles)]))
            self.links.append((t, rng.choice(titles)))
            if i % 4 == 0:
                self.anchors.append((t.split()[0].lower(), t, rng.randint(1, 9)))
        redirect = titles[0] + " Redirect"
        self.pages.append((redirect, f"REDIRECT:{titles[0]}"))
        # Rows the snapshot builder drops and counts.
        for i in range(3):
            self.links.append((titles[i], f"Missing Page {i}"))
            self.anchors.append((f"ghost {i}", f"Missing Page {i}", 3))
            self.pageviews.append((f"Missing Page {i}", START, 5))

    # ---- tweet side ------------------------------------------------------

    def _extra_token(self) -> str:
        return self.rng.choice(EXTRAS).format(w=self.rng.choice(NOISE_WORDS))

    def event_tweet(self, ev: _Event) -> str:
        rng = self.rng
        chunks = [rng.choice(NOISE_WORDS), rng.choice(ev.topic), rng.choice(ev.topic)]
        if rng.random() < 0.9:
            chunks.append(rng.choice(ev.participants)[1])
        if rng.random() < 0.7:
            chunks.append(ev.name)
        if rng.random() < 0.3:
            chunks.append(ev.host_word)
        if rng.random() < 0.2:
            chunks.append(self._extra_token())
        rng.shuffle(chunks)
        chunks.insert(rng.randint(0, len(chunks)), "#" + ev.hashtag)
        return " ".join(chunks)

    def filler_tweet(self, tag: str | None, vocab) -> str:
        rng = self.rng
        words = rng.choices(vocab, k=4 + int(rng.random() * 6))
        if tag is not None:
            words.insert(int(rng.random() * len(words)), "#" + tag)
        if rng.random() < 0.1:
            words.append(self._extra_token())
        return " ".join(words)


def _daily_counts(spec: WorldSpec, rng: random.Random, events):
    """Per-day lists of (hashtag kind, index) for every tweet to write."""
    per_day: list[list] = [[] for _ in range(spec.days)]
    for e, (ev, shape) in enumerate(zip(events, spec.events)):
        for d in range(spec.days):
            per_day[d] += [("event", e)] * (EVENT_BASELINE + burst_extra(shape, ev.peak, d))
    for g in range(spec.evergreen):
        for d in range(spec.days):
            base = 140 if (d + g) % 7 in (5, 6) else 50
            per_day[d] += [("evergreen", g)] * (base + rng.randint(-5, 5))
    for t in range(spec.longtail):
        for _ in range(spec.longtail_tweets):
            per_day[rng.randrange(spec.days)].append(("longtail", t))
    for _ in range(spec.plain_tweets):
        per_day[rng.randrange(spec.days)].append(("plain", 0))
    return per_day


def build_world(workload: str, seed: int, out_dir, size: str = "full") -> dict:
    """Write one world to out_dir and return its manifest."""
    spec = SPECS[workload][size]
    rng = random.Random(zlib.crc32(f"{workload}/{size}/{seed}".encode()))
    writer = _Writer(spec, rng)

    n_events = len(spec.events)
    margin = 5
    stride = (spec.days - 2 * margin) / n_events
    events = []
    for i, shape in enumerate(spec.events):
        peak = margin + int(stride * i + stride / 2) + rng.randint(-1, 1)
        events.append(writer.plant_event(shape, peak))
    writer.background()

    evergreen = [writer.names.word(2) + "daily" for _ in range(spec.evergreen)]
    longtail = [f"{writer.names.word(2)}{t}" for t in range(spec.longtail)]
    evergreen_vocab = [writer.names.word(2) for _ in range(40)] + list(NOISE_WORDS)

    out = Path(out_dir)
    (out / "wiki").mkdir(parents=True, exist_ok=True)
    per_day = _daily_counts(spec, rng, events)
    serial = 0
    with open(out / "tweets.jsonl", "w", encoding="utf-8") as fh:
        for d, items in enumerate(per_day):
            rng.shuffle(items)
            day = (START + timedelta(days=d)).isoformat()
            for kind, idx in items:
                if kind == "event":
                    text = writer.event_tweet(events[idx])
                elif kind == "evergreen":
                    text = writer.filler_tweet(evergreen[idx], evergreen_vocab)
                elif kind == "longtail":
                    text = writer.filler_tweet(longtail[idx], NOISE_WORDS)
                else:
                    text = writer.filler_tweet(None, evergreen_vocab)
                secs = int(rng.random() * 86_400)
                # The texts hold no quote, backslash or non-ASCII character,
                # so the record is valid JSON without escaping.
                line = (f'{{"id": "{serial:09d}", "timestamp": "{day}T{secs // 3600:02d}:'
                        f'{secs // 60 % 60:02d}:{secs % 60:02d}Z", "text": "{text}", '
                        f'"user_id": "u{int(rng.random() * spec.users)}"}}\n')
                fh.write(line)
                if serial % 1000 == 999:  # a resent record: counted as a duplicate
                    fh.write(line)
                if serial % 5000 == 4999:  # a record without text: rejected
                    fh.write(json.dumps({"id": f"x{serial}", "timestamp": day}) + "\n")
                serial += 1

    wiki = out / "wiki"
    with open(wiki / "pages.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{t}\t{k}\n" for t, k in writer.pages)
    with open(wiki / "anchors.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}\t{t}\t{n}\n" for a, t, n in writer.anchors)
    with open(wiki / "links.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in writer.links)
    with open(wiki / "revisions.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in writer.revisions)
    with open(wiki / "pageviews.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{t}\t{d.isoformat()}\t{n}\n" for t, d, n in writer.pageviews)
    with open(out / "gold.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{t}\t{g}\n" for h, t, g in writer.gold)

    manifest = {
        "workload": workload, "size": size, "seed": seed,
        "spec": asdict(spec),
        "tweets": serial,
        "events": [{"hashtag": e.hashtag, "target": e.target,
                    "peak": (START + timedelta(days=e.peak)).isoformat()}
                   for e in events],
        "evergreen": evergreen,
        "longtail": len(longtail),
        "entities": sum(1 for _, k in writer.pages if k == "ARTICLE"),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    m = build_world(args.workload, args.seed, args.out, args.size)
    print(f"{m['tweets']} tweets, {m['entities']} entities, "
          f"{len(m['events'])} events -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
