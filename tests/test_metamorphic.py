"""Whole-pipeline metamorphic relations: two inputs that differ only in
what the output must not depend on give byte-identical annotations.

Each relation compares two runs of the same code, so it needs no oracle.
The id relations run on the fixture of tests/world.py and on the tiny
seed-1 event_annotate world of perfbench/world.py, annotated with a
sample smaller than every burst, so the ids decide which tweets are
sampled.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendtag.cli import main
from trendtag.corpus import BurstConfig, detect_bursts, load_tweets_jsonl
from test_golden import perfbench_worlds


SAMPLE = 150  # below the 1600-tweet #sochi2014 burst and every tiny-world burst


def fixture_args(datadir) -> list[str]:
    return ["--wiki-dir", str(datadir / "wiki"), "--config", str(datadir / "config.json"),
            "--hashtag", "sochi2014", "--hashtag", "randomchat"]


def annotate(args, tweets: Path) -> bytes:
    """The annotations of tweets, sampled SAMPLE at a time; args are the
    annotate arguments besides --tweets, --sample-size and --out."""
    out = tweets.with_name(tweets.stem + "-annotations.jsonl")
    assert main(["annotate", "--tweets", str(tweets), *args,
                 "--sample-size", str(SAMPLE), "--out", str(out)]) == 0
    return out.read_bytes()


class TestShuffledTweets:
    """The order of the lines of tweets.jsonl does not reach the output:
    the sample is drawn from each burst's tweets sorted by id."""

    @pytest.fixture(scope="class")
    def unshuffled(self, datadir):
        corpus, _ = load_tweets_jsonl(datadir / "tweets.jsonl")
        burst = detect_bursts(corpus, "sochi2014", BurstConfig(
            min_users=50, variance_threshold=100, trending_fraction_threshold=5))[0]
        assert len(burst.tweet_ids) > SAMPLE
        return annotate(fixture_args(datadir), datadir / "tweets.jsonl")

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=max(10, settings.default.max_examples // 10),
              deadline=None)
    def test_annotations_byte_identical(self, datadir, unshuffled, seed):
        lines = (datadir / "tweets.jsonl").read_text(encoding="utf-8").splitlines(True)
        random.Random(seed).shuffle(lines)
        with tempfile.TemporaryDirectory() as tmp:
            tweets = Path(tmp) / "tweets.jsonl"
            tweets.write_text("".join(lines), encoding="utf-8")
            assert annotate(fixture_args(datadir), tweets) == unshuffled


@pytest.fixture(scope="module")
def worlds(datadir, tmp_path_factory):
    """World name -> (its tweets.jsonl, its annotate arguments)."""
    root = tmp_path_factory.mktemp("event_annotate")
    manifest = perfbench_worlds().build_world("event_annotate", 1, root, "tiny")
    hashtags = [e["hashtag"] for e in manifest["events"]]
    corpus, _ = load_tweets_jsonl(root / "tweets.jsonl")
    assert min(len(detect_bursts(corpus, tag, force=True)[0].rows)
               for tag in hashtags) > SAMPLE
    tiny = ["--wiki-dir", str(root / "wiki"),
            *(arg for tag in hashtags for arg in ("--hashtag", tag))]
    return {"fixture": (datadir / "tweets.jsonl", fixture_args(datadir)),
            "event_annotate": (root / "tweets.jsonl", tiny)}


def rewrite_ids(src: Path, dst: Path, new_id) -> Path:
    """src with each string id replaced by new_id(id); every other line,
    the malformed ones included, is copied as it is."""
    with open(dst, "wb") as out:
        for line in src.read_bytes().splitlines(True):
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if isinstance(rec, dict) and isinstance(rec.get("id"), str):
                line = json.dumps({**rec, "id": new_id(rec["id"])}).encode() + b"\n"
            out.write(line)
    return dst


def as_int(tid: str):
    """The fixture's t0000042 and the benchmark world's 000000042 as 42;
    an id with other letters is kept."""
    digits = tid.removeprefix("t")
    return int(digits) if digits.isdigit() else tid


WORLDS = ["fixture", "event_annotate"]


class TestIdRelations:
    @pytest.mark.parametrize("world", WORLDS)
    @pytest.mark.parametrize("prefix", ["t", "\u00e9"])
    def test_prefixed_ids_byte_identical(self, worlds, tmp_path, world, prefix):
        """A prefix shared by every id keeps their order, so the same
        tweets are sampled."""
        tweets, args = worlds[world]
        prefixed = rewrite_ids(tweets, tmp_path / "prefixed.jsonl",
                               lambda tid: prefix + tid)
        assert annotate(args, prefixed) == annotate(args, tweets)

    @pytest.mark.parametrize("world", WORLDS)
    def test_json_number_ids_equal_string_ids(self, worlds, tmp_path, world):
        """An id written as the JSON number 42 is the id "42"."""
        tweets, args = worlds[world]
        numbers = rewrite_ids(tweets, tmp_path / "numbers.jsonl", as_int)
        strings = rewrite_ids(tweets, tmp_path / "strings.jsonl",
                              lambda tid: str(as_int(tid)))
        assert b'"id": 42,' in numbers.read_bytes()
        assert b'"id": "42",' in strings.read_bytes()
        assert annotate(args, numbers) == annotate(args, strings)
