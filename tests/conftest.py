import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from world import (build_corpus, build_wiki, gold_labels, tweet_records,  # noqa: E402
                   wiki_tables)

# `pytest --hypothesis-profile=ci`: more examples, for the equivalence oracles
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def world_corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def world_snapshot():
    return build_wiki()


@pytest.fixture(scope="module")
def datadir(tmp_path_factory):
    """World fixture written out in the external file formats."""
    root = tmp_path_factory.mktemp("clidata")

    tweets = root / "tweets.jsonl"
    with open(tweets, "w", encoding="utf-8") as fh:
        for rec in tweet_records():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    wiki = root / "wiki"
    wiki.mkdir()
    pages, anchors, links, revisions, pageviews = wiki_tables()
    (wiki / "pages.tsv").write_text(
        "".join(f"{t}\t{f}\n" for t, f in pages), encoding="utf-8")
    (wiki / "anchors.tsv").write_text(
        "".join(f"{a}\t{t}\t{n}\n" for a, t, n in anchors), encoding="utf-8")
    (wiki / "links.tsv").write_text(
        "".join(f"{s}\t{t}\n" for s, t in links), encoding="utf-8")
    with open(wiki / "revisions.jsonl", "w", encoding="utf-8") as fh:
        for rec in revisions:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    (wiki / "pageviews.tsv").write_text(
        "".join(f"{t}\t{d.isoformat()}\t{n}\n" for t, d, n in pageviews),
        encoding="utf-8")

    gold = root / "gold.tsv"
    gold.write_text("".join(f"{tag}\t{title}\t{grade}\n"
                            for (tag, title), grade in gold_labels().items()),
                    encoding="utf-8")

    config = root / "config.json"
    config.write_text(json.dumps({
        "sample_size": 500,
        "min_users": 50,
        "variance_threshold": 100,
        "trending_fraction_threshold": 5,
    }), encoding="utf-8")
    return root
