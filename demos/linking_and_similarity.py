"""Entity linking and the three similarity signals, step by step.

A tiny hand-built Wikipedia snapshot and a handful of tweets are enough
to watch every stage: hashtag segmentation, longest-match mention
detection, link priors, candidate expansion, and the mention / context /
temporal similarity scores.

Run with: python3 demos/linking_and_similarity.py
"""

from collections import Counter
from datetime import date

from trendtag import (build_snapshot, context_similarity, language_model,
                      link_prior, load_tweets, longest_match, mention_similarity,
                      segment_hashtag, temporal_context, temporal_similarity,
                      tweet_tokens, view_series, BurstConfig, build_candidates,
                      detect_bursts, hashtag_series)


def make_snapshot():
    pages = [
        ("Winter Olympics", "ARTICLE"),
        ("Sochi", "ARTICLE"),
        ("Figure skating", "ARTICLE"),
        ("Sochi 2014", "REDIRECT:Winter Olympics"),
    ]
    anchors = [
        ("the games", "Winter Olympics", 12),
        ("sochi", "Winter Olympics", 8),
        ("sochi", "Sochi", 4),
        ("skating", "Figure skating", 6),
    ]
    links = [
        ("Sochi", "Winter Olympics"),
        ("Figure skating", "Winter Olympics"),
        ("Winter Olympics", "Sochi"),
        ("Winter Olympics", "Figure skating"),
    ]
    revisions = [
        {"title": "Winter Olympics", "timestamp": "2014-01-10T00:00:00Z",
         "text": "international winter sport competition held every four years"},
        # an edit during the burst week adds tweet-flavored vocabulary
        {"title": "Winter Olympics", "timestamp": "2014-02-12T09:00:00Z",
         "text": "international winter sport competition held every four years "
                 "sochi gold medal ceremony skating final"},
        {"title": "Sochi", "timestamp": "2014-01-03T00:00:00Z",
         "text": "resort city on the black sea coast"},
    ]
    pageviews = []
    for dom, views in enumerate([30, 30, 200, 500, 250, 60, 30]):
        pageviews.append(("Winter Olympics", date(2014, 2, 10 + dom), views))
        pageviews.append(("Sochi", date(2014, 2, 10 + dom), 40))
    return build_snapshot(pages, anchors, links, revisions, pageviews)


def make_corpus():
    texts = ["watch sochi gold medal @fan http://e.co #sochi2014",
             "skating final tonight #sochi2014 :)",
             "sochi ceremony was great #sochi2014"]
    records = []
    for offset, count in enumerate([1, 1, 9, 25, 12, 2, 1]):
        for j in range(count):
            records.append({"id": f"t{offset}-{j}",
                            "timestamp": f"2014-02-{10 + offset:02d}T12:00:00Z",
                            "text": texts[(offset + j) % len(texts)],
                            "user_id": f"u{j}"})
    corpus, _ = load_tweets(records)
    return corpus


def main():
    snapshot = make_snapshot()
    corpus = make_corpus()

    print("== Hashtag segmentation and tweet cleaning ==")
    print("segment 'sochi2014' ->",
          segment_hashtag("sochi2014", snapshot.unigram_vocab))
    raw = "watch sochi gold medal @fan http://e.co #sochi2014"
    tokens = tweet_tokens(raw, snapshot.unigram_vocab)
    print(f"tokens of {raw!r} -> {tokens}")

    print("\n== Longest-match mention detection ==")
    for mention, start in longest_match(tokens, snapshot.lexicon):
        prior = link_prior(snapshot, mention)
        pretty = {e: round(p, 3) for e, p in prior.items()}
        print(f"  {mention!r} at token {start}: link prior {pretty}")

    print("\n== Candidate set for the burst ==")
    config = BurstConfig(min_users=1, variance_threshold=1.0,
                         trending_fraction_threshold=1.0, w=7)
    burst = detect_bursts(corpus, "sochi2014", config)[0]
    candidates = build_candidates(burst, corpus, snapshot)
    for entity in candidates.entities:
        print(f"  {entity}: {candidates.provenance[entity]}, "
              f"mentions {dict(candidates.mention_counts.get(entity, {}))}")

    print("\n== Mention similarity f_m ==")
    for entity, score in sorted(mention_similarity(candidates).items(),
                                key=lambda kv: -kv[1]):
        print(f"  f_m({entity}) = {score:.4f}")

    print("\n== Context similarity f_c ==")
    tweet_lm = language_model(candidates.sample_token_counts)
    for entity in candidates.entities:
        added = temporal_context(snapshot, entity, burst.window_start,
                                 burst.window_end)
        background = Counter(snapshot.latest_text(entity).split())
        fc = context_similarity(added, background, tweet_lm)
        print(f"  f_c({entity}) = {fc:.4f}  "
              f"(tokens added during the window: {dict(added)})")

    print("\n== Temporal similarity f_t ==")
    ts_h = hashtag_series(corpus, "sochi2014", burst.window_start,
                          burst.window_end)
    print(f"  hashtag series {[int(v) for v in ts_h]}")
    for entity in candidates.entities:
        ts_e = view_series(snapshot, entity, burst.window_start,
                           burst.window_end)
        ft = temporal_similarity(ts_h, ts_e)
        print(f"  f_t({entity}) = {ft:.4f}  "
              f"(page views {[int(v) for v in ts_e]})")


if __name__ == "__main__":
    main()
