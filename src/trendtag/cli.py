"""Command-line entry points: ingest, bursts, annotate, evaluate, sweep."""

from __future__ import annotations

import argparse
import json
import logging
import pickle
import sys
from dataclasses import fields, replace

from .corpus import BurstConfig, load_tweets_jsonl
from .influence import IPLConfig
from .pipeline import (PipelineConfig, evaluate, load_gold, read_annotations,
                       run_annotate, trending_hashtags, write_annotations)
from .wiki import load_snapshot

log = logging.getLogger(__name__)

_CONFIG_FLAGS = {
    "k": int, "w": int, "tau": float, "lam": float, "mu": float,
    "epsilon": float, "shift_range": int, "sample_size": int,
    "expansion_cap": int, "seed": int, "relevance_threshold": int,
}
_SECTIONS = {"burst": BurstConfig, "learner": IPLConfig}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, typ in _CONFIG_FLAGS.items():
        flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=typ, default=None)


def _build_config(args) -> PipelineConfig:
    """Config file values, overridden by flags, each sent to the config
    that declares it: `burst` (BurstConfig), `learner` (IPLConfig) or
    PipelineConfig itself."""
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise SystemExit("bad config: the file must hold a JSON object")
        for key, val in loaded.items():
            values["lam" if key == "lambda" else key] = val
    for name in _CONFIG_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
    home = {f.name: None for f in fields(PipelineConfig)
            if f.name not in _SECTIONS}
    for section, cls in _SECTIONS.items():
        home.update({f.name: section for f in fields(cls)})
    grouped: dict = {section: {} for section in (None, *_SECTIONS)}
    for key, val in values.items():
        if key not in home:
            raise SystemExit(f"unknown config key: {key}")
        grouped[home[key]][key] = val
    try:
        sections = {section: cls(**grouped[section])
                    for section, cls in _SECTIONS.items()}
        return PipelineConfig(**grouped[None], **sections)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad config: {exc}") from exc


def _load_corpus(args):
    corpus, report = load_tweets_jsonl(args.tweets)
    for cause in ("bad_json", "missing_field", "bad_timestamp", "bad_text",
                  "duplicates"):
        if count := getattr(report, cause):
            log.warning("%d tweet records skipped: %s", count,
                        cause.replace("_", " "))
    return corpus


def cmd_ingest(args) -> int:
    snapshot = load_snapshot(args.wiki_dir)
    print(f"entities: {snapshot.entity_count}")
    print(f"lexicon surface forms: {len(snapshot.lexicon)}")
    print(f"entities with revisions: {len(snapshot.revisions)}")
    print(f"entities with page views: {len(snapshot.pageviews)}")
    r = snapshot.report
    print(f"dropped: pages={r.dropped_pages} anchors={r.dropped_anchors} "
          f"links={r.dropped_links} revisions={r.dropped_revisions} "
          f"pageviews={r.dropped_pageviews}")
    if args.out:
        with open(args.out, "wb") as fh:
            pickle.dump(snapshot, fh)
        print(f"snapshot written to {args.out}")
    return 0


def cmd_bursts(args) -> int:
    config = _build_config(args)
    corpus = _load_corpus(args)
    for burst in trending_hashtags(corpus, config):
        print(f"#{burst.hashtag}\t{burst.window_start}\t{burst.window_end}\t"
              f"peak={burst.peak_day}\tp={burst.peak_outlier_fraction:.2f}\t"
              f"tweets={len(burst.tweet_ids)}")
    return 0


def cmd_annotate(args) -> int:
    config = _build_config(args)
    corpus = _load_corpus(args)
    snapshot = load_snapshot(args.wiki_dir)
    hashtags = args.hashtag if args.hashtag else None
    annotations = run_annotate(corpus, snapshot, config, hashtags)
    if args.out:
        write_annotations(annotations, args.out)
    else:
        for ann in annotations:
            print(json.dumps(ann.to_json_obj(), sort_keys=True,
                             ensure_ascii=False))
    return 0


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    annotations = read_annotations(args.annotations)
    gold = load_gold(args.gold)
    report = evaluate(annotations, gold, config.relevance_threshold,
                      config.map_cutoff)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sweep(args) -> int:
    config = _build_config(args)
    try:
        windows = [replace(config.burst, w=int(w))
                   for w in args.sweep_w.split(",")]
    except ValueError as exc:
        raise SystemExit(f"bad config: {exc}") from exc
    corpus = _load_corpus(args)
    snapshot = load_snapshot(args.wiki_dir)
    gold = load_gold(args.gold) if args.gold else None
    hashtags = args.hashtag if args.hashtag else None
    sweep_report = {}
    for burst in windows:
        config.burst = burst
        annotations = list(run_annotate(corpus, snapshot, config, hashtags))
        entry: dict = {
            "annotated": sum(1 for a in annotations if a.entities),
            "total": len(annotations),
        }
        if gold is not None:
            entry["metrics"] = evaluate(annotations, gold,
                                        config.relevance_threshold,
                                        config.map_cutoff)["macro"]
        sweep_report[str(burst.w)] = entry
    text = json.dumps(sweep_report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendtag",
        description="Annotate trending hashtags with Wikipedia entities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build and summarize snapshot stores")
    p.add_argument("--wiki-dir", required=True)
    p.add_argument("--out", help="export the built snapshot as a pickle "
                   "(trendtag never reads it back)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("bursts", help="list trending hashtags and their windows")
    p.add_argument("--tweets", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_bursts)

    p = sub.add_parser("annotate", help="annotate hashtags end to end")
    p.add_argument("--tweets", required=True)
    p.add_argument("--wiki-dir", required=True)
    p.add_argument("--hashtag", action="append",
                   help="explicit hashtag (repeatable); bypasses trending filter")
    p.add_argument("--out", help="write annotations.jsonl here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score annotations against gold labels")
    p.add_argument("--annotations", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="re-run annotation across burst window sizes")
    p.add_argument("--tweets", required=True)
    p.add_argument("--wiki-dir", required=True)
    p.add_argument("--hashtag", action="append")
    p.add_argument("--sweep-w", required=True, help="comma-separated window sizes")
    p.add_argument("--gold")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
