"""Command-line entry points: ingest, bursts, annotate, evaluate, sweep."""

from __future__ import annotations

import argparse
import json
import logging
import pickle
import sys
from dataclasses import asdict, fields, is_dataclass

from .corpus import load_tweets_jsonl
from .pipeline import (PipelineConfig, evaluate, load_gold, read_annotations,
                       run_annotate, trending_hashtags, write_annotations)
from .wiki import load_snapshot

log = logging.getLogger(__name__)

_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
             if is_dataclass(f.default_factory)}
# Every setting by its flag and file key (`lam` is `lambda` outside Python):
# its dataclass field and its PipelineConfig section (None: PipelineConfig).
_SETTINGS = {("lambda" if f.name == "lam" else f.name): (f, section)
             for section, cls in [(None, PipelineConfig), *_SECTIONS.items()]
             for f in fields(cls) if f.name not in _SECTIONS}


def _build_config(args, **override) -> PipelineConfig:
    """Config file values, then flags, then `override` (keyed as in a
    config file), each sent to the config that declares it: `burst`
    (BurstConfig), `learner` (IPLConfig) or PipelineConfig itself."""
    values: dict = {}
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise ValueError("the file must hold a JSON object")
        for key in _SETTINGS:
            if (val := getattr(args, key)) is not None:
                values[key] = val
        values.update(override)
        grouped: dict = {section: {} for section in (None, *_SECTIONS)}
        for key, val in values.items():
            if key not in _SETTINGS:
                raise SystemExit(f"unknown config key: {key}")
            f, section = _SETTINGS[key]
            grouped[section][f.name] = val
        sections = {section: cls(**grouped[section])
                    for section, cls in _SECTIONS.items()}
        return PipelineConfig(**grouped[None], **sections)
    except (TypeError, ValueError, OSError) as exc:
        raise SystemExit(f"bad config: {_reason(exc)}") from exc


def _reason(exc: Exception) -> str:
    """The message of exc; for a file error, `path: reason`."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


def _or_exit(what: str, parse, *args):
    """parse(*args), a ValueError or a file error ending the command with
    a message."""
    try:
        return parse(*args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"bad {what}: {_reason(exc)}") from exc


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_corpus(args):
    corpus, report = _or_exit("tweets", load_tweets_jsonl, args.tweets)
    for cause, count in asdict(report).items():
        if count and cause != "accepted":
            log.warning("%d tweet records skipped: %s", count,
                        cause.replace("_", " "))
    return corpus


def cmd_ingest(args) -> int:
    snapshot = _or_exit("wiki-dir", load_snapshot, args.wiki_dir)
    print(f"entities: {snapshot.entity_count}")
    print(f"lexicon surface forms: {len(snapshot.lexicon)}")
    print(f"entities with revisions: {len(snapshot.revisions)}")
    print(f"entities with page views: {len(snapshot.pageviews)}")
    print("dropped: " + " ".join(
        f"{cause.removeprefix('dropped_')}={count}"
        for cause, count in asdict(snapshot.report).items()))
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
    snapshot = _or_exit("wiki-dir", load_snapshot, args.wiki_dir)
    annotations = run_annotate(corpus, snapshot, config, args.hashtag)
    if args.out:
        write_annotations(annotations, args.out)
    else:
        for ann in annotations:
            print(ann.to_json_line())
    return 0


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    annotations = _or_exit("annotations", read_annotations, args.annotations)
    gold = _or_exit("gold", load_gold, args.gold)
    report = evaluate(annotations, gold, config.relevance_threshold,
                      config.map_cutoff)
    _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return 0


def cmd_sweep(args) -> int:
    if len(args.set) != 1:
        raise SystemExit("sweep takes exactly one --set")
    key, sep, text = args.set[0].partition("=")
    if not sep or key not in _SETTINGS:
        raise SystemExit(f"bad --set {args.set[0]!r}: expected SETTING=V1,V2,... "
                         f"with SETTING one of {', '.join(_SETTINGS)}")
    typ = type(_SETTINGS[key][0].default)
    values = [_or_exit(f"config: {key}", typ, v) for v in text.split(",")]
    # every point is built, so validated, before any input is loaded
    points = {str(v): _build_config(args, **{key: v}) for v in values}
    gold = _or_exit("gold", load_gold, args.gold) if args.gold else None
    corpus = _load_corpus(args)
    snapshot = _or_exit("wiki-dir", load_snapshot, args.wiki_dir)
    sweep_report = {}
    for point, config in points.items():
        annotations = list(run_annotate(corpus, snapshot, config, args.hashtag))
        entry: dict = {
            "annotated": sum(1 for a in annotations if a.entities),
            "total": len(annotations),
        }
        if gold is not None:
            entry["metrics"] = evaluate(annotations, gold,
                                        config.relevance_threshold,
                                        config.map_cutoff)["macro"]
        sweep_report[point] = entry
    _emit(json.dumps(sweep_report, sort_keys=True, indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendtag",
        description="Annotate trending hashtags with Wikipedia entities")
    sub = parser.add_subparsers(dest="command", required=True)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", help="JSON config file; flags override it")
    for key, (f, _) in _SETTINGS.items():
        settings.add_argument("--" + key.replace("_", "-"), dest=key,
                              type=type(f.default))
    run = argparse.ArgumentParser(add_help=False)  # annotate's and sweep's inputs
    run.add_argument("--tweets", required=True)
    run.add_argument("--wiki-dir", required=True)
    run.add_argument("--hashtag", action="append",
                     help="explicit hashtag (repeatable); bypasses trending filter")

    p = sub.add_parser("ingest", help="build and summarize snapshot stores")
    p.add_argument("--wiki-dir", required=True)
    p.add_argument("--out", help="export the built snapshot as a pickle "
                   "(trendtag never reads it back)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("bursts", parents=[settings],
                       help="list trending hashtags and their windows")
    p.add_argument("--tweets", required=True)
    p.set_defaults(func=cmd_bursts)

    p = sub.add_parser("annotate", parents=[run, settings],
                       help="annotate hashtags end to end")
    p.add_argument("--out", help="write annotations.jsonl here")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", parents=[settings],
                       help="score annotations against gold labels")
    p.add_argument("--annotations", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[run, settings],
                       help="re-run annotation across values of one setting")
    p.add_argument("--set", action="append", required=True,
                   metavar="SETTING=V1,V2,...",
                   help="the setting to sweep and its comma-separated values")
    p.add_argument("--gold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
