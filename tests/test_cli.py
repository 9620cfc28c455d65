"""Command-line interface and on-disk file formats."""

import json
import pickle
import random
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendtag.cli as cli
from trendtag.cli import _build_config, build_parser, main
from trendtag.corpus import BurstConfig, detect_bursts, load_tweets_jsonl
from trendtag.influence import IPLConfig
from trendtag.pipeline import PipelineConfig, read_annotations
from world import TARGET, gold_labels, tweet_records, tweet_rows, wiki_tables


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


class TestIngest:
    def test_summary_and_snapshot_pickle(self, datadir, tmp_path, capsys):
        out = tmp_path / "snapshot.pkl"
        assert main(["ingest", "--wiki-dir", str(datadir / "wiki"),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "entities: 90" in printed
        with open(out, "rb") as fh:
            snapshot = pickle.load(fh)
        assert TARGET in snapshot.entities

    def test_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="bad wiki-dir: .*No such file"):
            main(["ingest", "--wiki-dir", str(tmp_path / "nope")])


class TestMissingInputPath:
    @pytest.mark.parametrize("flag", ["--config", "--tweets", "--wiki-dir",
                                      "--annotations", "--gold"])
    def test_named_in_the_exit_message(self, datadir, tmp_path, flag):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("", encoding="utf-8")
        inputs = {"--config": datadir / "config.json",
                  "--tweets": datadir / "tweets.jsonl",
                  "--wiki-dir": datadir / "wiki",
                  "--annotations": annotations,
                  "--gold": datadir / "gold.tsv"}
        missing = tmp_path / "missing"
        inputs[flag] = missing
        command = (["evaluate", "--annotations", "--gold"]
                   if flag in ("--annotations", "--gold")
                   else ["annotate", "--config", "--tweets", "--wiki-dir"])
        argv = command[:1] + [arg for f in command[1:]
                              for arg in (f, str(inputs[f]))]
        what = re.escape(f"bad {flag[2:]}: {missing}")
        with pytest.raises(SystemExit, match=f"^{what}.*: No such file"):
            main(argv)


class TestBursts:
    def test_lists_trending_hashtag(self, datadir, capsys):
        assert main(["bursts", "--tweets", str(datadir / "tweets.jsonl"),
                     "--config", str(datadir / "config.json")]) == 0
        printed = capsys.readouterr().out
        assert "#sochi2014" in printed
        assert "#randomchat" not in printed

    def test_skipped_records_logged_by_cause(self, tmp_path, caplog, capsys):
        ok = {"id": "a", "timestamp": "2014-02-01T10:00:00Z", "text": "ok #x",
              "user_id": "u"}
        lines = [
            json.dumps(ok),
            '{"id": "b", not json',                         # bad JSON
            '["c"]',                                        # not an object
            json.dumps({k: v for k, v in ok.items() if k != "user_id"}),
            json.dumps(dict(ok, id="e", timestamp="nonsense")),
            json.dumps(dict(ok, id="f", text=5)),
            json.dumps(dict(ok, text="again #y")),          # duplicate id
        ]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus, report = load_tweets_jsonl(tweets)
        assert (report.accepted, report.duplicates) == (1, 1)
        assert (report.bad_json, report.missing_field, report.bad_timestamp,
                report.bad_text) == (2, 1, 1, 1)
        assert report.rejected == 5
        assert [(t.id, t.hashtags) for t in tweet_rows(corpus)] == [("a", ("x",))]
        assert main(["bursts", "--tweets", str(tweets)]) == 0
        warnings = sorted(r.getMessage() for r in caplog.records
                          if r.name == "trendtag.cli")
        assert warnings == [
            "1 tweet records skipped: bad text",
            "1 tweet records skipped: bad timestamp",
            "1 tweet records skipped: duplicates",
            "1 tweet records skipped: missing field",
            "2 tweet records skipped: bad json",
        ]

    def test_unknown_config_key_rejected(self, datadir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mystery": 1}', encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["bursts", "--tweets", str(datadir / "tweets.jsonl"),
                  "--config", str(bad)])


class TestAnnotate:
    def test_end_to_end_with_wiki_dir(self, datadir, tmp_path):
        out = tmp_path / "annotations.jsonl"
        assert main(["annotate", "--tweets", str(datadir / "tweets.jsonl"),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--config", str(datadir / "config.json"),
                     "--out", str(out)]) == 0
        annotations = read_annotations(out)
        assert [a.hashtag for a in annotations] == ["sochi2014"]
        assert annotations[0].entities[0].title == TARGET

    def test_explicit_hashtag(self, datadir, capsys):
        assert main(["annotate", "--tweets", str(datadir / "tweets.jsonl"),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--hashtag", "#randomchat",
                     "--sample-size", "200"]) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["hashtag"] == "randomchat"
        assert obj.get("reason") != "not-trending"

    def test_stdout_lines_equal_out_file(self, datadir, tmp_path, capsys):
        out = tmp_path / "annotations.jsonl"
        argv = ["annotate", "--tweets", str(datadir / "tweets.jsonl"),
                "--wiki-dir", str(datadir / "wiki"),
                "--config", str(datadir / "config.json"),
                "--hashtag", "sochi2014", "--hashtag", "randomchat"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert printed.encode("utf-8") == out.read_bytes()
        assert len(printed.splitlines()) == 2

    def test_flag_overrides_config_file(self, datadir, tmp_path):
        out = tmp_path / "annotations.jsonl"
        assert main(["annotate", "--tweets", str(datadir / "tweets.jsonl"),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--config", str(datadir / "config.json"),
                     "--k", "3", "--out", str(out)]) == 0
        annotations = read_annotations(out)
        assert len(annotations[0].entities) == 3

    def test_requires_wiki_dir(self, datadir, tmp_path, capsys):
        tweets = ["--tweets", str(datadir / "tweets.jsonl")]
        for argv in (["annotate", *tweets], ["sweep", *tweets, "--set", "w=5"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2  # argparse usage error
            assert "--wiki-dir" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:  # the pickle loader is gone
                main([*argv, "--wiki-dir", str(datadir / "wiki"),
                      "--snapshot", str(tmp_path / "snapshot.pkl")])
            assert exc.value.code == 2
            assert "--snapshot" in capsys.readouterr().err


class TestShuffledTweets:
    """The order of the lines of tweets.jsonl does not reach the output:
    the sample is drawn from each burst's tweets sorted by id."""

    SAMPLE = 150  # below the 1600-tweet #sochi2014 burst, so the sample is drawn

    @classmethod
    def annotate(cls, datadir, tweets: Path) -> bytes:
        out = tweets.with_name("annotations.jsonl")
        assert main(["annotate", "--tweets", str(tweets),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--config", str(datadir / "config.json"),
                     "--hashtag", "sochi2014", "--hashtag", "randomchat",
                     "--sample-size", str(cls.SAMPLE), "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.fixture(scope="class")
    def unshuffled(self, datadir):
        corpus, _ = load_tweets_jsonl(datadir / "tweets.jsonl")
        burst = detect_bursts(corpus, "sochi2014", BurstConfig(
            min_users=50, variance_threshold=100, trending_fraction_threshold=5))[0]
        assert len(burst.tweet_ids) > self.SAMPLE
        return self.annotate(datadir, datadir / "tweets.jsonl")

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=max(10, settings.default.max_examples // 10),
              deadline=None)
    def test_annotations_byte_identical(self, datadir, unshuffled, seed):
        lines = (datadir / "tweets.jsonl").read_text(encoding="utf-8").splitlines(True)
        random.Random(seed).shuffle(lines)
        with tempfile.TemporaryDirectory() as tmp:
            tweets = Path(tmp) / "tweets.jsonl"
            tweets.write_text("".join(lines), encoding="utf-8")
            assert self.annotate(datadir, tweets) == unshuffled


class TestConfigRouting:
    @staticmethod
    def build(*argv):
        args = build_parser().parse_args(["bursts", "--tweets", "t.jsonl",
                                          *argv])
        return _build_config(args)

    @staticmethod
    def config_file(tmp_path, values):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return str(path)

    def test_no_setting_has_two_homes(self):
        own = {f.name for f in fields(PipelineConfig)}
        burst = {f.name for f in fields(BurstConfig)}
        learner = {f.name for f in fields(IPLConfig)}
        assert not (own & burst or own & learner or burst & learner)

    def test_flags_land_in_their_config(self):
        config = self.build("--w", "5", "--k", "3", "--tau", "0.5",
                            "--mu", "0.01", "--epsilon", "1e-4",
                            "--lambda", "0.2", "--seed", "4")
        assert config.burst.w == 5
        assert config.learner == IPLConfig(k=3, tau=0.5, mu=0.01,
                                           epsilon=1e-4)
        assert (config.lam, config.seed) == (0.2, 4)

    def test_config_file_keys_land_in_their_config(self, tmp_path):
        path = self.config_file(tmp_path, {"w": 5, "mu": 0.01,
                                           "max_iterations": 7,
                                           "min_users": 3, "lambda": 0.5})
        config = self.build("--config", path)
        assert (config.burst.w, config.burst.min_users) == (5, 3)
        assert config.learner == IPLConfig(mu=0.01, max_iterations=7)
        assert config.lam == 0.5
        assert self.build("--config", path, "--w", "9").burst.w == 9

    # a valid non-default value of every setting
    VALUES = {
        "lam": 0.5, "shift_range": 2, "sample_size": 400, "expansion_cap": 9,
        "seed": 3, "relevance_threshold": 2, "map_cutoff": 10,
        "n_min": 4, "median_window_days": 31,
        "trending_fraction_threshold": 2.5, "variance_threshold": 50.0,
        "min_users": 20, "w": 5,
        "k": 3, "mu": 0.01, "epsilon": 1e-4, "max_iterations": 7, "tau": 0.5,
    }

    def test_values_cover_every_setting(self):
        sections = [PipelineConfig, BurstConfig, IPLConfig]
        names = {f.name for cls in sections for f in fields(cls)}
        assert set(self.VALUES) == names - {"burst", "learner"}
        assert len(self.VALUES) == 18

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_flag_and_file_key_agree(self, tmp_path, name):
        key = "lambda" if name == "lam" else name
        value = self.VALUES[name]
        by_flag = self.build("--" + key.replace("_", "-"), str(value))
        by_key = self.build("--config", self.config_file(tmp_path,
                                                          {key: value}))
        assert by_flag == by_key != PipelineConfig()

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"w": 5,', encoding="utf-8")
        with pytest.raises(SystemExit, match="bad config"):
            self.build("--config", str(path))

    def test_defaults_without_settings(self):
        assert self.build() == PipelineConfig()

    @pytest.mark.parametrize("key", ["mystery", "burst", "learner"])
    def test_unknown_key_rejected(self, tmp_path, key):
        with pytest.raises(SystemExit, match="unknown config key"):
            self.build("--config", self.config_file(tmp_path, {key: 1}))

    @pytest.mark.parametrize("values", [
        {"mu": 0}, {"k": "3"}, {"median_window_days": 60},
        {"sample_size": -5}, {"sample_size": 0}, {"expansion_cap": -1},
        {"shift_range": -1}, {"lambda": 2}, {"lambda": -0.1},
        {"relevance_threshold": 3}, {"map_cutoff": 0}, {"sample_size": "5"},
        {"tau": 1.5}, {"tau": -0.5}, {"tau": 1}, {"sample_size": 400.5},
        {"w": 7.5}, {"k": True}, {"tau": False}, [{"w": 5}],
        {"max_iterations": -5}])
    def test_invalid_value_rejected(self, tmp_path, values):
        with pytest.raises(SystemExit, match="bad config"):
            self.build("--config", self.config_file(tmp_path, values))

    def test_negative_max_iterations_flag_rejected(self):
        with pytest.raises(SystemExit, match="bad config"):
            self.build("--max-iterations", "-5")

    def test_int_fills_a_float_setting(self, tmp_path):
        config = self.build("--config", self.config_file(
            tmp_path, {"lambda": 1, "tau": 0, "variance_threshold": 50}))
        assert (config.lam, config.learner.tau) == (1, 0)
        assert config.burst.variance_threshold == 50

    def test_window_flag_sets_the_burst_window(self, datadir, tmp_path):
        out = tmp_path / "annotations.jsonl"
        assert main(["annotate", "--tweets", str(datadir / "tweets.jsonl"),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--config", str(datadir / "config.json"),
                     "--w", "5", "--out", str(out)]) == 0
        ann = read_annotations(out)[0]
        assert (ann.window_end - ann.window_start).days + 1 == 5


class TestEvaluate:
    def test_metrics_report(self, datadir, tmp_path, capsys):
        annotations = tmp_path / "annotations.jsonl"
        main(["annotate", "--tweets", str(datadir / "tweets.jsonl"),
              "--wiki-dir", str(datadir / "wiki"),
              "--config", str(datadir / "config.json"),
              "--out", str(annotations)])
        assert main(["evaluate", "--annotations", str(annotations),
                     "--gold", str(datadir / "gold.tsv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hashtags"]["sochi2014"]["p_at_5"] > 0
        assert 0 <= report["macro"]["map"] <= 1


    @pytest.mark.parametrize("row,problem", [
        (b"sochi2014\t2014 Winter Olympics\t\xff\n", "utf-8"),
        (b"sochi2014\t2014 Winter Olympics\n", "expected 3, got 2"),
        (b"sochi2014\t2014 Winter Olympics\t3\n", "grade must be"),
    ], ids=["not-utf8", "two-columns", "grade-3"])
    def test_bad_gold_row_named(self, tmp_path, row, problem):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"sochi2014\tSochi\t1\n" + row)
        where = re.escape(f"{gold}:2: ")
        with pytest.raises(SystemExit, match=f"bad gold: {where}.*{problem}"):
            main(["evaluate", "--annotations", str(annotations),
                  "--gold", str(gold)])

    def test_undecodable_annotation_line_named(self, datadir, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_bytes(b'{"hashtag": "\xff"}\n')
        where = re.escape(f"{annotations}:1: ")
        with pytest.raises(SystemExit, match=f"bad annotations: {where}.*utf-8"):
            main(["evaluate", "--annotations", str(annotations),
                  "--gold", str(datadir / "gold.tsv")])


class TestSweep:
    def test_window_sizes_reported(self, datadir, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--tweets", str(datadir / "tweets.jsonl"),
                     "--wiki-dir", str(datadir / "wiki"),
                     "--config", str(datadir / "config.json"),
                     "--hashtag", "sochi2014",
                     "--set", "w=5,7",
                     "--gold", str(datadir / "gold.tsv"),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(report) == ["5", "7"]
        for entry in report.values():
            assert entry["annotated"] == 1
            assert "metrics" in entry

    def test_invalid_window_rejected(self, datadir, tmp_path):
        with pytest.raises(SystemExit, match="bad config"):
            main(["sweep", "--tweets", str(datadir / "tweets.jsonl"),
                  "--wiki-dir", str(datadir / "wiki"),
                  "--set", "w=5,0", "--out", str(tmp_path / "sweep.json")])
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("key,values", [
        ("tau", "0.5,0.85"), ("lambda", "0.2,1"), ("w", "5,7"),
        ("min_users", "40,60")])
    def test_each_point_equals_its_flag(self, datadir, monkeypatch, key,
                                        values):
        seen = []
        monkeypatch.setattr(cli, "run_annotate",
                            lambda corpus, snapshot, config, hashtags:
                            seen.append(config) or [])
        common = ["sweep", "--tweets", str(datadir / "tweets.jsonl"),
                  "--wiki-dir", str(datadir / "wiki"),
                  "--config", str(datadir / "config.json"), "--seed", "2"]
        assert main([*common, "--set", f"{key}={values}"]) == 0
        flag = "--" + key.replace("_", "-")
        assert seen == [_build_config(build_parser().parse_args(
            [*common, "--set", "w=1", flag, v])) for v in values.split(",")]

    @pytest.mark.parametrize("sets", [
        ["w=0"], ["w=7.5"], ["mystery=1"], ["tau=x"], ["w"], ["w=5,"],
        ["w=5", "tau=0.5"]])
    def test_bad_set_exits_before_loading(self, datadir, tmp_path,
                                          monkeypatch, sets):
        def never(*args, **kwargs):
            raise AssertionError("an input was loaded")

        monkeypatch.setattr(cli, "load_tweets_jsonl", never)
        monkeypatch.setattr(cli, "load_snapshot", never)
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--tweets", str(datadir / "tweets.jsonl"),
                "--wiki-dir", str(datadir / "wiki"), "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        assert not out.exists()
