"""Snapshot building, lexicon priors, temporal contexts, and view series."""

import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendtag.wiki import (added_tokens, build_snapshot, link_prior,
                           load_snapshot, temporal_context, view_series)

from test_corpus import jsonl_lines
from world import incoming, outgoing


def snapshot(pages=(), anchors=(), links=(), revisions=(), pageviews=()):
    return build_snapshot(list(pages), list(anchors), list(links),
                          list(revisions), list(pageviews))


def assert_same_link_graph(a, b):
    for csr in ("in_ptr", "in_src", "out_ptr", "out_dst"):
        assert np.array_equal(getattr(a, csr), getattr(b, csr))


@pytest.fixture
def small():
    pages = [
        ("Sochi", "ARTICLE"),
        ("2014 Winter Olympics", "ARTICLE"),
        ("Russia", "ARTICLE"),
        ("Sochi 2014", "REDIRECT:2014 Winter Olympics"),
        ("Sochi (disambiguation)", "DISAMBIG"),
        ("List of Olympic cities", "LIST"),
    ]
    anchors = [
        ("sochi", "Sochi", 3),
        ("sochi", "2014 Winter Olympics", 1),
        ("olympics", "Sochi 2014", 2),  # via redirect
    ]
    links = [
        ("2014 Winter Olympics", "Sochi"),
        ("2014 Winter Olympics", "Russia"),
        ("Sochi", "Russia"),
        ("Sochi (disambiguation)", "Sochi"),
        ("Sochi (disambiguation)", "2014 Winter Olympics"),
        ("Russia", "Sochi 2014"),  # resolves through the redirect
    ]
    revisions = [
        {"title": "Sochi", "timestamp": "2014-02-01T00:00:00Z", "text": "a b"},
        {"title": "Sochi", "timestamp": "2014-02-10T00:00:00Z", "text": "a b c c"},
        {"title": "Sochi", "timestamp": "2014-02-18T00:00:00Z", "text": "a b c c d"},
    ]
    pageviews = [
        ("Sochi", date(2014, 2, 1), 10),
        ("Sochi", date(2014, 2, 3), 5),
        ("Sochi 2014", date(2014, 2, 1), 4),  # folds into the Olympics
        ("2014 Winter Olympics", date(2014, 2, 1), 6),
    ]
    return snapshot(pages, anchors, links, revisions, pageviews)


class TestBuildSnapshot:
    def test_entity_space_excludes_non_articles(self, small):
        assert set(small.entities) == {"Sochi", "2014 Winter Olympics", "Russia"}

    def test_redirect_anchor_folds_to_target(self, small):
        assert dict(small.lexicon["olympics"]) == {"2014 Winter Olympics": 2}

    def test_redirect_title_is_a_surface_form(self, small):
        assert dict(small.lexicon["sochi 2014"]) == {"2014 Winter Olympics": 1}

    def test_anchor_counts_ordered_descending(self, small):
        entries = small.lexicon["sochi"]
        # title (1) + anchors: Sochi 3+1, Olympics 1
        assert entries[0] == ("Sochi", 4)
        assert dict(entries)["2014 Winter Olympics"] == 1

    def test_disambig_title_maps_to_its_link_targets(self, small):
        assert dict(small.lexicon["sochi (disambiguation)"]) == {
            "Sochi": 1, "2014 Winter Olympics": 1}

    def test_link_graph_resolves_redirects(self, small):
        assert small.code["2014 Winter Olympics"] in outgoing(small, "Russia")
        assert small.code["Russia"] in incoming(small, "2014 Winter Olympics")

    def test_link_symmetry_exhaustive(self, small):
        for e in small.entities:
            for dst in outgoing(small, e):
                assert small.code[e] in incoming(small, small.entities[dst])
            for src in incoming(small, e):
                assert small.code[e] in outgoing(small, small.entities[src])

    def test_redirect_cycle_dropped(self):
        snap = snapshot(
            pages=[("A", "REDIRECT:B"), ("B", "REDIRECT:A"), ("C", "ARTICLE")],
            anchors=[("a", "A", 5), ("c", "C", 1)])
        assert "a" not in snap.lexicon
        assert snap.report.dropped_pages >= 2
        assert dict(snap.lexicon["c"]) == {"C": 2}

    @pytest.mark.parametrize("rows, entities", [
        ([("A", "ARTICLE"), ("A", "REDIRECT:B")], {"A", "B"}),
        ([("A", "REDIRECT:B"), ("A", "ARTICLE")], {"B"}),
        ([("A", "ARTICLE"), ("A", "DISAMBIG")], {"A", "B"})])
    def test_repeated_title_keeps_first_row(self, rows, entities):
        snap = snapshot(pages=rows + [("B", "ARTICLE")],
                        anchors=[("x", "A", 2)])
        assert snap.report.dropped_pages == 1
        assert set(snap.entities) == entities
        first = "A" if rows[0][1] == "ARTICLE" else "B"
        assert dict(snap.lexicon["x"]) == {first: 2}
        assert dict(snap.lexicon["a"]) == {first: 1}

    def test_dangling_reference_dropped(self):
        snap = snapshot(pages=[("A", "ARTICLE")],
                        anchors=[("x", "Missing", 2)],
                        links=[("A", "Missing")])
        assert "x" not in snap.lexicon
        assert snap.report.dropped_anchors == 1
        assert snap.report.dropped_links == 1

    def test_repeated_link_stored_once_and_counted(self):
        # the third row is the first again, through a redirect
        snap = snapshot(pages=[("A", "ARTICLE"), ("B", "ARTICLE"),
                               ("R", "REDIRECT:B")],
                        links=[("A", "B"), ("B", "A"), ("A", "R"), ("A", "B")])
        assert snap.report.dropped_links == 2
        assert incoming(snap, "B") == [snap.code["A"]]
        assert outgoing(snap, "A") == [snap.code["B"]]

    def test_codes_follow_title_order(self):
        titles = ["b", "a10", "a2", "C", "a1"]
        snap = snapshot(pages=[(t, "ARTICLE") for t in titles],
                        links=[(t, "a2") for t in titles])
        assert snap.entities == ("C", "a1", "a10", "a2", "b")
        assert snap.code == {t: i for i, t in enumerate(snap.entities)}
        assert incoming(snap, "a2") == [0, 1, 2, 4]
        assert incoming(snap, "Missing") == []

    def test_no_self_links(self):
        snap = snapshot(pages=[("A", "ARTICLE"), ("B", "REDIRECT:A")],
                        links=[("A", "B")])
        assert outgoing(snap, "A") == []


class TestLinkPrior:
    def test_hand_normalization(self):
        snap = snapshot(pages=[("City", "ARTICLE"), ("Olympics", "ARTICLE")],
                        anchors=[("sochi", "City", 3), ("sochi", "Olympics", 1)])
        assert link_prior(snap, "sochi") == pytest.approx(
            {"City": 0.75, "Olympics": 0.25})

    def test_singleton(self, small):
        assert link_prior(snap := small, "olympics") == {
            "2014 Winter Olympics": 1.0}

    def test_unknown_surface_form(self, small):
        assert link_prior(small, "zzz unknown") == {}

    def test_normalized_input_expected(self, small):
        assert link_prior(small, "  SoChI ") == link_prior(small, "sochi")

    @given(st.lists(st.tuples(st.sampled_from("ABCD"),
                              st.integers(min_value=1, max_value=50)),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_distribution_sums_to_one(self, pairs):
        pages = [(e, "ARTICLE") for e in "ABCD"]
        anchors = [("m", e, n) for e, n in pairs]
        lp = link_prior(snapshot(pages=pages, anchors=anchors), "m")
        assert sum(lp.values()) == pytest.approx(1.0, abs=1e-12)


class TestTemporalContext:
    def test_multiset_difference(self, small):
        ctx = temporal_context(small, "Sochi", date(2014, 2, 5), date(2014, 2, 12))
        assert ctx == Counter({"c": 2})

    def test_no_in_period_revisions(self, small):
        ctx = temporal_context(small, "Sochi", date(2014, 2, 2), date(2014, 2, 5))
        assert ctx == Counter()

    def test_lag_day_included(self, small):
        # revision on Feb 18 is inside [.., Feb 17] + 1 day of lag
        ctx = temporal_context(small, "Sochi", date(2014, 2, 5), date(2014, 2, 17))
        assert ctx == Counter({"c": 2, "d": 1})

    def test_unknown_entity_empty(self, small):
        assert temporal_context(small, "Russia", date(2014, 2, 1),
                                date(2014, 2, 28)) == Counter()

    def test_accumulation_over_pairs(self):
        revisions = [
            {"title": "A", "timestamp": f"2014-02-0{i}T00:00:00Z", "text": text}
            for i, text in enumerate(["x", "x y", "x y y z", "y z"], start=1)
        ]
        snap = snapshot(pages=[("A", "ARTICLE")], revisions=revisions)
        ctx = temporal_context(snap, "A", date(2014, 2, 1), date(2014, 2, 9))
        # pairwise added tokens: ("","x")->x, ("x","x y")->y,
        # ("x y","x y y z")->y z, ("x y y z","y z")->nothing
        assert ctx == Counter({"x": 1, "y": 2, "z": 1})

    def test_added_tokens_clamped_at_zero(self):
        assert added_tokens("a a b", "a b c") == Counter({"c": 1})


class TestViewSeries:
    def test_gap_fill(self, small):
        series = view_series(small, "Sochi", date(2014, 2, 1), date(2014, 2, 3))
        assert list(series) == [10, 0, 5]

    def test_redirect_views_folded_additively(self, small):
        series = view_series(small, "2014 Winter Olympics",
                             date(2014, 2, 1), date(2014, 2, 1))
        assert series[0] == 10  # 6 direct + 4 via "Sochi 2014"

    def test_absent_entity_all_zero(self, small):
        series = view_series(small, "Russia", date(2014, 2, 1), date(2014, 2, 4))
        assert list(series) == [0, 0, 0, 0]

    def test_length_always_matches_period(self, small):
        for days in (1, 5, 28):
            series = view_series(small, "Sochi", date(2014, 2, 1),
                                 date(2014, 2, days))
            assert len(series) == days


class TestLoadSnapshot:
    def test_skipped_rows_counted_by_file(self, tmp_path):
        (tmp_path / "pages.tsv").write_text(
            "A\tARTICLE\nB\tARTICLE\nC\tARTICLE\textra\n")
        (tmp_path / "anchors.tsv").write_text(
            "a\tA\t2\nb\tB\tmany\nbad anchor row\n")
        (tmp_path / "links.tsv").write_text("A\tB\nA\tB\tC\n")
        (tmp_path / "revisions.jsonl").write_text(
            '{"title": "A", "timestamp": "2014-02-01T00:00:00Z", "text": "x"}\n'
            '{"title": "A", not json\n'
            '[1, 2]\nnull\n{}\n')
        (tmp_path / "pageviews.tsv").write_text(
            "A\t2014-02-01\t3\n"
            "A\tnot-a-day\t3\n"
            "A\t2014-02-02\tmany\n"
            "A\t2014-02-03\n")
        snap = load_snapshot(tmp_path)
        r = snap.report
        assert r.dropped_pages == 1      # wrong column count
        assert r.dropped_anchors == 2    # bad count + wrong column count
        assert r.dropped_links == 1      # wrong column count
        assert r.dropped_revisions == 4  # not JSON, not objects, no fields
        assert r.dropped_pageviews == 3  # bad day + bad count + wrong columns
        assert set(snap.entities) == {"A", "B"}
        assert snap.lexicon["a"] == (("A", 3),)  # title (1) + anchor (2)
        assert incoming(snap, "B") == [snap.code["A"]]
        assert snap.pageviews["A"] == {date(2014, 2, 1).toordinal(): 3}
        assert snap.latest_text("A") == "x"
        assert snap.latest_text("B") == ""

    def test_revision_timestamps_parsed_like_tweets(self):
        revisions = [
            {"title": "A", "timestamp": "2014-02-09T23:30:00-05:00", "text": "x"},
            {"title": "A", "timestamp": 1391990400, "text": "x y"},
            {"title": "A", "timestamp": True, "text": "bool"},
            {"title": "A", "timestamp": 10 ** 20, "text": "out of range"},
            {"title": "A", "timestamp": None, "text": "none"},
        ]
        snap = snapshot(pages=[("A", "ARTICLE")], revisions=revisions)
        assert snap.report.dropped_revisions == 3
        # both fall on UTC Feb 10, ordered by their full timestamps
        day = date(2014, 2, 10).toordinal()
        assert snap.revisions["A"] == ((day, "x y"), (day, "x"))
        assert temporal_context(snap, "A", date(2014, 2, 10),
                                date(2014, 2, 10)) == Counter({"x": 1, "y": 1})

    def test_duplicate_timestamp_keeps_first_revision(self):
        revisions = [
            {"title": "A", "timestamp": "2014-02-02T00:00:00Z", "text": "late"},
            {"title": "A", "timestamp": "2014-02-01T08:00:00Z", "text": "first"},
            {"title": "A", "timestamp": "2014-02-01T03:00:00-05:00", "text": "dup"},
        ]
        snap = snapshot(pages=[("A", "ARTICLE")], revisions=revisions)
        assert snap.report.dropped_revisions == 1
        assert snap.revisions["A"] == ((date(2014, 2, 1).toordinal(), "first"),
                                       (date(2014, 2, 2).toordinal(), "late"))
        assert snap.latest_text("A") == "late"

    def test_crlf_lines_load_like_lf(self, tmp_path):
        files = {
            "pages.tsv": "A\tARTICLE\nB\tREDIRECT:A\n",
            "anchors.tsv": "a\tB\t2\n",
            "links.tsv": "B\tA\n",
            "revisions.jsonl": '{"title": "A", "timestamp": 0, "text": "x"}\n',
            "pageviews.tsv": "B\t2014-02-01\t3\n\n",
        }
        for sub, newline in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / sub).mkdir()
            for f, text in files.items():
                (tmp_path / sub / f).write_bytes(text.replace("\n", newline).encode())
        lf, crlf = load_snapshot(tmp_path / "lf"), load_snapshot(tmp_path / "crlf")
        assert vars(crlf.report) == vars(lf.report)
        for store in ("entities", "lexicon", "revisions", "pageviews"):
            assert getattr(crlf, store) == getattr(lf, store)
        assert_same_link_graph(crlf, lf)
        assert crlf.pageviews == {"A": {date(2014, 2, 1).toordinal(): 3}}

    @pytest.mark.parametrize("name, bad_line, field", [
        ("pages.tsv", b"C\xff\tARTICLE", "dropped_pages"),
        ("anchors.tsv", b"\xff\tA\t2", "dropped_anchors"),
        ("links.tsv", b"B\tA\xff", "dropped_links"),
        ("revisions.jsonl",
         b'{"title": "A", "timestamp": "2014-02-02T00:00:00Z", "text": "\xff"}',
         "dropped_revisions"),
        ("pageviews.tsv", b"A\t2014-02-02\t\xff", "dropped_pageviews"),
    ], ids=["pages", "anchors", "links", "revisions", "pageviews"])
    def test_undecodable_line_counted_and_rest_loaded(self, tmp_path, name,
                                                      bad_line, field):
        files = {
            "pages.tsv": b"A\tARTICLE\nB\tARTICLE\n",
            "anchors.tsv": b"a\tA\t2\n",
            "links.tsv": b"A\tB\n",
            "revisions.jsonl": b'{"title": "A", "timestamp": '
                               b'"2014-02-01T00:00:00Z", "text": "x"}\n',
            "pageviews.tsv": b"A\t2014-02-01\t3\n",
        }
        for sub, bad in (("clean", None), ("bad", name)):
            (tmp_path / sub).mkdir()
            for f, data in files.items():
                prefix = bad_line + b"\n" if f == bad else b""
                (tmp_path / sub / f).write_bytes(prefix + data)
        clean = load_snapshot(tmp_path / "clean")
        snap = load_snapshot(tmp_path / "bad")
        assert vars(snap.report) == {**vars(clean.report), field: 1}
        assert getattr(clean.report, field) == 0
        for store in ("entities", "lexicon", "revisions", "pageviews"):
            assert getattr(snap, store) == getattr(clean, store)
        assert_same_link_graph(snap, clean)

    def test_parse_drops_add_to_build_drops(self, tmp_path):
        (tmp_path / "pages.tsv").write_text("A\tARTICLE\n")
        (tmp_path / "anchors.tsv").write_text("a\tMissing\t1\na\tA\tx\n")
        (tmp_path / "links.tsv").write_text("")
        (tmp_path / "revisions.jsonl").write_text("")
        (tmp_path / "pageviews.tsv").write_text("")
        # one anchor to an unknown entity (build) + one bad count (parse)
        assert load_snapshot(tmp_path).report.dropped_anchors == 2


REVISIONS = st.one_of(
    st.fixed_dictionaries({
        "title": st.sampled_from(["A", "B", "R", "Missing", 5, None, ["A"]]),
        "timestamp": st.sampled_from([
            "2014-02-01T00:00:00Z", "2014-02-01T03:00:00-05:00", "2014-02-02",
            1391990400, 1391990400.5, True, None, "nonsense", 10 ** 20]),
        "text": st.sampled_from(["x", "x y", "", 5, None])}),
    st.sampled_from([None, {}, {"title": "A"}, [1, 2], "A", 3]),
)


class TestEveryRevisionLineCounted:
    @given(jsonl_lines(REVISIONS))
    @settings(max_examples=150, deadline=None)
    def test_stored_and_dropped_cover_the_lines(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "pages.tsv").write_text("A\tARTICLE\nB\tARTICLE\nR\tREDIRECT:A\n")
            for name in ("anchors.tsv", "links.tsv", "pageviews.tsv"):
                (d / name).write_text("")
            (d / "revisions.jsonl").write_bytes(b"\n".join(line for line, _ in lines))
            snap = load_snapshot(d)
        stored = sum(len(revs) for revs in snap.revisions.values())
        assert stored + snap.report.dropped_revisions == \
            sum(not blank for _, blank in lines)


# Each TSV wiki file as (line, row) pairs: rows of the file's columns
# (row None for a line no parse accepts) and blank lines (row "blank").
TSV_JUNK = st.sampled_from([b" ", b"\xff", b"one", b"a\tb\tc\td\te",
                            b"A\xff\tARTICLE", b"A\t\xff\t1"])
TSV_BLANK = st.sampled_from([b"", b"\r"])


def tsv_lines(rows):
    return st.lists(st.one_of(
        rows.map(lambda r: ("\t".join(r).encode(), r)),
        TSV_JUNK.map(lambda line: (line, None)),
        TSV_BLANK.map(lambda line: (line, "blank"))), max_size=40)


def load_with(files: dict[str, bytes | str]):
    """load_snapshot of a directory holding `files`; other files are empty."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name in ("pages.tsv", "anchors.tsv", "links.tsv", "revisions.jsonl",
                     "pageviews.tsv"):
            data = files.get(name, b"")
            (d / name).write_bytes(data.encode() if isinstance(data, str) else data)
        return load_snapshot(d)


def joined(lines) -> bytes:
    return b"\n".join(line for line, _ in lines)


def non_blank(lines) -> int:
    return sum(row != "blank" for _, row in lines)


TITLES = ["A", "B", "C", "D", "E"]


class TestEveryTsvLineCounted:
    """Every non-blank line of a TSV file is stored or counted under one
    drop cause of its file."""

    @given(tsv_lines(st.tuples(
        st.sampled_from(TITLES),
        st.sampled_from(["ARTICLE"] + [f"REDIRECT:{t}" for t in TITLES + ["Z"]]))))
    @settings(max_examples=150, deadline=None)
    def test_pages(self, lines):
        snap = load_with({"pages.tsv": joined(lines)})
        # an article and a redirect that resolves each add one lexicon key
        # (their own title's); repeated titles, cycles and dangling
        # redirects are dropped
        assert len(snap.lexicon) + snap.report.dropped_pages == non_blank(lines)

    @given(tsv_lines(st.tuples(st.sampled_from(["a", "x y", "b"]),
                               st.sampled_from(["A", "B", "R", "D", "Missing"]),
                               st.sampled_from(["1", "0", "-2", "many"]))))
    @settings(max_examples=150, deadline=None)
    def test_anchors(self, lines):
        pages = "A\tARTICLE\nB\tARTICLE\nR\tREDIRECT:A\nD\tDISAMBIG\n"
        base = load_with({"pages.tsv": pages})
        snap = load_with({"pages.tsv": pages, "anchors.tsv": joined(lines)})

        def total(s):
            return sum(n for entries in s.lexicon.values() for _, n in entries)

        # a stored anchor row adds its count, 1, to the lexicon
        assert total(snap) - total(base) + snap.report.dropped_anchors == \
            non_blank(lines)

    @given(tsv_lines(st.tuples(*[st.sampled_from(["A", "B", "C", "R", "D", "L",
                                                  "Missing"])] * 2)))
    @settings(max_examples=150, deadline=None)
    def test_links(self, lines):
        pages = ("A\tARTICLE\nB\tARTICLE\nC\tARTICLE\nR\tREDIRECT:A\n"
                 "D\tDISAMBIG\nL\tLIST\n")
        snap = load_with({"pages.tsv": pages, "links.tsv": joined(lines)})
        disambig_rows = sum(isinstance(row, tuple) and row[0] == "D"
                            and row[1] in ("A", "B", "C", "R")
                            for _, row in lines)
        assert len(snap.in_src) == len(snap.out_dst)
        assert len(snap.in_src) + disambig_rows + snap.report.dropped_links == \
            non_blank(lines)

    @given(tsv_lines(st.tuples(st.sampled_from(["A", "B", "R", "Missing"]),
                               st.sampled_from(["2014-02-01", "2014-02-02",
                                                "2014-02-30"]),
                               st.sampled_from(["1", "-1", "many"]))))
    @settings(max_examples=150, deadline=None)
    def test_pageviews(self, lines):
        pages = "A\tARTICLE\nB\tARTICLE\nR\tREDIRECT:A\n"
        snap = load_with({"pages.tsv": pages, "pageviews.tsv": joined(lines)})
        # a stored row adds its count, 1, to its entity's views
        views = sum(sum(per.values()) for per in snap.pageviews.values())
        assert views + snap.report.dropped_pageviews == non_blank(lines)
