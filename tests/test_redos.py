"""ReDoS bound: every document parses on one tokenizer path under a deadline.

The tokenizer pattern inherits the reference's backtracking blowup on
truncated ambiguous tags (kernel/parser.py comment; src/index.ts:833
explodes identically in V8).  ``flat_parse`` searches with KMARKUP's
first-path copy, which is linear per attempt, and retries the full pattern
on the interruptible `regex` copy only at the sites where that copy fails.
Every parse, direct calls included, runs under its own
``NHPR_PARSE_TIMEOUT`` deadline and raises TimeoutError past it; the
whole-document stages run every row through ``extract_stage.map_documents``,
where a doc whose parse raised yields zero spans + valid=False, or its
stage's out-of-band sentinel.
"""
from __future__ import annotations

import os
import sys
import time

import pyarrow as pa
import pytest

from node_html_parser_ray.kernel import parser
from node_html_parser_ray.sources.corpus import INPUT_SCHEMA, generate_documents
from node_html_parser_ray.stages.extract_stage import (
    add_partition_column,
    extract_batch,
)

# ~17 ambiguous chars already cost ~7 s with the full pattern on CPython re
# and growth is ~3x per +2 chars, so 40 chars is effectively unbounded
# there; the shipped tokenizer parses it in well under a millisecond.
ADVERSARIAL = "<p>intro</p><a " + "a" * 40
# A truncated run the full-pattern retry cannot finish either: its cost is
# quadratic in the run (~0.1 s at 1 KB, ~2 s at 5 KB), so a 100 KB run
# exceeds every deadline these tests set.  flat_parse ends its token loop at
# a failing site past the document's last '>', so an input meant to reach
# the retry or the deadline carries a '>'-bearing tail such as "<b>".
BOUNDED_OUT = "<p>intro</p><a " + "a" * 100_000 + "<b>"


SCRIPTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)
sys.path.insert(0, SCRIPTS_DIR)
from diff_engines import (  # noqa: E402
    OPTION_SETS,
    count_fallbacks,
    full_pattern,
    parse_result,
)


def _spans_row(doc_id: str, html: str) -> dict:
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "html", "text": html, "media_ref": "", "offset": 0}],
    }


def full_pattern_results(html: str) -> list:
    """``parse_result`` under every option set with ``flat_parse`` driven by
    the full KMARKUP on the `regex` copy: the trees the reference pattern
    gives, without CPython re's exponential worst case."""
    with full_pattern(parser._bounded_kmarkup()):
        return [parse_result(html, options) for options in OPTION_SETS]


def record_rows(monkeypatch) -> list:
    """Record the document of each row the stages' ``map_documents`` calls
    run, in call order: ``map_documents`` is wrapped in each stage module's
    namespace."""
    from node_html_parser_ray.stages import classify, extract_stage, selector_stage

    sent = []
    real_map_documents = extract_stage.map_documents

    def recording_map_documents(htmls, fn, *args, per_row=None):
        def recording_fn(html, *rest):
            sent.append(html)
            return fn(html, *rest)

        return real_map_documents(htmls, recording_fn, *args, per_row=per_row)

    for module in (extract_stage, selector_stage, classify):
        monkeypatch.setattr(module, "map_documents", recording_map_documents)
    return sent


@pytest.fixture
def no_deadline(monkeypatch):
    monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "0")


def shipped_results(html: str) -> tuple[list, list]:
    """(``parse_result`` under every option set with no deadline, the
    ``[sites, matches]`` of the full-pattern retries they made)."""
    with count_fallbacks() as fallbacks:
        got = [parse_result(html, options) for options in OPTION_SETS]
    return got, fallbacks


@pytest.mark.usefixtures("no_deadline")
class TestFirstPath:
    def test_adversarial_shapes_match_full_pattern(self):
        """The shapes that blow up the full pattern on CPython re, each of
        which once hung a worker: every one parses with no deadline, in
        milliseconds, to the full pattern's tree, as it is and with a
        '>'-bearing tail."""
        for s in (
            "<a " + "a" * 30,                      # truncated ambiguous tag
            "<p>ok</p><a " + "b" * 40 + "<p>x",    # run ends at '<'
            '<a x="1<2" y',                        # quoted bracket, unterminated
            '<a x="unclosed quote to eof ' + "a" * 10,
            # short pre-bracket run, bracket-free first quoted value
            '<a q="" w="1<2" ' + "e" * 12,
            '<a q = "" w = "1<2" ' + "e" * 12,     # JS-WS around '='
            # the run ends at a comment's or raw-text open's own '<'
            "<a " + "a" * 16 + "<!--c-->>",
            "<a " + "a" * 16 + "<script>x</script>>",
            # raw text is case-sensitive, so an uppercase body is scanned
            "<SCRIPT><a " + "a" * 16 + "</SCRIPT>",
            "<PRE>a<b " + "q" * 20 + "</PRE>",
            # an unquoted '<' inside a raw-text open tag
            '<pre style&#5;e"_u1<></pre><p ',
            "<pre style=\"un&#65;e\" _u=1<2 a='un></pre>",
            # an '='-anchored quoted value holding '<' followed by a long
            # quote-free run: slow even where the tag matches
            '<Phref="<pre>"datanknown/V>',
            '<P href="<pre>"datanknown/V>',
            "<Pdata-k='<x>'datanknown/V>",
            '<P href="/x?y=1&z=2" a=\'un /><pre>tail</ul>'
            "<div lang='un&#65;e'>",
            # attribute-soup campaign finds: an '='-anchored quoted value
            # whose span swallows a raw-text open
            '<img a-b="un&#65;e" a=\'un><b src>&#x41;'
            '<P href=v href="a=b" />&copy;<script data-9=\'its\' x="qq" '
            'lang=">x" />tail  spaces &copy;</P>1<2&copy;a&amp;b</br>'
            "&notit;<ul id='/x?y=1&z=2' x='&copy;' lang='a b",
            '<p id=\'a b\' x=">x" a=\'un /><script _u class=></h1>'
            "<a _u='x' id=\"&copy;\"><li lang='  pad  ' _u='q\"q' data-k>"
            "<table id='&notit;' class=its />&copy;tail  spaces &#x41;"
            '<P CHECKED="" id=\'&amp;\' CHECKED=""></b><P>&#65;&copy;'
            "<ul data-k=a class='x' href='  pad  ' _u=\"  pad  \">"
            "<DIV data-9='  pad  ' data-k=&copy;>"
            '<a lang="c" lang=a=b lang',
            "<img a='un><script x>",
            '<img a="un><style x>',
            # terminated tags whose run holds a '/' KMARKUP cannot consume
            # (outside any '='-anchored value, not directly before '>')
            '<p>x</p><B  /<aa\'=  =\'==aa"  \'"=a"aa\'-a\'"/\'> </<<="a\'"<=/a>'
            "a- ''< a/",
            '<p>x</p><b \'""=a==a"="=a-\'=\'"aa-/"-\'aa /  a-"a\'"/ a-></"""/ '
            ">a<==/ ",
            '<p>x</p><A "="\'"==-\'""a a=a"a" ==-aaa\'/a\'>=aa-a-\'a=a/\'=a="'
            "a='",
            "<a " + "'a" * 10 + "/x>",
            "<a " + "b" * 14 + "/x>",
            "<a b=c " + "d" * 12 + " /x>",
            # close tags, and the non-ASCII letters CPython's IGNORECASE
            # folds into [a-z]
            "</a " + "b" * 20,
            "<p>x</p></a " + "b" * 16 + "<p>",
            "<\u017f " + "b" * 20,
            "<\u0131 " + "b" * 14 + "/x>",
        ):
            # with a '>'-bearing tail, a site the cutoff ends the token
            # loop at reaches the full-pattern retry
            for html in (s, s + "<b>"):
                t0 = time.perf_counter()
                got, _ = shipped_results(html)
                assert time.perf_counter() - t0 < 5.0, html
                assert got == full_pattern_results(html), html

    def test_normal_shapes_need_no_fallback(self):
        """Benign markup, brackets and slashes included, parses to the full
        pattern's tree on the first path alone: no site is retried."""
        for s in (
            '<a href="https://example.com/long/url?with=queryparams">x</a>',
            '<a href="x">tail with no more quotes to end of document',
            "plain text with a < b comparison and more words after",
            '<div data-x="a>b">terminated quoted bracket</div>',
            "<script>if (a<b) { run(thing, other); }</script><p>x</p>",
            "<td>1 < 2</td>",
            "<span id='s32' ;=\"\" \"=\"\" class='editable'>x</span><div>y</div>",
            "<script>if(a<b){" + "x" * 40 + "}</script>" + "plaintext" * 10,
            "<script><a " + "a" * 30 + "</script>ok",
            "<pre>a<b " + "q" * 30 + "</pre>",
            '<pre class="a<b">' + "x<y " * 10 + "</pre>",
            "<pre class='a>b'>" + "x<y " * 10 + "</pre>",
            '<script src=a data-9=\'&notit;\' id="x">' + "if(a<b)" * 8
            + "</script>",
            '<a href=/x/y.html class="c" target=_blank/>' + "x" * 20 + "</a>",
            "<img src='/a/b/c.png' alt=\"a/b\" data-long-name=/x/ />tail",
            "<a title=a/b/c data-x=y/z>" + "w" * 20 + "</a>",
        ):
            got, fallbacks = shipped_results(s)
            assert fallbacks == [0, 0], s
            assert got == full_pattern_results(s), s
        # an unterminated quote up to a later tag: KMARKUP fails at the tag
        # open, so the site is retried (linearly: chars past the '<' inside
        # the quote are unreachable) and the full pattern fails there too
        s = '<a q="" w="1<2' + "e" * 30 + "<b>"
        got, fallbacks = shipped_results(s)
        assert fallbacks == [len(OPTION_SETS), 0]
        assert got == full_pattern_results(s)

    def test_reference_fixtures_match_full_pattern(self):
        # real-world pages (script bodies full of '<')
        import glob

        for f in glob.glob("/root/reference/test/html/*.html"):
            s = open(f, encoding="utf-8", errors="replace").read()
            assert shipped_results(s)[0] == full_pattern_results(s), f


    def test_unclosed_comment_opens_linear(self):
        """Once one comment open fails, no '-->' follows it, so no later
        comment open can match: flat_parse searches on without the comment
        branch instead of rescanning to EOF at every open.  20 000 opens
        parse in well under 2 s with no deadline, and mixed inputs keep the
        full pattern's trees under every option set."""
        t0 = time.time()
        parser.flat_parse("<!--" * 20000)
        assert time.time() - t0 < 2.0
        opens = "<!--" * 300
        for html in ("<p>x</p>" + opens + "<b>y</b>",
                     "<p>x</p><!--c-->" + opens + "<b>y</b>",
                     "<p>x</p>-->" + opens + "<b>y</b>"):
            with full_pattern():
                want = [parse_result(html, o) for o in OPTION_SETS]
            assert [parse_result(html, o) for o in OPTION_SETS] == want, html


@pytest.mark.usefixtures("no_deadline")
class TestCampaignSkipList:
    """Pin the bulk-campaign engine-cost skip list so divergences can't
    silently accumulate behind 'engine constant' skips.

    The round-4 attribute-soup campaign (1M docs, seeds 9,000,000-
    9,999,999) skipped exactly 2 documents as 'V8-only' blowups.  Round-5
    re-measurement (scripts/diff_campaign_attrs.py logs each skip's seed)
    showed BOTH also hang the full pattern on CPython re.  The pinned list
    of genuinely-V8-only skips is therefore EMPTY, and the two seeds are
    regression fixtures: their docs must parse, with no deadline, to the
    full pattern's tree."""

    # seed -> sha256[:16] of the generated doc (pins generator determinism)
    FORMER_V8_SKIPS = {
        9175218: "d0592b3c8357d695",
        9619904: "2a4de2053f55fa0d",
    }

    def test_former_v8_skips_match_full_pattern(self):
        import hashlib
        import random

        from diff_campaign_attrs import _random_html_attrs

        assert len(self.FORMER_V8_SKIPS) == 2  # grows only with evidence
        for seed, sha in self.FORMER_V8_SKIPS.items():
            rng = random.Random(seed)
            html = _random_html_attrs(rng, rng.randint(1, 60))
            assert hashlib.sha256(html.encode()).hexdigest()[:16] == sha
            # the doc hangs the full pattern on CPython re: never parse it
            # that way in a test
            assert shipped_results(html)[0] == full_pattern_results(html)

    def test_former_v8_skips_bounded_through_stage(self, monkeypatch):
        """Both docs run through the stage within the wall limit; the
        shipped tokenizer finishes them in milliseconds (the full pattern
        on CPython re took 130 s on the second), so they carry their real
        spans."""
        import random

        from diff_campaign_attrs import _random_html_attrs

        from node_html_parser_ray.kernel.fast_extract import extract_spans_fast

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "2.0")
        htmls = []
        for seed in self.FORMER_V8_SKIPS:
            rng = random.Random(seed)
            htmls.append(_random_html_attrs(rng, rng.randint(1, 60)))
        batch = pa.Table.from_pylist(
            [_spans_row(f"skip-{i}", h) for i, h in enumerate(htmls)],
            schema=INPUT_SCHEMA,
        )
        t0 = time.time()
        out = extract_batch(batch)
        assert time.time() - t0 < 60.0
        assert out.column("valid").to_pylist() == [False, True]
        for i, html in enumerate(htmls):
            spans, _ = extract_spans_fast(html)
            assert spans
            assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                    for s in out.column("spans")[i].as_py()] == spans


class TestBoundedLane:
    def test_adversarial_doc_is_time_bounded(self, monkeypatch):
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        batch = pa.Table.from_pylist(
            [
                _spans_row("good-1", "<p>hello <b>world</b></p>"),
                _spans_row("bad-1", BOUNDED_OUT),
                _spans_row("good-2", "<div>more</div>"),
            ],
            schema=INPUT_SCHEMA,
        )
        t0 = time.time()
        out = extract_batch(batch)
        wall = time.time() - t0
        assert wall < 30.0  # unbounded this would be ~millennia
        rows = out.to_pylist()
        bad = next(r for r in rows if r["doc_id"] == "bad-1")
        assert bad["valid"] is False
        assert bad["spans"] == []
        assert bad["metrics"]["n_bytes"] == len(BOUNDED_OUT)
        # neighbours in the same batch are untouched
        good = next(r for r in rows if r["doc_id"] == "good-1")
        solo = extract_batch(
            pa.Table.from_pylist(
                [_spans_row("good-1", "<p>hello <b>world</b></p>")],
                schema=INPUT_SCHEMA,
            )
        ).to_pylist()[0]
        assert good == solo

    def test_unclosed_comments_and_quote_shift_bounded_out(self, monkeypatch):
        """Two documents the first path alone was quadratic on.  20 000
        unclosed comment opens now parse inside the deadline: once one
        comment open fails, no later one is tried.  A tag whose quoted
        values each hold '<b><a' is still bounded out (every '<a' is a
        tag-open site before a later '>', and the full-pattern retry at the
        first site cannot finish either): every failing site returns
        control to the deadline check."""
        from node_html_parser_ray.kernel.fast_extract import extract_spans_fast

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1")
        comments = "<!--" * 20000
        quote_shift = "<a" + ' x="<b><a"' * 64000
        batch = pa.Table.from_pylist(
            [_spans_row("comments", comments),
             _spans_row("quote-shift", quote_shift),
             _spans_row("good", "<p>ok</p>")],
            schema=INPUT_SCHEMA,
        )
        t0 = time.time()
        rows = extract_batch(batch).to_pylist()
        assert time.time() - t0 < 5.0
        spans, valid = extract_spans_fast(comments)
        assert valid is True and spans
        assert rows[0]["valid"] is True
        assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in rows[0]["spans"]] == spans
        assert rows[0]["metrics"]["n_bytes"] == len(comments)
        assert rows[1]["valid"] is False and rows[1]["spans"] == []
        assert rows[1]["metrics"]["n_bytes"] == len(quote_shift)
        assert rows[2]["valid"] is True and rows[2]["spans"] != []

    def test_adversarial_40_chars_extracts_real_spans(self, monkeypatch):
        """The 40-char truncated tag that hangs the full pattern on CPython
        re lies past the document's last '>', so it needs no full-pattern
        retry: its real spans come back well inside a second."""
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "10")
        batch = pa.Table.from_pylist(
            [_spans_row("adv-1", ADVERSARIAL)], schema=INPUT_SCHEMA
        )
        t0 = time.time()
        row = extract_batch(batch).to_pylist()[0]
        assert time.time() - t0 < 1.0
        assert row["valid"] is True
        assert row["spans"] == [
            {"kind": "text", "text": "intro", "media_ref": "", "order": 0},
            {"kind": "text", "text": ADVERSARIAL[12:], "media_ref": "",
             "order": 1},
        ]
        assert row["metrics"]["n_bytes"] == len(ADVERSARIAL)

    def test_false_positive_is_bit_identical(self, monkeypatch):
        # a fallback site that fails fast: the result under a deadline must
        # be exactly the result with no deadline
        fp_html = '<p>before</p><a x="1<2" y'
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", fp_html)], schema=INPUT_SCHEMA
        )
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        bounded = extract_batch(batch)
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "0")  # no deadline
        inline = extract_batch(batch)
        assert bounded.equals(inline)

    def test_lane_flags_pathological_router_does_not_salt(self, monkeypatch):
        """Every row, the pathological one included, runs once through
        ``map_documents``; the partition router salts by size only, so
        neither row leaves the ordinary range."""
        sent = record_rows(monkeypatch)
        batch = pa.Table.from_pylist(
            [
                _spans_row("good-1", "<p>tiny</p>"),
                _spans_row("bad-1", ADVERSARIAL),
            ],
            schema=INPUT_SCHEMA,
        )
        extract_batch(batch)
        assert sent == ["<p>tiny</p>", ADVERSARIAL]
        out = add_partition_column(batch, num_partitions=64)
        assert all(p < 64 for p in out.column("partition_id").to_pylist())

    def test_lane_scans_joined_doc_not_spans(self, monkeypatch):
        """Each row is parsed as its JOINED span text
        (:func:`htmls_from_batch`): a trigger split across two html spans
        parses like the whole trigger, and a media placeholder's '<' ends
        a truncated tag."""
        from node_html_parser_ray.stages.extract_stage import htmls_from_batch

        sent = record_rows(monkeypatch)
        half = len(ADVERSARIAL) // 2
        batch = pa.Table.from_pylist(
            [
                {
                    "doc_id": "split-1",
                    "spans": [
                        {"kind": "html", "text": ADVERSARIAL[:half],
                         "media_ref": "", "offset": 0},
                        {"kind": "html", "text": ADVERSARIAL[half:],
                         "media_ref": "", "offset": 1},
                    ],
                },
                _spans_row(
                    "scripty-1",
                    "<script>if (a<b) { " + "x" * 40 + " }</script><p>ok</p>",
                ),
                # truncated tag terminated by a media placeholder's '<'
                {
                    "doc_id": "media-cut-1",
                    "spans": [
                        {"kind": "html", "text": "<a " + "a" * 30,
                         "media_ref": "", "offset": 0},
                        {"kind": "image", "text": "cap",
                         "media_ref": "m://x/0", "offset": 1},
                    ],
                },
            ],
            schema=INPUT_SCHEMA,
        )
        out = extract_batch(batch).to_pylist()
        htmls = htmls_from_batch(batch)
        assert sent == htmls and htmls[0] == ADVERSARIAL
        whole = extract_batch(pa.Table.from_pylist(
            [_spans_row("split-1", ADVERSARIAL)], schema=INPUT_SCHEMA
        )).to_pylist()[0]
        assert out[0]["spans"] == whole["spans"]
        assert [s["kind"] for s in out[2]["spans"]] == ["text", "image"]

    def test_partition_router_salts_giants_only(self, monkeypatch):
        """Every row runs bounded, the router salts exactly the giants, and
        every row keeps its partition_id through extract_batch — bounded-out
        rows too, since extraction writes ``n_bytes = len(html)`` for every
        row (input size = assembled length = n_bytes)."""
        from node_html_parser_ray.stages import extract_stage
        from node_html_parser_ray.stages.extract_stage import htmls_from_batch

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        monkeypatch.setattr(extract_stage, "GIANT_BYTES", 100_000)
        out_1 = BOUNDED_OUT[:20_000] + "<b>"
        half = len(ADVERSARIAL) // 2
        giants = [r for r in generate_documents(40, seed=5, giant_fraction=0.2)
                  .to_pylist() if sum(len(s["text"]) for s in r["spans"])
                  > 100_000][:2]
        assert len(giants) == 2
        rows = [
            {"doc_id": "split-1", "spans": [
                {"kind": "html", "text": ADVERSARIAL[:half],
                 "media_ref": "", "offset": 0},
                {"kind": "html", "text": ADVERSARIAL[half:],
                 "media_ref": "", "offset": 1}]},
            _spans_row("scripty-1",
                       "<script>if (a<b) { " + "x" * 40 + " }</script><p>ok</p>"),
            {"doc_id": "media-cut-1", "spans": [
                {"kind": "html", "text": "<a " + "a" * 30,
                 "media_ref": "", "offset": 0},
                {"kind": "image", "text": "cap",
                 "media_ref": "m://x/0", "offset": 1}]},
            _spans_row("fp-1", FALLBACK_FAST),
            _spans_row("bad-1", ADVERSARIAL),
            # bounded out under the 1 s deadline, yet below GIANT_BYTES
            _spans_row("out-1", out_1),
            *giants,
            {"doc_id": "null-spans", "spans": None},
            _spans_row(None, "<p>no id</p>"),
        ]
        batch = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)
        htmls = htmls_from_batch(batch)
        assert {r for r, html in enumerate(htmls)
                if len(html) > 100_000} == {6, 7}

        def route(table):
            return add_partition_column(table, 64).column("partition_id").to_pylist()

        before = route(batch)
        assert {r for r, p in enumerate(before) if p >= 64} == {6, 7}
        sent = record_rows(monkeypatch)
        extracted = extract_batch(batch)
        assert sent == htmls
        # the 20 KB run is bounded out: zero spans, n_bytes = len(html)
        out_row = extracted.slice(5, 1).to_pylist()[0]
        assert out_row["spans"] == [] and not out_row["valid"]
        assert out_row["metrics"]["n_bytes"] == len(out_1)
        assert route(extracted) == before


class TestDeadlineSetting:
    """``NHPR_PARSE_TIMEOUT`` is read by the tokenizer itself, so every
    parse is bounded, and a value the deadline cannot use either means no
    deadline or fails the whole batch."""

    # a tag '<BA=/x>' that only a full-pattern retry matches
    GIVE_BACK = "<p>hi</p><BA=/x>yo"

    @pytest.mark.parametrize("env, want", [
        (None, 10.0), ("", 10.0), ("2.5", 2.5), ("0", 0.0), ("-1", 0.0),
        ("-inf", 0.0), ("inf", 0.0), ("1e300", 0.0), ("9.3e12", 0.0),
    ])
    def test_parse_timeout_values(self, monkeypatch, env, want):
        if env is None:
            monkeypatch.delenv("NHPR_PARSE_TIMEOUT", raising=False)
        else:
            monkeypatch.setenv("NHPR_PARSE_TIMEOUT", env)
        assert parser.parse_timeout() == want

    def test_direct_parse_past_deadline_raises(self, monkeypatch):
        """A tag whose quoted values each hold a tag and a tag open: every
        '<a' is a failing site whose full-pattern retry scans on through
        the later quotes (~3 s for this 10 KB input with no deadline).  A
        direct ``parse()`` stops at its own deadline."""
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1")
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            parser.parse("<a" + ' x="<b><a"' * 1000)
        assert time.monotonic() - t0 < 2.0

    @pytest.mark.parametrize("env", ["inf", "1e300"])
    def test_unrepresentable_timeout_means_no_deadline(self, monkeypatch, env):
        """`regex` reads a ``timeout=`` this large as already expired: the
        row with a full-pattern retry gets the spans it gets with no
        deadline instead of being bounded out."""
        batch = pa.Table.from_pylist(
            [_spans_row("give-back", self.GIVE_BACK)], schema=INPUT_SCHEMA
        )
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "0")
        want = extract_batch(batch)
        assert [s["text"] for s in want.column("spans")[0].as_py()] == [
            "hi", "yo"]
        assert want.column("metrics")[0]["n_elements"].as_py() == 2
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", env)
        assert extract_batch(batch).equals(want)

    @pytest.mark.parametrize("env", ["abc", "nan"])
    def test_malformed_timeout_fails_the_batch(self, monkeypatch, env):
        """The per-row ``except`` of ``map_documents`` must not turn a
        malformed setting into a batch of bounded-out rows."""
        from node_html_parser_ray.stages.classify import BoilerplateClassifier
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", env)
        batch = pa.Table.from_pylist(
            [_spans_row("good-1", "<div><p>hello</p></div>")],
            schema=INPUT_SCHEMA,
        )
        for stage in (extract_batch, SelectorStage(["p"]),
                      BoilerplateClassifier(min_text_len=4)):
            with pytest.raises(ValueError):
                stage(batch)


# one fallback site, whose full-pattern retry fails in well under a
# second: exercises the fallback without a long wall
FALLBACK_FAST = (
    "<p>before</p><a " + "a" * 12
    + "\n<div class='c'><p>real text here</p></div>"
)


COUNT_ONLY_PLAIN = "<div class='c'><p>hi</p><p>yo</p></div><p>z</p>"


class TestBoundedSelectorClassifier:
    """The selector and boilerplate stages parse whole documents too — they
    run every row under the same deadline as extraction
    (``map_documents``)."""

    def test_selector_stage_bounds_adversarial(self, monkeypatch):
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        batch = pa.Table.from_pylist(
            [
                _spans_row("good-1", "<div class='c'><p>hi</p><p>yo</p></div>"),
                _spans_row("bad-1", BOUNDED_OUT),
            ],
            schema=INPUT_SCHEMA,
        )
        t0 = time.time()
        out = SelectorStage(["p", "div.c"])(batch)
        assert time.time() - t0 < 30.0
        res = {(r["doc_id"], r["selector"]): r["n_matches"]
               for r in out.to_pylist()}
        assert res[("good-1", "p")] == 2
        assert res[("good-1", "div.c")] == 1
        # bounded-out doc: explicit out-of-band count, not a hang or a 0
        assert res[("bad-1", "p")] == -1
        assert res[("bad-1", "div.c")] == -1

    def test_selector_stage_false_positive_parity(self, monkeypatch):
        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", FALLBACK_FAST)], schema=INPUT_SCHEMA
        )
        out = SelectorStage(["p", "div.c"])(batch)
        direct = select_document(FALLBACK_FAST, ["p", "div.c"], None, True)
        assert [r["n_matches"] for r in out.to_pylist()] == [
            n for n, _ in direct]
        assert direct[0] == (2, ["before", "real text here"])

    @staticmethod
    def _count_only(monkeypatch, sels):
        """SelectorStage(sels) over a plain doc, a doc with a fallback site
        and a bounded-out doc -> (stage, per-doc counts, the documents of
        the rows ``map_documents`` ran, in call order)."""
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        calls = record_rows(monkeypatch)
        # long enough for the fallback site's parse on a loaded host; the
        # bounded-out doc pays the whole bound
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "5.0")
        batch = pa.Table.from_pylist(
            [
                _spans_row("plain-1", COUNT_ONLY_PLAIN),
                _spans_row("fp-1", FALLBACK_FAST),
                _spans_row("bad-1", BOUNDED_OUT),
            ],
            schema=INPUT_SCHEMA,
        )
        stage = SelectorStage(sels)
        got: dict[str, list[int]] = {}
        for r in stage(batch).to_pylist():
            got.setdefault(r["doc_id"], []).append(r["n_matches"])
        return stage, got, calls

    def test_selector_stage_count_only_flagged_docs(self, monkeypatch):
        """Count-only SelectorStage (the columnar node-table path) over a
        batch holding a plain doc, a doc with a fallback site and a
        bounded-out doc: the first two count exactly like select_document,
        the third is bounded out (-1 per selector), and each row runs once
        through ``map_documents``."""
        from node_html_parser_ray.stages.selector_stage import select_document

        sels = ["p", "div.c"]
        stage, got, calls = self._count_only(monkeypatch, sels)
        assert stage.columnar == set(sels)
        assert calls == [COUNT_ONLY_PLAIN, FALLBACK_FAST, BOUNDED_OUT]
        for doc_id, html in (("plain-1", COUNT_ONLY_PLAIN), ("fp-1", FALLBACK_FAST)):
            direct = select_document(html, sels, None, False)
            assert got[doc_id] == [n for n, _ in direct]
        assert got["plain-1"] == [3, 1]
        assert got["fp-1"] == [2, 1]
        assert got["bad-1"] == [-1, -1]

    def test_selector_stage_count_only_mixed_selectors(self, monkeypatch):
        """The same batch with selectors the part grammar skips text of
        (``>``) and a ``~=`` whitespace edge, all counted by the columnar
        masks: counts equal select_document for the plain doc and the
        doc with a fallback site, the bounded-out doc is -1 for every
        selector, and each row runs once through ``map_documents``."""
        from node_html_parser_ray.stages.selector_stage import select_document

        sels = ["p", "div.c", "div > p", '[class~=""]']
        stage, got, calls = self._count_only(monkeypatch, sels)
        assert stage.columnar == set(sels)
        assert calls == [COUNT_ONLY_PLAIN, FALLBACK_FAST, BOUNDED_OUT]
        for doc_id, html in (("plain-1", COUNT_ONLY_PLAIN), ("fp-1", FALLBACK_FAST)):
            direct = select_document(html, sels, None, False)
            assert got[doc_id] == [n for n, _ in direct]
        assert got["plain-1"] == [3, 1, 2, 0]
        assert got["bad-1"] == [-1, -1, -1, -1]

    def test_classifier_bounds_adversarial(self, monkeypatch):
        from node_html_parser_ray.stages.classify import BoilerplateClassifier

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        batch = pa.Table.from_pylist(
            [
                _spans_row("good-1", "<div><p>some real content text</p></div>"),
                _spans_row("bad-1", BOUNDED_OUT),
            ],
            schema=INPUT_SCHEMA,
        )
        t0 = time.time()
        out = BoilerplateClassifier(min_text_len=4)(batch)
        assert time.time() - t0 < 30.0
        res = {r["doc_id"]: r for r in out.to_pylist()}
        assert res["good-1"]["n_content_blocks"] == 1
        # bounded-out doc carries the out-of-band drop sentinel
        # (n_content_blocks=-1, consistent with the selector stage's
        # n_matches=-1) so lineage can count dropped docs
        assert res["bad-1"]["main_text"] == ""
        assert res["bad-1"]["n_content_blocks"] == -1
        assert res["bad-1"]["n_boilerplate_blocks"] == 0
        assert res["bad-1"]["content_ratio"] == 0.0

    def test_explode_nodes_bounds_adversarial(self, monkeypatch):
        """The columnar node-explode path (count-only SelectorStage) runs
        through map_documents too: a bounded-out doc contributes no node rows and counts -1
        for every selector."""
        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        good = "<div><p>hello</p></div>"
        batch = pa.Table.from_pylist(
            [_spans_row("good-1", good), _spans_row("bad-1", BOUNDED_OUT)],
            schema=INPUT_SCHEMA,
        )
        sels = ["p", "div p", "*"]
        t0 = time.time()
        out = SelectorStage(sels)(batch)
        assert time.time() - t0 < 30.0
        got: dict[str, list[int]] = {}
        for r in out.to_pylist():
            got.setdefault(r["doc_id"], []).append(r["n_matches"])
        assert got["good-1"] == [n for n, _ in select_document(
            good, sels, None, False)] == [1, 1, 2]
        assert got["bad-1"] == [-1, -1, -1]

    def test_explode_nodes_false_positive_parity(self, monkeypatch):
        """A doc with a fallback site counts exactly like
        select_document."""
        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", FALLBACK_FAST)], schema=INPUT_SCHEMA
        )
        sels = ["p", "div.c p", "*", "a"]
        out = SelectorStage(sels)(batch)
        direct = select_document(FALLBACK_FAST, sels, None, False)
        assert [r["n_matches"] for r in out.to_pylist()] == [
            n for n, _ in direct]

    def test_dom_api_query_bounds_adversarial(self, monkeypatch):
        """q_dom_api embeds corpus text raw in its synthesized html
        (review finding) — every doc runs bounded, through the same
        map_documents call q_dom_api makes; a bounded-out doc comes back
        None (q_dom_api emits its (-1,-1,-1) sentinels for it)."""
        sent = record_rows(monkeypatch)
        from node_html_parser_ray.stages.extract_stage import (
            dom_api_document,
            map_documents,
        )

        # wild corpus text smuggling the shape, too long for the deadline
        text = "<a " + "a" * 100_000
        html = f'<div id="d1" class="a b"> {text} <span>x</span> <!--c--> </div>'
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        assert list(map_documents([html], dom_api_document)) == [None]
        # a doc with a fast fallback site returns its real values
        fp = f'<div id="d1" class="a b"> {FALLBACK_FAST} <span>x</span> <!--c--> </div>'
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        got = list(map_documents([fp], dom_api_document))
        assert sent == [html, fp]
        assert got == [tuple(dom_api_document(fp))]

    def test_sidecar_child_exception_is_bounded_drop(self, monkeypatch):
        """A per-document function raising on a row yields None (this one
        doc is dropped bounded) — review finding: raising instead made the
        whole Ray task fail on every retry.  The rows after it still run,
        with or without a deadline."""
        from node_html_parser_ray.kernel.parser import flat_parse
        from node_html_parser_ray.stages.extract_stage import map_documents

        def parse_then_int(html, suffix):
            flat_parse(html)
            return int(suffix)

        htmls = [FALLBACK_FAST, "<p>plain</p>"]
        for timeout in ("30", "0"):
            monkeypatch.setenv("NHPR_PARSE_TIMEOUT", timeout)
            assert list(map_documents(htmls, parse_then_int, "not-a-number")) \
                == [None, None]
            assert list(map_documents(htmls, parse_then_int, "17")) == [17, 17]

    def test_classifier_false_positive_parity(self, monkeypatch):
        from node_html_parser_ray.stages.classify import (
            BoilerplateClassifier,
            classify_document,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", FALLBACK_FAST)], schema=INPUT_SCHEMA
        )
        out = BoilerplateClassifier(min_text_len=4)(batch).to_pylist()[0]
        mt, nc, nb = classify_document(FALLBACK_FAST, None, 4, 0.5)
        assert (out["main_text"], out["n_content_blocks"],
                out["n_boilerplate_blocks"]) == (mt, nc, nb)
        assert nc == 2


class TestBoundedEndToEnd:
    def test_run_checkpointed_streams_adversarial_corpus(
        self, ray_session, tmp_path, monkeypatch
    ):
        """The north_rule resilience clause: a corpus containing truncated
        pathological crawl pages streams through the checkpointed job
        within a bounded wall time, and every doc lands in the output."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.pipelines.extraction import run_checkpointed

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        src = tmp_path / "src"
        src.mkdir()
        normal = generate_documents(30, seed=11)
        adv = pa.Table.from_pylist(
            [_spans_row("adv-0", BOUNDED_OUT), _spans_row("adv-1", BOUNDED_OUT)],
            schema=INPUT_SCHEMA,
        )
        pq.write_table(normal, str(src / "part-0.parquet"))
        pq.write_table(adv, str(src / "part-1.parquet"))
        out = tmp_path / "out"
        t0 = time.time()
        summary = run_checkpointed(
            [str(src / "part-0.parquet"), str(src / "part-1.parquet")],
            str(out),
            shard_count=2,
        )
        wall = time.time() - t0
        assert wall < 120.0
        assert summary["totals"]["n_docs"] == 32
        # the two adversarial docs are recorded as invalid, not dropped
        assert summary["totals"]["n_invalid"] >= 2

    def test_structured_text_query_bounds_adversarial(self, ray_session, tmp_path):
        """q_structured_text parses raw corpus text as whole documents, so
        it runs through map_documents: a bounded-out doc emits "" within the wall
        bound, and every other doc keeps its joined span text (media alt
        text included)."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.kernel.fast_extract import extract_spans_fast
        from node_html_parser_ray.pipelines.queries import QUERIES

        texts = ["<p>intro</p><img alt='pic' src=x> tail", BOUNDED_OUT,
                 FALLBACK_FAST, None]
        pq.write_table(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())}),
            str(tmp_path / "documents.parquet"),
        )
        t0 = time.time()
        got = QUERIES["structured_text"](str(tmp_path)).to_pandas()
        assert time.time() - t0 < 120.0
        got = dict(zip(got["doc_id"], got["s_text"]))
        assert got[1] == ""
        for i in (0, 2, 3):
            spans = extract_spans_fast(texts[i] or "")[0]
            assert got[i] == "\n".join(s[1] for s in spans), i
        assert got[0] == "intro\npic\ntail"
