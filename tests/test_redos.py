"""ReDoS mitigation: prescan + bounded-time parse lane (round-3 verdict #6).

The tokenizer inherits the reference's backtracking blowup on truncated
ambiguous tags (kernel/parser.py comment; src/index.ts:833 explodes
identically in V8).  The mitigation keeps tokenizer semantics untouched:
a linear-time prescan routes suspicious docs to the interruptible `regex`
copy of the tokenizer pattern under a per-document deadline
(``parser.run_bounded``); a doc past the deadline yields zero spans +
valid=False.
"""
from __future__ import annotations

import os
import sys
import time

import pyarrow as pa

from node_html_parser_ray.kernel.parser import is_pathological
from node_html_parser_ray.sources.corpus import INPUT_SCHEMA, generate_documents
from node_html_parser_ray.stages.extract_stage import (
    add_partition_column,
    extract_batch,
)

# ~17 ambiguous chars already cost ~7 s on CPython re and growth is ~3x per
# +2 chars, so 40 chars is effectively unbounded there; the bounded `regex`
# engine parses it in well under a millisecond.
ADVERSARIAL = "<p>intro</p><a " + "a" * 40
# A truncated run the bounded engine cannot finish either: its cost is
# quadratic in the run (~0.1 s at 1 KB, ~10 s at 10 KB), so a 100 KB run
# exceeds every deadline these tests set.
BOUNDED_OUT = "<p>intro</p><a " + "a" * 100_000


SCRIPTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)


def _spans_row(doc_id: str, html: str) -> dict:
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "html", "text": html, "media_ref": "", "offset": 0}],
    }


class TestPrescan:
    def test_flags_adversarial_shapes(self):
        for s in (
            "<a " + "a" * 30,                      # truncated ambiguous tag
            "<p>ok</p><a " + "b" * 40 + "<p>x",    # run ends at '<'
            '<a x="1<2" y',                        # quoted bracket, unterminated
            '<a x="unclosed quote to eof ' + "a" * 10,
            # round-4 review bypass: short pre-bracket run, bracket-free
            # FIRST quoted value — only the quote-aware shape-3 branch
            # catches it (measured ~3x per +2 trailing chars)
            '<a q="" w="1<2" ' + "e" * 12,
            '<a q = "" w = "1<2" ' + "e" * 12,     # JS-WS around '='
            # round-4 review fix: a stripped comment/raw-text region must
            # not MERGE its neighbours — the '<' that terminates the
            # failing run is the region's own first char, and the real
            # tokenizer still backtracks across the run (measured ~9.9 s
            # at run 16).  With the old ''-substitution these looked like
            # terminated '<a run>' tags and went unflagged.
            "<a " + "a" * 16 + "<!--c-->>",
            "<a " + "a" * 16 + "<script>x</script>>",
            # round-4 review fix: raw-text is CASE-SENSITIVE in parse()
            # (t in K_BLOCK_TEXT_ELEMENTS, close via exact '</script>'
            # find), so an uppercase body IS scanned by the tokenizer
            # (measured ~8.5 s at run 16) and must stay visible to the
            # prescan.
            "<SCRIPT><a " + "a" * 16 + "</SCRIPT>",
            "<PRE>a<b " + "q" * 20 + "</PRE>",
            # round-4 fuzz find (seed 9,000,980, 548-char doc parsed ~20 s
            # unflagged): the strip's old [^>]* attrs crossed an UNQUOTED
            # '<', removing a region the tokenizer actually scans — the
            # tag-open attempt dies at that '<' so no raw-text jump ever
            # happens.  The strip's attr grammar now mirrors KMARKUP
            # (brackets only inside '='-anchored quotes).
            '<pre style&#5;e"_u1<></pre><p ',
            "<pre style=\"un&#65;e\" _u=1<2 a='un></pre>",
            # round-4 fuzz find #2 (seed 9,039,100): shape 4 — an
            # '='-anchored quoted value containing '<' followed by a
            # >=8-char quote-free run blows up EVEN WHEN the tag
            # ultimately matches ('<' in the value is load-bearing;
            # spacing is not; measured ~3x per +2 run chars).  Fires on
            # the RAW doc, bypassing the stage-2 strip: the quoted
            # "<pre>" can double as a real raw-text open whose body the
            # PRECEDING failing tag attempt still scans.
            '<Phref="<pre>"datanknown/V>',
            '<P href="<pre>"datanknown/V>',
            "<Pdata-k='<x>'datanknown/V>",
            # prefix crosses earlier complete quoted attrs (shape-3-style
            # units), as in the original fuzz document
            '<P href="/x?y=1&z=2" a=\'un /><pre>tail</ul>'
            "<div lang='un&#65;e'>",
            # round-5 fuzz finds (seeds 9,175,218 / 9,619,904 — recorded
            # as "V8-only" skips by the round-4 campaign but CPython hangs
            # too; shape 5): an '='-anchored quoted value whose span
            # swallows a raw-text open.  The stage-2 strip removes the
            # later well-formed <script>..</script> region, but the
            # PRECEDING tag-open attempt (holding the quote) scans across
            # it and explodes (~15 s at 20 chars of core, ~3x per +2).
            # Contiguous cores of both campaign docs:
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
            # minimal shape-5 forms
            "<img a='un><script x>",
            '<img a="un><style x>',
            # shape 6: TERMINATED tags whose run holds a '/' KMARKUP cannot
            # consume (outside any '='-anchored value, not directly before
            # '>'), measured 1.8-21 s on CPython re.  Random tag-soup finds:
            '<p>x</p><B  /<aa\'=  =\'==aa"  \'"=a"aa\'-a\'"/\'> </<<="a\'"<=/a>'
            "a- ''< a/",
            '<p>x</p><b \'""=a==a"="=a-\'=\'"aa-/"-\'aa /  a-"a\'"/ a-></"""/ '
            ">a<==/ ",
            '<p>x</p><A "="\'"==-\'""a a=a"a" ==-aaa\'/a\'>=aa-a-\'a=a/\'=a="'
            "a='",
            "<a " + "'a" * 10 + "/x>",
            "<a " + "b" * 14 + "/x>",
            "<a b=c " + "d" * 12 + " /x>",
            # every shape starts at a CLOSE tag too, and at the non-ASCII
            # letters CPython's IGNORECASE folds into [a-z]
            "</a " + "b" * 20,
            "<p>x</p></a " + "b" * 16 + "<p>",
            "<\u017f " + "b" * 20,
            "<\u0131 " + "b" * 14 + "/x>",
        ):
            assert is_pathological(s), s

    def test_clears_normal_shapes(self):
        for s in (
            '<a href="https://example.com/long/url?with=queryparams">x</a>',
            '<a href="x">tail with no more quotes to end of document',
            "plain text with a < b comparison and more words after",
            '<div data-x="a>b">terminated quoted bracket</div>',
            "<script>if (a<b) { run(thing, other); }</script><p>x</p>",
            "<td>1 < 2</td>",
            # quote re-pairing FP (round-4): a closing quote must not pair
            # with the next attribute's opening quote and walk out of a
            # normally terminated tag — shape-3 units are '='-anchored
            "<span id='s32' ;=\"\" \"=\"\" class='editable'>x</span><div>y</div>",
            # unterminated quote to EOF after benign attrs is LINEAR in
            # KMARKUP (chars past '<' inside it are unreachable): not flagged
            '<a q="" w="1<2' + "e" * 30,
            # round-4 review fix: the '<>' sentinel replacing a stripped
            # region must not fuse with FOLLOWING text into a phantom
            # '<letter' run (a bare '<' sentinel would flag this)
            "<script>if(a<b){" + "x" * 40 + "}</script>" + "plaintext" * 10,
            # true lowercase raw-text body stays skipped
            "<script><a " + "a" * 30 + "</script>ok",
            "<pre>a<b " + "q" * 30 + "</pre>",
            # quote-aware strip: '='-anchored quoted values may cross
            # brackets in a REAL raw-text open tag (KMARKUP's own quoted
            # branch does), so these must still strip and stay unflagged
            '<pre class="a<b">' + "x<y " * 10 + "</pre>",
            "<pre class='a>b'>" + "x<y " * 10 + "</pre>",
            '<script src=a data-9=\'&notit;\' id="x">' + "if(a<b)" * 8
            + "</script>",
            # shape 6 leaves every '/' the grammar consumes: inside quoted
            # and unquoted '='-anchored values, and the self-close
            '<a href=/x/y.html class="c" target=_blank/>' + "x" * 20 + "</a>",
            "<img src='/a/b/c.png' alt=\"a/b\" data-long-name=/x/ />tail",
            "<a title=a/b/c data-x=y/z>" + "w" * 20 + "</a>",
        ):
            assert not is_pathological(s), s

    def test_clears_reference_fixtures(self):
        # real-world pages (script bodies full of '<') must NOT be flagged
        import glob

        for f in glob.glob("/root/reference/test/html/*.html"):
            s = open(f, encoding="utf-8", errors="replace").read()
            assert not is_pathological(s), f


class TestCampaignSkipList:
    """Round-4 verdict #6: pin the bulk-campaign engine-cost skip list so
    divergences can't silently accumulate behind 'engine constant' skips.

    The round-4 attribute-soup campaign (1M docs, seeds 9,000,000-
    9,999,999) skipped exactly 2 documents as 'V8-only' blowups.  Round-5
    re-measurement (scripts/diff_campaign_attrs.py logs each skip's seed)
    showed BOTH also hang CPython — they were prescan false negatives,
    fixed as shape 5.  The pinned list of genuinely-V8-only skips is
    therefore EMPTY, and the two seeds are regression fixtures: their
    docs must stay prescan-flagged (bounded lane), never silently
    skippable again."""

    # seed -> sha256[:16] of the generated doc (pins generator determinism)
    FORMER_V8_SKIPS = {
        9175218: "d0592b3c8357d695",
        9619904: "2a4de2053f55fa0d",
    }

    def test_former_v8_skips_are_prescan_flagged(self):
        import hashlib
        import random

        sys.path.insert(0, SCRIPTS_DIR)
        from diff_campaign_attrs import _random_html_attrs

        assert len(self.FORMER_V8_SKIPS) == 2  # grows only with evidence
        for seed, sha in self.FORMER_V8_SKIPS.items():
            rng = random.Random(seed)
            html = _random_html_attrs(rng, rng.randint(1, 60))
            assert hashlib.sha256(html.encode()).hexdigest()[:16] == sha
            # the doc hangs CPython re; it must route to the bounded
            # lane (never parse it on re in a test)
            assert is_pathological(html)

    def test_former_v8_skips_bounded_through_stage(self, monkeypatch):
        """Both docs run the bounded engine through the stage within the
        wall limit; it finishes them in milliseconds (CPython re took
        130 s on the second), so they carry their real spans."""
        import random

        sys.path.insert(0, SCRIPTS_DIR)
        from diff_campaign_attrs import _random_html_attrs

        from node_html_parser_ray.kernel.fast_extract import extract_spans_fast
        from node_html_parser_ray.kernel.parser import run_bounded

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
            spans, _ = run_bounded(extract_spans_fast, html, timeout=60.0)
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

    def test_adversarial_40_chars_extracts_real_spans(self, monkeypatch):
        """The 40-char truncated tag that hangs CPython re finishes on the
        bounded engine: its real spans come back well inside a second."""
        assert is_pathological(ADVERSARIAL)
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
        # flagged by the prescan but parses instantly: the bounded engine
        # must return exactly what the unbounded re parse returns
        fp_html = '<p>before</p><a x="1<2" y'
        assert is_pathological(fp_html)
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", fp_html)], schema=INPUT_SCHEMA
        )
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        bounded = extract_batch(batch)
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "0")  # lane disabled
        inline = extract_batch(batch)
        assert bounded.equals(inline)

    def test_partition_router_salts_pathological(self):
        batch = pa.Table.from_pylist(
            [
                _spans_row("good-1", "<p>tiny</p>"),
                _spans_row("bad-1", ADVERSARIAL),
            ],
            schema=INPUT_SCHEMA,
        )
        out = add_partition_column(batch, num_partitions=64)
        pids = {
            r["doc_id"]: r["partition_id"] for r in out.to_pylist()
        }
        assert pids["good-1"] < 64
        assert pids["bad-1"] >= 64  # salted giant/pathological lane

    def test_partition_router_scans_joined_doc_not_spans(self):
        """Round-4 review fix: the router prescan runs over each doc's
        JOINED span text, matching extract_batch's own lane decision —
        a trigger split across two html spans is salted, and a benign
        script-heavy span is not (the per-span scan got both wrong)."""
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
                # per-span stage 1 would flag this (script body '<' run);
                # the doc-level scan applies the raw-text refinement
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
        out = add_partition_column(batch, num_partitions=64)
        pids = {r["doc_id"]: r["partition_id"] for r in out.to_pylist()}
        assert pids["split-1"] >= 64
        assert pids["scripty-1"] < 64
        assert pids["media-cut-1"] >= 64

    def test_partition_router_follows_lane(self, monkeypatch):
        """The router salts exactly the rows the lane parses under its
        deadline plus the giants, and an unflagged row keeps its partition_id
        through extract_batch (input size = assembled length = n_bytes)."""
        from node_html_parser_ray.stages.extract_stage import (
            htmls_from_batch,
            parse_timeout,
            prescan_flags,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
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
            _spans_row("fp-1", FLAGGED_FAST),
            _spans_row("bad-1", ADVERSARIAL),
            *giants,
            {"doc_id": "null-spans", "spans": None},
            _spans_row(None, "<p>no id</p>"),
        ]
        batch = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)
        giant_bytes = 100_000
        htmls = htmls_from_batch(batch)
        flags = prescan_flags(htmls, parse_timeout())
        want = {r for r, html in enumerate(htmls)
                if flags[r] or len(html) > giant_bytes}
        assert want == {0, 2, 3, 4, 5, 6}

        def route(table):
            return add_partition_column(
                table, num_partitions=64, giant_bytes=giant_bytes
            ).column("partition_id").to_pylist()

        before = route(batch)
        assert {r for r, p in enumerate(before) if p >= 64} == want
        after = route(extract_batch(batch))
        for r in range(len(rows)):
            if not flags[r]:
                assert after[r] == before[r], rows[r]["doc_id"]


# flagged by the prescan but parses in well under a second: exercises the
# bounded engine (false-positive parity) without a long wall
FLAGGED_FAST = (
    "<p>before</p><a " + "a" * 12
    + "\n<div class='c'><p>real text here</p></div>"
)


COUNT_ONLY_PLAIN = "<div class='c'><p>hi</p><p>yo</p></div><p>z</p>"


class TestBoundedSelectorClassifier:
    """The selector and boilerplate stages parse whole documents too — they
    share the extraction stage's prescan + bounded lane (round-4 review:
    previously a pathological doc hung those actors unbounded)."""

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

        assert is_pathological(FLAGGED_FAST)  # prescan FP by construction
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", FLAGGED_FAST)], schema=INPUT_SCHEMA
        )
        out = SelectorStage(["p", "div.c"])(batch)
        direct = select_document(FLAGGED_FAST, ["p", "div.c"], None, True)
        got = [(r["n_matches"], list(r["matches"])) for r in out.to_pylist()]
        assert got == [(n, txts) for n, txts in direct]
        assert got[0] == (2, ["before", "real text here"])

    @staticmethod
    def _count_only(monkeypatch, sels):
        """SelectorStage(sels, emit_text=False) over a plain doc, a prescan
        false positive and a bounded-out doc -> (stage, per-doc counts,
        the sizes of the batches prescanned)."""
        from node_html_parser_ray.stages import extract_stage
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        real_prescan = extract_stage.prescan_flags
        calls = []

        def counting_prescan(htmls, timeout):
            calls.append(len(htmls))
            return real_prescan(htmls, timeout)

        monkeypatch.setattr(extract_stage, "prescan_flags", counting_prescan)
        # long enough for the false positive's bounded parse on a loaded
        # host; the bounded-out doc pays the whole bound
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "5.0")
        batch = pa.Table.from_pylist(
            [
                _spans_row("plain-1", COUNT_ONLY_PLAIN),
                _spans_row("fp-1", FLAGGED_FAST),
                _spans_row("bad-1", BOUNDED_OUT),
            ],
            schema=INPUT_SCHEMA,
        )
        stage = SelectorStage(sels, emit_text=False)
        got: dict[str, list[int]] = {}
        for r in stage(batch).to_pylist():
            got.setdefault(r["doc_id"], []).append(r["n_matches"])
            assert r["matches"] == []
        return stage, got, calls

    def test_selector_stage_count_only_flagged_docs(self, monkeypatch):
        """Count-only SelectorStage (the columnar node-table path) over a
        batch holding a plain doc, a prescan false positive and a
        bounded-out doc: the first two count exactly like select_document,
        the third is bounded out (-1 per selector), and the batch is
        prescanned once."""
        from node_html_parser_ray.stages.selector_stage import select_document

        sels = ["p", "div.c"]
        stage, got, calls = self._count_only(monkeypatch, sels)
        assert stage.columnar == set(sels)
        assert calls == [3]
        for doc_id, html in (("plain-1", COUNT_ONLY_PLAIN), ("fp-1", FLAGGED_FAST)):
            direct = select_document(html, sels, None, False)
            assert got[doc_id] == [n for n, _ in direct]
        assert got["plain-1"] == [3, 1]
        assert got["fp-1"] == [2, 1]
        assert got["bad-1"] == [-1, -1]

    def test_selector_stage_count_only_mixed_selectors(self, monkeypatch):
        """The same batch with selectors the part grammar skips text of
        (``>``) and a ``~=`` whitespace edge, all counted by the columnar
        masks: counts equal select_document for the plain doc and the
        false positive (whose node rows come from the bounded engine), the
        bounded-out doc is -1 for every selector, and the batch is
        prescanned once."""
        from node_html_parser_ray.stages.selector_stage import select_document

        sels = ["p", "div.c", "div > p", '[class~=""]']
        stage, got, calls = self._count_only(monkeypatch, sels)
        assert stage.columnar == set(sels)
        assert calls == [3]
        for doc_id, html in (("plain-1", COUNT_ONLY_PLAIN), ("fp-1", FLAGGED_FAST)):
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
        # (n_content_blocks=-1, consistent with the selector lane's
        # n_matches=-1) so lineage can count dropped docs
        assert res["bad-1"]["main_text"] == ""
        assert res["bad-1"]["n_content_blocks"] == -1
        assert res["bad-1"]["n_boilerplate_blocks"] == 0
        assert res["bad-1"]["content_ratio"] == 0.0

    def test_explode_nodes_bounds_adversarial(self, monkeypatch):
        """The columnar node-explode path (count-only SelectorStage) shares
        the lane: a bounded-out doc contributes no node rows and counts -1
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
        out = SelectorStage(sels, emit_text=False)(batch)
        assert time.time() - t0 < 30.0
        got: dict[str, list[int]] = {}
        for r in out.to_pylist():
            got.setdefault(r["doc_id"], []).append(r["n_matches"])
        assert got["good-1"] == [n for n, _ in select_document(
            good, sels, None, False)] == [1, 1, 2]
        assert got["bad-1"] == [-1, -1, -1]

    def test_explode_nodes_false_positive_parity(self, monkeypatch):
        """A prescan false positive's node rows come from the bounded
        engine and count exactly like select_document."""
        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        batch = pa.Table.from_pylist(
            [_spans_row("fp-1", FLAGGED_FAST)], schema=INPUT_SCHEMA
        )
        sels = ["p", "div.c p", "*", "a"]
        out = SelectorStage(sels, emit_text=False)(batch)
        direct = select_document(FLAGGED_FAST, sels, None, False)
        assert [r["n_matches"] for r in out.to_pylist()] == [
            n for n, _ in direct]

    def test_dom_api_query_bounds_adversarial(self, monkeypatch):
        """q_dom_api embeds corpus text raw in its synthesized html
        (review finding) — flagged docs route through the lane, with the
        same map_documents call q_dom_api makes; a bounded-out doc comes
        back None (q_dom_api emits its (-1,-1,-1) sentinels for it)."""
        from node_html_parser_ray.stages import extract_stage
        from node_html_parser_ray.stages.extract_stage import (
            dom_api_document,
            map_documents,
        )

        sent = []
        real_run_bounded = extract_stage.run_bounded

        def recording_run_bounded(fn, *args, timeout):
            sent.append(args[0])
            return real_run_bounded(fn, *args, timeout=timeout)

        monkeypatch.setattr(extract_stage, "run_bounded", recording_run_bounded)
        # wild corpus text smuggling the shape, too long for either engine
        text = "<a " + "a" * 100_000
        html = f'<div id="d1" class="a b"> {text} <span>x</span> <!--c--> </div>'
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "1.0")
        assert list(map_documents([html], dom_api_document)) == [None]
        # FP parity: a benign flagged doc returns real values via the lane
        fp = f'<div id="d1" class="a b"> {FLAGGED_FAST} <span>x</span> <!--c--> </div>'
        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        got = list(map_documents([fp], dom_api_document))
        assert sent == [html, fp]  # flagged, so both ran bounded
        assert got == [tuple(dom_api_document(fp))]

    def test_sidecar_child_exception_is_bounded_drop(self, monkeypatch):
        """A per-document function raising on a flagged row yields None
        (this one doc is dropped bounded) — review finding: raising instead
        made the whole Ray task fail on every retry.  The rows after it
        still run."""
        from node_html_parser_ray.kernel.parser import flat_parse
        from node_html_parser_ray.stages.extract_stage import map_documents

        def parse_then_int(html, suffix):
            flat_parse(html)
            return int(suffix)

        monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "30")
        htmls = [FLAGGED_FAST, FLAGGED_FAST + " "]
        assert all(map(is_pathological, htmls))
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
            [_spans_row("fp-1", FLAGGED_FAST)], schema=INPUT_SCHEMA
        )
        out = BoilerplateClassifier(min_text_len=4)(batch).to_pylist()[0]
        mt, nc, nb = classify_document(FLAGGED_FAST, None, 4, 0.5)
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
        it shares the lane: a bounded-out doc emits "" within the wall
        bound, and every other doc keeps its joined span text (media alt
        text included)."""
        import pyarrow.parquet as pq

        from node_html_parser_ray.kernel.fast_extract import extract_spans_fast
        from node_html_parser_ray.pipelines.queries import QUERIES

        texts = ["<p>intro</p><img alt='pic' src=x> tail", BOUNDED_OUT,
                 FLAGGED_FAST, None]
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
