"""Differential tests: the flat span walk == the object span walk, bit-exact.

extract_spans_fast (``flat_parse`` + the flat walk) must return exactly what
extract_spans(parse(html)) does — spans, valid and every metrics counter —
on the pathology corpus, the reference's real-page fixtures, and hypothesis
tag soup.  Both sides read the one tokenizer (``parser.flat_parse``), so this
checks the two span walks, ``parse()``'s materialisation and the metrics, not
tokenization: tests/test_tokenizer_golden.py pins the tokenizer itself.
"""
from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from node_html_parser_ray.kernel.extract import (
    assemble_document,
    extract_spans,
    parse_and_extract,
)
from node_html_parser_ray.kernel.fast_extract import (
    extract_spans_fast,
    structured_text,
)
from node_html_parser_ray.kernel.parser import SKIP, ParseMetrics, flat_parse, parse
from node_html_parser_ray.sources.corpus import generate_documents

markup_text = st.text(
    alphabet=st.sampled_from(list("<>/=\"' abAB-!&;:\n\tdivspanliput")),
    max_size=160,
)

# tag soup that can actually spell the raw-text / media / block tag names,
# so fast-forward, media emission and repair interact in the fuzz corpus
TAG_FRAGMENTS = [
    "<script>", "</script>", "<style>", "</style>", "<pre>", "</pre>",
    "<noscript>", "<img src='/x'>", "<video>", "</video>", "<embed>",
    "<div>", "</div>", "<p>", "</p>", "<li>", "<ul>", "</ul>",
    "<td>", "<tr>", "<table>", "</table>", "<h3>", "</h3>",
    "text ", "&amp;", "&nbsp;", "  ", "<!--", "-->", "<", ">", "'",
    '"', "a=b", " class='c' ",
]
tag_fragments = st.lists(st.sampled_from(TAG_FRAGMENTS), max_size=24).map("".join)


EDGE_CASES = [
    "",
    "plain text only",
    "<div><p>a</p><p>b</p></div>",
    "<ul><li>1<li>2<li>3</ul>",
    "<p>one<h2>two</h2>three",
    "<div><h3>single error</div>",
    "<h3>a<h3>pair error",
    "<table><tr><td>x<td>y<tr><td>z</table>",
    "<script>var a = '<div>not html</div>';</script>after",
    "<script>unterminated",
    "<pre>  spaced   text </pre>tail",
    "<a><b>text</a>",
    "<img src='/x.png' alt='pic'>mid<img>",
    "<video src=/v.mp4>cap</video>",
    "<embed src='e'>",
    "<div>a<!--comment-->b</div>",
    "<!--unterminated comment",
    "<br><br>stacked<br>",
    "<DIV>upper</DIV>",
    "<div  id='i' class='a b'>attrs</div>",
    "<col></col><COL>",
    "<p>&amp; &lt;entities&gt; &#65; &nbsp;</p>",
    "  \t\n  ",
    "<span>&nbsp;</span>",
    "a < b > c",
    "<div" + " " * 30 + "x=1>deep ws</div>",
    "<section><div><p>nested<br>blocks</p></div></section>",
    "<li>loose li outside list",
    "<form><header><footer>implicit</footer></header></form>",
]

# the option sets every edge case runs under
OPTION_SETS = [
    None,
    {"comment": True},
    {"lowerCaseTagName": True},
    {"script": True, "pre": True, "style": True, "noscript": True},
]


def direct_children(tree, k: int) -> list[int]:
    """Element ``k``'s direct children, read off the events between its
    open and its close: element ids, and ``-(j + 2)`` for text ``j``."""
    events = tree[2]
    kids = []
    depth = 0
    for e in events[tree.opens[k] + 1:]:
        if e == SKIP:
            continue
        if e == -1:
            if depth == 0:
                break
            depth -= 1
            continue
        if depth == 0:
            kids.append(e)
        if e >= 0:
            depth += 1
    return kids


def both(html, media_map=None, options=None):
    m_obj = ParseMetrics()
    root = parse(html, options, metrics=m_obj)
    obj_spans = extract_spans(root, media_map)
    m_fast = ParseMetrics()
    fast_spans, fast_valid = extract_spans_fast(html, media_map, options, m_fast)
    return (obj_spans, root.valid, m_obj), (fast_spans, fast_valid, m_fast)


def assert_equal(html, media_map=None, options=None):
    (s0, v0, m0), (s1, v1, m1) = both(html, media_map, options)
    assert s1 == s0, html[:200]
    assert v1 == v0, html[:200]
    for f in ("n_nodes", "n_elements", "n_text", "n_comments", "n_fixups",
              "n_bytes"):
        assert getattr(m1, f) == getattr(m0, f), (f, html[:200])


class TestFastExtractDifferential:
    def test_handwritten_edges(self):
        for html in EDGE_CASES:
            for options in OPTION_SETS:
                assert_equal(html, options=options)

    def test_pathology_corpus(self):
        """Every doc of the generator corpus, via the interleaved path."""
        corpus = generate_documents(400, seed=11, giant_fraction=0.01)
        for row in corpus.to_pylist():
            kinds = [s["kind"] for s in row["spans"]]
            texts = [s["text"] for s in row["spans"]]
            refs = [s["media_ref"] for s in row["spans"]]
            offs = [s["offset"] for s in row["spans"]]
            spans0, valid0, m0 = parse_and_extract(kinds, texts, refs, offs)
            html, media_map = assemble_document(kinds, texts, refs, offs)
            m1 = ParseMetrics()
            spans1, valid1 = extract_spans_fast(html, media_map, metrics=m1)
            assert spans1 == spans0, row["doc_id"]
            assert valid1 == valid0
            assert (m1.n_nodes, m1.n_fixups) == (m0.n_nodes, m0.n_fixups)

    def test_reference_fixtures(self):
        fixture_dir = "/root/reference/test/html"
        if not os.path.isdir(fixture_dir):
            pytest.skip("fixtures unavailable")
        for name in sorted(os.listdir(fixture_dir)):
            with open(os.path.join(fixture_dir, name), encoding="utf-8",
                      errors="replace") as f:
                html = f.read()
            assert_equal(html)

    @settings(max_examples=300, deadline=None)
    @given(markup_text)
    def test_fuzz_parity(self, s):
        assert_equal(s)

    @settings(max_examples=120, deadline=None)
    @given(markup_text)
    def test_fuzz_parity_comment_option(self, s):
        assert_equal(s, None, {"comment": True})

    @settings(max_examples=120, deadline=None)
    @given(markup_text)
    def test_fuzz_parity_rawtext_options(self, s):
        options = {"script": True, "style": True, "pre": True}
        assert_equal(s, None, options)

    @settings(max_examples=300, deadline=None)
    @given(tag_fragments)
    def test_fuzz_parity_tag_soup(self, s):
        options = {"script": True, "style": True, "pre": True, "noscript": True}

        assert_equal(s)
        assert_equal(s, options=options)

    def test_structured_text_from_every_element(self):
        """The flat walk from element k == HTMLElement.structured_text, for
        every element reachable in pre-order (both trees walked in step)."""
        corpus = generate_documents(400, seed=11, giant_fraction=0.01)
        # plus a text that decodes to whitespace: a blank structuredText line
        htmls = EDGE_CASES + ["<p><span><div>&NewLine;</div></span>text</p>"]
        for row in corpus.to_pylist():
            spans = row["spans"]
            htmls.append(assemble_document(
                [s["kind"] for s in spans], [s["text"] for s in spans],
                [s["media_ref"] for s in spans], [s["offset"] for s in spans],
            )[0])
        checked = 0
        for html in htmls:
            for options in OPTION_SETS:
                tree = flat_parse(html, options)
                tag = tree[0]
                stack = [(parse(html, options), 0)]
                while stack:
                    node, k = stack.pop()
                    assert structured_text(tree, k) == node.structured_text, (
                        k, options, html[:200])
                    checked += 1
                    kids = direct_children(tree, k)
                    assert len(node.child_nodes) == len(kids), html[:200]
                    for c, ck in reversed(list(zip(node.child_nodes, kids))):
                        # text 3, comment 8, element 1
                        kind = 3 if ck < 0 else 8 if tag[ck] is None else 1
                        assert c.node_type == kind, html[:200]
                        if kind == 1:
                            stack.append((c, ck))
        assert checked > 10_000

    def test_media_map_paths(self):
        html, media_map = assemble_document(
            ["html", "image", "html", "video"],
            ["<div>a</div>", "cap0", "<p>b</p>", "cap1"],
            ["", "media://d/0", "", "media://d/1"],
            [0, 1, 2, 3],
        )
        assert_equal(html, media_map)
        # missing placeholder entry falls back to attrs
        assert_equal(html, {})
