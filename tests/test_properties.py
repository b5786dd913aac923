"""Property-based tests (hypothesis): parser invariants on arbitrary input.

The reference never throws on any input string — parse() is total — and
re-parsing a serialised valid tree is stable.  These properties guard the
kernel against crashes on adversarial documents at corpus scale.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from node_html_parser_ray.kernel import extract_spans, parse
from node_html_parser_ray.sources.corpus import generate_documents

# strings biased toward markup characters
markup_text = st.text(
    alphabet=st.sampled_from(list("<>/=\"' abAB-!&;:\n\tdivspanliput")),
    max_size=300,
)


@st.composite
def nestings(draw, depth=0):
    """Random nesting of five tags, up to 6 deep, with numbered texts: three
    slots in four hold an element, and one element in five is left
    unclosed, so the repair pass moves kids."""
    out = []
    for _ in range(draw(st.integers(1 if depth < 2 else 0, 3))):
        if depth < 6 and draw(st.integers(0, 3)):
            tag = draw(st.sampled_from(["div", "p", "section", "span", "a"]))
            close = f"</{tag}>" if draw(st.integers(0, 4)) else ""
            out.append(f"<{tag}>{draw(nestings(depth + 1))}{close}")
        else:
            out.append(str(draw(st.integers(0, 99))))
    return "".join(out)


@st.composite
def root_targets(draw):
    """A document that ends with a top-level same-tag pair left open, then
    text: ``<t>..<t>..tail``.  The repair pass closes the outer element of
    the pair, so the root receives the kids of the elements it removes, and
    the trailing text lands between that close and those kids.  A closed
    ``<ul>`` of nestings may come first; the two insides are nestings, so
    they may leave more elements open."""
    head = f"<ul>{draw(nestings())}</ul>" if draw(st.booleans()) else ""
    tag = draw(st.sampled_from(["div", "section", "span", "a", "video"]))
    inner = [draw(st.one_of(st.just(""), nestings())) for _ in range(2)]
    tail = draw(st.sampled_from([" tail", ">", "&nbsp;", " ", "x y"]))
    return f"{head}<{tag}>{inner[0]}<{tag}>{inner[1]}{tail}"


class TestParserTotality:
    @given(markup_text)
    @settings(max_examples=300, deadline=None)
    def test_parse_never_raises(self, s):
        root = parse(s)
        assert isinstance(root.valid, bool)
        # serialisation and extraction are also total
        root.to_string()
        extract_spans(root)

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_parse_with_options_never_raises(self, s):
        options = {"comment": True, "script": True, "style": True, "pre": True,
                   "lowerCaseTagName": True}
        parse(s, options).to_string()

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_reserialize_fixed_point(self, s):
        """toString(parse(toString(parse(s)))) == toString(parse(s)).

        One round of parse+serialise normalises the document; a second round
        must be the identity (the repair loop is idempotent on its output).
        """
        def reserialise(html):
            return parse(html).to_string()

        once = reserialise(s)
        twice = reserialise(once)
        assert reserialise(twice) == twice

    @given(markup_text)
    @settings(max_examples=150, deadline=None)
    def test_span_orders_sequential(self, s):
        spans = extract_spans(parse(s))
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
        root = parse(s)
        st_text = root.structured_text
        for kind, text, _, _ in extract_spans(root):
            if kind == "text":
                for piece in text.split("\n"):
                    assert piece in st_text or piece.strip() == ""


class TestBatchKernelParity:
    @given(st.lists(markup_text, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_extract_batch_matches_kernel(self, htmls):
        """The Arrow batch kernel emits exactly the pure-kernel spans."""
        self._check_extract_batch(htmls)

    @given(st.lists(root_targets(), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_extract_batch_matches_kernel_root_target(self, htmls):
        """The same on documents whose repair target is the root."""
        self._check_extract_batch(htmls)

    @staticmethod
    def _check_extract_batch(htmls):
        import pyarrow as pa

        from node_html_parser_ray.stages.extract_stage import extract_batch

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
                 '[a*="a"]', '[a|="a"]', '[a~="ab"]',
                 # empty needles: a missing key must count as the automaton
                 # does (!= true, every other operator false)
                 '[a=""]', '[a^=""]', '[a$=""]', '[a*=""]', '[a|=""]',
                 '[a~=""]', '[a][title]']
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

    @given(st.lists(st.one_of(nestings(), root_targets()), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_selector_stage_text_order_fuzz(self, htmls):
        """Text-mode SelectorStage (the columnar masks, ordered by
        flat_select.columnar_select_order) gives select_document's rows:
        counts, texts and their order, on same-tag nestings where the
        automaton's order is not pre-order."""
        import pyarrow as pa

        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        sels = ["div p", "div div div", "* *", "div * p", "p, div p",
                "div div, div", "section div p"]
        table = pa.table({"doc_id": [str(i) for i in range(len(htmls))],
                          "html": htmls})
        rows = SelectorStage(sels)(table).to_pylist()
        got = [(r["n_matches"], r["matches"]) for r in rows]
        want = [(n, texts) for html in htmls
                for n, texts in select_document(html, sels, None, True)]
        assert got == want, htmls


# span fields: null, empty, markup, non-ASCII and astral text
span_text = st.one_of(st.none(), st.text(
    alphabet=st.sampled_from(list("<>/ ab=\"") + ["é", "€", " ", "𝄞", "😀"]),
    max_size=12,
))
span = st.one_of(
    st.none(),  # a null span element
    st.fixed_dictionaries({
        "kind": st.sampled_from([None, "", "html", "html", "image", "video", "xyz"]),
        "text": span_text,
        "media_ref": span_text,
        # a narrow range gives tied offsets; negatives and None too
        "offset": st.one_of(st.none(), st.integers(-3, 3)),
    }),
)
span_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.text(max_size=3)),
              st.one_of(st.none(), st.lists(span, max_size=8))),
    max_size=8,
)


@st.composite
def batch_views(draw, table):
    """``table`` as Ray may hand it over: split into column chunks at a
    drawn row, then sliced at a drawn offset and length."""
    import pyarrow as pa

    n = table.num_rows
    cut = draw(st.integers(0, n))
    table = pa.concat_tables([table.slice(0, cut), table.slice(cut)])
    start = draw(st.integers(0, n))
    return table.slice(start, draw(st.integers(0, n - start)))


def _python_assembly(batch):
    """Per-row (html, media map or None) by the Python reference path."""
    from node_html_parser_ray.kernel.extract import assemble_document
    from node_html_parser_ray.stages.extract_stage import decode_spans_batch

    rows, kinds, texts, refs, offsets = decode_spans_batch(batch)
    out = []
    for lo, hi in zip(rows[:-1], rows[1:]):
        html, media = assemble_document(
            kinds[lo:hi], texts[lo:hi], refs[lo:hi], offsets[lo:hi])
        out.append((html, media or None))
    return out


class TestArrowAssemblyParity:
    """``assemble_batch`` (Arrow compute) builds the same documents and
    media maps as ``decode_spans_batch`` + ``assemble_document``."""

    def _check(self, batch):
        from node_html_parser_ray.stages.extract_stage import (
            assemble_batch,
            extract_batch,
        )

        html, media = assemble_batch(batch)
        assert html.null_count == 0
        assert list(zip(html.to_pylist(), media)) == _python_assembly(batch)
        out = extract_batch(batch)
        assert out.column("doc_id").to_pylist() == batch.column("doc_id").to_pylist()
        assert out.column("metrics").combine_chunks().field("n_bytes").to_pylist() == [
            len(h) for h in html.to_pylist()]

    @given(span_rows, st.data())
    @settings(max_examples=300, deadline=None)
    def test_spans_schema(self, rows, data):
        import pyarrow as pa

        from node_html_parser_ray.sources.corpus import INPUT_SCHEMA

        table = pa.Table.from_pylist(
            [{"doc_id": d, "spans": s} for d, s in rows], schema=INPUT_SCHEMA)
        self._check(data.draw(batch_views(table)))

    @given(st.lists(st.tuples(st.one_of(st.none(), st.text(max_size=3)), span_text),
                    max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_html_schema(self, rows, data):
        import pyarrow as pa

        table = pa.table({"doc_id": pa.array([d for d, _ in rows], pa.string()),
                          "html": pa.array([h for _, h in rows], pa.string())})
        self._check(data.draw(batch_views(table)))
