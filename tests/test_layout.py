"""PDF/layout parse: XY-cut reading order + container plumbing + query."""
import numpy as np
import pyarrow as pa

from node_html_parser_ray.stages.extract_stage import OUTPUT_SCHEMA
from node_html_parser_ray.stages.layout import (
    PdfExtractStage,
    decode_fake_pdf,
    synthesize_fake_pdf,
    xy_cut_order,
)


class TestXYCut:
    def test_title_then_columns(self):
        """Full-width title first (horizontal cut), then left column top to
        bottom, then right column — even when fed scrambled."""
        boxes = np.array([
            [0, -20, 100, -10],
            [0, 0, 45, 15],
            [0, 20, 45, 35],
            [55, 7, 100, 22],
            [55, 27, 100, 42],
        ], dtype=float)
        perm_in = [3, 1, 4, 0, 2]
        got = [perm_in[i] for i in xy_cut_order(boxes[perm_in])]
        assert got == [0, 1, 2, 3, 4]

    def test_input_order_invariance(self):
        """Reading order is a function of geometry only."""
        rng = np.random.RandomState(0)
        boxes = np.array([
            [0, 0, 45, 15], [0, 20, 45, 35], [0, 40, 45, 55],
            [55, 7, 100, 22], [55, 27, 100, 42], [55, 47, 100, 62],
        ], dtype=float)
        base = None
        for _ in range(5):
            p = rng.permutation(len(boxes))
            got = tuple(p[i] for i in xy_cut_order(boxes[p]))
            base = base or got
            assert got == base == (0, 1, 2, 3, 4, 5)

    def test_leaf_fallback_sorts_by_y_then_x(self):
        """No gap anywhere -> (y, x) sort, not input order."""
        boxes = np.array([
            [0, 1, 10, 11], [9, 0, 20, 10], [0, 9.5, 20, 20],
        ], dtype=float)
        got = list(xy_cut_order(boxes))
        assert got == [1, 0, 2]

    def test_empty(self):
        assert list(xy_cut_order(np.empty((0, 4)))) == []

    def test_deep_page_no_recursion_limit(self):
        """~2000 uniformly spaced lines peel one block per cut — the
        explicit-stack implementation must not hit the recursion limit and
        must return plain top-to-bottom order."""
        n = 2000
        boxes = np.stack([
            np.zeros(n), np.arange(n) * 10.0,
            np.full(n, 100.0), np.arange(n) * 10.0 + 5.0,
        ], axis=1)
        got = xy_cut_order(boxes)
        assert got.tolist() == list(range(n))


class TestXYCutFuzz:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30),
                      st.integers(1, 10), st.integers(1, 10)),
            min_size=0, max_size=24),
        st.integers(0, 2**31 - 1),
    )
    def test_complete_and_input_order_invariant(self, raw, seed):
        """For arbitrary (possibly overlapping) boxes: the result is a
        permutation of all indices, and the sequence of box GEOMETRIES is
        invariant under input shuffling (ties between identical boxes may
        swap indices, never geometry)."""
        boxes = np.array(
            [[x, y, x + w, y + h] for x, y, w, h in raw], dtype=float
        ).reshape(len(raw), 4)
        order = xy_cut_order(boxes)
        assert sorted(order.tolist()) == list(range(len(raw)))
        base_geo = [tuple(boxes[i]) for i in order]
        p = np.random.RandomState(seed).permutation(len(raw))
        got = xy_cut_order(boxes[p])
        got_geo = [tuple(boxes[p][i]) for i in got]
        assert got_geo == base_geo


class TestFakePdfContainer:
    def test_roundtrip_and_scrambled_storage(self):
        # 1500 chars of varying content -> 8 blocks, 2 pages
        text = "".join(f"{i:04d} " for i in range(300))
        raw = synthesize_fake_pdf(text)
        doc = decode_fake_pdf(raw)
        assert doc["n_blocks"] == 8
        assert doc["n_pages"] == 2
        # storage order is scrambled: concatenating as stored must NOT
        # reproduce the text (the stage has to use the geometry)
        assert "".join(doc["texts"]) != text
        # but the block multiset is exactly the 200-char slicing
        want = sorted(text[i:i + 200] for i in range(0, len(text), 200))
        assert sorted(doc["texts"]) == want

    def test_stage_reassembles_exactly(self):
        texts = ["", "short", "é中文" * 321, "block " * 500]
        tb = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "pdf": pa.array(
                [synthesize_fake_pdf(t) for t in texts],
                pa.large_binary()),
        })
        table = PdfExtractStage()(tb)
        # one span layout for HTML and PDF sources
        assert table.schema.field("spans").type == OUTPUT_SCHEMA.field("spans").type
        out = table.to_pandas()
        assert out["order_ok"].all()
        for i, t in enumerate(texts):
            spans = out["spans"][i]
            assert "".join(s["text"] for s in spans) == t
            assert [s["order"] for s in spans] == list(range(len(spans)))
            assert out["n_chars"][i] == len(t)

    def test_corrupted_order_detected(self):
        """If reading order were wrong, order_ok must go false: simulate by
        swapping two blocks' geometry in a decoded doc."""
        import zlib

        text = "".join(f"{i:04d} " for i in range(200))
        doc = decode_fake_pdf(synthesize_fake_pdf(text))
        perm = xy_cut_order(doc["boxes"])
        joined = "".join(doc["texts"][int(i)] for i in perm)
        assert zlib.crc32(joined.encode()) == doc["crc"]
        wrong = "".join(doc["texts"][int(i)] for i in perm[::-1])
        assert zlib.crc32(wrong.encode()) != doc["crc"]


class TestPdfQuery:
    def test_query_matches_closed_form(self, ray_session):
        from node_html_parser_ray.pipelines.queries import QUERIES

        df = QUERIES["pdf_extract"]("/root/testdata/sf0.001").to_pandas()
        assert len(df) == 500
        assert df["order_ok"].all()
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"]).to_pandas()
        m = df.set_index("doc_id")
        for _, row in t.iterrows():
            n = len(row["text"] or "")
            blocks = max((n + 199) // 200, 1)
            assert m.loc[row["doc_id"], "n_chars"] == n
            assert m.loc[row["doc_id"], "n_blocks"] == blocks
            assert m.loc[row["doc_id"], "n_pages"] == (blocks + 5) // 6
