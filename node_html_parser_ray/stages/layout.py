"""PDF / layout parsing: reading-order extraction from positioned blocks.

north_rule names "PDF/layout parse" alongside HTML boilerplate strip as part
of the main-content extraction tier.  This module provides:

* :func:`xy_cut_order` — the recursive XY-cut page-segmentation algorithm
  (Nagy et al., top-down layout analysis): reading order over positioned
  text blocks.  Pure numpy on block geometry, independent of any PDF
  decoder, and the real algorithmic content of this stage (multi-column
  layouts come out column-major, full-width headers first).
* a deterministic container format (``NHPRPDF1``) standing in for real PDF
  bytes — the container has pages, positioned blocks, and a whole-document
  checksum, so the Ray-side plumbing (binary column in, span rows out,
  actor-pool decode, reading-order verification) is real and testable.
  No PDF decoder wheel is installed; a real decoder comes back together
  with its wheel and a test that runs it.
* :class:`PdfExtractStage` — actor-pool ``map_batches`` callable:
  per-batch vectorized geometry ordering, output in the SAME span column
  as the HTML extraction stage (``extract_stage.spans_column``) so
  downstream pipeline stages are source-agnostic.

Scale shape: stateless per-document work behind an actor pool, small
payload batches like the other binary-column stages; no shuffle anywhere.
"""
from __future__ import annotations

import struct
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa

from .extract_stage import spans_column

__all__ = [
    "xy_cut_order",
    "synthesize_fake_pdf",
    "decode_fake_pdf",
    "PdfExtractStage",
]

_MAGIC = b"NHPRPDF1"
_BLOCK_CHARS = 200   # synthesis: chars per block
_BLOCKS_PER_PAGE = 6  # synthesis: 3 rows x 2 columns
MIN_GAP = 2.0  # xy_cut_order: narrowest whitespace gap it cuts at


def xy_cut_order(boxes: np.ndarray) -> np.ndarray:
    """Reading order of positioned blocks via recursive XY-cut.

    ``boxes`` is (n, 4) ``[x0, y0, x1, y1]`` (y grows downward).  The page
    is recursively split at the widest full-span gap — horizontal cuts
    (top-to-bottom) preferred, then vertical cuts (left-to-right columns);
    leaves fall back to (y, x) sort.  Returns an index permutation.

    This is the classic top-down layout-analysis recursion: a full-width
    title separated by vertical whitespace is emitted before the columns
    below it; a two-column body with a clear gutter is emitted left column
    first, top to bottom, even when the rows of the two columns interleave
    vertically.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    n = len(boxes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order: list[int] = []

    def best_gap(lo: np.ndarray, hi: np.ndarray) -> Optional[float]:
        """Widest gap >= MIN_GAP in the 1-D projection of [lo, hi] spans;
        returns a cut coordinate inside it, or None."""
        srt = np.argsort(lo, kind="stable")
        lo_s, hi_s = lo[srt], hi[srt]
        reach = np.maximum.accumulate(hi_s)
        gaps = lo_s[1:] - reach[:-1]
        if not len(gaps):
            return None
        g = int(np.argmax(gaps))
        if gaps[g] < MIN_GAP:
            return None
        return float((reach[g] + lo_s[g + 1]) / 2.0)

    # explicit LIFO stack, not recursion: a page of ~1000 uniformly spaced
    # lines peels one block per cut (argmax of equal gaps picks the first),
    # which would blow Python's recursion limit
    stack: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    while stack:
        idx = stack.pop()
        if len(idx) <= 1:
            order.extend(int(i) for i in idx)
            continue
        b = boxes[idx]
        cut_y = best_gap(b[:, 1], b[:, 3])
        if cut_y is not None:
            stack.append(idx[b[:, 3] > cut_y])   # bottom (processed second)
            stack.append(idx[b[:, 3] <= cut_y])  # top first
            continue
        cut_x = best_gap(b[:, 0], b[:, 2])
        if cut_x is not None:
            stack.append(idx[b[:, 2] > cut_x])   # right second
            stack.append(idx[b[:, 2] <= cut_x])  # left first
            continue
        # total order on geometry (y0, x0, y1, x1) so the reading order is
        # input-order invariant even under (y0, x0) ties — found by fuzz
        leaf = idx[np.lexsort((b[:, 2], b[:, 3], b[:, 0], b[:, 1]))]
        order.extend(int(i) for i in leaf)
    return np.asarray(order, dtype=np.int64)


def synthesize_fake_pdf(text: str) -> bytes:
    """Deterministic positioned-block container from a document's text.

    The document's text is cut into ``_BLOCK_CHARS``-char blocks laid out
    in a two-column layout (3 rows per column per page, columns vertically
    offset so no full-width horizontal gap exists between body rows — the
    XY-cut must find the column gutter).  Blocks are STORED in a scrambled
    deterministic order (sorted by per-block crc) with their geometry, so
    only a correct reading-order pass reassembles the text; the header
    carries crc32(text) for end-to-end order verification.
    """
    text = text or ""
    data = text.encode("utf-8", "surrogatepass")
    blocks = [
        text[i : i + _BLOCK_CHARS] for i in range(0, len(text), _BLOCK_CHARS)
    ] or [""]
    n_blocks = len(blocks)
    records = []
    for k, btext in enumerate(blocks):
        page = k // _BLOCKS_PER_PAGE
        slot = k % _BLOCKS_PER_PAGE
        rows = (min(n_blocks - page * _BLOCKS_PER_PAGE, _BLOCKS_PER_PAGE) + 1) // 2
        rows = max(rows, 1)
        if slot < rows:  # left column, top to bottom
            col, row = 0, slot
        else:  # right column
            col, row = 1, slot - rows
        x0 = 0.0 if col == 0 else 55.0
        x1 = 45.0 if col == 0 else 100.0
        # columns vertically offset by 7 so row gaps never span the page
        y0 = row * 20.0 + (7.0 if col == 1 else 0.0)
        y1 = y0 + 15.0
        records.append((page, x0, y0, x1, y1, btext))
    # scramble storage order deterministically (reading order recoverable
    # only from the geometry)
    records.sort(key=lambda r: (zlib.crc32(r[5].encode("utf-8", "surrogatepass")), r[0]))
    n_pages = (n_blocks + _BLOCKS_PER_PAGE - 1) // _BLOCKS_PER_PAGE
    out = [
        _MAGIC,
        struct.pack("<III", n_pages, n_blocks, zlib.crc32(data)),
    ]
    for page, x0, y0, x1, y1, btext in records:
        payload = btext.encode("utf-8", "surrogatepass")
        out.append(struct.pack("<Iffff I", page, x0, y0, x1, y1, len(payload)))
        out.append(payload)
    return b"".join(out)


def decode_fake_pdf(data: bytes) -> dict:
    """Parse the NHPRPDF1 container -> pages/blocks/geometry/checksum."""
    if data[:8] != _MAGIC:
        raise ValueError("not an NHPRPDF1 container")
    n_pages, n_blocks, crc = struct.unpack_from("<III", data, 8)
    off = 20
    pages, boxes, texts = [], [], []
    for _ in range(n_blocks):
        # page is uint32 like the n_pages header (round-4 review: the old
        # uint16 block field overflowed past 65535 pages while the header
        # advertised a uint32 range)
        page, x0, y0, x1, y1, tlen = struct.unpack_from("<Iffff I", data, off)
        off += struct.calcsize("<Iffff I")
        texts.append(data[off : off + tlen].decode("utf-8", "surrogatepass"))
        off += tlen
        pages.append(page)
        boxes.append((x0, y0, x1, y1))
    return {
        "n_pages": n_pages,
        "n_blocks": n_blocks,
        "crc": crc,
        "pages": np.asarray(pages, dtype=np.int64),
        "boxes": np.asarray(boxes, dtype=np.float64).reshape(n_blocks, 4),
        "texts": texts,
    }


class PdfExtractStage:
    """Actor-pool map_batches callable: pdf bytes -> reading-order spans.

    Per batch: decode each document, order its blocks per page with
    :func:`xy_cut_order`, emit spans in the extraction stage's span schema
    plus layout metrics and the end-to-end ``order_ok`` checksum verdict.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("pdf").to_pylist()
        kinds: list[str] = []
        texts: list[str] = []
        refs: list[str] = []
        offsets: list[int] = [0]
        n_pages_col: list[int] = []
        n_blocks_col: list[int] = []
        n_chars_col: list[int] = []
        order_ok_col: list[bool] = []
        total = 0
        for data in payloads:
            try:
                # null-tolerant like every other binary-column stage: a
                # null or undecodable payload yields the degenerate row
                # (0 pages/blocks, order_ok=False), never a dead Ray task
                doc = decode_fake_pdf(data or b"")
            except (ValueError, struct.error, IndexError):
                offsets.append(total)
                n_pages_col.append(0)
                n_blocks_col.append(0)
                n_chars_col.append(0)
                order_ok_col.append(False)
                continue
            parts: list[str] = []
            for page in range(doc["n_pages"]):
                on_page = np.nonzero(doc["pages"] == page)[0]
                if not len(on_page):
                    continue
                perm = xy_cut_order(doc["boxes"][on_page])
                for i in on_page[perm]:
                    t = doc["texts"][int(i)]
                    parts.append(t)
                    if t:  # HTML-stage invariant: text spans are non-empty
                        kinds.append("text")
                        texts.append(t)
                        refs.append("")
                        total += 1
            offsets.append(total)
            joined = "".join(parts)
            n_pages_col.append(int(doc["n_pages"]))
            n_blocks_col.append(int(doc["n_blocks"]))
            n_chars_col.append(len(joined))
            order_ok_col.append(
                zlib.crc32(joined.encode("utf-8", "surrogatepass")) == doc["crc"]
            )
        spans_col = spans_column(kinds, texts, refs, offsets)
        return pa.Table.from_arrays(
            [
                pa.array([str(d) for d in doc_ids], pa.string()),
                spans_col,
                pa.array(n_pages_col, pa.int64()),
                pa.array(n_blocks_col, pa.int64()),
                pa.array(n_chars_col, pa.int64()),
                pa.array(order_ok_col, pa.bool_()),
            ],
            names=["doc_id", "spans", "n_pages", "n_blocks", "n_chars", "order_ok"],
        )
