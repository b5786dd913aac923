"""Flagship map_batches kernel: interleaved spans -> extracted span sequence.

Stateless pure-CPU stage (reference semantics per row), so it runs as Ray
*tasks*, not actors (SURVEY.md §2.1); the CPython regexes compile at module
import — once per Ray worker process — and the tokenizer's `regex` copy at
a worker's first site that needs the full pattern.  The tokenizer bounds
every parse with its own deadline (``parser.parse_timeout``, re-exported
here); :func:`map_documents` turns a row whose parse raised into a
bounded-out row.  Batch I/O is zero-copy Arrow
(``batch_format="pyarrow"``): :func:`assemble_batch` builds every row's
document with Arrow compute, so each document crosses into Python once, as
one string, and the output list<struct> column is built from flat arrays +
offsets (no per-row Python object churn on the Arrow side).

Output schema (per-row invariant, FIXTURES.md §2):

    doc_id:  string
    spans:   list<struct<kind, text, media_ref, order:int32>>
    valid:   bool
    metrics: struct<n_nodes,n_elements,n_text,n_comments,n_fixups:int32,
                    n_bytes:int64, n_spans:int32>
"""
from __future__ import annotations

import zlib
from itertools import compress
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.extract import MEDIA_PLACEHOLDER_ATTR
from ..kernel.fast_extract import extract_spans_into
from ..kernel.parser import ParseMetrics, parse_timeout

__all__ = [
    "OUT_SPAN_STRUCT",
    "OUTPUT_SCHEMA",
    "extract_batch",
    "make_extract_batch",
    "assemble_batch",
    "decode_spans_batch",
    "htmls_from_batch",
    "spans_column",
    "partition_ids",
    "add_partition_column",
    "prescan_flags",
    "parse_timeout",
    "map_documents",
    "kernel_extract",
    "dom_api_document",
]

OUT_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.large_string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)
METRICS_STRUCT = pa.struct(
    [
        ("n_nodes", pa.int32()),
        ("n_elements", pa.int32()),
        ("n_text", pa.int32()),
        ("n_comments", pa.int32()),
        ("n_fixups", pa.int32()),
        ("n_bytes", pa.int64()),
        ("n_spans", pa.int32()),
    ]
)
OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(OUT_SPAN_STRUCT)),
        ("valid", pa.bool_()),
        ("metrics", METRICS_STRUCT),
    ]
)


def _row_offsets(spans_col: pa.ListArray) -> np.ndarray:
    """Row-boundary offsets into the flattened child arrays of a (combined)
    list column: ``value_lengths`` (correct for sliced arrays, nulls count
    0) -> one cumsum.  int64, length ``num_rows + 1``."""
    lengths = pc.fill_null(spans_col.value_lengths(), 0).to_numpy(
        zero_copy_only=False
    )
    return np.concatenate(
        [np.zeros(1, np.int64), np.cumsum(lengths, dtype=np.int64)]
    )


def decode_spans_batch(
    batch: pa.Table,
) -> tuple[list[int], list[str], list[str], list[str], list[int]]:
    """Flat-array decode of an interleaved (doc_id, spans) OR (doc_id, html)
    batch -> (row_offsets, kinds, texts, media_refs, offsets).

    One to_pylist per child column; NULL lists and NULL struct fields
    coalesce to ""/0, and a NULL span element is dropped.  With
    ``kernel.extract.assemble_document`` per row this is the Python
    assembly that :func:`assemble_batch` must equal: the tests' reference,
    and the steps the benchmark's in-process replay times.
    """
    if "spans" in batch.column_names:
        spans_col = batch.column("spans").combine_chunks()
        row_offsets = _row_offsets(spans_col).tolist()
        flat = spans_col.flatten()
        f_kind = flat.field("kind").to_pylist()
        f_text = flat.field("text").to_pylist()
        f_ref = flat.field("media_ref").to_pylist()
        f_off = flat.field("offset").to_pylist()
        if flat.null_count or any(
            c.null_count for c in (flat.field("kind"), flat.field("text"),
                                   flat.field("media_ref"), flat.field("offset"))
        ):
            if flat.null_count:
                # a null span element is no span; its fields may still hold
                # values (StructArray.field ignores the parent's validity)
                keep = flat.is_valid().to_numpy(zero_copy_only=False)
                kept = np.concatenate(
                    [np.zeros(1, np.int64), np.cumsum(keep, dtype=np.int64)]
                )
                row_offsets = kept[row_offsets].tolist()
                f_kind, f_text, f_ref, f_off = (
                    list(compress(f, keep))
                    for f in (f_kind, f_text, f_ref, f_off)
                )
            f_kind = [k or "" for k in f_kind]
            f_text = [t or "" for t in f_text]
            f_ref = [m or "" for m in f_ref]
            f_off = [o or 0 for o in f_off]
    else:
        html_col = batch.column("html").to_pylist()
        row_offsets = list(range(len(html_col) + 1))
        f_kind = ["html"] * len(html_col)
        f_text = [h or "" for h in html_col]
        f_ref = [""] * len(html_col)
        f_off = [0] * len(html_col)
    return row_offsets, f_kind, f_text, f_ref, f_off


_PLACEHOLDER_OPEN = f"<img {MEDIA_PLACEHOLDER_ATTR}="


def assemble_batch(
    batch: pa.Table,
) -> tuple[pa.Array, list[Optional[dict[int, tuple[str, str, str]]]]]:
    """Every row's assembled document, built with Arrow compute -> (html
    column, per-row media maps).

    The same documents as :func:`decode_spans_batch` with
    ``assemble_document`` per row: a row's spans in stable ``offset``
    order, each ``html`` span as its text and any other span (a NULL or
    unknown kind included) as a ``<img data-nhpr-media=K>`` placeholder,
    ``K`` counting the row's media spans.  NULL lists and fields coalesce to
    ""/0 and a NULL span element is dropped.  The html column is
    ``large_string`` with one non-null value per row, so a caller reads it
    with one ``to_pylist`` (or ``pc.utf8_length``, which counts code points
    like ``len``); a row's media map ``{K: (kind, text, media_ref)}`` is
    built from its media spans only, and is ``None`` for a row without
    any.  Takes the (doc_id, spans) or the (doc_id, html) schema, sliced
    or chunked.
    """
    n = batch.num_rows
    if "spans" not in batch.column_names:
        html = batch.column("html").combine_chunks().cast(pa.large_string())
        return pc.fill_null(html, ""), [None] * n
    spans_col = batch.column("spans").combine_chunks()
    flat = spans_col.flatten()
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(_row_offsets(spans_col)))
    kind, text, ref, off = (
        flat.field(f) for f in ("kind", "text", "media_ref", "offset")
    )
    if flat.null_count:
        # a null span element is no span; its fields may still hold values
        # (StructArray.field ignores the parent's validity)
        keep = flat.is_valid()
        row = row[keep.to_numpy(zero_copy_only=False)]
        kind, text, ref, off = (c.filter(keep) for c in (kind, text, ref, off))
    # row is non-decreasing, so this orders each row's spans by offset,
    # ties kept in input order
    order = pc.sort_indices(
        pa.table({"row": row, "offset": pc.fill_null(off, 0)}),
        sort_keys=[("row", "ascending"), ("offset", "ascending")],
    ).to_numpy()
    row = row[order]
    is_media = pc.fill_null(pc.not_equal(kind.take(order), "html"), True)
    media = is_media.to_numpy(zero_copy_only=False)
    # K: a media span's ordinal within its row, from the running count of
    # media spans minus the count before the row's first span
    bounds = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])
    seen = np.cumsum(media)
    m_idx = np.flatnonzero(media)
    m_row = row[m_idx]
    k = (seen[m_idx] - 1) - np.concatenate([[0], seen])[bounds[:-1]][m_row]
    placeholders = pc.binary_join_element_wise(
        _PLACEHOLDER_OPEN, pa.array(k).cast(pa.string()), ">", ""
    ).cast(pa.large_string())
    pieces = pc.replace_with_mask(
        pc.fill_null(text.take(order).cast(pa.large_string()), ""),
        is_media, placeholders,
    )
    html = pc.binary_join(
        pa.LargeListArray.from_arrays(pa.array(bounds, pa.int64()), pieces),
        pa.scalar("", pa.large_string()),
    )

    media_maps: list[Optional[dict]] = [None] * n
    m_src = order[m_idx]
    fields = (pc.fill_null(c.take(m_src), "").to_pylist() for c in (kind, text, ref))
    for r, key, *span in zip(m_row.tolist(), k.tolist(), *fields):
        if media_maps[r] is None:
            media_maps[r] = {}
        media_maps[r][key] = tuple(span)
    return html, media_maps


def htmls_from_batch(batch: pa.Table) -> list[str]:
    """Assembled HTML string per row (media spans become placeholder tags)
    for stages that parse whole documents (classifier, selector stages)."""
    return assemble_batch(batch)[0].to_pylist()


def prescan_flags(htmls: list[str], timeout: float):
    """Always ``None``: no document is routed to a second tokenizer path.

    Kept only because the benchmark still imports it
    (``perfbench/inputs.py`` for its corpus stats and
    ``perfbench/kernels.py`` for ``prescan_us_per_doc``); ROADMAP item 5
    deletes it together with those two callers.  Nothing in the package
    calls it."""
    return None


def map_documents(htmls: list[str], fn, *args, per_row=None):
    """``fn(htmls[r], *args)`` for every row ``r``, yielded in row order.

    A ``None`` result means the row was bounded out: ``fn`` raised on it
    (a parse past its deadline raises TimeoutError), and the caller emits
    its stage's out-of-band sentinel.  A malformed ``NHPR_PARSE_TIMEOUT``
    fails the whole batch instead (:func:`parse_timeout` is read once
    before the first row).  Each row runs when the generator reaches it,
    so a caller may drop its reference to row ``r``'s inputs once that
    row's result is consumed.  ``per_row`` is a sequence aligned with
    ``htmls`` whose ``r``-th item goes right after the document
    (extraction's media maps)."""
    parse_timeout()
    for r in range(len(htmls)):
        row = (htmls[r],) if per_row is None else (htmls[r], per_row[r])
        try:
            res = fn(*row, *args)
        except Exception:  # noqa: BLE001 — one bounded-out row, not the batch
            res = None
        yield res


def dom_api_document(html: str) -> tuple[int, int, int]:
    """ONE document through the q_dom_api operator sweep — the per-document
    function :func:`map_documents` runs: pure args in,
    plain ints out.  Returns ``(n_structure_lines, n_json_children,
    n_children_after_rw)``; the first two are read before the
    removeWhitespace/trimRight mutations of the same tree."""
    from ..kernel.parser import parse

    root = parse(html, {"comment": True})
    n_struct = len(root.first_child.structure.splitlines())
    n_json = len(root.to_json()["children"])
    root.first_child.remove_whitespace()
    root.first_child.trim_right("x")
    return n_struct, n_json, len(root.first_child.child_nodes)


def kernel_extract(html: str, media_map: Optional[dict], options: Optional[dict]):
    """One document through the flat-array kernel -> the row result tuple
    ``(kinds, texts, refs, n_spans, valid, metrics6)``: extraction's
    per-document function for :func:`map_documents`."""
    metrics = ParseMetrics()
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    n_spans, valid = extract_spans_into(
        html, media_map, options, metrics, kinds, texts, refs
    )
    return (
        kinds, texts, refs, n_spans, valid,
        (metrics.n_nodes, metrics.n_elements, metrics.n_text,
         metrics.n_comments, metrics.n_fixups, metrics.n_bytes),
    )


def spans_column(
    kinds: list[str], texts: list[str], refs: list[str], offsets: list[int]
) -> pa.ListArray:
    """The ``list<OUT_SPAN_STRUCT>`` spans column from flat span fields,
    row r holding spans ``offsets[r]:offsets[r + 1]``; each span's
    ``order`` is its position within its row."""
    # one vectorized ramp from the offsets
    off_arr = np.asarray(offsets, dtype=np.int64)
    orders = np.arange(off_arr[-1], dtype=np.int32) - np.repeat(
        off_arr[:-1], np.diff(off_arr)
    ).astype(np.int32)
    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.large_string()),
            pa.array(refs, pa.string()),
            pa.array(orders, pa.int32()),
        ],
        fields=list(OUT_SPAN_STRUCT),
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), span_struct)


def extract_batch(batch: pa.Table, options: Optional[dict] = None) -> pa.Table:
    """Parse + extract every document in an Arrow batch.

    Accepts either the interleaved input schema (doc_id, spans) or a plain
    (doc_id, html) schema where the whole payload is one html span.

    Every row runs :func:`kernel_extract` through :func:`map_documents`; a
    doc bounded out by its deadline yields zero spans with ``valid=False``
    and ``n_bytes=len(html)`` (a dropped truncated crawl page, recorded in
    lineage like any other invalid doc).
    """
    html_col, media_maps = assemble_batch(batch)
    htmls = html_col.to_pylist()
    del html_col

    # flat builders for the list<struct> output column
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offsets: list[int] = [0]
    valids: list[bool] = []
    metrics_rows: list[tuple] = []  # one METRICS_STRUCT tuple per row
    total_spans = 0

    results = map_documents(htmls, kernel_extract, options, per_row=media_maps)
    for r, res in enumerate(results):
        if res is None:
            n_spans, valid = 0, False
            mt = (0, 0, 0, 0, 0, len(htmls[r]))
        else:
            c_kinds, c_texts, c_refs, n_spans, valid, mt = res
            kinds.extend(c_kinds)
            texts.extend(c_texts)
            refs.extend(c_refs)
        # release the assembled string as soon as this row is consumed:
        # peak heap stays ~1x the batch's html bytes instead of holding
        # every assembled doc through the whole loop (the bound is
        # documented next to pipelines.extraction.EXTRACT_BATCH_BYTES)
        htmls[r] = media_maps[r] = None
        total_spans += n_spans
        offsets.append(total_spans)
        valids.append(valid)
        metrics_rows.append((*mt, n_spans))

    spans_col = spans_column(kinds, texts, refs, offsets)
    m_cols = np.array(metrics_rows, np.int64).reshape(-1, len(METRICS_STRUCT))
    metrics_col = pa.StructArray.from_arrays(
        [pa.array(m_cols[:, i], f.type) for i, f in enumerate(METRICS_STRUCT)],
        fields=list(METRICS_STRUCT),
    )
    return pa.Table.from_arrays(
        [
            batch.column("doc_id").cast(pa.string()),
            spans_col,
            pa.array(valids, pa.bool_()),
            metrics_col,
        ],
        schema=OUTPUT_SCHEMA,
    )


def make_extract_batch(options: Optional[dict] = None):
    """Bind parsing options into a picklable batch function."""
    if not options:
        return extract_batch

    def _fn(batch: pa.Table) -> pa.Table:
        return extract_batch(batch, options)

    return _fn


# add_partition_column salts documents above GIANT_BYTES into a range of
# GIANT_PARTITIONS partitions of their own.
GIANT_BYTES = 1_000_000
GIANT_PARTITIONS = 8


def partition_ids(doc_ids: list[Optional[str]], num_partitions: int) -> list[int]:
    """Stable hash-partition of doc_ids (crc32 — stable across runs/nodes);
    a null doc_id hashes like ``""``."""
    return [zlib.crc32((d or "").encode()) % num_partitions for d in doc_ids]


def add_partition_column(batch: pa.Table, num_partitions: int = 64) -> pa.Table:
    """Assign ``partition_id`` by doc_id hash (a null doc_id routes like
    ``""``), salting giant documents.

    Documents larger than ``GIANT_BYTES`` are routed to a dedicated
    partition range ``[num_partitions, num_partitions + GIANT_PARTITIONS)``
    so that the heavy tail cannot skew ordinary partitions (north_rule skew
    clause).  Works on both input schemas and the output schema: an output
    row's size is its ``metrics.n_bytes``, an input row's is the length of
    its assembled HTML (``pc.utf8_length`` of :func:`assemble_batch`'s
    column), which is the number :func:`extract_batch` writes as
    ``n_bytes`` for every row, bounded-out ones included, so every document
    keeps its ``partition_id`` through extraction.  ``num_partitions`` is
    64 in the checkpointed pipeline and 8 in q_partition_metrics.
    """
    base = np.array(
        partition_ids(batch.column("doc_id").to_pylist(), num_partitions), np.int64
    )
    if "metrics" in batch.column_names:
        sizes = batch.column("metrics").combine_chunks().field("n_bytes")
    else:
        sizes = pc.utf8_length(assemble_batch(batch)[0])
    giant = pc.greater(sizes, GIANT_BYTES).to_numpy(zero_copy_only=False)
    pids = np.where(giant, num_partitions + base % GIANT_PARTITIONS, base)
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))
