"""Flagship map_batches kernel: interleaved spans -> extracted span sequence.

Stateless pure-CPU stage (reference semantics per row), so it runs as Ray
*tasks*, not actors (SURVEY.md §2.1); the CPython regexes compile at module
import — once per Ray worker process — and the tokenizer's `regex` copy at
a worker's first site that needs the full pattern.  The tokenizer bounds
every parse with its own deadline (``parser.parse_timeout``, re-exported
here); :func:`map_documents` turns a row whose parse raised into a
bounded-out row.  Batch I/O is zero-copy Arrow
(``batch_format="pyarrow"``); the output list<struct> column is built from
flat arrays + offsets (no per-row Python object churn on the Arrow side).

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

from ..kernel.extract import assemble_document
from ..kernel.fast_extract import extract_spans_into
from ..kernel.parser import ParseMetrics, parse_timeout

__all__ = [
    "OUT_SPAN_STRUCT",
    "OUTPUT_SCHEMA",
    "extract_batch",
    "make_extract_batch",
    "decode_spans_batch",
    "htmls_from_batch",
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
    import pyarrow.compute as pc

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

    One to_pylist per child column instead of a Python dict per span
    (list<struct> to_pylist is 2-3x slower); NULL lists and NULL struct
    fields coalesce to ""/0, and a NULL span element is dropped.  Shared by
    the extraction, classifier and selector stages so every spans consumer
    gets the fast, null-safe path.
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


def htmls_from_batch(batch: pa.Table) -> list[str]:
    """Assembled HTML string per row (media spans become placeholder tags)
    for stages that parse whole documents (classifier, selector stages)."""
    row_offsets, f_kind, f_text, f_ref, f_off = decode_spans_batch(batch)
    return [
        assemble_document(
            f_kind[lo:hi], f_text[lo:hi], f_ref[lo:hi], f_off[lo:hi]
        )[0]
        for lo, hi in zip(row_offsets[:-1], row_offsets[1:])
    ]


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


def extract_batch(batch: pa.Table, options: Optional[dict] = None) -> pa.Table:
    """Parse + extract every document in an Arrow batch.

    Accepts either the interleaved input schema (doc_id, spans) or a plain
    (doc_id, html) schema where the whole payload is one html span.

    Every row runs :func:`kernel_extract` through :func:`map_documents`; a
    doc bounded out by its deadline yields zero spans with ``valid=False``
    and ``n_bytes=len(html)`` (a dropped truncated crawl page, recorded in
    lineage like any other invalid doc).
    """
    doc_ids = batch.column("doc_id").to_pylist()
    row_offsets, f_kind, f_text, f_ref, f_off = decode_spans_batch(batch)

    # flat builders for the list<struct> output column
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offsets: list[int] = [0]
    valids: list[bool] = []
    metrics_rows: list[tuple] = []  # one METRICS_STRUCT tuple per row
    total_spans = 0

    htmls: list[str] = []
    media_maps: list[dict] = []
    for lo, hi in zip(row_offsets[:-1], row_offsets[1:]):
        html, media_map = assemble_document(
            f_kind[lo:hi], f_text[lo:hi], f_ref[lo:hi], f_off[lo:hi]
        )
        htmls.append(html)
        media_maps.append(media_map)

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
        # every assembled doc through the whole loop (the multiplier is
        # documented next to DEFAULT_BATCH_SIZE)
        htmls[r] = media_maps[r] = None
        total_spans += n_spans
        offsets.append(total_spans)
        valids.append(valid)
        metrics_rows.append((*mt, n_spans))

    # order = position within the doc: one vectorized ramp from the offsets
    off_arr = np.asarray(offsets, dtype=np.int64)
    orders = np.arange(total_spans, dtype=np.int32) - np.repeat(
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
    spans_col = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), span_struct)
    m_cols = list(zip(*metrics_rows)) or [()] * len(METRICS_STRUCT)
    metrics_col = pa.StructArray.from_arrays(
        [pa.array(col, f.type) for col, f in zip(m_cols, METRICS_STRUCT)],
        fields=list(METRICS_STRUCT),
    )
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, pa.string()),
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
    its assembled HTML (:func:`htmls_from_batch`), which is the number
    :func:`extract_batch` writes as ``n_bytes`` for every row, bounded-out
    ones included, so every document keeps its ``partition_id`` through
    extraction.  ``num_partitions`` is 64 in the checkpointed pipeline and
    8 in q_partition_metrics.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    base = partition_ids(doc_ids, num_partitions)
    if "metrics" in batch.column_names:
        sizes = batch.column("metrics").combine_chunks().field("n_bytes").to_pylist()
    else:
        sizes = [len(html) for html in htmls_from_batch(batch)]
    pids = [
        num_partitions + (p % GIANT_PARTITIONS) if size > GIANT_BYTES else p
        for p, size in zip(base, sizes)
    ]
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))
