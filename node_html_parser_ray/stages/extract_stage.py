"""Flagship map_batches kernel: interleaved spans -> extracted span sequence.

Stateless pure-CPU stage (reference semantics per row), so it runs as Ray
*tasks*, not actors (SURVEY.md §2.1); the CPython regexes compile at module
import — once per Ray worker process — and the bounded tokenizer's `regex`
copy on a worker's first prescan-flagged document.  Batch I/O is zero-copy Arrow
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
from typing import Optional

import numpy as np
import pyarrow as pa

from ..kernel.extract import assemble_document
from ..kernel.fast_extract import extract_spans_into
from ..kernel.parser import PATHOLOGICAL_RE2, ParseMetrics, is_pathological, run_bounded

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
    fields coalesce to ""/0.  Shared by the extraction, classifier and
    selector stages so every spans consumer gets the fast, null-safe path.
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


def parse_timeout() -> float:
    """Per-document tokenizer deadline for prescan-flagged parses (seconds).
    ``NHPR_PARSE_TIMEOUT`` overrides; <=0 disables the bounded lane
    (flagged docs then parse on CPython ``re`` like every other doc,
    reference behavior)."""
    import os

    env = os.environ.get("NHPR_PARSE_TIMEOUT")
    return float(env) if env else 10.0


def prescan_flags(htmls: list[str], timeout: float):
    """ReDoS prescan for a batch of assembled documents -> bool ndarray
    (True = parse under the bounded tokenizer), or ``None`` when the lane
    is disabled (``timeout <= 0``) or the batch is empty.

    Stage 1 runs VECTORIZED (round-4 review follow-up): the pattern is
    lookaround/backreference-free, so RE2's linear DFA (pyarrow
    match_substring_regex) accepts exactly the same language as Python re —
    measured 2 µs/doc vs 38 µs/doc for the Python engine on the bench
    corpus (~8% of total extraction cost).  Only the rare stage-1 hits pay
    the per-doc Python refinement (is_pathological: raw-text/comment
    '<>'-sentinel strip + re-test).  The package's only prescan: run once
    per batch by :func:`map_documents`, and by the partition router."""
    if timeout <= 0 or not htmls:
        return None
    import pyarrow.compute as pc

    stage1 = pc.match_substring_regex(
        pa.array(htmls, pa.large_string()), PATHOLOGICAL_RE2
    ).to_numpy(zero_copy_only=False)
    flags = np.zeros(len(htmls), dtype=bool)
    for i in np.flatnonzero(stage1):
        flags[i] = is_pathological(htmls[i])
    return flags if flags.any() else None


def map_documents(htmls: list[str], fn, *args, per_row=None):
    """``fn(htmls[r], *args)`` for every row ``r``, yielded in row order —
    the ONE place that reads :func:`parse_timeout` and runs
    :func:`prescan_flags` for a whole-document stage.

    The batch is prescanned once.  A flagged row runs in-process under
    :func:`parser.run_bounded` with the ``NHPR_PARSE_TIMEOUT`` deadline:
    its tokenizer searches run on the interruptible `regex` copy of
    KMARKUP, so the exponential ``re`` backtracking cannot hang the worker.
    A ``None`` result means the row was bounded out (the deadline passed,
    or ``fn`` raised on it), and the caller emits its stage's out-of-band
    sentinel.  Every other row runs on CPython ``re``.  Each row runs when
    the generator reaches it, so a caller may drop its reference to row
    ``r``'s inputs once that row's result is consumed.  ``per_row`` is a
    sequence aligned with ``htmls`` whose ``r``-th item goes right after
    the document (extraction's media maps).  Both engines give the same
    trees (tests/test_engine_parity.py), so a prescan false positive comes
    back with the result an unflagged parse would give.  With the lane
    disabled (``NHPR_PARSE_TIMEOUT<=0``) every row runs on ``re``,
    reference behavior."""
    timeout = parse_timeout()
    flags = prescan_flags(htmls, timeout)
    for r in range(len(htmls)):
        row = (htmls[r],) if per_row is None else (htmls[r], per_row[r])
        if flags is None or not flags[r]:
            yield fn(*row, *args)
            continue
        try:
            res = run_bounded(fn, *row, *args, timeout=timeout)
        except Exception:  # noqa: BLE001 — one bounded-out row, not the batch
            res = None
        yield res


def dom_api_document(html: str) -> tuple[int, int, int]:
    """ONE document through the q_dom_api operator sweep — the per-document
    function :func:`map_documents` runs in either lane: pure args in,
    plain ints out.  Returns ``(n_structure_lines, n_json_children,
    n_children_after_rw)``; parses twice so the
    removeWhitespace/trimRight mutations never affect the first two
    metrics."""
    from ..kernel.parser import parse

    root = parse(html, {"comment": True})
    n_struct = len(root.first_child.structure.splitlines())
    n_json = len(root.to_json()["children"])
    clone = parse(html, {"comment": True})
    clone.first_child.remove_whitespace()
    clone.first_child.trim_right("x")
    return n_struct, n_json, len(clone.first_child.child_nodes)


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
    doc the ReDoS lane bounds out yields zero spans with ``valid=False``
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
        # peak heap stays ~1x the batch's html bytes after the (transient)
        # prescan Arrow copy is freed, instead of holding every assembled
        # doc through the whole loop (the multiplier is documented next to
        # DEFAULT_BATCH_SIZE)
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


def partition_ids(doc_ids: list[Optional[str]], num_partitions: int) -> list[int]:
    """Stable hash-partition of doc_ids (crc32 — stable across runs/nodes);
    a null doc_id hashes like ``""``."""
    return [zlib.crc32((d or "").encode()) % num_partitions for d in doc_ids]


def add_partition_column(
    batch: pa.Table,
    num_partitions: int = 64,
    giant_bytes: int = 1_000_000,
    giant_partitions: int = 8,
) -> pa.Table:
    """Assign ``partition_id`` by doc_id hash (a null doc_id routes like
    ``""``), salting giant documents.

    Documents larger than ``giant_bytes`` are routed to a dedicated
    partition range ``[num_partitions, num_partitions + giant_partitions)``
    so that the heavy tail cannot skew ordinary partitions (north_rule skew
    clause).  Works on both input schemas and the output schema: an output
    row's size is its ``metrics.n_bytes``, an input row's is the length of
    its assembled HTML (:func:`htmls_from_batch`), which is the number
    :func:`extract_batch` writes as ``n_bytes``, so a document keeps its
    ``partition_id`` through extraction.

    Input rows ALSO salt every document the ReDoS lane would parse under
    its deadline (:func:`prescan_flags` under :func:`parse_timeout`), so
    bounded-time stragglers co-locate instead of sitting in ordinary
    partitions.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    base = partition_ids(doc_ids, num_partitions)
    if "metrics" in batch.column_names:
        sizes = batch.column("metrics").combine_chunks().field("n_bytes").to_pylist()
        # already-extracted rows carry no raw html to re-scan
        flags = None
    else:
        htmls = htmls_from_batch(batch)
        sizes = [len(html) for html in htmls]
        flags = prescan_flags(htmls, parse_timeout())
    if flags is None:
        flags = [False] * len(doc_ids)
    pids = [
        num_partitions + (p % giant_partitions)
        if (size > giant_bytes or bad)
        else p
        for p, size, bad in zip(base, sizes, flags)
    ]
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))
