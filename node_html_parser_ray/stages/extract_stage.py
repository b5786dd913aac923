"""Flagship map_batches kernel: interleaved spans -> extracted span sequence.

Stateless pure-CPU stage (reference semantics per row), so it runs as Ray
*tasks*, not actors (SURVEY.md §2.1); all regexes compile at module import —
once per Ray worker process.  Batch I/O is zero-copy Arrow
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
from ..kernel.parser import ParseMetrics, is_pathological
from ..kernel.redos_lane import RedosSidecar, kernel_extract

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
    "SIDECAR",
    "bounded_lane",
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
    """Per-document wall bound for prescan-flagged parses (seconds).
    ``NHPR_PARSE_TIMEOUT`` overrides; <=0 disables the bounded lane
    (flagged docs then parse in-process, reference behavior)."""
    import os

    env = os.environ.get("NHPR_PARSE_TIMEOUT")
    return float(env) if env else 10.0


def prescan_flags(htmls: list[str], timeout: float):
    """ReDoS prescan for a batch of assembled documents -> bool ndarray
    (True = route to the bounded sidecar lane), or ``None`` when the lane
    is disabled (``timeout <= 0``) or the batch is empty.

    Stage 1 runs VECTORIZED (round-4 review follow-up): the pattern is
    lookaround/backreference-free, so RE2's linear DFA (pyarrow
    match_substring_regex) accepts exactly the same language as Python re —
    measured 2 µs/doc vs 38 µs/doc for the Python engine on the bench
    corpus (~8% of total extraction cost).  Only the rare stage-1 hits pay
    the per-doc Python refinement (is_pathological: raw-text/comment
    '<>'-sentinel strip + re-test).  Run once per batch by
    :func:`bounded_lane`."""
    if timeout <= 0 or not htmls:
        return None
    import pyarrow.compute as pc

    from ..kernel.parser import PATHOLOGICAL_RE2

    stage1 = pc.match_substring_regex(
        pa.array(htmls, pa.large_string()), PATHOLOGICAL_RE2
    ).to_numpy(zero_copy_only=False)
    flags = np.zeros(len(htmls), dtype=bool)
    for i in np.flatnonzero(stage1):
        flags[i] = is_pathological(htmls[i])
    return flags if flags.any() else None


# One persistent spawn sidecar per worker process for the bounded ReDoS
# lane (kernel/redos_lane.py).  Round-4 review hardening: per-doc fork()
# of the multithreaded Ray worker risked inherited-lock deadlocks that
# present as timeouts (silent nondeterministic doc drops); the spawn
# sidecar starts lock-free and amortizes its startup across the worker's
# lifetime.
SIDECAR = RedosSidecar()


def bounded_lane(htmls: list[str], fn, *args, per_row=None) -> dict:
    """The bounded ReDoS lane for one batch of whole-document parses —
    the ONE place that reads :func:`parse_timeout`, runs
    :func:`prescan_flags` and calls the sidecar.

    Each prescan-flagged row ``r`` runs ``fn(htmls[r], *args)`` in the
    persistent spawn sidecar under the ``NHPR_PARSE_TIMEOUT`` wall bound
    (CPython's regex engine cannot be interrupted mid-match, so a kill-able
    process is the only hard bound).  ``per_row`` is a sequence aligned
    with ``htmls`` whose ``r``-th item goes right after the document
    (extraction's media maps).  ``fn`` must be the module-level per-doc
    function the caller runs in-process for unflagged rows, so prescan
    false positives come back bit-identical, only paying IPC latency.

    Returns ``{r: result}`` for the flagged rows only — callers run
    ``lane[r] if r in lane else <in-process fn>``.  A ``None`` result
    means bounded out (timeout, child crash or child exception): the
    caller emits its stage's out-of-band sentinel instead of hanging the
    worker — ``valid=False`` with no spans (extraction), ``n_matches=-1``
    (selector), ``("", -1, 0)`` (classifier), no node rows (columnar
    explode), ``(-1, -1, -1)`` (dom_api).  Empty when nothing is flagged
    or the lane is disabled (``NHPR_PARSE_TIMEOUT<=0``: flagged docs then
    parse in-process, reference behavior)."""
    timeout = parse_timeout()
    flags = prescan_flags(htmls, timeout)
    if flags is None:
        return {}
    lane = {}
    for r in np.flatnonzero(flags).tolist():
        row = (htmls[r],) if per_row is None else (htmls[r], per_row[r])
        lane[r] = SIDECAR.call(fn, (*row, *args), timeout)
    return lane


def dom_api_document(html: str) -> tuple[int, int, int]:
    """ONE document through the q_dom_api operator sweep — also the
    bounded lane's per-doc function for prescan-flagged docs: pure args
    in, plain ints out.  Returns ``(n_structure_lines, n_json_children,
    n_children_after_rw)``; parses twice like the in-process path so the
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


def extract_batch(batch: pa.Table, options: Optional[dict] = None) -> pa.Table:
    """Parse + extract every document in an Arrow batch.

    Accepts either the interleaved input schema (doc_id, spans) or a plain
    (doc_id, html) schema where the whole payload is one html span.

    Documents flagged by the linear-time ReDoS prescan run through
    :func:`bounded_lane`; a bounded-out doc yields zero spans with
    ``valid=False`` and ``n_bytes=len(html)`` (a dropped truncated crawl
    page, recorded in lineage like any other invalid doc).
    """
    doc_ids = batch.column("doc_id").to_pylist()
    row_offsets, f_kind, f_text, f_ref, f_off = decode_spans_batch(batch)

    # flat builders for the list<struct> output column; the kernel emits
    # spans straight into these (extract_spans_into — no per-span tuple or
    # unpack loop, round-2 verdict #5)
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offsets: list[int] = [0]
    valids: list[bool] = []
    m_nodes: list[int] = []
    m_elements: list[int] = []
    m_text: list[int] = []
    m_comments: list[int] = []
    m_fixups: list[int] = []
    m_bytes: list[int] = []
    m_spans: list[int] = []

    metrics = ParseMetrics()
    total_spans = 0

    htmls: list[str] = []
    media_maps: list[dict] = []
    for r in range(len(doc_ids)):
        lo, hi = row_offsets[r], row_offsets[r + 1]
        html, media_map = assemble_document(
            f_kind[lo:hi], f_text[lo:hi], f_ref[lo:hi], f_off[lo:hi]
        )
        htmls.append(html)
        media_maps.append(media_map)

    lane = bounded_lane(htmls, kernel_extract, options, per_row=media_maps)

    for r in range(len(doc_ids)):
        html, media_map = htmls[r], media_maps[r]
        # release the assembled string as soon as this row consumes it:
        # peak heap stays ~1x the batch's html bytes after the (transient)
        # prescan Arrow copy is freed, instead of holding every assembled
        # doc through the whole loop (round-4 ADVICE memory note; the
        # multiplier is documented next to DEFAULT_BATCH_SIZE)
        htmls[r] = media_maps[r] = None
        if r in lane:
            res = lane[r]
            if res is None:
                n_spans, valid = 0, False
                mt = (0, 0, 0, 0, 0, len(html))
            else:
                c_kinds, c_texts, c_refs, n_spans, valid, mt = res
                kinds.extend(c_kinds)
                texts.extend(c_texts)
                refs.extend(c_refs)
        else:
            # flat-array fast path: no per-node Python objects (differentially
            # tested bit-exact vs parse+extract_spans — tests/test_fast_extract.py)
            n_spans, valid = extract_spans_into(
                html, media_map, options, metrics, kinds, texts, refs
            )
            mt = (metrics.n_nodes, metrics.n_elements, metrics.n_text,
                  metrics.n_comments, metrics.n_fixups, metrics.n_bytes)
        total_spans += n_spans
        offsets.append(total_spans)
        valids.append(valid)
        m_nodes.append(mt[0])
        m_elements.append(mt[1])
        m_text.append(mt[2])
        m_comments.append(mt[3])
        m_fixups.append(mt[4])
        m_bytes.append(mt[5])
        m_spans.append(n_spans)

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
    metrics_col = pa.StructArray.from_arrays(
        [
            pa.array(m_nodes, pa.int32()),
            pa.array(m_elements, pa.int32()),
            pa.array(m_text, pa.int32()),
            pa.array(m_comments, pa.int32()),
            pa.array(m_fixups, pa.int32()),
            pa.array(m_bytes, pa.int64()),
            pa.array(m_spans, pa.int32()),
        ],
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


def partition_ids(doc_ids: list[str], num_partitions: int) -> list[int]:
    """Stable hash-partition of doc_ids (crc32 — stable across runs/nodes)."""
    return [zlib.crc32(d.encode()) % num_partitions for d in doc_ids]


def add_partition_column(
    batch: pa.Table,
    num_partitions: int = 64,
    giant_bytes: int = 1_000_000,
    giant_partitions: int = 8,
) -> pa.Table:
    """Assign ``partition_id`` by doc_id hash, salting giant documents.

    Documents whose assembled HTML exceeds ``giant_bytes`` are routed to a
    dedicated partition range ``[num_partitions, num_partitions +
    giant_partitions)`` so that the heavy tail cannot skew ordinary
    partitions (north_rule skew clause).  Works on both input (sums html
    span lengths) and output (uses metrics.n_bytes) schemas.

    Input-schema batches ALSO route ReDoS-prescan-flagged docs to the same
    salt range, so bounded-time stragglers co-locate instead of sitting in
    ordinary partitions (round-3 verdict #6).  Round-4 review fix: the
    prescan runs over each doc's JOINED span text (vectorized RE2 stage 1
    over per-row ``binary_join``; exact ``is_pathological`` stage 2 only on
    the rare stage-1 hits), not per span — a trigger spanning two html
    spans is caught, and benign script-heavy spans are no longer salted.
    This matches ``extract_batch``'s own lane decision up to two documented
    approximations, both routing-only (extraction output is identical
    either way): non-html spans join as a fixed ``<x>`` placeholder
    (regex-equivalent to the real ``<img data-nhpr-media=K>``), and spans
    join in storage order (every writer emits offset order).
    """
    doc_ids = batch.column("doc_id").to_pylist()
    base = partition_ids(doc_ids, num_partitions)
    if "metrics" in batch.column_names:
        sizes = batch.column("metrics").combine_chunks().field("n_bytes").to_pylist()
        # already-extracted rows carry no raw html to re-scan
        salted = [False] * len(doc_ids)
    elif "spans" in batch.column_names:
        # null-tolerant like extract_batch: a null span list or null
        # kind/text field routes the doc by size 0, never kills the task.
        # Vectorized: per-span char lengths masked to html spans, then a
        # cumsum gathered at row boundaries.
        import pyarrow.compute as pc

        spans_col = batch.column("spans").combine_chunks()
        row_off = _row_offsets(spans_col)
        flat = spans_col.flatten()
        is_html = pc.equal(
            pc.fill_null(flat.field("kind"), ""), "html"
        ).to_numpy(zero_copy_only=False)
        tchars = pc.utf8_length(
            pc.fill_null(flat.field("text"), "")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        tchars[~is_html] = 0
        csum = np.concatenate([np.zeros(1, np.int64), np.cumsum(tchars)])
        sizes = (csum[row_off[1:]] - csum[row_off[:-1]]).tolist()
        from ..kernel.parser import PATHOLOGICAL_RE2, is_pathological

        texts_filled = pc.fill_null(flat.field("text"), "")
        with_ph = pc.if_else(
            pa.array(is_html), texts_filled,
            pa.scalar("<x>", texts_filled.type),
        )
        joined = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(row_off, pa.int32()), with_ph
            ),
            pa.scalar("", texts_filled.type),
        )
        stage1 = pc.fill_null(
            pc.match_substring_regex(joined, PATHOLOGICAL_RE2), False
        ).to_numpy(zero_copy_only=False)
        salted = [False] * len(doc_ids)
        for i in np.flatnonzero(stage1):
            salted[i] = is_pathological(joined[int(i)].as_py())
    else:
        sizes = [0] * len(doc_ids)
        salted = [False] * len(doc_ids)
    pids = [
        num_partitions + (p % giant_partitions)
        if (size > giant_bytes or bad)
        else p
        for p, size, bad in zip(base, sizes, salted)
    ]
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))
