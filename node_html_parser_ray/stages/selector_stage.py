"""Stateful selector stage: a fixed selector set on an actor pool.

``ds.map_batches(SelectorStage(selectors), concurrency=N, batch_size=B)``.
Every document goes through :func:`extract_stage.map_documents`, which
bounds out a row whose parse raised, into :func:`explode_document`'s
element rows; one node table per batch holds them (``parent, tag, id,
classes`` and one ``@key`` column per attribute key the selector set
tests), and the vectorized masks of stages/flat_select.py evaluate every
selector over it, with the one selector parse
``kernel.selector.selector_chains``.  ``emit_text`` decides only whether
the matched rows are put in the reference's result order and their texts
built; no node objects are made in either mode.  The reference result,
:func:`select_document` (parse plus the per-document automaton), is
re-exported here for the tests and the benchmark.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from .extract_stage import htmls_from_batch, map_documents
from .flat_select import (
    attribute_keys,
    columnar_select_mask,
    columnar_select_order,
    explode_document,
    node_table,
)
from ..kernel.entities import decode
from ..kernel.selector import select_document

__all__ = ["SelectorStage", "SELECTOR_OUTPUT_SCHEMA", "select_document"]

# n_matches is -1 for a document bounded out by map_documents (its parse
# raised, e.g. past the tokenizer's deadline): the reference itself would
# never terminate on such a document, so an explicit out-of-band count
# beats both hanging and a silent 0.
SELECTOR_OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("selector", pa.string()),
        ("n_matches", pa.int32()),
        ("matches", pa.list_(pa.large_string())),
    ]
)


class SelectorStage:
    """Evaluate a fixed selector set against every document in each batch.

    Emits one row per (doc, selector): match count + matched elements'
    decoded text, in the order and with the comma-union dedup of the
    reference's querySelectorAll (rule: ``flat_select.columnar_select_order``).
    """

    def __init__(self, selectors: Sequence[str], emit_text: bool = True) -> None:
        for sel in selectors:
            # the output ``selector`` column and the Arrow masks are UTF-8:
            # a lone surrogate would fail every batch
            try:
                sel.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(
                    f"selector {sel!r} is not encodable as UTF-8"
                ) from None
        self.selectors = list(selectors)
        self.emit_text = emit_text
        # every selector is counted by the columnar masks; kept only for
        # the benchmark's reader of this attribute
        self.columnar: set[str] = set(self.selectors)
        # the attribute keys the masks test: the node table's @key columns
        self.keys = attribute_keys(self.selectors)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        docs = list(map_documents(
            htmls_from_batch(batch), explode_document, self.keys,
            self.emit_text,
        ))
        keep = [r for r, doc in enumerate(docs) if doc is not None]
        kept = [docs[r] for r in keep]
        nodes = node_table(kept, self.keys)
        sizes = np.asarray([len(doc[0]) for doc in kept], np.int64)
        doc_of = np.repeat(np.asarray(keep, np.int64), sizes)
        if self.emit_text:
            # the last four items of text-mode explode_document results,
            # batch-global: post ranks shift by their doc's first row, text
            # runs by its first text
            post, lo, hi, texts = (
                [v for doc in kept for v in doc[i]] for i in range(-4, 0)
            )
            post = np.asarray(post, np.int64) + np.repeat(
                np.cumsum(sizes) - sizes, sizes)
            n_texts = np.asarray([len(doc[-1]) for doc in kept], np.int64)
            shift = np.repeat(np.cumsum(n_texts) - n_texts, sizes)
            lo = (np.asarray(lo, np.int64) + shift).tolist()
            hi = (np.asarray(hi, np.int64) + shift).tolist()
            found = [columnar_select_order(nodes, sel, post, doc_of)
                     for sel in self.selectors]
            found_texts = [
                [decode("".join(texts[lo[r]:hi[r]])) for r in rows.tolist()]
                for rows in found
            ]
        else:
            found = [np.flatnonzero(columnar_select_mask(nodes, sel))
                     for sel in self.selectors]
        # bounds[s][r]: where document r's rows start in found[s]
        doc_rows = np.arange(len(docs) + 1)
        bounds = [np.searchsorted(doc_of[rows], doc_rows).tolist()
                  for rows in found]

        out_doc: list[str] = []
        out_sel: list[str] = []
        out_n: list[int] = []
        flat_matches: list[str] = []
        offsets: list[int] = [0]
        for r, (doc_id, doc) in enumerate(zip(doc_ids, docs)):
            for s, sel in enumerate(self.selectors):
                lo_r, hi_r = bounds[s][r], bounds[s][r + 1]
                out_doc.append(doc_id)
                out_sel.append(sel)
                # a bounded-out doc has no rows: -1, no matches
                out_n.append(-1 if doc is None else hi_r - lo_r)
                if self.emit_text:
                    flat_matches.extend(found_texts[s][lo_r:hi_r])
                offsets.append(len(flat_matches))
        matches_col = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.array(flat_matches, pa.large_string()),
        )
        return pa.Table.from_arrays(
            [
                pa.array(out_doc, pa.string()),
                pa.array(out_sel, pa.string()),
                pa.array(out_n, pa.int32()),
                matches_col,
            ],
            schema=SELECTOR_OUTPUT_SCHEMA,
        )
