"""Stateful selector stage: a fixed selector set on an actor pool.

``ds.map_batches(SelectorStage(selectors), concurrency=N, batch_size=B)``.
Every document goes through :func:`extract_stage.map_documents`, which
bounds out a row whose parse raised, into :func:`explode_document`'s
element rows; one node table per batch holds them (``parent, tag, id,
classes`` and one ``@key`` column per attribute key the selector set
tests), and the vectorized masks of stages/flat_select.py evaluate every
selector over it, with the one selector parse
``kernel.selector.selector_chains``.  The stage counts matches; it builds
no node objects and no texts.  The matched elements themselves, their
querySelectorAll order and their ``.text``, come from
:func:`select_document` (parse plus the per-document automaton), the
reference the stage is tested against, re-exported here for the tests and
the benchmark.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from .extract_stage import htmls_from_batch, map_documents
from .flat_select import (
    attribute_keys,
    columnar_select_mask,
    explode_document,
    node_table,
)
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
    ]
)


class SelectorStage:
    """Count a fixed selector set's matches in every document of each
    batch: one row per (doc, selector), documents in batch order and
    selectors in the given order within each.

    ``emit_text`` accepts only ``False`` and ``.columnar`` is always the
    whole selector set: both are kept only for the benchmark, which passes
    the one and reads the other, and go with their reader (ROADMAP item 5).
    """

    def __init__(self, selectors: Sequence[str], emit_text: bool = False) -> None:
        if emit_text:
            raise ValueError(
                "SelectorStage only counts matches; select_document gives "
                "the matched elements' texts"
            )
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
        self.columnar: set[str] = set(self.selectors)
        # the attribute keys the masks test: the node table's @key columns
        self.keys = attribute_keys(self.selectors)

    def __call__(self, batch: pa.Table) -> pa.Table:
        docs = list(map_documents(
            htmls_from_batch(batch), explode_document, self.keys))
        keep = [r for r, doc in enumerate(docs) if doc is not None]
        kept = [docs[r] for r in keep]
        nodes = node_table(kept, self.keys)
        sizes = np.asarray([len(doc[0]) for doc in kept], np.int64)
        doc_of = np.repeat(np.asarray(keep, np.int64), sizes)
        # counts[r, s]: selector s's matches in document r
        counts = np.empty((len(docs), len(self.selectors)), np.int64)
        for s, sel in enumerate(self.selectors):
            counts[:, s] = np.bincount(
                doc_of[columnar_select_mask(nodes, sel)], minlength=len(docs))
        # a bounded-out doc has no rows: -1
        counts[np.asarray([doc is None for doc in docs], bool)] = -1
        rows = np.repeat(np.arange(len(docs)), len(self.selectors))
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").take(rows).cast(pa.string()),
                pa.array(self.selectors * len(docs), pa.string()),
                pa.array(counts.ravel(), pa.int32()),
            ],
            schema=SELECTOR_OUTPUT_SCHEMA,
        )
