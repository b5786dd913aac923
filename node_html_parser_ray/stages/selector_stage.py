"""Stateful selector stage: a fixed selector set on an actor pool.

``ds.map_batches(SelectorStage(selectors), concurrency=N, batch_size=B)``.
The stage runs in one of two whole-stage modes.  Count-only
(``emit_text=False``) explodes every document into element rows of one
node table per batch (``parent, tag, id, classes`` and one ``@key``
column per attribute key the selector set tests) and counts every
selector with the vectorized masks of stages/flat_select.py.  Text
emission runs :func:`select_document` — parse plus the per-document
automaton of kernel/selector.py, which gives the reference's result order
— per document.  Both modes read the one selector parse
``kernel.selector.selector_chains``, and every document goes through
:func:`extract_stage.map_documents`, which bounds out a row whose parse
raised.
"""
from __future__ import annotations

from itertools import repeat
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
from ..kernel.dom import HTMLElement
from ..kernel.entities import decode
from ..kernel.parser import parse
from ..kernel.selector import compile_parts, select_union

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


def _text_runs(root: HTMLElement) -> tuple[list[str], dict[int, list[int]]]:
    """The tree's text and comment values in pre-order, and each element's
    ``[lo, hi)`` run in them (keyed by ``id``): an element's ``raw_text``
    is ``"".join(values[lo:hi])``.  One walk, so no match re-walks its
    subtree."""
    values: list[str] = []
    runs: dict[int, list[int]] = {}
    stack: list = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, list):  # an element's run, closed after its kids
            node.append(len(values))
        elif isinstance(node, HTMLElement):
            run = runs[id(node)] = [len(values)]
            stack.append(run)
            stack.extend(reversed(node.child_nodes))
        else:
            values.append(node.value)
    return values, runs


def select_document(html, selectors, options, emit_text):
    """ONE document through parse + the automaton for each selector: pure
    args in, plain lists out.  Compiles its matchers per call.

    Returns ``[(n_matches, texts), ...]`` aligned with ``selectors``; a
    match's text is its ``.text``, read off :func:`_text_runs`."""
    root = parse(html, options)
    if emit_text:
        values, runs = _text_runs(root)
    out = []
    for sel in selectors:
        found = select_union(root, compile_parts(sel))
        texts = [
            decode("".join(values[slice(*runs[id(el)])])) for el in found
        ] if emit_text else []
        out.append((len(found), texts))
    return out


class SelectorStage:
    """Evaluate a fixed selector set against every document in each batch.

    Emits one row per (doc, selector): match count + matched elements'
    decoded text (pre-order, exactly the reference's querySelectorAll result
    order and comma-union dedup semantics).
    """

    def __init__(self, selectors: Sequence[str], emit_text: bool = True) -> None:
        for sel in selectors:
            # the output ``selector`` column (and count-only mode's Arrow
            # masks) are UTF-8: a lone surrogate would fail every batch
            try:
                sel.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(
                    f"selector {sel!r} is not encodable as UTF-8"
                ) from None
        self.selectors = list(selectors)
        self.emit_text = emit_text
        # the selectors counted by the columnar masks: all of them in
        # count-only mode; text emission needs the automaton's reference
        # result order, so it counts none there
        self.columnar: set[str] = set() if emit_text else set(self.selectors)
        # the attribute keys the masks test: the node table's @key columns
        self.keys = [] if emit_text else attribute_keys(self.selectors)

    def _count(self, docs: list) -> list:
        """:func:`select_document`-shaped results (``None`` for a bounded-out
        doc) from one node table over the :func:`explode_document` rows of
        the batch's docs."""
        keep = [r for r, doc in enumerate(docs) if doc is not None]
        nodes = node_table([docs[r] for r in keep], self.keys)
        node_row = np.repeat(
            np.asarray(keep, np.int64), [len(docs[r][0]) for r in keep]
        )
        counts = [
            np.bincount(node_row[columnar_select_mask(nodes, sel)],
                        minlength=len(docs)).tolist()
            for sel in self.selectors
        ]
        return [
            None if doc is None else [(c[r], []) for c in counts]
            for r, doc in enumerate(docs)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        htmls = htmls_from_batch(batch)
        if self.emit_text:
            results = list(map_documents(
                htmls, select_document, self.selectors, None, True
            ))
        else:
            results = self._count(list(
                map_documents(htmls, explode_document, self.keys)
            ))

        out_doc: list[str] = []
        out_sel: list[str] = []
        out_n: list[int] = []
        flat_matches: list[str] = []
        offsets: list[int] = [0]
        for doc_id, res in zip(doc_ids, results):
            if res is None:  # bounded out by its deadline
                res = repeat((-1, []))
            for sel, (n, txts) in zip(self.selectors, res):
                out_doc.append(doc_id)
                out_sel.append(sel)
                out_n.append(n)
                flat_matches.extend(txts)
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
