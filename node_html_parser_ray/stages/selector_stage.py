"""Stateful selector stage: a fixed selector set on an actor pool.

``ds.map_batches(SelectorStage(selectors), concurrency=N, batch_size=B)``.
Each actor decides once, in ``__init__``, which selectors the columnar
node-table path (stages/flat_select.py) covers; in count-only mode those
are counted by vectorized masks over one node table per batch, and the
rest run the per-document automaton (kernel/selector.py), which compiles
its matchers per call: no matcher cache is kept.  Every document, flagged
by the ReDoS prescan or not, goes through the same per-document function
:func:`stage_document` via :func:`extract_stage.map_documents`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from .extract_stage import htmls_from_batch, map_documents
from .flat_select import (
    NODE_TABLE_SCHEMA,
    columnar_select_mask,
    explode_document,
    node_table,
)
from ..kernel.parser import parse
from ..kernel.selector import compile_parts, select_union

__all__ = ["SelectorStage", "SELECTOR_OUTPUT_SCHEMA", "select_document"]

# n_matches is -1 for a document the bounded ReDoS lane dropped (sidecar
# wall bound expired): the reference itself would never terminate on such a
# document, so an explicit out-of-band count beats both hanging and a
# silent 0.
SELECTOR_OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("selector", pa.string()),
        ("n_matches", pa.int32()),
        ("matches", pa.list_(pa.large_string())),
    ]
)


def select_document(html, selectors, options, emit_text):
    """ONE document through parse + the automaton for each selector: pure
    args in, plain lists out.  Compiles its matchers per call.

    Returns ``[(n_matches, texts), ...]`` aligned with ``selectors``."""
    root = parse(html, options)
    out = []
    for sel in selectors:
        found = select_union(root, compile_parts(sel))
        out.append(
            (len(found), [el.text for el in found] if emit_text else [])
        )
    return out


def stage_document(html, explode, automaton, emit_text):
    """ONE document through :class:`SelectorStage` — the per-document
    function both lanes run.  Returns ``(rows, results)``: the
    :func:`flat_select.explode_document` rows when ``explode`` is set (the
    stage has columnar selectors), else ``None``, and the
    :func:`select_document` results for the ``automaton`` selectors."""
    return (
        explode_document(html) if explode else None,
        select_document(html, automaton, None, emit_text) if automaton else [],
    )


class SelectorStage:
    """Evaluate a fixed selector set against every document in each batch.

    Emits one row per (doc, selector): match count + matched elements'
    decoded text (pre-order, exactly the reference's querySelectorAll result
    order and comma-union dedup semantics).
    """

    def __init__(self, selectors: Sequence[str], emit_text: bool = True) -> None:
        self.selectors = list(selectors)
        self.emit_text = emit_text
        # count-only mode routes selectors the columnar grammar covers
        # (tag/#id/.class/[attr] + descendant/comma) through the vectorized
        # node-table path — ~27x faster matching; text emission needs the
        # automaton's reference result order, so it never routes
        self.columnar: set[str] = set()
        if not emit_text:
            probe = NODE_TABLE_SCHEMA.empty_table()
            for sel in self.selectors:
                try:
                    columnar_select_mask(probe, sel)
                    self.columnar.add(sel)
                except ValueError:
                    pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        automaton = [s for s in self.selectors if s not in self.columnar]
        results = list(map_documents(
            htmls_from_batch(batch), stage_document, bool(self.columnar),
            automaton, self.emit_text,
        ))

        # per-row match counts of each columnar selector, from one node
        # table over the batch's docs that were not bounded out
        col_counts: dict[str, np.ndarray] = {}
        if self.columnar:
            keep = [r for r, res in enumerate(results) if res is not None]
            docs = [results[r][0] for r in keep]
            nodes = node_table([str(doc_ids[r]) for r in keep], docs)
            node_row = np.repeat(
                np.asarray(keep, np.int64), [len(d[0]) for d in docs]
            )
            for sel in self.columnar:
                mask = columnar_select_mask(nodes, sel)
                col_counts[sel] = np.bincount(
                    node_row[mask], minlength=len(results)
                )

        out_doc: list[str] = []
        out_sel: list[str] = []
        out_n: list[int] = []
        flat_matches: list[str] = []
        offsets: list[int] = [0]
        for r, (doc_id, res) in enumerate(zip(doc_ids, results)):
            # the automaton selectors' results, in selector order
            automaton_results = iter(res[1] if res is not None else ())
            for sel in self.selectors:
                out_doc.append(doc_id)
                out_sel.append(sel)
                if res is None:
                    out_n.append(-1)
                elif sel in self.columnar:
                    out_n.append(int(col_counts[sel][r]))
                else:
                    n, txts = next(automaton_results)
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
