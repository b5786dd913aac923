"""Stateful selector stage: compiled CSS matchers on an actor pool.

The reference compiles a Matcher per querySelector call
(src/index.ts:651-685); at 10^12-doc scale the compile cost must be paid once
per *worker*, not per document.  This stage is a callable class for
``ds.map_batches(SelectorStage(selectors), concurrency=N, batch_size=B)``:
the matcher cache is built in ``__init__`` (once per actor) and reused for
every batch (north_star stateful-stage clause).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from .extract_stage import bounded_lane, htmls_from_batch
from ..kernel.parser import parse
from ..kernel.selector import Matcher, compile_parts, select_union

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
    """ONE document through parse + the whole selector set — the bounded
    lane's per-doc function for prescan-flagged docs, so the result is
    pure args in / plain lists out.  Compiles matchers per call:
    only the rare flagged documents pay that.

    Returns ``[(n_matches, texts), ...]`` aligned with ``selectors``."""
    root = parse(html, options)
    out = []
    for sel in selectors:
        found = select_union(root, compile_parts(sel))
        out.append(
            (len(found), [el.text for el in found] if emit_text else [])
        )
    return out


class SelectorStage:
    """Evaluate a fixed selector set against every document in each batch.

    Emits one row per (doc, selector): match count + matched elements'
    decoded text (pre-order, exactly the reference's querySelectorAll result
    order and comma-union dedup semantics).
    """

    def __init__(self, selectors: Sequence[str], emit_text: bool = True) -> None:
        # once per actor: compile every selector part
        self.selectors = list(selectors)
        self.compiled: list[tuple[str, list[Matcher]]] = [
            (sel, compile_parts(sel)) for sel in self.selectors
        ]
        self.emit_text = emit_text
        # count-only mode routes selectors the columnar grammar covers
        # (tag/#id/.class/[attr] + descendant/comma) through the vectorized
        # node-table path — ~27x faster matching; text emission needs the
        # automaton's reference result order, so it never routes
        self.columnar: set[str] = set()
        if not emit_text:
            from .flat_select import NODE_TABLE_SCHEMA, columnar_select_mask

            probe = NODE_TABLE_SCHEMA.empty_table()
            for sel in self.selectors:
                try:
                    columnar_select_mask(probe, sel)
                    self.columnar.add(sel)
                except ValueError:
                    pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        htmls = htmls_from_batch(batch)
        lane = bounded_lane(
            htmls, select_document, self.selectors, None, self.emit_text
        )

        out_doc: list[str] = []
        out_sel: list[str] = []
        out_n: list[int] = []
        flat_matches: list[str] = []
        offsets: list[int] = [0]

        # per-row match counts of each columnar selector, from one node
        # table over the batch's unflagged docs
        col_counts: dict[str, np.ndarray] = {}
        if self.columnar:
            from .flat_select import (
                columnar_select_mask,
                explode_document,
                node_table,
            )

            keep = [r for r in range(len(htmls)) if r not in lane]
            docs = [explode_document(htmls[r]) for r in keep]
            nodes = node_table([str(doc_ids[r]) for r in keep], docs)
            node_row = np.repeat(
                np.asarray(keep, np.int64), [len(d[0]) for d in docs]
            )
            for sel in self.columnar:
                mask = columnar_select_mask(nodes, sel)
                col_counts[sel] = np.bincount(
                    node_row[mask], minlength=len(htmls)
                )

        automaton = [
            (sel, parts) for sel, parts in self.compiled
            if sel not in self.columnar
        ]
        for r, (doc_id, html) in enumerate(zip(doc_ids, htmls)):
            if r in lane:
                res = lane[r]
                for i, sel in enumerate(self.selectors):
                    out_doc.append(doc_id)
                    out_sel.append(sel)
                    if res is None:
                        out_n.append(-1)
                    else:
                        n, txts = res[i]
                        out_n.append(n)
                        flat_matches.extend(txts)
                    offsets.append(len(flat_matches))
                continue
            root = parse(html) if automaton else None
            for sel, parts in self.compiled:
                out_doc.append(doc_id)
                out_sel.append(sel)
                if sel in self.columnar:
                    out_n.append(int(col_counts[sel][r]))
                else:
                    found = select_union(root, parts)
                    out_n.append(len(found))
                    if self.emit_text:
                        flat_matches.extend(el.text for el in found)
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
