"""Boilerplate classifier: structure/text-density features over isBlock.

north_star clause: "boilerplate classifiers keyed on structure/text density".
Per document, every block-level element (the reference's 40-entry blockTags
list, src/index.ts:1030-1071, via :func:`kernel.dom.is_block`) becomes a
candidate region scored by text density (text length vs link-text length and
tag count — the classic content-extraction heuristic).  Regions above the
density threshold are "content"; the rest is boilerplate.

Stateful stage: thresholds + compiled structures live on the actor
(``map_batches(BoilerplateClassifier(...), concurrency=N)``).
"""
from __future__ import annotations

from typing import Optional

import pyarrow as pa

from ..kernel.dom import ELEMENT_NODE, HTMLElement, is_block
from ..kernel.parser import parse
from .extract_stage import bounded_lane, htmls_from_batch

__all__ = ["BoilerplateClassifier", "CLASSIFY_OUTPUT_SCHEMA", "classify_document"]

CLASSIFY_OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("main_text", pa.large_string()),
        ("n_content_blocks", pa.int32()),
        ("n_boilerplate_blocks", pa.int32()),
        ("content_ratio", pa.float64()),
    ]
)

_BOILERPLATE_TAGS = frozenset(("nav", "header", "footer", "aside", "form"))
# containers are never scored — a wrapped document would otherwise classify
# <html>/<body> as ONE whole-page region and stripping becomes a no-op
_STRUCTURAL_TAGS = frozenset(("html", "body", "head"))


def _block_features(el: HTMLElement) -> tuple[int, int, int]:
    """(text_len, link_text_len, n_elements) for a block element's subtree."""
    text_len = 0
    link_len = 0
    n_elements = 0
    stack: list[tuple[object, bool]] = [(el, False)]
    while stack:
        node, in_link = stack.pop()
        if node.node_type == ELEMENT_NODE:
            n_elements += 1
            child_in_link = in_link or node.tag_name == "a"
            stack.extend((c, child_in_link) for c in node.child_nodes)
        elif node.node_type == 3:  # text
            n = len(node.value.strip())
            text_len += n
            if in_link:
                link_len += n
    return text_len, link_len, n_elements


def _classify_tree(
    root: HTMLElement, min_text_len: int, max_link_density: float
) -> tuple[str, int, int]:
    """Decision regions are LEAF blocks (block elements with no direct
    block-element child); wrappers descend, classifications stop descent.

    Rules, in order per element:

    1. structural containers (html/body/head) descend, never scored —
       otherwise a wrapped page is one whole-document "content" region
       and boilerplate stripping is a no-op;
    2. boilerplate-tagged blocks (nav/header/footer/aside/form) count
       boilerplate and are NOT descended — content-dense text inside a
       footer must not leak into main_text;
    3. blocks with a direct block child are wrappers: descend unscored
       (their leaf blocks are the decisions);
    4. leaf blocks score by text length / link density and stop.

    Scored subtrees are disjoint, so feature extraction touches every
    node at most once — the walk is linear in document size (the
    previous top-down re-walk was O(depth x subtree) on nested divs).
    """
    content_parts: list[str] = []
    n_content = 0
    n_boiler = 0
    stack = [c for c in reversed(root.child_nodes) if c.node_type == ELEMENT_NODE]
    while stack:
        el = stack.pop()
        tag = el.tag_name.lower()
        if is_block(el) and tag not in _STRUCTURAL_TAGS:
            if tag in _BOILERPLATE_TAGS:
                n_boiler += 1
                continue
            has_block_child = any(
                c.node_type == ELEMENT_NODE and is_block(c)
                for c in el.child_nodes
            )
            if not has_block_child:
                text_len, link_len, _ = _block_features(el)
                link_density = (link_len / text_len) if text_len else 1.0
                if (text_len >= min_text_len
                        and link_density <= max_link_density):
                    st = el.structured_text
                    if st:
                        content_parts.append(st)
                    n_content += 1
                else:
                    n_boiler += 1
                continue
        stack.extend(
            c for c in reversed(el.child_nodes) if c.node_type == ELEMENT_NODE
        )
    return "\n".join(content_parts), n_content, n_boiler


def classify_document(html, options, min_text_len, max_link_density):
    """ONE document through parse + classify — run in-process, or by the
    bounded lane for prescan-flagged docs: pure args in, plain tuple
    ``(main_text, n_content, n_boiler)`` out."""
    return _classify_tree(parse(html, options), min_text_len, max_link_density)


class BoilerplateClassifier:
    """Label top-level block regions content vs boilerplate; emit main text."""

    def __init__(
        self,
        min_text_len: int = 25,
        max_link_density: float = 0.5,
        options: Optional[dict] = None,
    ) -> None:
        self.min_text_len = min_text_len
        self.max_link_density = max_link_density
        self.options = options

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        htmls = htmls_from_batch(batch)
        args = (self.options, self.min_text_len, self.max_link_density)
        lane = bounded_lane(htmls, classify_document, *args)
        out_text: list[str] = []
        out_nc: list[int] = []
        out_nb: list[int] = []
        out_ratio: list[float] = []
        for r, html in enumerate(htmls):
            res = lane[r] if r in lane else classify_document(html, *args)
            main_text, n_content, n_boiler = res or ("", -1, 0)
            out_text.append(main_text)
            out_nc.append(n_content)
            out_nb.append(n_boiler)
            total = n_content + n_boiler
            out_ratio.append(n_content / total if total > 0 else 0.0)
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.string()),
                pa.array(out_text, pa.large_string()),
                pa.array(out_nc, pa.int32()),
                pa.array(out_nb, pa.int32()),
                pa.array(out_ratio, pa.float64()),
            ],
            schema=CLASSIFY_OUTPUT_SCHEMA,
        )
