"""Boilerplate classifier: structure/text-density features over isBlock.

north_star clause: "boilerplate classifiers keyed on structure/text density".
Per document, every block-level element (the reference's 40-entry blockTags
list, src/index.ts:1030-1071, as :data:`kernel.dom.BLOCK_TAGS`) becomes a
candidate region scored by its text length and link density (the share of
that text inside ``<a>`` elements — the classic content-extraction
heuristic).  Regions that pass both thresholds are "content"; the rest is
boilerplate.  The classifier reads :func:`kernel.parser.flat_parse`'s flat
tree, and a content region's text is the flat span walk's structuredText
(:func:`kernel.fast_extract.structured_text`); no DOM node object is built.

Stateful stage: thresholds + compiled structures live on the actor
(``map_batches(BoilerplateClassifier(...), concurrency=N)``).
"""
from __future__ import annotations

import pyarrow as pa

from ..kernel.dom import BLOCK_TAGS
from ..kernel.fast_extract import structured_text
from ..kernel.parser import flat_parse
from .extract_stage import htmls_from_batch, map_documents

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


def _text_lengths(tag: list, kids: list, texts: list, k: int) -> tuple[int, int]:
    """(text_len, link_text_len) of element ``k``'s subtree: the stripped
    lengths of its raw texts, and of those inside an ``a`` element (the tag
    test is case-sensitive)."""
    text_len = link_len = 0
    stack: list[tuple[int, bool]] = [(k, False)]
    while stack:
        nid, in_link = stack.pop()
        if nid < 0:
            n = len(texts[-2 - nid].strip())
            text_len += n
            if in_link:
                link_len += n
        elif tag[nid] is not None:  # comment slots are skipped
            child_in_link = in_link or tag[nid] == "a"
            stack.extend((c, child_in_link) for c in kids[nid])
    return text_len, link_len


def classify_document(html, options, min_text_len, max_link_density):
    """ONE document through flat_parse + classify — the per-document
    function :func:`extract_stage.map_documents` runs: pure
    args in, plain tuple ``(main_text, n_content, n_boiler)`` out.

    Decision regions are LEAF blocks (block elements with no direct
    block-element child); wrappers descend, classifications stop descent.
    The walk starts at the root's children and follows ``kids``, so
    elements the repair pass detached are never reached.  Rules, in order
    per element:

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
    node at most once — the walk is linear in document size.
    """
    tree = flat_parse(html, options)
    tag, _, kids, _, texts, _ = tree

    def elements(k: int) -> list[int]:
        """``k``'s element children (no texts or comments), reversed."""
        return [c for c in reversed(kids[k]) if c >= 0 and tag[c] is not None]

    content_parts: list[str] = []
    n_content = n_boiler = 0
    stack = elements(0)
    while stack:
        k = stack.pop()
        t = tag[k].lower()
        children = elements(k)
        if t in BLOCK_TAGS and t not in _STRUCTURAL_TAGS:
            if t in _BOILERPLATE_TAGS:
                n_boiler += 1
                continue
            if not any(tag[c].lower() in BLOCK_TAGS for c in children):
                text_len, link_len = _text_lengths(tag, kids, texts, k)
                link_density = (link_len / text_len) if text_len else 1.0
                if (text_len >= min_text_len
                        and link_density <= max_link_density):
                    st = structured_text(tree, k)
                    if st:
                        content_parts.append(st)
                    n_content += 1
                else:
                    n_boiler += 1
                continue
        stack.extend(children)
    return "\n".join(content_parts), n_content, n_boiler


class BoilerplateClassifier:
    """Label top-level block regions content vs boilerplate; emit main text."""

    def __init__(
        self, min_text_len: int = 25, max_link_density: float = 0.5
    ) -> None:
        self.min_text_len = min_text_len
        self.max_link_density = max_link_density

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        htmls = htmls_from_batch(batch)
        out_text: list[str] = []
        out_nc: list[int] = []
        out_nb: list[int] = []
        out_ratio: list[float] = []
        for res in map_documents(htmls, classify_document, None,
                                 self.min_text_len, self.max_link_density):
            # a bounded-out doc carries the out-of-band n_content=-1
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
