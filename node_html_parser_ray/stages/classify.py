"""Boilerplate classifier: structure/text-density features over isBlock.

north_star clause: "boilerplate classifiers keyed on structure/text density".
Per document, every block-level element (the reference's 40-entry blockTags
list, src/index.ts:1030-1071, as :data:`kernel.dom.BLOCK_TAGS`) becomes a
candidate region scored by its text length and link density (the share of
that text inside ``<a>`` elements — the classic content-extraction
heuristic).  Regions that pass both thresholds are "content"; the rest is
boilerplate.  The classifier reads :func:`kernel.parser.flat_parse`'s flat
tree in one scan of its pre-order events (open ``k``, close ``-1``, text
``-(j + 2)``; the repair pass's ``SKIP`` marks stand for removed elements
and count for nothing), deciding each element at its close, and a content
region's text is the flat span walk's structuredText
(:func:`kernel.fast_extract.structured_text`); no DOM node object is built.

Stateful stage: thresholds + compiled structures live on the actor
(``map_batches(BoilerplateClassifier(...), concurrency=N)``).
"""
from __future__ import annotations

import pyarrow as pa

from ..kernel.dom import BLOCK_TAGS
from ..kernel.fast_extract import structured_text
from ..kernel.parser import SKIP, flat_parse
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


# the decision role of a lowercased tag: 2 for a boilerplate block, 1 for
# any other scored block, none for the rest
_ROLES = {t: 2 if t in _BOILERPLATE_TAGS else 1
          for t in BLOCK_TAGS - _STRUCTURAL_TAGS}


def classify_document(html, options, min_text_len, max_link_density):
    """ONE document through flat_parse + classify — the per-document
    function :func:`extract_stage.map_documents` runs: pure
    args in, plain tuple ``(main_text, n_content, n_boiler)`` out.

    Decision regions are LEAF blocks (block elements with no direct
    block-element child); wrappers descend, classifications stop descent.
    Elements the repair pass removed have no events, so they are never
    reached.  Rules, in order per element:

    1. structural containers (html/body/head) descend, never scored —
       otherwise a wrapped page is one whole-document "content" region
       and boilerplate stripping is a no-op;
    2. boilerplate-tagged blocks (nav/header/footer/aside/form) count
       boilerplate and are NOT descended — content-dense text inside a
       footer must not leak into main_text;
    3. blocks with a direct block child are wrappers: descend unscored
       (their leaf blocks are the decisions);
    4. leaf blocks score by text length / link density and stop: the
       length is that of the subtree's stripped raw texts, the link length
       that of those inside an ``a`` element at or below the block (the
       tag test is case-sensitive).

    One pass over the events decides every element at its close, when its
    subtree's lengths and whether it has a direct block child are known.
    An element that stops descent drops the decisions made inside it, so
    the regions left are disjoint and in document order; only their
    structuredText is built, after the pass, so the whole is linear in
    document size.
    """
    tree = flat_parse(html, options)
    tag, _, events, texts, _ = tree
    n = len(tag)
    roles = [0] * n
    text_len = [0] * n
    link_len = [0] * n
    wraps = [False] * n  # has a direct block child
    marks = [0] * n  # len(decided) at the element's open
    # the regions decided so far: a content region's element, or -1
    decided: list[int] = []
    role_of = _ROLES.get
    skip = SKIP
    stack = [0]
    for e in events:
        if e >= 0:
            t = tag[e]
            if t is not None:  # comment slots have no role
                t = t.lower()
                if t in BLOCK_TAGS:
                    wraps[stack[-1]] = True
                    role = role_of(t)
                    if role:
                        roles[e] = role
                        marks[e] = len(decided)
            stack.append(e)
        elif e == -1:
            k = stack.pop()
            if tag[k] == "a":
                link_len[k] = text_len[k]
            role = roles[k]
            if role == 2:
                del decided[marks[k]:]
                decided.append(-1)
            elif role and not wraps[k]:
                del decided[marks[k]:]
                n_text = text_len[k]
                density = link_len[k] / n_text if n_text else 1.0
                decided.append(k if n_text >= min_text_len
                               and density <= max_link_density else -1)
            p = stack[-1]
            text_len[p] += text_len[k]
            link_len[p] += link_len[k]
        elif e != skip:
            text_len[stack[-1]] += len(texts[-2 - e].strip())

    content_parts: list[str] = []
    for k in decided:
        if k >= 0:
            st = structured_text(tree, k)
            if st:
                content_parts.append(st)
    n_content = len(decided) - decided.count(-1)
    return "\n".join(content_parts), n_content, len(decided) - n_content


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
