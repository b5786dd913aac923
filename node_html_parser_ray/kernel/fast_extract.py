"""The span walk over the flat tree: spans without DOM node objects.

``extract_spans_into`` runs :func:`parser.flat_parse` and walks its flat
tree with :func:`walk_spans`, the structuredText-style span walk (reference
src/index.ts:231-268) of :func:`extract.extract_spans`, which walks the
object tree ``parse()`` materialises.  No HTMLElement / TextNode is ever
constructed: the object allocation traffic is what limits the flagship
pipeline's memory bandwidth at high CPU counts.  The walk is one ``for``
loop over the tree's pre-order events (open ``k``, close ``-1``, text
``-(j + 2)``, and the repair pass's :data:`parser.SKIP`, which stands for
nothing) with a stack of the open elements' roles: a block element's open
and close end the current text block, a media element's open emits its
span.  Comment slots (tag ``None``) are elements without kids or media, so
the walk passes over them.  :func:`structured_text` runs the same walk
over one element's events, from its open (``FlatTree.opens``) to its
close, without media tags: it is ``HTMLElement.structured_text`` for the
boilerplate classifier.

For every input both walks return the same spans; the differential tests
(tests/test_fast_extract.py) check that, with ``valid``, the metrics and
the structuredText of every element.
"""
from __future__ import annotations

from typing import Optional

from .dom import (
    K_BLOCK_ELEMENTS,
    _MULTI_WS_RE,
    _TRAILING_WS_RE,
    _WHITESPACE_RE,
    attribute_map,
)
from .entities import decode
from .extract import MEDIA_PLACEHOLDER_ATTR as _MEDIA_PLACEHOLDER_ATTR
from .extract import MEDIA_TAG_KINDS as _MEDIA_TAG_KINDS
from .jsregex import js_trim
from .parser import SKIP, ParseMetrics, flat_parse

__all__ = ["extract_spans_fast", "extract_spans_into", "structured_text", "walk_spans"]

_ASCII_WS = "\t\n\v\f\r "


def extract_spans_fast(
    data: str,
    media_map: Optional[dict[int, tuple[str, str, str]]] = None,
    options: Optional[dict] = None,
    metrics: Optional[ParseMetrics] = None,
) -> tuple[list[tuple[str, str, str, int]], bool]:
    """Parse + span walk; returns ``([(kind, text, media_ref, order), ...],
    valid)`` — the differential-test surface.

    Thin wrapper over :func:`extract_spans_into` (the batch hot path emits
    into flat builders and never builds these tuples).
    """
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    n, valid = extract_spans_into(data, media_map, options, metrics,
                                  kinds, texts, refs)
    return list(zip(kinds, texts, refs, range(n))), valid


def extract_spans_into(
    data: str,
    media_map: Optional[dict[int, tuple[str, str, str]]],
    options: Optional[dict],
    metrics: Optional[ParseMetrics],
    out_kinds: list[str],
    out_texts: list[str],
    out_refs: list[str],
) -> tuple[int, bool]:
    """:func:`parser.flat_parse` + span walk, emitting spans DIRECTLY into
    the caller's flat column builders (no per-span tuple); returns
    (n_spans, valid).  ``order`` is implied: span i of the
    document is order i, so the caller derives the column from its offsets
    (vectorized), never per span.
    """
    tree = flat_parse(data, options, metrics)
    n_spans = walk_spans(tree, 0, _MEDIA_TAG_KINDS, media_map, False,
                         out_kinds, out_texts, out_refs)
    return n_spans, tree[4]


def structured_text(tree: tuple, k: int) -> str:
    """structuredText of element ``k`` of a :func:`parser.flat_parse` tree:
    its text blocks, blank ones included, joined by newlines."""
    blocks: list[str] = []
    walk_spans(tree, k, {}, None, True, [], blocks, [])
    return _TRAILING_WS_RE.sub("", "\n".join(blocks))


def walk_spans(tree: tuple, start: int, media_kinds: dict[str, str],
               media_map: Optional[dict[int, tuple[str, str, str]]],
               keep_empty: bool, out_kinds: list[str], out_texts: list[str],
               out_refs: list[str]) -> int:
    """The span walk of element ``start``'s subtree, emitting into the
    caller's builders; returns the number of spans.  Elements whose tag is
    in ``media_kinds`` become media spans; a text block that normalises to
    ``""`` is emitted only when ``keep_empty`` is set.

    One pass over the events from ``start``'s open event (from the first
    event for the root) to its close, with a stack of the open elements'
    roles: ``True`` for a block element, whose close ends the current text
    block."""
    tag, val, events, texts, _ = tree
    n_spans = 0
    block: list[str] = []
    prepend_ws = False
    ws_match = _WHITESPACE_RE.match
    multi_ws_sub = _MULTI_WS_RE.sub
    k_app = out_kinds.append
    t_app = out_texts.append
    r_app = out_refs.append

    if start == 0:
        # the root has no events: its bottom entry is never popped
        roles = [False]
        scan = events
    else:
        roles = []
        scan = map(events.__getitem__, range(tree.opens[start], len(events)))
    push = roles.append
    pop = roles.pop
    for e in scan:
        if e >= 0:
            tg = tag[e]
            media_kind = media_kinds.get(tg)
            if media_kind is None and tg not in K_BLOCK_ELEMENTS:
                push(False)
                continue
            # block and media elements end the current text block
            if block:
                text = multi_ws_sub(" ", js_trim("".join(block)))
                if text or keep_empty:
                    k_app("text"); t_app(text); r_app(""); n_spans += 1
                block.clear()
                prepend_ws = False
            if media_kind is None:
                push(True)
                continue
            push(False)
            placeholder = None
            attrs = attribute_map(val[e])
            if media_map:
                idx = attrs.get(_MEDIA_PLACEHOLDER_ATTR)
                # document-controlled value: only well-formed small ints
                # resolve (a wild doc carrying the attr must not crash).
                # isascii() is required: isdigit() accepts codepoints like
                # '²' that int() rejects.
                if idx is not None and idx.isascii() and idx.isdigit() and len(idx) <= 9:
                    placeholder = media_map.get(int(idx))
            if placeholder is not None:
                kind, text, media_ref = placeholder
            else:
                kind = media_kind
                text = attrs.get("alt") or ""
                media_ref = attrs.get("src") or ""
            k_app(kind); t_app(text); r_app(media_ref); n_spans += 1
        elif e == -1:
            if pop() and block:  # a block element's close ends its block
                text = multi_ws_sub(" ", js_trim("".join(block)))
                if text or keep_empty:
                    k_app("text"); t_app(text); r_app(""); n_spans += 1
                block.clear()
                prepend_ws = False
            if not roles:  # start's own close
                break
        elif e != SKIP:
            v = texts[-2 - e]
            # TextNode.is_whitespace: /^(\s|&nbsp;)*$/ with the ASCII fast path
            if not v or not v.strip(_ASCII_WS) or ws_match(v) is not None:
                prepend_ws = True
            else:
                text = decode(v)
                if prepend_ws:
                    text = " " + text
                    prepend_ws = False
                block.append(text)
    # the end of the walk ends the last block
    if block:
        text = multi_ws_sub(" ", js_trim("".join(block)))
        if text or keep_empty:
            k_app("text"); t_app(text); r_app(""); n_spans += 1
    return n_spans
