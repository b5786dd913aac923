"""The span walk over the flat tree: spans without DOM node objects.

``extract_spans_into`` runs :func:`parser.flat_parse` and walks its flat
tree with the structuredText-style span walk (reference
src/index.ts:231-268) of :func:`extract.extract_spans`, which walks the
object tree ``parse()`` materialises.  No HTMLElement / TextNode is ever
constructed: the object allocation traffic is what limits the flagship
pipeline's memory bandwidth at high CPU counts.  Comment slots (tag
``None``) are elements without kids or media, so the walk passes over them.

For every input both walks return the same spans; the differential tests
(tests/test_fast_extract.py) check that, with ``valid`` and the metrics.
"""
from __future__ import annotations

from typing import Optional

from .dom import K_BLOCK_ELEMENTS, _MULTI_WS_RE, _WHITESPACE_RE, attribute_map
from .entities import decode
from .extract import MEDIA_PLACEHOLDER_ATTR as _MEDIA_PLACEHOLDER_ATTR
from .extract import MEDIA_TAG_KINDS as _MEDIA_TAG_KINDS
from .jsregex import js_trim
from .parser import ParseMetrics, flat_parse

__all__ = ["extract_spans_fast", "extract_spans_into"]

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
    tag, val, kids, _, texts, valid = flat_parse(data, options, metrics)

    # span walk: kernel.extract.extract_spans over the flat tree
    n_spans = 0
    block: list[str] = []
    prepend_ws = False
    ws_match = _WHITESPACE_RE.match
    multi_ws_sub = _MULTI_WS_RE.sub
    k_app = out_kinds.append
    t_app = out_texts.append
    r_app = out_refs.append

    walk: list[int] = [0]
    while walk:
        nid = walk.pop()
        if nid >= 0:
            tg = tag[nid]
            media_kind = _MEDIA_TAG_KINDS.get(tg)
            if media_kind is not None:
                if block:
                    text = multi_ws_sub(" ", js_trim("".join(block)))
                    if text:
                        k_app("text"); t_app(text); r_app(""); n_spans += 1
                    block.clear()
                    prepend_ws = False
                placeholder = None
                attrs = attribute_map(val[nid])
                if media_map:
                    idx = attrs.get(_MEDIA_PLACEHOLDER_ATTR)
                    # document-controlled value: only well-formed small ints
                    # resolve (a wild doc carrying the attr must not crash).
                    # isascii() is required: isdigit() accepts codepoints
                    # like '²' that int() rejects.
                    if idx is not None and idx.isascii() and idx.isdigit() and len(idx) <= 9:
                        placeholder = media_map.get(int(idx))
                if placeholder is not None:
                    kind, text, media_ref = placeholder
                else:
                    kind = media_kind
                    text = attrs.get("alt") or ""
                    media_ref = attrs.get("src") or ""
                k_app(kind); t_app(text); r_app(media_ref); n_spans += 1
                walk.extend(reversed(kids[nid]))
            elif tg in K_BLOCK_ELEMENTS:
                if block:
                    text = multi_ws_sub(" ", js_trim("".join(block)))
                    if text:
                        k_app("text"); t_app(text); r_app(""); n_spans += 1
                    block.clear()
                    prepend_ws = False
                walk.append(-1)
                walk.extend(reversed(kids[nid]))
            else:
                walk.extend(reversed(kids[nid]))
        elif nid == -1:  # POST marker: block-element exit flush
            if block:
                text = multi_ws_sub(" ", js_trim("".join(block)))
                if text:
                    k_app("text"); t_app(text); r_app(""); n_spans += 1
                block.clear()
                prepend_ws = False
        else:
            v = texts[-2 - nid]
            # TextNode.is_whitespace: /^(\s|&nbsp;)*$/ with the ASCII fast path
            if not v or not v.strip(_ASCII_WS) or ws_match(v) is not None:
                prepend_ws = True
            else:
                text = decode(v)
                if prepend_ws:
                    text = " " + text
                    prepend_ws = False
                block.append(text)
    if block:
        text = multi_ws_sub(" ", js_trim("".join(block)))
        if text:
            k_app("text"); t_app(text); r_app(""); n_spans += 1
    return n_spans, valid
