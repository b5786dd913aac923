"""Pure-Python semantic core (no Ray): parser, DOM, selectors, extraction.

Reproduces the per-document behaviour of the reference library
(Sharcoux/node-html-parser, read-only at /root/reference) — see each module's
docstring for file:line citations.
"""
from .dom import (
    BLOCK_TAGS,
    COMMENT_NODE,
    ELEMENT_NODE,
    K_BLOCK_ELEMENTS,
    TEXT_NODE,
    CommentNode,
    HTMLElement,
    TextNode,
    is_block,
)
from .entities import decode, encode
from .extract import (
    assemble_document,
    extract_spans,
    parse_and_extract,
)
from .parser import (
    K_BLOCK_TEXT_ELEMENTS,
    K_ELEMENTS_CLOSED_BY_OPENING,
    K_SELF_CLOSING,
    ParseMetrics,
    parse,
)
from .selector import Matcher, query_selector, query_selector_all

__all__ = [
    "BLOCK_TAGS",
    "COMMENT_NODE",
    "ELEMENT_NODE",
    "K_BLOCK_ELEMENTS",
    "K_BLOCK_TEXT_ELEMENTS",
    "K_ELEMENTS_CLOSED_BY_OPENING",
    "K_SELF_CLOSING",
    "TEXT_NODE",
    "CommentNode",
    "HTMLElement",
    "Matcher",
    "ParseMetrics",
    "TextNode",
    "assemble_document",
    "decode",
    "encode",
    "extract_spans",
    "is_block",
    "parse",
    "parse_and_extract",
    "query_selector",
    "query_selector_all",
]
