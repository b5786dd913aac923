"""Columnar selector evaluation over an exploded node table.

Each document's flat tree (kernel/parser.flat_parse) becomes rows of a
batch-wide Arrow node table — one row per element reachable from the
fictive root, in pre-order (text nodes and the root match no selector part,
so they have no row):

    parent, tag, id, classes, attrs_enc

``parent`` is the batch-global row of the parent element, -1 for a
top-level element.

A selector is parsed once, by ``kernel.selector.selector_chains`` — the
same parse the per-document automaton compiles — and every part of every
chain becomes ``pyarrow.compute`` masks over the whole table; descendant
chains propagate ancestor flags over the parent pointers and comma parts
are OR-ed.  No per-document loop runs, and every selector the automaton
accepts has a mask whose match *set* equals the automaton's, which the
parity tests assert (SURVEY.md §2.5 mapping note).

Attribute operators (``= != ^= $= *= |= ~=``) read one column: each node's
decoded attribute map encoded as a sentinel-delimited string
(``\x02key\x01value\x02…``, control chars escaped), so every operator is
one RE2 ``match_substring_regex`` over it.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.dom import attribute_map, id_and_classes
from ..kernel.jsregex import S as _JS_WS_CLASS
from ..kernel.parser import flat_parse
from ..kernel.selector import Part, selector_chains

__all__ = [
    "explode_document",
    "node_table",
    "columnar_part_mask",
    "columnar_select_mask",
]

NODE_TABLE_SCHEMA = pa.schema(
    [
        ("parent", pa.int32()),
        ("tag", pa.string()),
        ("id", pa.string()),
        ("classes", pa.string()),
        # decoded attribute map, one string: \x02k\x01v\x02k\x01v\x02
        # (control chars \x00-\x02 escaped; "" when the element has none)
        ("attrs_enc", pa.string()),
    ]
)


def _esc(s: str) -> str:
    """Escape the encoding sentinels out of keys/values (injective)."""
    return (
        s.replace("\x00", "\x00z").replace("\x01", "\x00a").replace("\x02", "\x00b")
    )


def _encode_attrs(attrs: dict) -> str:
    """Encode a decoded attribute map as \x02k\x01v\x02…\x02 (or "")."""
    if not attrs:
        return ""
    return "\x02" + "\x02".join(
        f"{_esc(k)}\x01{_esc(v)}" for k, v in attrs.items()
    ) + "\x02"


# RE2 form (\uXXXX -> \x{XXXX}) of the JS whitespace char class
_WS_CC = re.sub(r"\\u([0-9a-fA-F]{4})", r"\\x{\1}", _JS_WS_CLASS)
# any encoded value prefix, consuming each escape whole, so a needle can
# only start on a character boundary of the decoded value
_PREFIX = "([^\x00\x02]|\x00[zab])*"


def _attr_op_mask(col, key: str, op: str, value: str):
    """RE2 mask for one [key op value] over the encoded attrs column.

    Mirrors kernel.selector._make_attr_checker exactly (decoded values,
    case-sensitive, != true on missing attribute, any other op tests
    presence).
    """
    k = re.escape(_esc(key))
    v = re.escape(_esc(value))
    if op == "=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}\x02")
    if op == "!=":
        return pc.invert(
            pc.match_substring_regex(col, f"\x02{k}\x01{v}\x02")
        )
    if op == "^=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}")
    if op == "$=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{_PREFIX}{v}\x02")
    if op == "*=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{_PREFIX}{v}")
    if op == "|=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}(-|\x02)")
    if op == "~=":
        # `value in js_ws_split(attr)`: no field of the split holds JS
        # whitespace, and an empty field exists iff the attribute is empty
        # or starts or ends with whitespace
        if re.search(_JS_WS_CLASS, value):
            return pa.scalar(False)
        if not value:
            return pc.match_substring_regex(
                col, f"\x02{k}\x01(|{_WS_CC}[^\x02]*|[^\x02]*{_WS_CC})\x02"
            )
        return pc.match_substring_regex(
            col, f"\x02{k}\x01([^\x02]*{_WS_CC})?{v}({_WS_CC}[^\x02]*)?\x02"
        )
    return pc.match_substring_regex(col, f"\x02{k}\x01")


def explode_document(html: str):
    """ONE document's element rows, in pre-order, read straight off
    :func:`flat_parse`'s tree (no node objects): the per-document function
    :func:`extract_stage.map_documents` runs, pure args in, plain lists
    ``(parent, tag, id, classes, attrs_enc)`` out.  ``parent[i]`` is the
    row of element ``i``'s parent, -1 for a top-level element."""
    tag, val, kids, _, _, _ = flat_parse(html or "")
    out_par: list[int] = []
    out_tag: list[str] = []
    out_id: list[str] = []
    out_cls: list[str] = []
    out_attrs: list[str] = []
    # flat_parse(html) stores no comments: every kid c >= 0 is an element
    stack = [(c, -1) for c in reversed(kids[0]) if c >= 0]
    while stack:
        k, parent = stack.pop()
        row = len(out_par)
        out_par.append(parent)
        out_tag.append(tag[k])
        v = val[k]
        if v:
            id_, classes = id_and_classes(v)
            out_id.append(id_)
            out_cls.append(" ".join(classes))
            out_attrs.append(_encode_attrs(attribute_map(v)))
        else:
            out_id.append("")
            out_cls.append("")
            out_attrs.append("")
        stack.extend([(c, row) for c in reversed(kids[k]) if c >= 0])
    return out_par, out_tag, out_id, out_cls, out_attrs


def node_table(docs: list[tuple]) -> pa.Table:
    """Node table from :func:`explode_document` results, one doc's rows
    after another; each doc's parents are offset by its first row."""
    cols: list[list] = [[] for _ in NODE_TABLE_SCHEMA]
    for doc in docs:
        for col, vals in zip(cols, doc):
            col.extend(vals)
    sizes = np.fromiter((len(doc[0]) for doc in docs), np.int64, len(docs))
    parent = np.asarray(cols[0], np.int32)
    first_row = np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols[0] = np.where(parent >= 0, parent + first_row, -1).astype(np.int32)
    return pa.Table.from_arrays(
        [pa.array(col, f.type) for col, f in zip(cols, NODE_TABLE_SCHEMA)],
        schema=NODE_TABLE_SCHEMA,
    )


def columnar_part_mask(nodes: pa.Table, part: Part):
    """Boolean mask of the elements one parsed selector part matches: the
    AND of its tag / ``*`` / ``#id`` / ``.cls`` / attribute tests, the
    part predicate of the reference's Matcher (src/index.ts:713-738)."""
    tag, id_, classes, attrs = part
    mask = pa.scalar(True)
    if tag and tag != "*":
        mask = pc.and_(mask, pc.equal(nodes.column("tag"), tag))
    if id_:
        mask = pc.and_(mask, pc.equal(nodes.column("id"), id_))
    for cls in classes:
        pattern = f"(^| ){re.escape(cls)}( |$)"
        mask = pc.and_(
            mask, pc.match_substring_regex(nodes.column("classes"), pattern)
        )
    for key, op, value in attrs:
        mask = pc.and_(
            mask, _attr_op_mask(nodes.column("attrs_enc"), key, op, value)
        )
    return mask


def _bool(mask, n: int) -> np.ndarray:
    """An Arrow boolean mask, or one scalar for all ``n`` rows, as numpy."""
    if isinstance(mask, pa.Scalar):
        return np.full(n, mask.as_py(), dtype=bool)
    return np.asarray(mask.to_numpy(zero_copy_only=False), dtype=bool)


def columnar_select_mask(nodes: pa.Table, selector: str) -> np.ndarray:
    """Boolean numpy mask of the elements ``selector`` matches, evaluated
    columnar over the whole batch node table: the OR over the comma parts
    of :func:`kernel.selector.selector_chains`.

    Per level k of a chain: ``consumed_k = part_mask_k & (some proper
    ancestor has consumed_{k-1})``.  The ancestor flag is computed by a
    depth-bounded vectorized fixpoint over the ``parent`` column (rows are
    pre-order, so parents always precede children; propagation is one
    gather + OR per tree level, O(depth) numpy passes over the batch — no
    per-document Python loop).  Match SET equals the per-document automaton
    (query_selector_all), which the parity tests assert; result ORDER is a
    caller concern (the node table is pre-order).
    """
    parent = nodes.column("parent").to_numpy(zero_copy_only=False)
    n = len(parent)
    has_parent = parent >= 0

    matched = np.zeros(n, dtype=bool)
    for chain in selector_chains(selector):
        if not chain:
            continue
        consumed = _bool(columnar_part_mask(nodes, chain[0]), n)
        for part in chain[1:]:
            # anc[i] = True iff some proper ancestor of i is in `consumed`
            # (a -1 parent gathers the last row, which has_parent masks)
            anc = np.zeros(n, dtype=bool)
            while True:
                new_anc = has_parent & (anc[parent] | consumed[parent])
                if (new_anc == anc).all():
                    break
                anc = new_anc
            consumed = _bool(columnar_part_mask(nodes, part), n) & anc
        matched |= consumed
    return matched
