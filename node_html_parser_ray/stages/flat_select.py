"""Columnar selector evaluation over an exploded node table.

Each document's flat tree (kernel/parser.flat_parse) becomes rows of a
batch-wide Arrow node table — one row per element reachable from the
fictive root, in pre-order (text nodes and the root match no selector part,
so they have no row).  :func:`explode_document` reads them in one scan of
the tree's pre-order events: an open event adds a row under the row on top
of its stack, a close pops it, and text events and the repair pass's
``SKIP`` marks (the removed elements) add nothing:

    parent, tag, id, classes, @key…

``parent`` is the batch-global row of the parent element, -1 for a
top-level element.  ``@key`` is one nullable string column per attribute
key the selector set tests (:func:`attribute_keys`): the element's decoded
value of that key, null when the element lacks it.

A selector is parsed once, by ``kernel.selector.selector_chains`` — the
same parse the per-document automaton compiles — and every part of every
chain becomes ``pyarrow.compute`` masks over the whole table; descendant
chains find each row's nearest ancestor taking the previous part by
pointer jumping over the parent pointers (:func:`nearest`), and comma
parts are OR-ed.  No per-document loop runs, and every selector the
automaton accepts has a mask whose match *set* equals the automaton's,
which the parity tests assert (SURVEY.md §2.5 mapping note).  The masks
give the match set only: the automaton's result order, which is not
pre-order, is stated at ``kernel.selector.select_union``.

Attribute operators (``= != ^= $= *= |= ~=``) are plain ``pyarrow.compute``
string tests on the key's column, with the automaton's answer for a
missing key as the null fill; ``~=`` is one RE2 regex over the JS
whitespace class.
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
    "attribute_keys",
    "explode_document",
    "node_table",
    "columnar_part_mask",
    "columnar_select_mask",
    "nearest",
]

NODE_TABLE_SCHEMA = pa.schema(
    [
        ("parent", pa.int32()),
        ("tag", pa.string()),
        ("id", pa.string()),
        ("classes", pa.string()),
    ]
)

# RE2 form (\uXXXX -> \x{XXXX}) of the JS whitespace char class
_WS_CC = re.sub(r"\\u([0-9a-fA-F]{4})", r"\\x{\1}", _JS_WS_CLASS)


def attribute_keys(selectors) -> list[str]:
    """The attribute keys the parts of ``selectors`` test, first-seen
    order: the ``@key`` columns their node table needs."""
    keys: dict[str, None] = {}
    for sel in selectors:
        for chain in selector_chains(sel):
            for _, _, _, attrs in chain:
                keys.update((key, None) for key, _, _ in attrs)
    return list(keys)


def _attr_op_mask(col, op: str, value: str):
    """Mask for one [key op value] over the key's column (null = missing).

    Mirrors kernel.selector._make_attr_checker exactly (decoded values,
    case-sensitive, != true on missing attribute, any other op tests
    presence).
    """
    if op == "=":
        mask = pc.equal(col, value)
    elif op == "!=":
        return pc.fill_null(pc.not_equal(col, value), True)
    elif op == "^=":
        mask = pc.starts_with(col, value)
    elif op == "$=":
        mask = pc.ends_with(col, value)
    elif op == "*=":
        mask = pc.match_substring(col, value)
    elif op == "|=":
        mask = pc.or_(pc.equal(col, value), pc.starts_with(col, value + "-"))
    elif op == "~=":
        # `value in js_ws_split(attr)`: no field of the split holds JS
        # whitespace, and an empty field exists iff the attribute is empty
        # or starts or ends with whitespace
        if re.search(_JS_WS_CLASS, value):
            return pa.scalar(False)
        pattern = (f"(^|{_WS_CC}){re.escape(value)}({_WS_CC}|$)" if value
                   else f"^$|^{_WS_CC}|{_WS_CC}$")
        mask = pc.match_substring_regex(col, pattern)
    else:
        return pc.is_valid(col)
    return pc.fill_null(mask, False)


def explode_document(html: str, keys=()):
    """ONE document's element rows, in pre-order, read straight off
    :func:`flat_parse`'s tree (no node objects): the per-document function
    :func:`extract_stage.map_documents` runs, pure args in, plain lists
    ``(parent, tag, id, classes, *values)`` out, with one list per key of
    ``keys`` holding each element's decoded value of it (``None`` when the
    element lacks it).  ``parent[i]`` is the row of element ``i``'s
    parent, -1 for a top-level element."""
    tag, val, events, _, _ = flat_parse(html or "")
    out_par: list[int] = []
    out_tag: list[str] = []
    out_id: list[str] = []
    out_cls: list[str] = []
    out_vals: list[list] = [[] for _ in keys]
    # flat_parse(html) stores no comments: every open event is an element;
    # the stack holds the rows of the open elements over the root's -1
    stack = [-1]
    for k in events:
        if k >= 0:
            row = len(out_par)
            out_par.append(stack[-1])
            stack.append(row)
            out_tag.append(tag[k])
            v = val[k]
            id_, classes = id_and_classes(v)
            out_id.append(id_)
            out_cls.append(" ".join(classes))
            if keys:
                attrs = attribute_map(v)
                for out, key in zip(out_vals, keys):
                    out.append(attrs.get(key))
        elif k == -1:
            stack.pop()
    return (out_par, out_tag, out_id, out_cls, *out_vals)


def node_table(docs: list[tuple], keys=()) -> pa.Table:
    """Node table from :func:`explode_document` results (exploded with the
    same ``keys``), one doc's rows after another; each doc's parents are
    offset by its first row.
    Key ``k``'s column is named ``"@" + k``, so no key collides with a
    fixed column."""
    schema = NODE_TABLE_SCHEMA
    for key in keys:
        schema = schema.append(pa.field("@" + key, pa.string()))
    cols: list[list] = [[] for _ in schema]
    for doc in docs:
        for col, vals in zip(cols, doc):
            col.extend(vals)
    sizes = np.fromiter((len(doc[0]) for doc in docs), np.int64, len(docs))
    parent = np.asarray(cols[0], np.int32)
    first_row = np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols[0] = np.where(parent >= 0, parent + first_row, -1).astype(np.int32)
    return pa.Table.from_arrays(
        [pa.array(col, f.type) for col, f in zip(cols, schema)], schema=schema
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
        mask = pc.and_(mask, _attr_op_mask(nodes.column("@" + key), op, value))
    return mask


def _bool(mask, n: int) -> np.ndarray:
    """An Arrow boolean mask, or one scalar for all ``n`` rows, as numpy."""
    if isinstance(mask, pa.Scalar):
        return np.full(n, mask.as_py(), dtype=bool)
    return np.asarray(mask.to_numpy(zero_copy_only=False), dtype=bool)


def nearest(up: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Each row's nearest proper ancestor in ``mark``, or the sentinel
    ``n`` where it has none.  ``up`` is the parent pointer of each of the
    ``n`` rows plus the sentinel row ``n`` (the parent of top-level rows
    and of itself); so is the result.

    Pointer jumping: a pointer at an unmarked row takes that row's
    pointer, so pass j skips up to 2^j levels and a batch takes
    O(log depth) numpy passes — no per-document Python loop, and one deep
    document costs the batch no pass per level."""
    stop = np.append(mark, True)
    near = up
    hit = stop[near]
    while not hit.all():
        near = np.where(hit, near, near[near])
        hit = stop[near]
    return near


def _up(nodes: pa.Table) -> np.ndarray:
    """The ``up`` pointers of :func:`nearest` from the ``parent`` column."""
    parent = nodes.column("parent").to_numpy(zero_copy_only=False)
    n = len(parent)
    return np.append(np.where(parent >= 0, parent, n), n)


def _levels(nodes: pa.Table, up: np.ndarray, chain: list[Part]) -> np.ndarray:
    """``consumed_{m-1}`` for a chain ``p0..p{m-1}``: ``consumed_0`` is
    p0's part mask, and ``consumed_k = part_mask_k & (some proper ancestor
    is in consumed_{k-1})``."""
    n = len(up) - 1
    consumed = _bool(columnar_part_mask(nodes, chain[0]), n)
    for part in chain[1:]:
        consumed = (_bool(columnar_part_mask(nodes, part), n)
                    & (nearest(up, consumed)[:n] < n))
    return consumed


def columnar_select_mask(nodes: pa.Table, selector: str) -> np.ndarray:
    """Boolean numpy mask of the elements ``selector`` matches, evaluated
    columnar over the whole batch node table: the OR over the comma parts
    of :func:`kernel.selector.selector_chains` of each chain's
    ``consumed_{m-1}`` (:func:`_levels`).  Match SET equals the
    per-document automaton (query_selector_all), which the parity tests
    assert.
    """
    up = _up(nodes)
    matched = np.zeros(len(up) - 1, dtype=bool)
    for chain in selector_chains(selector):
        if chain:
            matched |= _levels(nodes, up, chain)
    return matched

