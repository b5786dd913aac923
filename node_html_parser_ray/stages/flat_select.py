"""Columnar selector evaluation over an exploded node table.

Each document's flat tree (kernel/parser.flat_parse) becomes rows of a
corpus-wide Arrow node table — one row per DOM node, in pre-order:

    doc_id, node_id, parent_id, kind, tag, id, classes, attrs_enc

Simple selectors (``tag`` / ``#id`` / ``.class`` / ``[attr]`` and their
conjunctions, i.e. one selector part) are then evaluated as pure
``pyarrow.compute`` masks over the whole corpus — no per-document loop at
all — and counted per doc with a vectorized groupby.  This is the scale path
for "count/filter nodes matching X" workloads (SURVEY.md §2.5 mapping note).

Attribute *operators* (``= != ^= $= *= |= ~=``) are also columnar: each
node's decoded attribute map is encoded into one sentinel-delimited string
(``\x02key\x01value\x02…``, control chars escaped) and every operator
becomes one RE2 ``match_substring_regex`` over that column.  The rare
inexpressible edges (``~=`` with empty/whitespace values) raise ValueError
and route to the per-document automaton (stages/selector_stage.SelectorStage);
the matched-node *set* is identical between both paths, which the parity
tests assert.
"""
from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.dom import attribute_map, id_and_classes
from ..kernel.jsregex import S as _JS_WS_CLASS
from .extract_stage import bounded_lane, htmls_from_batch
from ..kernel.parser import flat_parse
from ..kernel.selector import _ATTR_SELECTOR_RE, _SELECTOR_PART_RE

__all__ = [
    "explode_nodes_batch",
    "explode_document",
    "node_table",
    "columnar_part_mask",
    "columnar_select_mask",
    "selector_counts",
]

NODE_TABLE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("node_id", pa.int32()),
        ("parent_id", pa.int32()),
        ("kind", pa.int8()),
        ("tag", pa.string()),
        ("id", pa.string()),
        ("classes", pa.string()),
        # decoded attribute map, one string: \x02k\x01v\x02k\x01v\x02
        # (control chars \x00-\x02 escaped; "" when the node has no attrs)
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


# JS whitespace char class for the ~= word-boundary regex: Python-re form
# for the local needle check, RE2 form (\uXXXX -> \x{XXXX}) for arrow
_WS_CC_PY = _JS_WS_CLASS
_WS_CC = re.sub(r"\\u([0-9a-fA-F]{4})", r"\\x{\1}", _JS_WS_CLASS)


def _attr_op_mask(col, key: str, op: str, value: str):
    """RE2 mask for one [key op value] over the encoded attrs column.

    Mirrors kernel.selector._make_attr_checker exactly (decoded values,
    case-sensitive, != true on missing attribute).  Raises ValueError for
    the edges the encoding cannot express — the caller routes those parts
    to the per-document automaton.
    """
    k = re.escape(_esc(key))
    v = re.escape(_esc(value))
    if op == "":
        return pc.match_substring_regex(col, f"\x02{k}\x01")
    if op == "=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}\x02")
    if op == "!=":
        return pc.invert(
            pc.match_substring_regex(col, f"\x02{k}\x01{v}\x02")
        )
    if op == "^=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}")
    if op == "$=":
        return pc.match_substring_regex(col, f"\x02{k}\x01[^\x02]*{v}\x02")
    if op == "*=":
        return pc.match_substring_regex(col, f"\x02{k}\x01[^\x02]*{v}")
    if op == "|=":
        return pc.match_substring_regex(col, f"\x02{k}\x01{v}(-|\x02)")
    if op == "~=":
        if value == "" or re.search(_WS_CC_PY, value):
            # js_ws_split edge semantics (empty fields at the boundaries,
            # whitespace inside the needle) — automaton territory
            raise ValueError(f"unsupported attr op edge: [{key}~={value!r}]")
        return pc.match_substring_regex(
            col, f"\x02{k}\x01([^\x02]*{_WS_CC})?{v}({_WS_CC}[^\x02]*)?\x02"
        )
    raise ValueError(f"unsupported attr operator: {op!r}")


def explode_document(html: str):
    """ONE document's node rows, in pre-order, read straight off
    :func:`flat_parse`'s tree (no node objects).  Module-level so the
    bounded lane can run it for prescan-flagged docs: pure args in, plain
    lists ``(nid, pid, kind, tag, id, cls, attrs)`` out."""
    tag, val, kids, _, _, _ = flat_parse(html or "")
    out_pid: list[int] = []
    out_kind: list[int] = []
    out_tag: list[str] = []
    out_id: list[str] = []
    out_cls: list[str] = []
    out_attrs: list[str] = []
    stack = [(0, -1)]
    while stack:
        k, pid = stack.pop()
        nid = len(out_pid)
        out_pid.append(pid)
        if k >= 0:
            # flat_parse(html) stores no comments: every k >= 0 is an element
            out_kind.append(1)
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
            stack.extend([(c, nid) for c in reversed(kids[k])])
        else:
            out_kind.append(3)
            out_tag.append("")
            out_id.append("")
            out_cls.append("")
            out_attrs.append("")
    return (list(range(len(out_pid))), out_pid, out_kind, out_tag, out_id,
            out_cls, out_attrs)


def node_table(doc_ids: list[str], docs: list[tuple]) -> pa.Table:
    """Node table from :func:`explode_document` results; ``doc_ids[i]``
    labels the rows of ``docs[i]``."""
    cols: list[list] = [[] for _ in NODE_TABLE_SCHEMA]
    for doc_id, doc in zip(doc_ids, docs):
        cols[0].extend([doc_id] * len(doc[0]))
        for col, vals in zip(cols[1:], doc):
            col.extend(vals)
    return pa.Table.from_arrays(
        [pa.array(col, f.type) for col, f in zip(cols, NODE_TABLE_SCHEMA)],
        schema=NODE_TABLE_SCHEMA,
    )


def explode_nodes_batch(batch: pa.Table) -> pa.Table:
    """Parse each document and emit one table row per node.
    A document the bounded lane drops contributes NO node rows, i.e. it
    matches nothing."""
    doc_ids = batch.column("doc_id").to_pylist()
    htmls = htmls_from_batch(batch)
    lane = bounded_lane(htmls, explode_document)
    kept: list[str] = []
    docs: list[tuple] = []
    for r, html in enumerate(htmls):
        doc = lane[r] if r in lane else explode_document(html)
        if doc is not None:
            kept.append(str(doc_ids[r]))
            docs.append(doc)
    return node_table(kept, docs)


def columnar_part_mask(nodes: pa.Table, part: str) -> pa.ChunkedArray:
    """Boolean mask of nodes matching ONE selector part, all-Arrow kernels.

    Supports tag / ``*`` / ``#id`` / ``.cls`` chains / bare ``[attr]``
    existence, AND-composed — the single-part grammar of the reference's
    Matcher (src/index.ts:722-733) minus attribute *operators*.
    """
    stripped = part.strip()
    m = _SELECTOR_PART_RE.match(stripped)
    # reject anything the single-part grammar does not FULLY consume
    # (combinators, pseudo-classes, commas) instead of silently
    # prefix-matching — those belong on the per-document automaton
    if m is None or not m.group(0).strip() or m.end() != len(stripped):
        raise ValueError(f"unsupported selector part: {part!r}")
    tag, id_, classes, attrs = m.group(1), m.group(2), m.group(3), m.group(4)
    # element nodes only; fictive roots (tag == '') never match (the
    # reference only advances the matcher when node.tagName is truthy)
    mask = pc.and_(
        pc.equal(nodes.column("kind"), pa.scalar(1, pa.int8())),
        pc.not_equal(nodes.column("tag"), ""),
    )
    if tag and tag != "*":
        mask = pc.and_(mask, pc.equal(nodes.column("tag"), tag))
    if id_:
        mask = pc.and_(mask, pc.equal(nodes.column("id"), id_))
    if classes:
        for cls in classes.split("."):
            pattern = f"(^| ){re.escape(cls)}( |$)"
            mask = pc.and_(
                mask, pc.match_substring_regex(nodes.column("classes"), pattern)
            )
    if attrs:
        matches = list(_ATTR_SELECTOR_RE.finditer(attrs))
        if sum(len(am.group(0)) for am in matches) != len(attrs):
            raise ValueError(f"unsupported selector part: {part!r}")
        col = nodes.column("attrs_enc")
        for am in matches:
            key, op, value = am.group(1), am.group(2) or "", am.group(3) or ""
            if not key:
                raise ValueError(f"unsupported selector part: {part!r}")
            mask = pc.and_(mask, _attr_op_mask(col, key, op, value))
    return mask



def columnar_select_mask(nodes: pa.Table, selector: str):
    """Boolean numpy mask for a whitespace-DESCENDANT-chain selector,
    evaluated columnar over the whole corpus node table.

    Per level k: ``consumed_k = part_mask_k & (some proper ancestor has
    consumed_{k-1})``.  The ancestor flag is computed by a depth-bounded
    vectorized fixpoint over the parent-pointer array (node_id is pre-order,
    so parents always precede children; propagation is one gather + OR per
    tree level, O(depth) numpy passes over the corpus — no per-document
    Python loop).  Match SET equals the per-document automaton
    (query_selector_all), which the parity tests assert; result ORDER is a
    caller concern (the node table is pre-order).
    """
    import numpy as np

    if "," in selector:
        # comma union (reference querySelectorAll comma semantics is a set
        # union, src/index.ts:407-409) — OR of the per-selector masks
        subs = [s for s in selector.split(",") if s.strip()]
        if not subs:
            raise ValueError("empty selector")
        acc = columnar_select_mask(nodes, subs[0])
        for s in subs[1:]:
            acc = acc | columnar_select_mask(nodes, s)
        return acc

    # tokenize the descendant chain with the SAME part regex the automaton
    # compiles with (plain .split() would break quoted attribute values
    # containing spaces, e.g. [title="b c d"]); reject any text the part
    # grammar does not fully consume
    parts: list[str] = []
    last_end = 0
    for pm in _SELECTOR_PART_RE.finditer(selector):
        if not pm.group(0).strip():
            continue
        if selector[last_end:pm.start()].strip():
            raise ValueError(f"unsupported selector: {selector!r}")
        parts.append(pm.group(0).strip())
        last_end = pm.end()
    if selector[last_end:].strip():
        raise ValueError(f"unsupported selector: {selector!r}")
    if not parts:
        raise ValueError("empty selector")

    node_ids = nodes.column("node_id").to_numpy(zero_copy_only=False)
    parent_ids = nodes.column("parent_id").to_numpy(zero_copy_only=False)
    n = len(node_ids)
    # global row index of each node's parent: rows are consecutive per doc
    # (node_id == 0 marks a doc start) and parent_id is doc-local
    doc_start_marks = node_ids == 0
    doc_start = np.maximum.accumulate(
        np.where(doc_start_marks, np.arange(n), 0)
    )
    has_parent = parent_ids >= 0
    gparent = np.where(has_parent, doc_start + parent_ids, 0)

    consumed = np.asarray(columnar_part_mask(nodes, parts[0]).to_numpy(
        zero_copy_only=False), dtype=bool)
    for part in parts[1:]:
        pmask = np.asarray(columnar_part_mask(nodes, part).to_numpy(
            zero_copy_only=False), dtype=bool)
        # anc[i] = True iff some proper ancestor of i is in `consumed`
        anc = np.zeros(n, dtype=bool)
        while True:
            new_anc = has_parent & (anc[gparent] | consumed[gparent])
            if (new_anc == anc).all():
                break
            anc = new_anc
        consumed = pmask & anc
    return consumed


def selector_counts(nodes: pa.Table, parts: list[str]) -> pa.Table:
    """Per-doc match counts for each single-part selector.

    Arrow-native end to end: per-part masks stay Arrow arrays and the
    per-doc rollup is a ``pa.TableGroupBy`` sum — no pandas detour in the
    columnar hot path (round-2 verdict minor #5).
    """
    doc_col = nodes.column("doc_id")
    tables = []
    for part in parts:
        if " " in part.strip():
            mask = pa.array(columnar_select_mask(nodes, part))
        else:
            mask = columnar_part_mask(nodes, part)
        hits = pc.cast(mask, pa.int64())
        g = pa.TableGroupBy(
            pa.table({"doc_id": doc_col, "hit": hits}), "doc_id"
        ).aggregate([("hit", "sum")])
        tables.append(
            pa.Table.from_arrays(
                [
                    g.column("doc_id"),
                    pa.array([part] * len(g), pa.string()),
                    pc.cast(g.column("hit_sum"), pa.int64()),
                ],
                names=["doc_id", "selector", "n_matches"],
            )
        )
    return pa.concat_tables(tables)
