"""Simplified-DOM node model reproducing the reference's tree semantics.

This is a from-scratch Python implementation of the node behaviour specified
by the reference library (``/root/reference/src/index.ts`` — cited per member
below).  It is the *semantic core* that Ray Data batch kernels call row-wise;
it holds no Ray state and performs no I/O.

Design notes for scale: nodes use ``__slots__``; the hot getters
(``raw_text``, ``structured_text``, serialisation) are iterative (explicit
stacks) instead of recursive so multi-MB / deeply-nested documents cannot blow
the interpreter stack inside a long-lived Ray worker.
"""
from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .entities import decode, encode
from .jsregex import NS, S, js_trim, js_ws_split

# NodeType enum (reference src/index.ts:5-9).
ELEMENT_NODE = 1
TEXT_NODE = 3
COMMENT_NODE = 8

Node = Union["HTMLElement", "TextNode", "CommentNode"]

# reference src/index.ts:84 — /^(\s|&nbsp;)*$/
_WHITESPACE_RE = re.compile(f"^({S}|&nbsp;)*$")
# reference src/index.ts:265 — /\s{2,}/g
_MULTI_WS_RE = re.compile(S + "{2,}")
# reference src/index.ts:267 — /\s+$/
_TRAILING_WS_RE = re.compile(S + "+$")
# reference src/index.ts:281 — self-closed *render* set (differs from the
# parse-time kSelfClosingElements: no col/source, vestigial doctype).
_SELF_CLOSED_RENDER_RE = re.compile(
    r"^(img|br|hr|area|base|input|doctype|link|meta)$", re.IGNORECASE
)
# reference src/index.ts:834 — kIdClassAttributePattern
_ID_CLASS_ATTR_RE = re.compile(
    f"(^|{S})(id|class){S}*={S}*(\"([^\"]+)\"|'([^']+)'|({NS}+))",
    re.IGNORECASE,
)
# reference src/index.ts:835 — kAttributePattern
_ATTR_RE = re.compile(
    f"([a-z][-.:0-9_a-z]*)({S}*={S}*(\"([^\"]*)\"|'([^']*)'|({NS}+)))?",
    re.IGNORECASE,
)

# reference src/index.ts:122-133 — kBlockElements (structuredText block set).
K_BLOCK_ELEMENTS = frozenset(("div", "p", "li", "td", "section", "br"))

# Sentinel distinguishing "argument omitted" from explicit None in
# set_attribute (JS `undefined` removes the attribute, src/index.ts:592).
_REMOVE = object()


def id_and_classes(raw_attrs: str) -> tuple[str, list[str]]:
    """``(id, class_names)`` of an open tag's attribute text: the eager
    kIdClassAttributePattern scan of the element constructor
    (src/index.ts:183-193).  Leading or trailing whitespace does not change
    the result.

    The reference's /i flag also matches ``ID=``, but its ``keyAttrs.id``
    lookup is case-sensitive, so only lowercase keys count — and the scan is
    skipped when neither substring occurs.
    """
    if not raw_attrs or ("id" not in raw_attrs and "class" not in raw_attrs):
        return "", []
    key_attrs: dict[str, str] = {}
    for m in _ID_CLASS_ATTR_RE.finditer(raw_attrs):
        key = m.group(2)
        if key:
            key_attrs[key] = m.group(4) or m.group(5) or m.group(6) or ""
    cls = key_attrs.get("class")
    return key_attrs.get("id") or "", js_ws_split(cls) if cls else []


def raw_attribute_map(raw_attrs: str) -> dict[str, str]:
    """kAttributePattern over an open tag's attribute text: key -> still
    escaped value, later keys win (src/index.ts:560-574).  Leading or
    trailing whitespace does not change the result."""
    attrs: dict[str, str] = {}
    if raw_attrs:
        for m in _ATTR_RE.finditer(raw_attrs):
            key = m.group(1)
            if key:
                attrs[key] = m.group(4) or m.group(5) or m.group(6) or ""
    return attrs


def attribute_map(raw_attrs: str) -> dict[str, str]:
    """Entity-decoded :func:`raw_attribute_map` (src/index.ts:524-545)."""
    attrs = raw_attribute_map(raw_attrs)
    for k, v in attrs.items():
        attrs[k] = decode(v)
    return attrs


class AbstractNode:
    """Base node (reference src/index.ts:24-57)."""

    __slots__ = ("child_nodes", "parent_node")

    node_type: int

    def __init__(self) -> None:
        self.child_nodes: list[Node] = []
        self.parent_node: Optional[HTMLElement] = None

    @property
    def text(self) -> str:
        """Entity-decoded text (reference src/index.ts:37-39)."""
        return decode(self.raw_text)

    @property
    def raw_text(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def remove(self) -> "AbstractNode":
        """Detach from parent (reference src/index.ts:53-56)."""
        if self.parent_node is not None:
            self.parent_node.remove_child(self)
        return self


class TextNode(AbstractNode):
    """Text node (reference src/index.ts:62-94). ``value`` is still escaped."""

    __slots__ = ("value",)
    node_type = TEXT_NODE

    def __init__(self, value: str) -> None:
        # inlined AbstractNode.__init__ — node construction is on the
        # tokenizer hot path
        self.child_nodes = []
        self.parent_node = None
        self.value = value

    @property
    def raw_text(self) -> str:
        return self.value

    @property
    def is_whitespace(self) -> bool:
        """/^(\\s|&nbsp;)*$/ on the raw text (reference src/index.ts:83-85)."""
        v = self.value
        if not v:
            return True
        # fast path: ASCII-whitespace-only strings skip the regex; anything
        # left (incl. &nbsp; / exotic JS \s chars) falls back to the exact RE
        if not v.strip("\t\n\v\f\r "):
            return True
        return _WHITESPACE_RE.match(v) is not None

    def to_string(self) -> str:
        return self.value

    __str__ = to_string

    def to_json(self) -> dict:
        return {"type": "text", "value": self.value}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TextNode) and self.value == other.value

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"TextNode({self.value!r})"


class CommentNode(AbstractNode):
    """Comment node (reference src/index.ts:96-120)."""

    __slots__ = ("value",)
    node_type = COMMENT_NODE

    def __init__(self, value: str) -> None:
        # inlined AbstractNode.__init__ — node construction is on the
        # tokenizer hot path
        self.child_nodes = []
        self.parent_node = None
        self.value = value

    @property
    def raw_text(self) -> str:
        return self.value

    def to_string(self) -> str:
        return f"<!--{self.value}-->"

    __str__ = to_string

    def to_json(self) -> dict:
        return {"type": "comment", "value": self.value}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CommentNode) and self.value == other.value

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"CommentNode({self.value!r})"


class HTMLElement(AbstractNode):
    """Element node (reference src/index.ts:161-642).

    ``raw_attrs`` keeps the raw attribute substring of the open tag; the
    ``attributes`` / ``raw_attributes`` maps are parsed lazily and memoised,
    exactly like the reference (src/index.ts:524-527, 560-563).  ``id`` and
    ``class_names`` are extracted eagerly at construction
    (src/index.ts:183-193).
    """

    __slots__ = ("tag_name", "raw_attrs", "_attrs", "_raw_attrs", "id",
                 "class_names", "valid")
    node_type = ELEMENT_NODE

    def __init__(
        self,
        tag_name: str,
        raw_attrs: str = "",
        parent_node: Optional["HTMLElement"] = None,
    ) -> None:
        # inlined AbstractNode.__init__ (hot path: one per element)
        self.child_nodes = []
        self.tag_name = tag_name
        self.raw_attrs = raw_attrs
        self.parent_node = parent_node
        self._attrs: Optional[dict[str, str]] = None
        self._raw_attrs: Optional[dict[str, str]] = None
        # parse() sets this on the fictive root (src/index.ts:1001).
        self.valid = True
        if raw_attrs:  # most elements have none: skip the call
            self.id, self.class_names = id_and_classes(raw_attrs)
        else:
            self.id = ""
            self.class_names: list[str] = []

    # -- child management (reference src/index.ts:199-216, 483-502) --------

    def remove_child(self, node: AbstractNode) -> None:
        self.child_nodes = [c for c in self.child_nodes if c is not node]
        if isinstance(node, HTMLElement):
            node.parent_node = None

    def exchange_child(self, old: Node, new: Node) -> None:
        for i, c in enumerate(self.child_nodes):
            if c is old:
                self.child_nodes[i] = new
                if isinstance(old, HTMLElement):
                    old.parent_node = None
                return

    def append_child(self, node: Node) -> Node:
        self.child_nodes.append(node)
        if isinstance(node, HTMLElement):
            node.parent_node = self
        return node

    def prepend_child(self, node: Node) -> Node:
        self.child_nodes.insert(0, node)
        if isinstance(node, HTMLElement):
            node.parent_node = self
        return node

    @property
    def first_child(self) -> Optional[Node]:
        return self.child_nodes[0] if self.child_nodes else None

    @property
    def last_child(self) -> Optional[Node]:
        return self.child_nodes[-1] if self.child_nodes else None

    @property
    def children(self) -> list["HTMLElement"]:
        """Element children only (reference src/index.ts:274-276)."""
        return [c for c in self.child_nodes if isinstance(c, HTMLElement)]

    # -- text extraction ----------------------------------------------------

    @property
    def raw_text(self) -> str:
        """Depth-first concat of descendant raw text (src/index.ts:221-226).

        Iterative: the reference recursively concatenates child.rawText; a
        pre-order walk collecting leaf values yields the same string.
        """
        out: list[str] = []
        stack: list[Node] = list(reversed(self.child_nodes))
        while stack:
            node = stack.pop()
            if isinstance(node, HTMLElement):
                stack.extend(reversed(node.child_nodes))
            else:
                out.append(node.value)
        return "".join(out)

    @property
    def structured_text(self) -> str:
        """Block-structured text (reference src/index.ts:231-268).

        DFS producing newline-separated blocks: kBlockElements flush the
        current block before and after their children; whitespace-only text
        nodes defer a single leading space onto the next text; each block is
        ``join('').trim().replace(/\\s{2,}/g, ' ')``; blocks join with
        ``'\\n'``; trailing whitespace stripped.  Implemented iteratively.
        """
        blocks: list[list[str]] = [[]]
        current = blocks[0]
        prepend_ws = False  # the currentBlock.prependWhitespace flag

        # Explicit-stack DFS mirroring the recursive dfs() exactly: a block
        # element's "flush after children" is modelled with a post marker.
        POST = object()
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node is POST:
                if current:
                    blocks.append([])
                    current = blocks[-1]
                    prepend_ws = False
                continue
            if node.node_type == ELEMENT_NODE:
                if node.tag_name in K_BLOCK_ELEMENTS:
                    if current:
                        blocks.append([])
                        current = blocks[-1]
                        prepend_ws = False
                    stack.append(POST)
                    stack.extend(reversed(node.child_nodes))
                else:
                    stack.extend(reversed(node.child_nodes))
            elif node.node_type == TEXT_NODE:
                if node.is_whitespace:
                    prepend_ws = True
                else:
                    text = node.text
                    if prepend_ws:
                        text = " " + text
                        prepend_ws = False
                    current.append(text)
        joined = "\n".join(
            _MULTI_WS_RE.sub(" ", js_trim("".join(block))) for block in blocks
        )
        return _TRAILING_WS_RE.sub("", joined)

    @property
    def structure(self) -> str:
        """Indented outline ``tag#id.cls`` + ``#text`` (src/index.ts:347-371)."""
        res: list[str] = []
        stack: list[tuple[Optional[HTMLElement], int]] = [(self, 0)]
        while stack:
            node, indent = stack.pop()
            if node is None:  # non-whitespace text marker
                res.append("  " * indent + "#text")
                continue
            id_str = ("#" + node.id) if node.id else ""
            cls_str = ("." + ".".join(node.class_names)) if node.class_names else ""
            res.append("  " * indent + node.tag_name + id_str + cls_str)
            pending: list[tuple[Optional[HTMLElement], int]] = []
            for child in node.child_nodes:
                if child.node_type == ELEMENT_NODE:
                    pending.append((child, indent + 1))
                elif child.node_type == TEXT_NODE and not child.is_whitespace:
                    pending.append((None, indent + 1))
            stack.extend(reversed(pending))
        return "\n".join(res)

    # -- serialisation -------------------------------------------------------

    def to_string(self) -> str:
        """Serialise (reference src/index.ts:278-291), iteratively."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):  # pending close tag
                out.append(item)
                continue
            if not isinstance(item, HTMLElement):
                out.append(item.to_string())
                continue
            tag = item.tag_name
            if tag:
                attrs = (" " + item.raw_attrs) if item.raw_attrs else ""
                if _SELF_CLOSED_RENDER_RE.match(tag):
                    out.append(f"<{tag}{attrs} />")
                    continue
                out.append(f"<{tag}{attrs}>")
                stack.append(f"</{tag}>")
            stack.extend(reversed(item.child_nodes))
        return "".join(out)

    __str__ = to_string

    @property
    def inner_html(self) -> str:
        """Children serialised and joined (reference src/index.ts:294-298)."""
        return "".join(c.to_string() for c in self.child_nodes)

    @inner_html.setter
    def inner_html(self, content: str) -> None:
        """Parse string, replace children (reference src/index.ts:300-304)."""
        from .parser import parse

        doc = parse(content)
        for node in list(self.child_nodes):
            node.remove()
        for node in list(doc.child_nodes):
            self.append_child(node)

    def set_content(self, content) -> None:
        """Replace children from string/Node/Node[] (src/index.ts:307-315)."""
        from .parser import parse

        if isinstance(content, AbstractNode):
            content = [content]
        elif isinstance(content, str):
            r = parse(content)
            content = r.child_nodes if r.child_nodes else [TextNode(content)]
        self.child_nodes = list(content)

    @property
    def outer_html(self) -> str:
        return self.to_string()

    def to_json(self) -> dict:
        return {
            "type": "element",
            "tagName": self.tag_name,
            "attributes": dict(self.attributes),
            "children": [c.to_json() for c in self.child_nodes],
        }

    # -- tree rewrites --------------------------------------------------------

    def trim_right(self, pattern) -> "HTMLElement":
        """Truncate subtree after first text matching pattern (src/index.ts:327-342)."""
        if isinstance(pattern, str):
            pattern = re.compile(pattern)
        i = 0
        while i < len(self.child_nodes):
            child = self.child_nodes[i]
            if child.node_type == ELEMENT_NODE:
                child.trim_right(pattern)
            else:
                m = pattern.search(child.raw_text)
                if m is not None:
                    child.value = child.raw_text[: m.start()]
                    del self.child_nodes[i + 1 :]
            i += 1
        return self

    def remove_whitespace(self) -> "HTMLElement":
        """Drop whitespace-only text nodes, trim the rest (src/index.ts:377-392)."""
        kept: list[Node] = []
        for node in self.child_nodes:
            if node.node_type == TEXT_NODE:
                if node.is_whitespace:
                    continue
                node.value = js_trim(node.raw_text)
            elif node.node_type == ELEMENT_NODE:
                node.remove_whitespace()
            kept.append(node)
        self.child_nodes = kept
        return self

    # -- attributes -----------------------------------------------------------

    @property
    def raw_attributes(self) -> dict[str, str]:
        """Lazy parse of raw_attrs via kAttributePattern (src/index.ts:560-574)."""
        if self._raw_attrs is None:
            self._raw_attrs = raw_attribute_map(self.raw_attrs)
        return self._raw_attrs

    @property
    def attributes(self) -> dict[str, str]:
        """Entity-decoded copy of raw_attributes (src/index.ts:524-545)."""
        if self._attrs is not None:
            return self._attrs
        self._attrs = {k: decode(v) for k, v in self.raw_attributes.items()}
        return self._attrs

    def get_attribute(self, key: str) -> Optional[str]:
        return self.attributes.get(key)

    def set_attribute(self, key: str, value=_REMOVE) -> None:
        """Set/remove one attribute (reference src/index.ts:581-601).

        ``value`` omitted or ``None`` removes the attribute (JS undefined);
        other values are string-coerced.
        """
        if value is _REMOVE:
            value = None
        if key == "id":
            self.id = value or ""
        elif key == "class":
            self.class_names = js_ws_split(value) if value is not None else []
        attrs = self.attributes
        if value is None:
            attrs.pop(key, None)
        else:
            attrs[key] = _js_str(value)
        if self._raw_attrs is not None:
            if value is None:
                self._raw_attrs.pop(key, None)
            else:
                self._raw_attrs[key] = encode(_js_str(value))
        self.raw_attrs = " ".join(
            k + ("" if attrs[k] == "" else '="' + encode(attrs[k]) + '"')
            for k in attrs
        )

    def remove_attribute(self, key: str) -> None:
        self.set_attribute(key, None)

    def set_attributes(self, attributes: dict[str, str]) -> None:
        """Replace the whole attribute set (reference src/index.ts:611-632)."""
        if attributes.get("id"):
            self.id = attributes["id"]
        elif attributes.get("class"):
            self.class_names = js_ws_split(attributes["class"])
        attrs = self.attributes
        attrs.clear()
        for k, v in attributes.items():
            attrs[k] = _js_str(v)
        raw = self.raw_attributes
        raw.clear()
        for k, v in attributes.items():
            raw[k] = encode(_js_str(v))
        self.raw_attrs = " ".join(
            k + ("" if _js_str(v) == "" else '="' + encode(_js_str(v)) + '"')
            for k, v in attributes.items()
        )

    # -- querying (delegates to selector module) ------------------------------

    def query_selector(self, selector):
        from .selector import query_selector

        return query_selector(self, selector)

    def query_selector_all(self, selector):
        from .selector import query_selector_all

        return query_selector_all(self, selector)

    # -- equality for ported structural tests (jest toEqual analogue) ---------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HTMLElement):
            return False
        return (
            self.tag_name == other.tag_name
            and self.raw_attrs == other.raw_attrs
            and self.id == other.id
            and self.class_names == other.class_names
            and len(self.child_nodes) == len(other.child_nodes)
            and all(a == b for a, b in zip(self.child_nodes, other.child_nodes))
        )

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"<HTMLElement {self.tag_name or 'root'} attrs={self.raw_attrs!r} children={len(self.child_nodes)}>"


def _js_str(value) -> str:
    """JS `value + ''` coercion for the common cases (str/num/bool)."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# reference src/index.ts:1030-1071 — the *larger* blockTags list used by
# isBlock (distinct from kBlockElements above).
BLOCK_TAGS = frozenset(
    (
        "html", "body", "address", "article", "aside", "blockquote", "canvas",
        "dd", "div", "dl", "dt", "fieldset", "figcaption", "figure", "footer",
        "form", "header", "hr", "li", "main", "nav", "noscript", "ol", "p",
        "pre", "section", "tfoot", "table", "tbody", "ul", "video", "th",
        "td", "tr", "h1", "h2", "h3", "h4", "h5", "h6",
    )
)


def is_block(node) -> bool:
    """Is the node a block element (reference src/index.ts:1079-1085)."""
    return (
        getattr(node, "node_type", None) == ELEMENT_NODE
        and bool(node.tag_name)
        and node.tag_name.lower() in BLOCK_TAGS
    )
