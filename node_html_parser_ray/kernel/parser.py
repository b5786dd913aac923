"""The one tokenizer and repair pass, and the object DOM built from it.

From-scratch Python implementation of the parse algorithm specified by the
reference (``/root/reference/src/index.ts:833-1028``): one regex alternation
drives a forward scan (comments OR tags); an element stack handles implicit
closes (kElementsClosedByOpening), raw-text elements (script/noscript/style/
pre), void elements (kSelfClosingElements) and aggressive unwind on close
tags; a post-pass repairs leftover unclosed elements (pair-error vs
single-error) and sets ``root.valid``.

:func:`flat_parse` is that algorithm, writing the tree without a node
object: parallel ``tag`` / ``val`` lists per element and one pre-order event
list (``k >= 0`` opens element ``k``, ``-1`` closes the innermost open
element, ``-(j + 2)`` is text ``j``).  The repair pass marks only the events
of the elements left open: a removed element's open event becomes
:data:`SKIP`, a pair-closed element's close event goes where its pair
opened, and when the root ends up as the repair target the trailing text
goes right after the outermost such close.  Every reader is one stack scan
over the events: the span walk (``fast_extract``), the selector node table
(``stages/flat_select``), the boilerplate classifier (``stages/classify``)
and :func:`parse`, which materialises ``HTMLElement`` / ``TextNode`` /
``CommentNode`` objects.

This is a *pure function of the input string* — deterministic and idempotent,
so Ray task retries are safe.  The CPython regexes are compiled at module
import, i.e. once per Ray worker process; the `regex` copy of the tokenizer
pattern that retries the sites the first-path copy cannot match compiles at
a worker's first such site.
"""
from __future__ import annotations

import functools
import math
import os
import re
import time
from typing import Optional

from .dom import CommentNode, HTMLElement, TextNode
from .jsregex import WS, js_trim

__all__ = ["FlatTree", "SKIP", "flat_parse", "parse", "parse_timeout", "ParseMetrics"]

# reference src/index.ts:833 — kMarkupPattern, translated:
#   [^]        -> [\s\S]
#   groups     -> named (close / tag / attrs / selfclose); inner groups made
#                 non-capturing since only 1,2,3,7 are read by parse().
#
# The attrs repetition inherits the reference's backtracking blowup (V8
# explodes identically on src/index.ts:833): on a tag-open whose attrs+'>'
# match fails, or needs give-back, the engine re-splits the run between the
# name and junk branches exponentially (e.g. "<a " + "a"*20 with no ">").
# Give-back is semantically needed for some captures ('<BA=/x>' matches tag
# 'B', attrs 'A=/x' only through it), so the pattern cannot simply be made
# possessive.  flat_parse therefore searches with a first-path copy below
# and retries the full pattern only at the sites where that copy fails.
_S = f"[{WS}]"
_COMMENT_SRC = r"<!--[\s\S]*?(?=-->)-->"
_KMARKUP_SRC = (
    _COMMENT_SRC
    + r"|<(?P<close>/?)"
    r"(?P<tag>[a-z][-.:0-9_a-z]*)"
    r"(?P<attrs>(?:" + _S + r"*(?:[a-z][-.:0-9_a-z]*"
    r"(?:" + _S + r"*=" + _S + r"*(?:\"[^\"]*?\"|'[^']*?'|(?:/(?!>)|[^" + WS + r"\"'<>/])+))?"
    r"|[^</>" + WS + r"]+))*)"
    + _S + r"*(?P<selfclose>/?)>"
)
# A `fail` group that never matches: appended to the full pattern, it
# gives its matches the first-path copy's five groups.
_NO_FAIL = r"|<(?P<fail>(?!))"
# The full pattern on `re`: the tests' reference for flat_parse's trees.
KMARKUP = re.compile(_KMARKUP_SRC + _NO_FAIL, re.IGNORECASE)
# The first path through KMARKUP: every quantifier possessive, every
# alternation atomic, the lazy quoted values written as [^"]*+ (the comment
# branch is unchanged).  A backtracking engine returns the first successful
# path in priority order, so where this copy matches, its captures are
# KMARKUP's; it fails only where KMARKUP needs give-back or fails too, and
# each attempt is linear.  The last alternative matches such a failing
# tag-open or comment-open site (group 5, ``fail``), so one search returns
# either a token or the first failing site; its '<' stays outside the group
# so that `re` keeps its literal-prefix scan.
_TAG_FIRST_PATH_SRC = (
    r"<(?P<close>/?+)"
    r"(?P<tag>[a-z][-.:0-9_a-z]*+)"
    r"(?P<attrs>(?:" + _S + r"*+(?>[a-z][-.:0-9_a-z]*+"
    r"(?:" + _S + r"*+=" + _S + r"*+(?>\"[^\"]*+\"|'[^']*+'"
    r"|(?>/(?!>)|[^" + WS + r"\"'<>/])++))?+"
    r"|[^</>" + WS + r"]++))*+)"
    + _S + r"*+(?P<selfclose>/?+)>"
)
_KMARKUP_FIRST_PATH_SRC = (
    _COMMENT_SRC + "|" + _TAG_FIRST_PATH_SRC + r"|<(?P<fail>/?[a-z]|!--)"
)
KMARKUP_FIRST_PATH = re.compile(_KMARKUP_FIRST_PATH_SRC, re.IGNORECASE)
# The same copy without the comment branch, searched once a comment open
# has failed: no '-->' follows that site, so no later comment open can
# match either, and each would otherwise rescan to the end of the document.
_KMARKUP_NO_COMMENT = re.compile(
    _TAG_FIRST_PATH_SRC + r"|<(?P<fail>/?[a-z])", re.IGNORECASE
)
# The letters CPython's IGNORECASE folds into [a-z]: ASCII plus dotted
# capital I, dotless i, long s and the Kelvin sign.  The `regex` copy spells
# them out instead of folding, because `regex` folds differently ('<ı>' is a
# tag for `re` and text for `regex` under IGNORECASE); no other part of the
# pattern holds a letter.
_RE_FOLDED_AZ = "a-zA-Z\u0130\u0131\u017f\u212a"
# `regex` reads a timeout= of 2**63 microseconds (~9.2e12 s) or more as
# already expired; a deadline from half that on is taken as none.
_TIMEOUT_LIMIT = 2.0**62 / 1e6


def parse_timeout() -> float:
    """Seconds each :func:`flat_parse` may run: ``NHPR_PARSE_TIMEOUT``,
    10 by default.  Returns 0, meaning no deadline, for a value <= 0 and
    for ``inf`` or any value too large for `regex`'s ``timeout=``; raises
    ValueError for ``nan`` or a value ``float()`` rejects."""
    env = os.environ.get("NHPR_PARSE_TIMEOUT")
    if not env:
        return 10.0
    timeout = float(env)
    if math.isnan(timeout):
        raise ValueError("NHPR_PARSE_TIMEOUT is nan")
    return timeout if 0 < timeout < _TIMEOUT_LIMIT else 0.0


@functools.cache
def _bounded_kmarkup():
    """KMARKUP compiled with `regex` (imported on first use: ~15 ms)."""
    import regex

    return regex.compile(_KMARKUP_SRC.replace("a-z", _RE_FOLDED_AZ) + _NO_FAIL)


def _full_match(data: str, q: int, deadline: Optional[float]):
    """KMARKUP's full backtracking match at the tag-open site ``q``, or
    ``None``.  It runs on the `regex` copy, whose memoisation turns the
    exponential blowup into a polynomial one (~2 s for '<a ' + 'a'*5000)
    and whose ``timeout=`` bounds it by the time left before ``deadline``;
    raises TimeoutError once that has passed."""
    if deadline is None:
        return _bounded_kmarkup().match(data, q)
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("flat_parse deadline passed")
    return _bounded_kmarkup().match(data, q, timeout=left)


# reference src/index.ts:836-847 — kSelfClosingElements (void tags).
K_SELF_CLOSING = frozenset(
    ("area", "base", "br", "col", "hr", "img", "input", "link", "meta", "source")
)

# reference src/index.ts:848-878 — kElementsClosedByOpening: opening tag
# auto-closes the current parent (one level).
_HEADINGS_AND_P = frozenset(("p", "h1", "h2", "h3", "h4", "h5", "h6"))
_TABLE_SECTIONS = frozenset(("tr", "thead", "tbody", "tfoot"))
K_ELEMENTS_CLOSED_BY_OPENING: dict[str, frozenset[str]] = {
    "li": frozenset(("li",)),
    "p": _HEADINGS_AND_P,
    "b": frozenset(("div",)),
    "td": frozenset(("td", "th")),
    "th": frozenset(("td", "th")),
    "h1": _HEADINGS_AND_P,
    "h2": _HEADINGS_AND_P,
    "h3": _HEADINGS_AND_P,
    "h4": _HEADINGS_AND_P,
    "h5": _HEADINGS_AND_P,
    "h6": _HEADINGS_AND_P,
    "colgroup": _TABLE_SECTIONS,
    "tr": _TABLE_SECTIONS,
    "thead": _TABLE_SECTIONS,
    "tbody": _TABLE_SECTIONS,
    "tfoot": _TABLE_SECTIONS,
    "ul": frozenset(("ul", "ol")),
    "ol": frozenset(("ol", "ul")),
    "aside": frozenset(("aside",)),
    "nav": frozenset(("nav",)),
    "form": frozenset(("form",)),
    "header": frozenset(("header",)),
    "footer": frozenset(("footer",)),
    "main": frozenset(("main",)),
}

# reference src/index.ts:879-884 — kBlockTextElements (raw-text elements).
K_BLOCK_TEXT_ELEMENTS = frozenset(("script", "noscript", "style", "pre"))

# The event that replaces a removed element's open event.  It lies below
# every text event of a document under 2**30 texts, and fits one 30-bit
# digit, so that comparing an event with it stays on CPython's small-int
# path.
SKIP = 1 - (1 << 30)


class ParseMetrics:
    """Per-document counters for lineage/metrics (target-side design)."""

    __slots__ = ("n_nodes", "n_elements", "n_text", "n_comments", "n_fixups",
                 "n_bytes", "valid")

    def __init__(self) -> None:
        self.n_nodes = 0
        self.n_elements = 0
        self.n_text = 0
        self.n_comments = 0
        self.n_fixups = 0
        self.n_bytes = 0
        self.valid = True


class FlatTree(tuple):
    """:func:`flat_parse`'s tree, the tuple ``(tag, val, events, texts,
    valid)``, with ``opens``: the position in ``events`` of each element's
    open event, -1 for the root (for an element the repair pass removed,
    the position of the event that replaced it)."""

    opens: list[int]


def flat_parse(
    data: str,
    options: Optional[dict] = None,
    metrics: Optional[ParseMetrics] = None,
) -> FlatTree:
    """Tokenize and repair ``data`` into the flat tree; the only tokenizer.

    Tokens come from KMARKUP's first-path copy, and from the full pattern
    at the sites where that copy fails (:func:`_full_match`), so the trees
    are KMARKUP's.  A failing site past the document's last ``>`` ends the
    token loop, since every token ends in ``>``.  The whole parse is
    bounded by a deadline :func:`parse_timeout` seconds after entry: past
    it, the next failing site before that ``>`` or full-pattern retry
    raises TimeoutError.

    Returns the :class:`FlatTree` ``(tag, val, events, texts, valid)``.
    Elements are indexes into the parallel lists ``tag`` / ``val`` (the
    raw, untrimmed attribute text of the open tag), in creation order;
    element 0 is the fictive root.  ``events`` lists the tree below the
    root in pre-order: ``k >= 0`` opens element ``k``, ``-1`` closes the
    innermost open element, ``-(j + 2)`` is the text node ``texts[j]``, and
    :data:`SKIP` (the open event of an element the repair pass removed)
    stands for nothing.  Every open event has its close, and the root has
    neither, so a reader keeps a stack and finds each node's
    ``parent_node`` on its top.  A comment is stored, only when
    ``options["comment"]`` is set, as an element slot whose tag is ``None``
    and whose ``val`` is the comment text, opened and closed at once (it
    has no ``parent_node``).  ``valid`` is ``root.valid``.

    The token loop writes every event in document order, and leaves the
    elements still open at the end on its stack.  The repair pass then
    changes only their events, each in O(1): a removed element's open
    event becomes :data:`SKIP`; a pair-closed element's close event goes
    where its pair opened; the top-level element left open closes at the
    end.  The trailing text follows, except when the outermost pair close
    makes the root the repair target: the text then goes right after that
    close, ahead of the removed elements' kids.

    ``options`` mirrors the reference's ParsingOptions
    (``lowerCaseTagName`` / ``script`` / ``style`` / ``pre`` / ``comment``;
    the raw-text option lookup is by tag name, so a ``noscript`` key is also
    honoured, matching the reference's ``options[match[2]]`` lookup at
    src/index.ts:940).
    """
    opts = options or {}
    lower_case = bool(opts.get("lowerCaseTagName"))
    keep_comments = bool(opts.get("comment"))

    tag: list = [""]
    val: list[str] = [""]
    events: list[int] = []
    texts: list[str] = []
    opens: list[int] = [-1]

    cur_tag = ""  # tag of the innermost open element, stack[-1]
    stack: list[int] = [0]
    last_text_pos = 0
    pos = 0
    data_len = len(data)
    last_gt = None  # data.rfind(">"), found at the first failing site

    timeout = parse_timeout()
    deadline = time.monotonic() + timeout if timeout else None

    # local aliases: the token loop is pure interpreter time, and attribute
    # lookups per token are a measurable share of it
    search = KMARKUP_FIRST_PATH.search
    tag_append = tag.append
    val_append = val.append
    ev = events.append
    opens_append = opens.append
    texts_append = texts.append
    stack_append = stack.append
    stack_pop = stack.pop
    closed_get = K_ELEMENTS_CLOSED_BY_OPENING.get
    while pos <= data_len:
        m = search(data, pos)
        if m is None:
            break
        close_g, t, attrs, self_g, fail = m.groups()
        if fail is not None:
            # A site the first path fails at: KMARKUP fails at a comment
            # open too, and may match a tag open only through give-back.
            # Every token ends in '>', so past the document's last '>' no
            # site can match: the rest is the trailing text.
            q = m.start()
            if last_gt is None:
                last_gt = data.rfind(">")
            if q > last_gt:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("flat_parse deadline passed")
            if fail == "!--":
                search = _KMARKUP_NO_COMMENT.search
                m = None
            else:
                m = _full_match(data, q, deadline)
            if m is None:
                pos = q + 1
                continue
            close_g, t, attrs, self_g, _ = m.groups()
        m_start, m_end = m.span()
        # Inter-tag text (reference src/index.ts:902-906).
        if last_text_pos < m_start:
            ev(-2 - len(texts))
            texts_append(data[last_text_pos:m_start])
        last_text_pos = pos = m_end

        if t is None:
            # Comment branch (reference src/index.ts:911-919).
            if keep_comments:
                opens_append(len(events))
                ev(len(tag))
                ev(-1)
                tag_append(None)
                val_append(data[m_start + 4 : m_end - 3])
            continue
        if lower_case:
            t = t.lower()

        if close_g:
            # Close branch (reference src/index.ts:962-991).  Explicit
            # closing tags for void elements like </col> are ignored.
            if t in K_SELF_CLOSING:
                continue
            # Aggressive unwind: close unclosed child tags before the
            # parent (<a><b>text</a> closes <b> first); with no open
            # element of this tag, everything down to the root closes.
            while len(stack) > 1:
                stack_pop()
                ev(-1)
                if cur_tag == t:
                    cur_tag = tag[stack[-1]]
                    break
                cur_tag = tag[stack[-1]]
            continue

        # Opening-tag branch (reference src/index.ts:924-960).
        if not self_g:
            closed_by = closed_get(cur_tag)
            if closed_by is not None and t in closed_by:
                stack_pop()
                ev(-1)
                cur_tag = tag[stack[-1]]
        nid = len(tag)
        tag_append(t)
        val_append(attrs or "")
        opens_append(len(events))
        ev(nid)
        if t in K_BLOCK_TEXT_ELEMENTS:
            # Raw-text fast-forward (reference src/index.ts:936-959):
            # scan for the literal close markup; content becomes a single
            # text node only when the matching option is enabled.
            close_markup = "</" + t + ">"
            index = data.find(close_markup, pos)
            if opts.get(t):
                text = data[pos:] if index == -1 else data[pos:index]
                if text:
                    ev(-2 - len(texts))
                    texts_append(text)
            if index == -1:
                last_text_pos = pos = data_len + 1
            else:
                last_text_pos = pos = index + len(close_markup)
                self_g = "/"  # closed by its markup (src/index.ts:957)
        # A void or self-closed element closes at once; so does a raw-text
        # element whose close markup was found.
        if self_g or t in K_SELF_CLOSING:
            ev(-1)
        else:
            stack_append(nid)
            cur_tag = t

    # Malformed-HTML repair (reference src/index.ts:1000-1026), on the
    # events of the elements left open, innermost first.  Each element
    # above the top-level leftover stack[1] is removed, and its kids stay
    # where they are, now under the nearest element still open; on a pair
    # error (<h3><h3> -> <h3></h3>, same tag as the element below) that
    # element closes where the removed one opened.  appendChild sets the
    # parent of moved elements only (src/index.ts:483-489).
    valid = len(stack) == 1
    n_fixups = 0
    while len(stack) > 2:
        n_fixups += 1
        last = stack.pop()
        if tag[last] == tag[stack[-1]]:
            stack.pop()
            events[opens[last]] = -1
        else:
            events[opens[last]] = SKIP
    n_fixups += len(stack) - 1  # the top-level leftover is just skipped
    if len(stack) == 2:
        events.append(-1)

    # Trailing text (reference src/index.ts:995-998), appended to *root*:
    # after the removed elements' kids, unless those went to the root too.
    if last_text_pos < data_len:
        if not valid and len(stack) == 1:
            at = opens[last] + 1
            events.insert(at, -2 - len(texts))
            opens = [i + (i >= at) for i in opens]
        else:
            events.append(-2 - len(texts))
        texts.append(data[last_text_pos:])

    if metrics is not None:
        n_comments = tag.count(None) if keep_comments else 0
        metrics.n_elements = len(tag) - 1 - n_comments
        metrics.n_text = len(texts)
        metrics.n_comments = n_comments
        metrics.n_nodes = len(tag) - 1 + len(texts)
        metrics.n_fixups = n_fixups
        metrics.n_bytes = data_len
        metrics.valid = valid
    tree = FlatTree((tag, val, events, texts, valid))
    tree.opens = opens
    return tree


def parse(
    data: str,
    options: Optional[dict] = None,
    metrics: Optional[ParseMetrics] = None,
) -> HTMLElement:
    """Parse HTML, returning a fictive root element with ``valid`` set.

    Materialises :func:`flat_parse`'s tree in one pass over its events:
    ``raw_attrs`` is the trimmed attribute text, and ``parent_node``, the
    top of the stack of open nodes, is set on elements only (appendChild,
    reference src/index.ts:485-487).  Raises TimeoutError
    past :func:`flat_parse`'s deadline.
    """
    tag, val, events, texts, valid = flat_parse(data, options, metrics)
    root = HTMLElement("", "", None)
    kids = root.child_nodes
    stack = [root]
    for e in events:
        if e >= 0:
            t = tag[e]
            if t is None:
                node = CommentNode(val[e])
            else:
                v = val[e]
                node = HTMLElement(t, js_trim(v) if v else "", stack[-1])
            kids.append(node)
            stack.append(node)
            kids = node.child_nodes
        elif e == -1:
            stack.pop()
            kids = stack[-1].child_nodes
        elif e != SKIP:
            kids.append(TextNode(texts[-2 - e]))
    root.valid = valid
    return root
