"""The one tokenizer and repair pass, and the object DOM built from it.

From-scratch Python implementation of the parse algorithm specified by the
reference (``/root/reference/src/index.ts:833-1028``): one regex alternation
drives a forward scan (comments OR tags); an element stack handles implicit
closes (kElementsClosedByOpening), raw-text elements (script/noscript/style/
pre), void elements (kSelfClosingElements) and aggressive unwind on close
tags; a post-pass repairs leftover unclosed elements (pair-error vs
single-error) and sets ``root.valid``.

:func:`flat_parse` is that algorithm, writing the tree into flat parallel
lists without a node object; the span walk (``fast_extract``) and the
selector node table (``stages/flat_select``) read those lists directly.
:func:`parse` materialises them into ``HTMLElement`` / ``TextNode`` /
``CommentNode`` objects.

This is a *pure function of the input string* — deterministic and idempotent,
so Ray task retries are safe.  The CPython regexes are compiled at module
import, i.e. once per Ray worker process; the interruptible copy of the
tokenizer pattern (:func:`run_bounded`) compiles on first use.
"""
from __future__ import annotations

import contextvars
import functools
import re
import time
from typing import Optional

from .dom import CommentNode, HTMLElement, TextNode
from .jsregex import _JS_WS_CHARS, WS, js_trim

__all__ = ["flat_parse", "parse", "ParseMetrics", "PATHOLOGICAL", "PATHOLOGICAL_RE2",
           "is_pathological", "run_bounded"]

# reference src/index.ts:833 — kMarkupPattern, translated:
#   [^]        -> [\s\S]
#   groups     -> named (close / tag / attrs / selfclose); inner groups made
#                 non-capturing since only 1,2,3,7 are read by parse().
#
# KNOWN INHERITED LIMITATION: the attrs repetition backtracks exponentially
# on truncated tags whose attr chars are ambiguous between the name and junk
# branches (e.g. "<a " + "a"*20 with no ">") — the classic ReDoS shape of a
# cut-off crawl page.  This is the REFERENCE's own behavior (V8's
# backtracking engine explodes identically on src/index.ts:833), and it is
# NOT fixable bit-exactly in the pattern: possessive/atomic rewrites were
# fuzz-tested and change captures on 22/40k random inputs, because greedy
# give-back is semantically needed (a shorter tag/junk match can expose a
# `name=value` split whose value consumes '/' that no other branch can —
# e.g. '<BA=/x>' matches tag 'B', attrs 'A=/x' only via give-back).
# CPython's `re` takes no time limit (only a main-thread signal stops it),
# so documents the prescan below flags are tokenized by the SAME source
# compiled with the `regex` module (see run_bounded): its memoisation turns
# the exponential blowup into a quadratic one (~0.1 s at 1 KB, ~10 s at
# 10 KB of ambiguous run), and its search ``timeout=`` makes the parse
# interruptible.  Unflagged documents stay on `re`: the extraction kernel
# runs 1.3-1.8x slower per crawl-corpus document on `regex`.
_S = f"[{WS}]"
# '=' -> quote whitespace class for the prescan: the same JS WS set but as
# LITERAL characters, because RE2 (pyarrow match_substring_regex in the
# partition router) rejects \uXXXX escapes that Python re accepts.
_WSQ = "[" + _JS_WS_CHARS + "]"
_KMARKUP_SRC = (
    r"<!--[\s\S]*?(?=-->)-->"
    r"|<(?P<close>/?)"
    r"(?P<tag>[a-z][-.:0-9_a-z]*)"
    r"(?P<attrs>(?:" + _S + r"*(?:[a-z][-.:0-9_a-z]*"
    r"(?:" + _S + r"*=" + _S + r"*(?:\"[^\"]*?\"|'[^']*?'|(?:/(?!>)|[^" + WS + r"\"'<>/])+))?"
    r"|[^</>" + WS + r"]+))*)"
    + _S + r"*(?P<selfclose>/?)>"
)
KMARKUP = re.compile(_KMARKUP_SRC, re.IGNORECASE)
# The letters CPython's IGNORECASE folds into [a-z]: ASCII plus dotted
# capital I, dotless i, long s and the Kelvin sign.  The `regex` copy spells
# them out instead of folding, because `regex` folds differently ('<ı>' is a
# tag for `re` and text for `regex` under IGNORECASE); no other part of the
# pattern holds a letter.
_RE_FOLDED_AZ = "a-zA-Z\u0130\u0131\u017f\u212a"
# absolute time.monotonic() deadline of the innermost run_bounded, or None
_DEADLINE: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "flat_parse_deadline", default=None
)


@functools.cache
def _bounded_kmarkup():
    """KMARKUP compiled with `regex` (imported on first use: ~15 ms)."""
    import regex

    return regex.compile(_KMARKUP_SRC.replace("a-z", _RE_FOLDED_AZ))


def _deadline_search(deadline: float):
    """``KMARKUP.search`` on the `regex` copy, each call bounded by the time
    left before ``deadline``; raises TimeoutError once it has passed."""
    search = _bounded_kmarkup().search
    clock = time.monotonic

    def bounded(data: str, pos: int):
        return search(data, pos, timeout=max(deadline - clock(), 0.0))

    return bounded


def run_bounded(fn, *args, timeout: float):
    """``fn(*args)`` with every :func:`flat_parse` inside it tokenizing on
    the interruptible `regex` copy of KMARKUP, under one deadline
    ``timeout`` seconds from now: a search still running at the deadline
    raises TimeoutError, which propagates out of ``fn`` like any exception
    it raises.  The deadline lives in a context variable that is reset on
    return, so it never reaches code that runs after ``fn``."""
    token = _DEADLINE.set(time.monotonic() + timeout)
    try:
        return fn(*args)
    finally:
        _DEADLINE.reset(token)


# ReDoS prescan (round-3 verdict #6): a cheap LINEAR-TIME over-approximation
# of the inputs that can trigger kMarkupPattern's inherited backtracking
# blowup, so pathological documents can be routed to a bounded-time parse
# lane WITHOUT touching tokenizer semantics.  Measured growth: a truncated
# '<a ' + 'a'*n tag takes ~7 s at n=16 and ~3x per +2 chars, so the run
# threshold sits at 12.  The blowup only fires at a tag-open site whose
# whole attrs+'>' match FAILS (a tag the grammar can match up to its '>'
# matches greedily in linear time — the junk branch even eats unclosed
# quotes as long as a '>' follows; shape 6 covers tags that have a '>' the
# grammar cannot reach), so the shapes require a failing tail:
#   1. a tag-open whose [^<>] run reaches >=12 chars and then hits '<' or
#      EOF instead of '>' (the truncated-crawl-page shape; an unclosed
#      quote running to EOF is a sub-case);
#   2. a tag-open whose first quoted value spans a '<'/'>' (legal for the
#      quoted branch) and is never terminated by a '>' after the closing
#      quote — give-back then re-exposes the bracket to the name/junk
#      branches across the whole run;
#   3. (round-4 review fix) the general form of both: a QUOTE-AWARE run —
#      units are a non-bracket/non-quote char OR a whole quoted section
#      (which may legally contain brackets) — reaching >=11 units and then
#      hitting '<'/EOF instead of '>', optionally through one trailing
#      unterminated quote.  Shape 1/2 alone missed e.g.
#      '<a q="" w="1<2" ' + 'e'*n (pre-bracket run under 12 chars, first
#      quoted value bracket-free): measured 1.4 s at n=12, ~3x per +2.
#   4. (round-4 fuzz find, seed 9,039,100) an '='-anchored quoted value
#      containing '<' (closing quote optional) followed by a >=8-char
#      quote-free bracket-free run.  Measured matrix: '<' in the value is
#      load-bearing ('>'-only values are linear); attr spacing is NOT
#      (slow with or without spaces around the name/quote); a run ending
#      directly in '>' is fast but '/V>'/EOF/'<' tails blow up (~3x per
#      +2 run chars, 0.7 s at run 12), so the shape over-approximates by
#      ignoring the tail — the run class EXCLUDES quotes because a
#      following '="..."' pair re-synchronizes the engine (real pages
#      like nice.html carry comment-URL src values whose tails are
#      quote-bounded at <8 chars and parse linearly).  This shape fires
#      even when the tag ultimately MATCHES, falsifying the failing-tail
#      premise above: the greedy engine explores exponentially many
#      junk/quoted re-splits of the bracket-bearing value against the
#      following run before finding the successful path.
# Flagged documents tokenize on the interruptible `regex` copy of KMARKUP
# (run_bounded), which gives the same trees as `re`, so a false positive
# costs only the slower engine; false negatives keep the reference's own
# unbounded `re` behavior.  The source is RE2-compatible so the
# partition router can apply it vectorized (pyarrow match_substring_regex).
# The quote shape anchors on the FIRST quote after the tag-open
# ([^<>"']*) — without that anchor a CLOSING quote can re-anchor the
# scan and flag every '<a href="x">tail' document (measured).  Shape 3's
# quoted units are anchored on a preceding '=' because that is KMARKUP's
# own grammar (a quote NOT after `name=` falls to the junk branch, which
# cannot cross brackets): without the anchor, units can re-pair a CLOSING
# quote with the next attribute's opening quote (`;="" "=""`), leaving a
# stray quote whose unterminated-tail group walks out of a normally
# terminated tag (measured FP on benign attr soup).  Backtracking stays
# effectively deterministic: at a '=' the single-char branch is tried
# first and dies on the unconsumable quote one step later, so give-back
# is O(1) per '=' plus the (linear) repetition count.
# Every shape starts at a tag-open as KMARKUP sees one: an open OR close
# tag ('</a ' + run hangs like '<a ' + run), on any letter `re`'s
# IGNORECASE folds into [a-z] (_RE_FOLDED_AZ holds the characters
# themselves, not \uXXXX escapes, which RE2 rejects).
_TAG_OPEN = "</?[" + _RE_FOLDED_AZ + "]"
_SHAPE4_SRC = (
    _TAG_OPEN + r"(?:[^<>\"']|=" + _WSQ + r"*\"[^\"]*\"|=" + _WSQ
    + r"*'[^']*')*=" + _WSQ
    + r"*(?:\"[^\"]*<[^\"]*\"|'[^']*<[^']*')[^<>\"']{8,}"
)
# Shape 5 (round-5 fuzz finds, seeds 9,175,218 / 9,619,904 — the round-4
# campaign recorded these as "V8-only" blowups, but re-measurement showed
# CPython's engine hangs on them too; the campaign had skipped them before
# ever running our side): an '='-anchored quoted value whose SPAN (up to
# its closing quote or EOF) swallows a raw-text open
# (`<script|style|pre|noscript`).  The value legally crosses tags, so the
# stage-2 strip sees a later well-formed raw-text region and removes it —
# but the PRECEDING tag-open attempt (the one holding the quote) scans
# straight across that material and explodes re-splitting it (measured:
# both 1M-campaign docs >60 s full / ~15 s at 20 chars of core, ~3x per
# +2 chars).  Like shape 4, this evidence spans a raw-text boundary, so
# it must be tested on the RAW string, bypassing the strip.  The quote is
# tag-anchored (same attr-unit prefix as shapes 3/4) so a bare JS string
# 'document.write("<script ...")' inside a well-formed script body does
# not fire — only quotes reachable as a tag-open's attribute value.
_SHAPE5_SRC = (
    _TAG_OPEN + r"(?:[^<>\"']|=" + _WSQ + r"*\"[^\"]*\"|=" + _WSQ
    + r"*'[^']*')*=" + _WSQ
    + r"*(?:\"[^\"]*<(?:script|style|pre|noscript)\b"
    + r"|'[^']*<(?:script|style|pre|noscript)\b)"
)
# Shape 6 (prescan-miss fix): a slash KMARKUP cannot consume.  The attrs
# grammar takes '/' only inside an '='-anchored value (quoted, or unquoted
# up to whitespace / a quote) or directly before the closing '>', so any
# other '/' makes the tag-open attempt FAIL at that slash even when a '>'
# follows — the premise of shapes 1-3 that "a terminated tag matches in
# linear time" is false — and the engine re-splits the whole run before it
# exponentially.  Measured on CPython re: '<a ' + 'b'*14 + '/x>' 1.1 s,
# ~3x per +1 char; '<a ' + "'a"*10 + '/x>' 2.7 s; three random tag-soup
# documents ('<aa\'=  =\'==aa"  \'"=a"aa\'-a\'"/\'>', ...) 1.8-18 s.
# Units mirror the attrs grammar: a char that is not a bracket, '/' or '=';
# an '='-anchored quoted value; or an '='-anchored unquoted value together
# with the whitespace or quote that ends it (so the unit cannot stop before
# a '/' the value itself consumes: '<a href=/x/y>' stays unflagged).  A
# quoted value counts as ONE unit, so the threshold (8) sits below the
# 11-char runs of shapes 1/3: one of the three soup documents reaches its
# slash after 9 units.  Flags 0 of the 74,017 cached perfbench documents
# at thresholds 7-11.
_SHAPE6_SRC = (
    _TAG_OPEN + r"(?:[^<>/=]|=" + _WSQ + r"*\"[^\"]*\"|=" + _WSQ + r"*'[^']*'"
    r"|=" + _WSQ + r"*[^" + _JS_WS_CHARS + r"\"'<>]+[" + _JS_WS_CHARS + r"\"'])"
    r"{8,}/(?:[^>]|$)"
)
_PATHOLOGICAL_SRC = (
    _TAG_OPEN + r"(?:[^<>]{11,}(?:<|$)"
    r"|[^<>\"']*[\"'][^\"']*[<>][^\"']*[\"'][^<>]*(?:<|$)"
    r"|(?:[^<>\"']|=" + _WSQ + r"*\"[^\"]*\"|=" + _WSQ + r"*'[^']*'){11,}"
    r"(?:=" + _WSQ + r"*\"[^\"]*|=" + _WSQ + r"*'[^']*)?(?:<|$))"
    r"|" + _SHAPE4_SRC + r"|" + _SHAPE5_SRC + r"|" + _SHAPE6_SRC
)
PATHOLOGICAL = re.compile(_PATHOLOGICAL_SRC)
# shapes whose evidence can span a raw-text boundary: tested on the RAW
# string, bypassing the stage-2 strip (see is_pathological)
_RAW_SHAPES = re.compile(_SHAPE4_SRC + r"|" + _SHAPE5_SRC)
PATHOLOGICAL_RE2 = _PATHOLOGICAL_SRC  # same source, RE2 syntax-safe

# Stage-2 refinement: kMarkupPattern never scans INSIDE raw-text element
# bodies (parse() jumps lastIndex past the closing tag) or comments (the
# comment alternation consumes them atomically), so '<' runs there are
# harmless.  Real pages are full of 'if (a<b)' script bodies, so only
# stage-1-flagged docs pay this linear strip + re-test.
#
# Round-4 review fixes (both were FALSE NEGATIVES — a masked pathological
# doc parses unbounded in-process and hangs the worker, exactly what the
# lane exists to prevent):
#   * CASE-SENSITIVE, exact close tag: parse() treats a tag as raw-text
#     only via the case-sensitive lookup `t in K_BLOCK_TEXT_ELEMENTS` and
#     terminates it only at the exact lowercase `</script>` (data.find of
#     close_markup, parser loop below).  The old `(?is)`/`</\1[^>]*>` strip
#     removed `<SCRIPT>` bodies the tokenizer actually scans (measured
#     blowup: '<SCRIPT><a ' + 'a'*16 + '</SCRIPT>' ~8.5 s).  Under the
#     lowerCaseTagName option an uppercase body IS skipped, so the
#     case-sensitive strip can only over-flag there (benign: a false
#     positive).
#   * '<>' SENTINEL replacement, not '': removing a region outright merges
#     its neighbours, so '<a ' + run + '<!--c-->>' collapsed to a
#     terminated-looking '<a run>' and went unflagged — but the real
#     tokenizer's attempt at '<a' still dies on the comment's own '<' and
#     backtracks across the run (measured ~9.9 s at run 16).  The sentinel
#     keeps that terminator: '<' reproduces the boundary the failing match
#     actually sees, and the trailing '>' cannot start a new tag-open, so
#     the text AFTER a benign stripped region never fuses into a phantom
#     '<letter' run (which a bare '<' sentinel would create).
#   * QUOTE-AWARE open-tag attrs (round-4 fuzz find, seed 9,000,980): the
#     old `[^>]*` crossed an unquoted '<' (e.g. `<pre style..."_u1<>`), so
#     the strip removed a region the tokenizer actually scans — the
#     tag-open attempt FAILS at that '<' (that is the blowup itself), so
#     no raw-text jump ever happens there.  KMARKUP can only cross
#     brackets inside '='-anchored quoted values, so the strip's attr
#     grammar mirrors exactly that (same '='-anchored units as shape 3);
#     an unquoted bracket now stops the strip and the pathology stays
#     visible.  Errors in the other direction (a quote KMARKUP's junk
#     branch would eat, stopping our strip early) only over-flag — a
#     false positive gets the same tree from the bounded engine.
_RAW_TEXT_STRIP = re.compile(
    r"(?s)<(script|style|pre|noscript)\b"
    r"(?:[^<>\"']|=" + _WSQ + r"*\"[^\"]*\"|=" + _WSQ + r"*'[^']*')*"
    r">[\s\S]*?</\1>|<!--[\s\S]*?-->"
)


def is_pathological(html: str) -> bool:
    """True if ``html`` matches the ReDoS over-approximation prescan.

    Two linear-time stages: the cheap pattern over the raw string (almost
    every doc exits here), then — only for stage-1 hits — the same pattern
    over a copy with raw-text bodies and comments replaced by a '<>'
    sentinel (the tokenizer never backtracks inside those regions, but
    their leading '<' still terminates a failing run that started before
    them — see _RAW_TEXT_STRIP's comment).

    Shape 4 on the RAW string BYPASSES the stage-2 refinement (round-4
    fuzz find, seed 9,039,100): its quote+bracket+run evidence can SPAN a
    raw-text region's start — the body of a `<pre>` is scanned by a
    PRECEDING failing tag attempt before the `<pre>` open ever matches,
    so the cost is real even though the strip (correctly, for shapes 1-3)
    removes the body.  Cost of the bypass: documents whose only shape-4
    site sits inside a well-formed script body (e.g. HTML-template JS
    strings '=\"<div ...>\"' + an 8-char run) over-flag — they parse
    to the same tree under the bounded engine."""
    if _RAW_SHAPES.search(html) is not None:
        return True
    if PATHOLOGICAL.search(html) is None:
        return False
    return PATHOLOGICAL.search(_RAW_TEXT_STRIP.sub("<>", html)) is not None


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


def flat_parse(
    data: str,
    options: Optional[dict] = None,
    metrics: Optional[ParseMetrics] = None,
) -> tuple[list, list[str], list[list[int]], list[int], list[str], bool]:
    """Tokenize and repair ``data`` into the flat tree; the only tokenizer.

    Returns ``(tag, val, kids, par, texts, valid)``.  Elements are indexes
    into the parallel lists ``tag`` / ``val`` (the raw, untrimmed attribute
    text of the open tag) / ``kids`` / ``par``, in creation order; element 0
    is the fictive root.  ``kids[i]`` lists element ids (``>= 0``) and text
    nodes, encoded as ``-(j + 2)`` for ``texts[j]``.  ``par[i]`` is element
    ``i``'s ``parent_node``: -1 for the root and for elements the repair
    pass detached, and always lower than ``i``.  A comment is stored, only
    when ``options["comment"]`` is set, as an element slot whose tag is
    ``None`` and whose ``val`` is the comment text (its ``par`` is unused:
    comments have no ``parent_node``).  ``valid`` is ``root.valid``.

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
    kids: list[list[int]] = [[]]
    par: list[int] = [-1]
    texts: list[str] = []

    cur_kids = kids[0]
    cur = 0
    stack: list[int] = [0]
    last_text_pos = 0
    pos = 0
    data_len = len(data)

    # local aliases: the token loop is pure interpreter time, and attribute
    # lookups per token are a measurable share of it
    deadline = _DEADLINE.get()
    search = KMARKUP.search if deadline is None else _deadline_search(deadline)
    tag_append = tag.append
    val_append = val.append
    kids_append = kids.append
    par_append = par.append
    texts_append = texts.append
    stack_append = stack.append
    stack_pop = stack.pop
    closed_get = K_ELEMENTS_CLOSED_BY_OPENING.get
    while pos <= data_len:
        m = search(data, pos)
        if m is None:
            break
        m_start, m_end = m.span()
        # Inter-tag text (reference src/index.ts:902-906).
        if last_text_pos < m_start:
            cur_kids.append(-2 - len(texts))
            texts_append(data[last_text_pos:m_start])
        last_text_pos = pos = m_end

        close_g, t, attrs, self_g = m.group(1, 2, 3, 4)
        if t is None:
            # Comment branch (reference src/index.ts:911-919).
            if keep_comments:
                cur_kids.append(len(tag))
                tag_append(None)
                val_append(data[m_start + 4 : m_end - 3])
                kids_append([])
                par_append(cur)
            continue
        if lower_case:
            t = t.lower()
        is_closing = close_g != ""
        is_self_syntax = self_g != ""

        # Opening-tag branch (reference src/index.ts:924-960).
        if not is_closing:
            if not is_self_syntax:
                closed_by = closed_get(tag[cur])
                if closed_by is not None and t in closed_by:
                    stack_pop()
                    cur = stack[-1] if stack else 0
                    cur_kids = kids[cur]
            nid = len(tag)
            tag_append(t)
            val_append(attrs or "")
            child_list: list[int] = []
            kids_append(child_list)
            par_append(cur)
            cur_kids.append(nid)
            cur = nid
            cur_kids = child_list
            stack_append(cur)
            if t in K_BLOCK_TEXT_ELEMENTS:
                # Raw-text fast-forward (reference src/index.ts:936-959):
                # scan for the literal close markup; content becomes a single
                # text node only when the matching option is enabled.
                close_markup = "</" + t + ">"
                index = data.find(close_markup, pos)
                if opts.get(t):
                    text = data[pos:] if index == -1 else data[pos:index]
                    if text:
                        cur_kids.append(-2 - len(texts))
                        texts_append(text)
                if index == -1:
                    last_text_pos = pos = data_len + 1
                else:
                    last_text_pos = pos = index + len(close_markup)
                    is_closing = True  # match[1] = 'true' (src/index.ts:957)

        # Close / self-close branch (reference src/index.ts:962-991).
        if is_closing or is_self_syntax or t in K_SELF_CLOSING:
            # Ignore explicit closing tags for void elements like </col>.
            if is_closing and t in K_SELF_CLOSING:
                continue
            while True:
                if tag[cur] == t:
                    stack_pop()
                    cur = stack[-1] if stack else 0
                    break
                elif len(stack) > 1:
                    # Close unclosed child tag before closing the parent
                    # (<a><b>text</a> closes <b> first).
                    stack_pop()
                    cur = stack[-1] if stack else 0
                else:
                    break
            cur_kids = kids[cur]

    # Trailing text (reference src/index.ts:995-998) — appended to *root*.
    if last_text_pos < data_len:
        kids[0].append(-2 - len(texts))
        texts.append(data[last_text_pos:])

    # Malformed-HTML repair (reference src/index.ts:1000-1026).
    valid = len(stack) == 1
    n_fixups = 0
    while len(stack) > 1:
        n_fixups += 1
        last = stack.pop()
        one_before = stack[-1] if stack else 0
        p = par[last]
        if p >= 0 and par[p] >= 0:
            kl = kids[one_before]
            if last in kl:
                kl.remove(last)
            par[last] = -1
            if p == one_before and tag[last] == tag[one_before]:
                # Pair error <h3><h3> -> <h3></h3>: second's children move to
                # the grandparent; both treated closed (extra stack pop).
                target = par[one_before]
                if stack:
                    stack.pop()
            else:
                # Single error <div><h3></div>: <h3> removed, children
                # reattached to its parent.
                target = one_before
            # appendChild sets the parent of moved elements only
            # (src/index.ts:483-489); the detached element keeps its list
            moved = kids[last]
            if moved:
                kids[target].extend(moved)
                for c in moved:
                    if c >= 0:
                        par[c] = target
        # else: top-level leftover — just skip.

    if metrics is not None:
        n_comments = tag.count(None) if keep_comments else 0
        metrics.n_elements = len(tag) - 1 - n_comments
        metrics.n_text = len(texts)
        metrics.n_comments = n_comments
        metrics.n_nodes = len(tag) - 1 + len(texts)
        metrics.n_fixups = n_fixups
        metrics.n_bytes = data_len
        metrics.valid = valid
    return tag, val, kids, par, texts, valid


def parse(
    data: str,
    options: Optional[dict] = None,
    metrics: Optional[ParseMetrics] = None,
) -> HTMLElement:
    """Parse HTML, returning a fictive root element with ``valid`` set.

    Materialises :func:`flat_parse`'s tree: ``raw_attrs`` is the trimmed
    attribute text, ``parent_node`` is set on elements only (appendChild,
    reference src/index.ts:485-487), and a node listed twice (children the
    repair moved out of a detached element) is one shared object.
    """
    tag, val, kids, par, texts, valid = flat_parse(data, options, metrics)
    nodes: list = []
    append = nodes.append
    for t, v, p in zip(tag, val, par):
        if t is None:
            append(CommentNode(v))
        else:
            append(HTMLElement(t, js_trim(v) if v else "",
                               nodes[p] if p >= 0 else None))
    # kids hold element k as k and text j as -(j + 2): with the text nodes
    # appended in reverse plus one pad, list indexing resolves both
    get = (nodes + [TextNode(v) for v in reversed(texts)] + [None]).__getitem__
    for node, ks in zip(nodes, kids):
        if ks:
            node.child_nodes = list(map(get, ks))
    root = nodes[0]
    root.valid = valid
    return root
