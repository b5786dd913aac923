"""CSS descendant-selector engine matching the reference's Matcher semantics.

From-scratch implementation of the reference's selector automaton
(``/root/reference/src/index.ts:651-830``) and the querySelector(,All)
exploration (src/index.ts:400-476):

* part grammar ``tag#id.cls1.cls2[attr…][attr…]`` with ``*`` wildcard;
  whitespace is the only combinator (descendant); attribute ops
  ``= != ^= $= *= |= ~=`` plus bare existence;
* ``querySelectorAll``: comma-split union with insertion-ordered dedup;
  per part a recursive explore that forks the matcher per child (clone) and
  re-explores descendants with a rewound clone after an advance — result
  order is pre-order (reference test/html.test.ts:608-611);
* ``querySelector``: first match, short-circuit DFS; comma parts tried
  left-to-right — selector-order precedence, not document order
  (src/index.ts:469-474).

:func:`parse_chain` (one chain per comma part: :func:`selector_chains`)
is the one parse of a selector string: the Matchers here and the columnar
masks of ``stages/flat_select.py`` both evaluate its parts, so the two
engines read the same grammar.
"""
from __future__ import annotations

import re
from typing import Callable, List, Optional, Union

from .dom import HTMLElement
from .jsregex import S, js_trim, js_ws_split

__all__ = ["Matcher", "compile_parts", "query_selector", "query_selector_all",
           "select_union", "selector_chains"]

# reference src/index.ts:669 — selector part regex.
_SELECTOR_PART_RE = re.compile(
    r"(?:^|" + S + r"+)"
    r"([a-zA-Z_*][\w:-]*)?"
    r"(?:#([\w-]+))?"
    r"(?:\.([\w-]+(?:\.[\w-]+)*))?"
    r"((?:\[[^\]]+\])+)?"
)

# reference src/index.ts:694 — attribute selector regex.
_ATTR_SELECTOR_RE = re.compile(
    r"\[([^" + S[1:-1] + r"~|^$*!=]+)"
    r"(?:" + S + r"*(=|!=|\^=|\$=|\*=|\|=|~=)" + S + r"*"
    r"(?:[\"']?([^\"'\]]*)[\"']?)?)?\]"
)

Checker = Callable[[HTMLElement], bool]


def _make_attr_checker(key: str, op: str, value: str) -> Checker:
    """One attribute predicate (reference src/index.ts:743-777).

    ``!=`` is true when the attribute is missing; the substring/prefix ops
    require presence.  Keys and values are case-sensitive
    (reference test/attribute-operators.test.ts:150-162).
    """
    if op == "=":
        return lambda el: el.attributes.get(key) == value
    if op == "!=":
        return lambda el: el.attributes.get(key) != value
    if op == "^=":
        return lambda el: (
            (v := el.attributes.get(key)) is not None and v.startswith(value)
        )
    if op == "$=":
        return lambda el: (
            (v := el.attributes.get(key)) is not None and v.endswith(value)
        )
    if op == "*=":
        return lambda el: (
            (v := el.attributes.get(key)) is not None and value in v
        )
    if op == "|=":
        return lambda el: (
            (v := el.attributes.get(key)) is not None
            and (v == value or v.startswith(value + "-"))
        )
    if op == "~=":
        return lambda el: (
            (v := el.attributes.get(key)) is not None
            and value in js_ws_split(v)
        )
    return lambda el: el.attributes.get(key) is not None


def _make_checker(tag: str, id_: str, classes: list[str], attrs) -> Checker:
    """AND-composed part predicate (reference src/index.ts:713-738)."""
    checks: list[Checker] = []
    if tag and tag != "*":
        checks.append(lambda el: el.tag_name == tag)
    if id_:
        checks.append(lambda el: el.id == id_)
    for cls in classes:
        checks.append(lambda el, c=cls: c in el.class_names)
    if attrs:
        attr_checks = [_make_attr_checker(k, op, v) for (k, op, v) in attrs]
        checks.append(lambda el: all(c(el) for c in attr_checks))
    if not checks:
        return lambda el: True
    if len(checks) == 1:
        return checks[0]
    return lambda el: all(c(el) for c in checks)


# one part of a chain: (tag, id, classes, [(key, op, value), ...])
Part = tuple[str, str, list[str], list[tuple[str, str, str]]]


def parse_chain(selector: str) -> list[Part]:
    """Parse one comma-free selector into its descendant chain of parts.

    Mirrors parseCompleteSelector (src/index.ts:666-685): text the part
    regex does not match (e.g. the ``>`` of ``div > p``) is skipped, as in
    the reference.  Zero-width regex matches are skipped (the reference
    skips them via ``match[0].trim()``); Python's finditer advances past
    them safely.
    """
    parts: list[Part] = []
    for m in _SELECTOR_PART_RE.finditer(selector):
        # JS trim() strips U+FEFF; Python str.strip() does not — a BOM-only
        # part must be skipped like the reference does, not compiled into a
        # spurious always-true checker
        if not js_trim(m.group(0)):
            continue
        attrs = [(am.group(1), am.group(2) or "", am.group(3) or "")
                 for am in _ATTR_SELECTOR_RE.finditer(m.group(4) or "")]
        parts.append((m.group(1) or "", m.group(2) or "",
                      m.group(3).split(".") if m.group(3) else [], attrs))
    return parts


def _comma_parts(selector: str) -> list[str]:
    """The non-empty comma parts of a querySelector(All) selector."""
    return [p.strip() for p in selector.split(",") if p.strip()]


def selector_chains(selector: str) -> list[list[Part]]:
    """One :func:`parse_chain` chain per non-empty comma part: the chains
    the columnar masks evaluate.  :func:`compile_parts` builds its Matchers
    from the same comma parts through the same :func:`parse_chain`.  A
    chain with no parts matches nothing."""
    return [parse_chain(p) for p in _comma_parts(selector)]


class Matcher:
    """Cursor automaton over per-level checkers (src/index.ts:651-830)."""

    __slots__ = ("checkers", "next_match")

    def __init__(self, selector: str = "") -> None:
        self.checkers: list[Checker] = (
            [_make_checker(*part) for part in parse_chain(selector)]
            if selector else []
        )
        self.next_match = 0

    def advance(self, el: HTMLElement) -> bool:
        if self.next_match < len(self.checkers) and self.checkers[self.next_match](el):
            self.next_match += 1
            return True
        return False

    def rewind(self) -> None:
        self.next_match -= 1

    @property
    def matched(self) -> bool:
        return self.next_match == len(self.checkers)

    def reset(self) -> None:
        self.next_match = 0

    @property
    def level(self) -> int:
        return self.next_match

    def clone(self) -> "Matcher":
        cloned = Matcher()
        cloned.checkers = self.checkers  # shared, immutable after compile
        cloned.next_match = self.next_match
        return cloned


def _explore_all(
    node: HTMLElement, matcher: Matcher, once: bool = False
) -> list[HTMLElement]:
    """querySelectorImpl(all=true) explore (reference src/index.ts:423-451).

    Iterative (explicit work stack) so a deeply nested wild document cannot
    blow the interpreter stack inside a long-lived Ray worker — the same
    guarantee the parser/extractor already give.  Emission order is
    reproduced exactly, including the reference's deeper-first quirk on
    same-tag chains (rewound-clone branch concatenated BEFORE the advanced
    branch, src/index.ts:439): results append in recursion order via
    reversed LIFO pushes, with an explicit emit marker for matched nodes.

    With ``once``, each (element, matcher level) state is explored once.
    What a state emits depends on that state alone, and LIFO order finishes
    its first exploration before any second one starts, so a repeat emits
    only elements already emitted: the first-seen order of the results is
    unchanged, and the explore is linear in elements × levels instead of
    superlinear on same-tag nestings ("div div" on nested divs).
    """
    results: list[HTMLElement] = []
    seen: set[tuple[int, int]] = set()
    # stack entries: (node, matcher) visits or (None, element) emit markers;
    # LIFO, so pushes happen in REVERSE of the desired emission order
    stack: list[tuple[Optional[HTMLElement], object]] = [(node, matcher)]
    push = stack.append
    while stack:
        n, m = stack.pop()
        if n is None:  # emit marker
            results.append(m)  # type: ignore[arg-type]
            continue
        if once:
            state = (id(n), m.next_match)
            if state in seen:
                continue
            seen.add(state)
        advanced = m.advance(n) if n.tag_name else False
        children = n.children
        if advanced:
            cloned = m.clone()
            cloned.rewind()
            if m.matched:
                # node first, then children explored with the rewound clone
                for c in reversed(children):
                    push((c, cloned.clone()))
                push((None, n))
            else:
                # rewound-clone branch BEFORE the advanced branch
                for c in reversed(children):
                    push((c, m.clone()))
                for c in reversed(children):
                    push((c, cloned.clone()))
        else:
            for c in reversed(children):
                push((c, m.clone()))
    return results


def _explore_first(node: HTMLElement, matcher: Matcher) -> Optional[HTMLElement]:
    """querySelectorImpl(all=false) explore — short-circuit DFS (iterative
    for the same stack-depth guarantee as :func:`_explore_all`)."""
    stack: list[tuple[HTMLElement, Matcher]] = [(node, matcher)]
    while stack:
        n, m = stack.pop()
        advanced = m.advance(n) if n.tag_name else False
        if advanced and m.matched:
            return n
        stack.extend((c, m.clone()) for c in reversed(n.children))
    return None


def compile_parts(selector: str) -> list[Matcher]:
    """One Matcher per non-empty comma part of ``selector``."""
    return [Matcher(p) for p in _comma_parts(selector)]


def select_union(root: HTMLElement, parts: list[Matcher]) -> list[HTMLElement]:
    """Union of the compiled comma parts' pre-order matches, deduped in
    insertion order (JS Set semantics); the parts stay reusable."""
    seen: dict[int, HTMLElement] = {}
    for matcher in parts:
        matcher.reset()
        for el in _explore_all(root, matcher.clone(), once=True):
            seen.setdefault(id(el), el)
    return list(seen.values())


def query_selector_all(
    root: HTMLElement, selector: Union[str, Matcher]
) -> List[HTMLElement]:
    """All matches (reference src/index.ts:400-411).

    String selectors: :func:`select_union` of the comma parts.  Matcher
    instances: reset + raw result (no dedup), matching the reference.
    """
    if isinstance(selector, Matcher):
        selector.reset()
        return _explore_all(root, selector)
    return select_union(root, compile_parts(selector))


def query_selector(
    root: HTMLElement, selector: Union[str, Matcher]
) -> Optional[HTMLElement]:
    """First match; comma parts tried left-to-right (src/index.ts:462-476)."""
    if isinstance(selector, Matcher):
        selector.reset()
        return _explore_first(root, selector)
    for matcher in compile_parts(selector):
        result = _explore_first(root, matcher)
        if result is not None:
            return result
    return None
