"""Ported selector tests (reference test/html.test.ts:6-45,571-612 and
test/attribute-operators.test.ts:1-270)."""
from __future__ import annotations

import pytest

from node_html_parser_ray.kernel import HTMLElement, Matcher, parse
from test_tokenizer_golden import CASE_SETS, case_inputs


def _stage_counts(docs: dict, selectors: list) -> dict:
    """Count-only SelectorStage over ``{doc_id: html}`` ->
    ``{(doc_id, selector): n_matches}``."""
    import pyarrow as pa

    from node_html_parser_ray.stages.selector_stage import SelectorStage

    out = SelectorStage(selectors)(
        pa.table({"doc_id": list(docs), "html": list(docs.values())})
    )
    return {(r["doc_id"], r["selector"]): r["n_matches"]
            for r in out.to_pylist()}


def _nodes(docs: dict):
    """The node table of ``{doc_id: html}`` and the ``(doc_id, element row)``
    of each of its rows."""
    from node_html_parser_ray.stages.flat_select import (
        explode_document,
        node_table,
    )

    exploded = [explode_document(h) for h in docs.values()]
    keys = [(doc_id, row) for doc_id, doc in zip(docs, exploded)
            for row in range(len(doc[0]))]
    return node_table(exploded), keys


def _element_rows(root) -> list:
    """``(element, parent row)`` for the elements under ``root`` in
    pre-order: the rows explode_document gives, parents as row indexes
    (-1 for a top-level element)."""
    rows = []
    stack = [(c, -1) for c in reversed(root.child_nodes) if c.node_type == 1]
    while stack:
        node, parent = stack.pop()
        rows.append((node, parent))
        row = len(rows) - 1
        stack.extend((c, row) for c in reversed(node.child_nodes)
                     if c.node_type == 1)
    return rows


class TestMatcher:
    def test_cursor_advance_rewind_matched(self):
        matcher = Matcher("#id .a a.b *.a.b .a.b * a")
        star = HTMLElement("_")
        with_id = HTMLElement("p", "id='id'")
        with_cls = HTMLElement("a", "class='a b'")

        assert not matcher.advance(star)
        assert not matcher.advance(with_cls)
        assert matcher.advance(with_id)  # #id

        assert not matcher.advance(star)
        assert not matcher.advance(with_id)
        assert matcher.advance(with_cls)  # .a

        assert not matcher.advance(star)
        assert not matcher.advance(with_id)
        assert matcher.advance(with_cls)  # a.b

        assert not matcher.advance(with_id)
        assert not matcher.advance(star)
        assert matcher.advance(with_cls)  # *.a.b

        assert not matcher.advance(with_id)
        assert not matcher.advance(star)
        assert matcher.advance(with_cls)  # .a.b

        assert matcher.advance(with_id)  # *
        matcher.rewind()
        assert matcher.advance(star)  # *
        matcher.rewind()
        assert matcher.advance(with_cls)  # *

        assert not matcher.advance(with_id)
        assert not matcher.advance(star)
        assert matcher.advance(with_cls)  # a

        assert matcher.matched


class TestQuerySelector:
    def test_basic(self):
        root = parse(
            '<a id="id" data-id="myid"><div><span class="a b"></span><span></span><span></span></div></a>'
        )
        child_a = root.first_child
        child_span = child_a.first_child.first_child
        assert root.query_selector("#id") is child_a
        assert root.query_selector("span.a") is child_span
        assert root.query_selector("span.b") is child_span
        assert root.query_selector("span.a.b") is child_span
        assert root.query_selector("#id .b") is child_span
        assert root.query_selector("#id span") is child_span
        assert root.query_selector("[data-id=myid]") is child_a
        assert root.query_selector('[data-id="myid"]') is child_a


class TestQuerySelectorAll:
    def test_basic(self):
        root = parse(
            '<a id="id"><div><span id="3" class="a b"></span><span></span><span></span></div></a>'
        )
        child = root.first_child
        grand = child.first_child
        assert root.query_selector_all("#id") == [child]
        assert root.query_selector_all("span.a") == [grand.first_child]
        assert root.query_selector_all("span.b") == [grand.first_child]
        assert root.query_selector_all("span.a.b") == [grand.first_child]
        assert root.query_selector_all("#id .b") == [grand.first_child]
        assert root.query_selector_all("#id span") == grand.child_nodes
        assert root.query_selector_all("#id, #id .b") == [child, grand.first_child]

    def test_comma_union_dedup(self):
        root = parse('<time class="date">')
        assert root.query_selector_all("time,.date") == [root.first_child]

    def test_nested_all(self):
        assert len(parse("<div><div></div></div>").query_selector_all("div")) == 2

    def test_preorder_result_order(self):
        root = parse('<div id="1"><div id="2"></div><div id="3"></div></div>')
        assert ",".join(d.id for d in root.query_selector_all("div")) == "1,2,3"


class TestAttributeOperators:
    def test_existence(self):
        root = parse('<a href="https://example.com">Link</a><span>Text</span>')
        assert root.query_selector("[href]").tag_name == "a"

    def test_exact_match(self):
        root = parse('<input type="text" name="username"><input type="email" name="email">')
        assert root.query_selector('[type="text"]').attributes["type"] == "text"
        assert root.query_selector('[type="email"]').attributes["type"] == "email"

    def test_starts_with(self):
        root = parse('<a href="https://example.com">H</a><a href="http://test.com">P</a>')
        assert root.query_selector('[href^="https://"]').attributes["href"] == "https://example.com"
        assert root.query_selector('[href^="http://"]').attributes["href"] == "http://test.com"

    def test_ends_with(self):
        root = parse('<a href="https://example.com">1</a><a href="https://test.org">2</a>')
        assert root.query_selector('[href$=".com"]').attributes["href"] == "https://example.com"
        assert root.query_selector('[href$=".org"]').attributes["href"] == "https://test.org"

    def test_dot_in_attr_value_not_class(self):
        root = parse('<a href="https://example.com">W</a><span class="com">N</span>')
        result = root.query_selector('[href$=".com"]')
        assert result.tag_name == "a"
        assert result.attributes.get("class") is None

    def test_contains(self):
        root = parse('<div class="btn-primary">1</div><div class="btn-secondary">2</div>')
        assert root.query_selector('[class*="primary"]').attributes["class"] == "btn-primary"
        assert root.query_selector('[class*="secondary"]').attributes["class"] == "btn-secondary"

    def test_not_equal(self):
        root = parse('<input type="text" name="username"><input type="hidden" name="token">')
        assert root.query_selector('[type!="hidden"]').attributes["type"] == "text"
        assert root.query_selector('[type!="text"]').attributes["type"] == "hidden"

    def test_hyphen(self):
        root = parse('<span lang="en">E</span><span lang="en-US">A</span><span lang="fr">F</span>')
        ens = root.query_selector_all('[lang|="en"]')
        assert len(ens) == 2
        assert ens[0].attributes["lang"] == "en"
        assert ens[1].attributes["lang"] == "en-US"

    def test_word(self):
        root = parse('<div class="btn primary large">B</div><div class="secondary small">O</div>')
        assert root.query_selector('[class~="primary"]').attributes["class"] == "btn primary large"
        assert root.query_selector('[class~="large"]').attributes["class"] == "btn primary large"

    def test_multiple_attrs(self):
        root = parse('<input type="email" name="user-email" required>')
        result = root.query_selector('input[type="email"][required]')
        assert result.attributes["type"] == "email"
        assert result.attributes["required"] == ""

    def test_complex_selector(self):
        root = parse('<a href="tel:+1234567890" class="phone-link" id="phone1">P</a>')
        result = root.query_selector('a.phone-link#phone1[href^="tel:"]')
        assert result is not None
        assert result.tag_name == "a"
        assert result.attributes["href"] == "tel:+1234567890"
        assert result.id == "phone1"

    def test_empty_attr_values(self):
        root = parse('<input value="" required class="">')
        assert root.query_selector('[value=""]') is not None
        assert root.query_selector("[required]") is not None
        assert root.query_selector('[class=""]') is not None
        assert root.query_selector('[value^=""]') is not None
        assert root.query_selector('[value$=""]') is not None
        assert root.query_selector('[value*=""]') is not None

    def test_special_chars_and_dots(self):
        root = parse('<div data-test="hello.world-test_123" data-url="https://site.com/path.html">C</div>')
        assert root.query_selector('[data-test^="hello."]') is not None
        assert root.query_selector('[data-test$="_123"]') is not None
        assert root.query_selector('[data-test*="world-test"]') is not None
        assert root.query_selector('[data-url$=".html"]') is not None
        assert root.query_selector('[data-url*=".com"]') is not None

    def test_multi_attrs_complex_values(self):
        root = parse('<input type="email" name="user-email" data-validation="email.required" required>')
        result = root.query_selector('input[type="email"][name^="user"][data-validation*=".required"][required]')
        assert result is not None
        assert result.attributes["data-validation"] == "email.required"

    def test_case_sensitivity(self):
        root = parse('<div class="Test" data-value="CamelCase">C</div>')
        assert root.query_selector('[class="Test"]') is not None
        assert root.query_selector('[CLASS="Test"]') is None
        assert root.query_selector('[class="test"]') is None
        assert root.query_selector('[data-value^="Camel"]') is not None
        assert root.query_selector('[data-value^="camel"]') is None

    def test_whitespace_in_values(self):
        root = parse('<div class=" btn  primary " title="  Hello World  ">C</div>')
        assert root.query_selector('[title^="  Hello"]') is not None

    def test_hyphen_edge_cases(self):
        root = parse(
            '<span lang="en">E</span><span lang="en-US">A</span>'
            '<span lang="en-GB-scotland">S</span><span lang="english">N</span>'
            '<span lang="fr">F</span>'
        )
        ens = root.query_selector_all('[lang|="en"]')
        assert len(ens) == 3
        assert root.query_selector('[lang|="english"]') is not None
        assert all(el.attributes["lang"] != "english" for el in ens)

    def test_word_edge_cases(self):
        root = parse(
            '<div class="btn primary large">Button 1</div>'
            '<div class="btn secondary">Button 2</div>'
            '<div class="primary-btn">Button 3</div>'
            '<div class="btn-primary">Button 4</div>'
        )
        assert len(root.query_selector_all('[class~="btn"]')) == 2
        assert root.query_selector_all('[class~="primary"]')[0].text == "Button 1"
        assert root.query_selector('[class~="primary-btn"]').text == "Button 3"
        assert root.query_selector('[class~="btn-primary"]').text == "Button 4"

    def test_quoted_values_in_selectors(self):
        root = parse('<div data-test=\'value with "quotes"\' title="value with \'apostrophes\'">C</div>')
        assert root.query_selector('[data-test*="quotes"]') is not None
        assert root.query_selector('[title*="apostrophes"]') is not None

    def test_nonexistent_attrs(self):
        root = parse('<div class="test">C</div>')
        assert root.query_selector("[id]") is None
        assert root.query_selector('[id=""]') is None
        assert root.query_selector('[id^="test"]') is None
        assert root.query_selector('[nonexistent*="anything"]') is None
        assert root.query_selector('[data-missing~="word"]') is None

    def test_complex_nested(self):
        root = parse(
            '<article class="post"><header><h1 class="title">Post Title</h1></header>'
            '<div class="content"><p data-paragraph="1">First</p><p data-paragraph="2">Second</p>'
            '<a href="https://example.com" target="_blank" rel="noopener">Ext</a>'
            '<a href="/internal.html" class="internal">Int</a></div></article>'
        )
        assert root.query_selector('article.post [data-paragraph="1"]') is not None
        assert root.query_selector('.content a[href^="https://"][target="_blank"]') is not None
        assert root.query_selector('a[href$=".html"][class="internal"]') is not None
        assert len(root.query_selector_all("article [data-paragraph]")) == 2
        assert len(root.query_selector_all(".content a[href]")) == 2

    def test_non_matching_complex(self):
        root = parse('<a href="https://example.com" class="link">W</a>')
        assert root.query_selector('a[href^="invalid:"]') is None
        assert root.query_selector('a[href$="invalid"]') is None
        assert root.query_selector('a[href*="invalid"]') is None
        assert root.query_selector('a[class~="invalid"]') is None
        assert root.query_selector('a[href^="https://"][class="invalid"]') is None

    def test_spaces_in_attr_values_with_descendants(self):
        root = parse(
            '<div title="Hello World" class="container">'
            '<p data-text="Multi word value">Content</p>'
            '<span alt="Some description here">Text</span></div>'
        )
        assert root.query_selector('div[title="Hello World"] p[data-text="Multi word value"]') is not None
        assert root.query_selector('div[title="Hello World"] span[alt="Some description here"]') is not None
        assert root.query_selector('div[title="Hello"] p') is None
        assert root.query_selector('div p[data-text="Multi"]') is None


class TestBrokenHtml:
    def test_missing_close_tags(self):
        missing = (
            '<table id="liste">\n<span id="nbResultats">Nombre : 3308</span><br>\n'
            "<tr style='border: 1px solid #ddd'>\n<td><a class=\"lien-bouton\" href=\"/detail/0441111U\"><b>E1\n<br>\nABBARETZ (44)\n<br>\n</a>\n</td>\n</tr>\n"
            "<tr style='border: 1px solid #ddd'>\n<td><a class=\"lien-bouton\" href=\"/detail/0441527W\"><b>E2\n<br>\nABBARETZ (44)\n<br>\n</a>\n</td>\n</tr>\n</table>"
        )
        assert len(parse(missing).query_selector_all("tr")) == 2

    def test_missing_space_between_attrs(self):
        root = parse(
            '<body>\n  <div class="a"data-test="/test.jpg"></div>\n'
            '  <div class="b"style="background-image:url(\'test.jpg\')"></div>\n</body>'
        )
        assert len(root.children[0].children) == 2
        assert root.children[0].children[0].attributes["data-test"] == "/test.jpg"
        assert root.children[0].children[1].attributes["style"] == "background-image:url('test.jpg')"


class TestColumnarParity:
    """stages/flat_select columnar masks match the exact per-doc automaton
    for single-part selectors (the documented scale path)."""

    DOCS = {
        "a": '<div class="c top"><p id="x">hi</p><img src="/i.png"></div>',
        "b": '<ul><li class="c">1</li><li>2</li></ul><span data-k>ok</span>',
        "c": '<div><div class="c"><div class="c deep">t</div></div></div>',
        "d": "plain text only, no elements",
        "e": '<article><img alt="no src"><img src="x"></article>',
    }
    PARTS = ["div", "*", ".c", "#x", "img", "[src]", "div.c", "[data-k]"]

    def _kernel_counts(self):
        out = {}
        for doc_id, html in self.DOCS.items():
            root = parse(html)
            for part in self.PARTS:
                out[(doc_id, part)] = len(root.query_selector_all(part))
        return out

    def test_counts_match_kernel(self):
        got = _stage_counts(self.DOCS, self.PARTS)
        for key, n in self._kernel_counts().items():
            assert got[key] == n, key


def _dp_query_all(root, selector):
    """Independent standard-CSS descendant matcher (DP over ancestor chains).

    Used as a differential oracle for the ported automaton: the reference's
    clone/rewind fork traversal (src/index.ts:418-454) must produce exactly
    the standard descendant-combinator match set in pre-order.
    """
    from node_html_parser_ray.kernel.selector import Matcher

    checkers = Matcher(selector).checkers
    n = len(checkers)
    out = []

    def walk(node, chain):
        for c in node.child_nodes:
            if c.node_type != 1:
                continue
            if not c.tag_name:
                walk(c, chain)
                continue
            newchain = chain + [c]
            dp = [False] * (n + 1)
            dp[0] = True
            ends_at_c = False
            for el in newchain:
                ndp = dp[:]
                for lev in range(n):
                    if dp[lev] and checkers[lev](el):
                        ndp[lev + 1] = True
                        if lev + 1 == n and el is c:
                            ends_at_c = True
                dp = ndp
            if ends_at_c:
                out.append(c)
            walk(c, newchain)

    walk(root, [])
    return out


class TestAutomatonVsDP:
    """Differential check: automaton == independent DP matcher."""

    SELECTORS = ["div", "div div", "div span", ".x", "div .x",
                 "span div span", "li li", "div div div", "#a div"]

    def test_fixed_corpus(self):
        docs = [
            "<div><div><div>t</div></div></div>",
            '<div class="x"><span>a</span><div><span>b</span></div></div>',
            "<ul><li><ul><li>n</li></ul></li></ul>",
            '<div id="a"><div><span><div>d</div></span></div></div>',
            "<span><div><span><div><span>s</span></div></span></div></span>",
        ]
        for html in docs:
            root = parse(html)
            for sel in self.SELECTORS:
                # SET equality: the reference's fork traversal emits deep
                # same-tag chains deepest-first (rewound-clone results are
                # concatenated before the advanced branch, src/index.ts:439),
                # so result ORDER is reference-specific; membership is
                # standard-CSS
                got = {id(e) for e in root.query_selector_all(sel)}
                exp = {id(e) for e in _dp_query_all(root, sel)}
                assert got == exp, (html, sel)

    @staticmethod
    def _check_fuzz(html, sel):
        root = parse(html)
        got = {id(e) for e in root.query_selector_all(sel)}
        assert got == {id(e) for e in _dp_query_all(root, sel)}

    def test_fuzz(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        alpha = list("<>/=\"' abc divspanli.#x1")
        markup = st.text(alphabet=st.sampled_from(alpha), max_size=250)

        @given(markup, st.sampled_from(self.SELECTORS))
        @settings(max_examples=300, deadline=None)
        def check(html, sel):
            self._check_fuzz(html, sel)

        check()


class TestColumnarDescendant:
    """columnar_select_mask (vectorized ancestor propagation) matches the
    per-document automaton's match SET for descendant chains."""

    DOCS = {
        "a": "<div><div><div>t</div></div></div>",
        "b": '<div class="x"><span>s</span><div><span>u</span></div></div>',
        "c": "<ul><li><ul><li>n</li></ul></li></ul><span>z</span>",
        "d": '<div id="a"><section><span><div>d</div></span></section></div>',
        "e": "no elements at all",
    }
    SELECTORS = ["div div", "div span", "li li", "div div div",
                 "#a div", ".x span", "ul li", "div .x",
                 "div span, li", "li li, div div, span"]

    def test_fixed_corpus(self):
        from node_html_parser_ray.stages.flat_select import columnar_select_mask

        nodes, keys = _nodes(self.DOCS)
        for sel in self.SELECTORS:
            mask = columnar_select_mask(nodes, sel)
            got = {key for key, m in zip(keys, mask) if m}
            exp = set()
            for doc_id, html in self.DOCS.items():
                root = parse(html)
                matched = set(map(id, root.query_selector_all(sel)))
                exp.update(
                    (doc_id, row)
                    for row, (el, _) in enumerate(_element_rows(root))
                    if id(el) in matched
                )
            assert got == exp, sel

    @staticmethod
    def _check_fuzz(html, sel):
        from node_html_parser_ray.stages.flat_select import columnar_select_mask

        n_col = int(columnar_select_mask(_nodes({"x": html})[0], sel).sum())
        assert n_col == len(parse(html).query_selector_all(sel)), (html, sel)

    def test_fuzz(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from node_html_parser_ray.stages.flat_select import columnar_select_mask

        alpha = list("<>/=\"' abc divspanli.#x1")
        markup = st.text(alphabet=st.sampled_from(alpha), max_size=250)
        sels = st.sampled_from(self.SELECTORS)

        @given(markup, sels)
        @settings(max_examples=200, deadline=None)
        def check(html, sel):
            self._check_fuzz(html, sel)

        check()


class TestColumnarAttributeOperators:
    """Attribute operators run columnar (pyarrow.compute masks over one
    column per tested key) — match sets must equal the automaton."""

    HTML = (
        '<div data-x="1" href="https://x.com/y" title="b c d">'
        '<span lang="en-US" title="x-y">t</span>'
        '<a title="">empty</a>'
        '<p data-x="12">p</p>'
        "</div>"
    )

    SELECTORS = [
        '[data-x="1"]', '[data-x!="1"]', '[data-x^="1"]', '[data-x$="2"]',
        '[data-x*="2"]', '[lang|="en"]', '[lang|="en-US"]', '[title~="c"]',
        '[title~="b c"]', '[title=""]', '[title!=""]', '[title^="x"]',
        '[missing]', '[missing!="v"]', 'div [title~="y"]',
        'div[title~="d"] span[lang|="en"]', '[data-x="1"][title~="b"]',
        '[title$="d"], [lang$="US"]',
    ]

    def test_fixed_parity_vs_automaton(self):
        got = _stage_counts({"a": self.HTML}, self.SELECTORS)
        root = parse(self.HTML)
        for sel in self.SELECTORS:
            assert got[("a", sel)] == len(root.query_selector_all(sel)), sel

    def test_ws_edge_parity(self):
        """``~=`` splits the attribute on JS whitespace: a needle holding
        whitespace never matches, and ``""`` matches an attribute that is
        empty or starts or ends with whitespace."""
        docs = {
            "a": self.HTML,
            "b": ('<p title=" a">1</p><p title="a\u00a0">2</p>'
                  '<p title="\ufeffb c">3</p><p title="a  b">4</p>'
                  '<p title="">5</p><p>6</p>'),
        }
        sels = ['[title~=""]', '[title~="b c"]', '[title~="a"]',
                '[title~=" "]', '[title~="b"]']
        got = _stage_counts(docs, sels)
        for doc_id, html in docs.items():
            root = parse(html)
            for sel in sels:
                assert got[(doc_id, sel)] == len(
                    root.query_selector_all(sel)), (doc_id, sel)
        assert [got[("b", s)] for s in sels] == [4, 0, 3, 0, 2]
        assert got[("a", '[title~=""]')] == 1

    def test_escaped_sentinels_parity(self):
        """Attribute values holding the encoding's control characters: a
        substring needle must not match inside an escape sequence."""
        html = ('<p t="\x01a">1</p><p t="\x00z">2</p><p t="b\x02">3</p>'
                '<p t="za">4</p><p t="\x01">5</p>')
        sels = ['[t*="a"]', '[t$="a"]', '[t*="z"]', '[t^="z"]', '[t$="b"]',
                '[t*="\x01"]', '[t~="za"]', '[t|="z"]']
        got = _stage_counts({"d": html}, sels)
        root = parse(html)
        for sel in sels:
            assert got[("d", sel)] == len(root.query_selector_all(sel)), sel
        assert [got[("d", s)] for s in sels] == [2, 2, 2, 1, 0, 2, 1, 0]

    def test_keys_named_like_fixed_columns(self):
        """An attribute key spelled like a fixed node-table column (``tag``,
        ``id``, ``parent``) reads its own column, not the fixed one."""
        html = ('<x>1</x><x>2</x><p tag="x" parent>3</p><div id="q">4</div>'
                '<b id="">5</b><q parent="0" tag="y"><x id="r" tag="x">6</x></q>')
        sels = ['[tag="x"]', "[parent]", '[id="q"]', '[id=""]', 'x[tag="x"]',
                '[parent!="0"]', "[tag]"]
        got = _stage_counts({"d": html}, sels)
        root = parse(html)
        for sel in sels:
            assert got[("d", sel)] == len(root.query_selector_all(sel)), sel
        assert [got[("d", s)] for s in sels] == [2, 2, 1, 1, 1, 6, 3]


class TestAttributeProjection:
    """The node table holds one value column per attribute key the
    selector set tests, and no other."""

    # perfbench's dom_query selector set
    DOM_QUERY = ["div.c", "img", "section p", '[src^="/img/"]',
                 "div.c img, .missing"]

    def test_attribute_keys(self):
        from node_html_parser_ray.stages.flat_select import attribute_keys

        assert attribute_keys(self.DOM_QUERY) == ["src"]
        assert attribute_keys(['[b] [a], [a|="x"]', "p"]) == ["b", "a"]
        assert attribute_keys(["div.c", "#x", "", ", "]) == []

    def test_node_table_columns(self):
        from node_html_parser_ray.stages.flat_select import (
            explode_document,
            node_table,
        )
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        keys = SelectorStage(self.DOM_QUERY).keys
        assert keys == ["src"]
        html = '<div class="c"><img src="/img/a" alt="x"><img></div>'
        nodes = node_table([explode_document(html, keys)], keys)
        assert nodes.column_names == ["parent", "tag", "id", "classes", "@src"]
        assert nodes.column("@src").to_pylist() == [None, "/img/a", None]
        assert node_table([explode_document(html)]).column_names == [
            "parent", "tag", "id", "classes"]



class TestSelectorStageInput:
    def test_lone_surrogate_selector_refused(self):
        """A selector the UTF-8 output column cannot hold is refused when
        the stage is built, naming it, instead of failing every batch."""
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        with pytest.raises(ValueError, match=r"p\\ud800"):
            SelectorStage(["p\ud800", "p"])
        # an encodable non-ASCII selector is kept
        assert _stage_counts({"d": "<p>x</p>"}, ["p", "\ufeff p", "\u00e9"]) \
            == {("d", "p"): 1, ("d", "\ufeff p"): 1, ("d", "\u00e9"): 0}

    def test_text_mode_refused(self):
        """The stage only counts: asking it for texts is refused when it is
        built, pointing to select_document, which gives them."""
        from node_html_parser_ray.stages.selector_stage import SelectorStage

        with pytest.raises(ValueError, match="select_document"):
            SelectorStage(["p"], emit_text=True)
        assert SelectorStage(["p"], emit_text=False).selectors == ["p"]


class TestCountOnlyParity:
    """SelectorStage counts every selector with the columnar masks; its
    counts must equal select_document's (the automaton) on the
    tokenizer-golden inputs, plus a handwritten ``ws_edge`` set.  The
    ``-text`` cases also check the text half of that reference:
    ``select_document(html, sels, None, True)``'s texts, read off one walk
    of the tree, must equal the ``.text`` of each element
    ``parse(html).query_selector_all`` returns, in its order.  The stage
    golden pins those texts too, but it was written from select_document
    itself.  The list holds every selector form the columnar path
    once refused: combinators the part grammar skips, pseudo-classes,
    ``~=`` whitespace edges, BOM-only and empty parts.

    The golden inputs hold no attribute value that is empty or starts or
    ends with whitespace, so they cannot tell whether the ``~=`` masks find
    the empty field ``js_ws_split`` leaves there; ``WS_EDGE_DOCS`` holds
    such values in ``class`` and ``title``, with ASCII and JS-only
    whitespace (U+00A0, U+FEFF, U+2028)."""

    SELECTORS = [
        "div.c", "img", "section p", '[src^="/img/"]', "div.c img, .missing",
        "*", "p", "a", "div div", "li li", "#x", ".a.b", "* *", "DIV",
        "span, p, div", "div p span", '[class!="c"]', '[class|="a"]',
        '[class*="c"]', '[class$="c"]', '[class~="c"]', "[href]", "[id]",
        'a[href^="http"]', '[title=""]', "div > p", "ul + li", "p ~ span",
        '[class~=""]', '[title~="b c"]', "\ufeff", "\ufeff p", "p \ufeff",
        "a:hover", "p::before", ">>>", "", ", ", "div,,p", "[x y]", "p.",
        '[alt~=""]', '[lang|="en"]', '[href$=".html"]', '[title*=" "]',
        '[title~=""]', '[title~="b"]', '[class~="a"]',
    ]

    WS_EDGE_DOCS = [
        '<p class="">1</p><p title="">2</p><p class=\'\' title=\'\'>3</p>',
        '<p class=" a">1</p><p class="a ">2</p><p class="\ta\n">3</p>',
        '<p class="\u00a0a">1</p><p class="a\ufeff">2</p><p class="\u2028">3</p>',
        '<p class=" ">1</p><p class="a  b">2</p><p class="a b">3</p>',
        '<p title=" b c ">1</p><p title="b\u00a0c">2</p><p title="\ufeff">3</p>',
        '<p title="x\u2028">1</p><p title="\u2028b">2</p><p title="b">3</p>',
        '<div class=" c "><p title=" ">x</p><span class="c\u00a0">y</span></div>',
        "<a class='\ufeffa\ufeff' title=' b'>z</a><img class=c title=>",
    ]

    @pytest.mark.parametrize("case_set, emit_text", [
        pytest.param(case_set, emit_text,
                     id=f"{case_set}-text" if emit_text else case_set)
        for emit_text in (False, True)
        for case_set in CASE_SETS + ("ws_edge",)
    ])
    def test_counts_match_select_document(self, case_set, emit_text):
        import pyarrow as pa

        from node_html_parser_ray.stages.selector_stage import (
            SelectorStage,
            select_document,
        )

        inputs = ([(f"ws_edge/{i}", h) for i, h in enumerate(self.WS_EDGE_DOCS)]
                  if case_set == "ws_edge" else case_inputs(case_set))
        docs = dict(inputs)
        stage = SelectorStage(self.SELECTORS)
        assert set(stage.columnar) == set(self.SELECTORS)
        out = stage(pa.table({"doc_id": list(docs), "html": list(docs.values())}))
        assert out.column_names == ["doc_id", "selector", "n_matches"]
        got = {(r["doc_id"], r["selector"]): r["n_matches"]
               for r in out.to_pylist()}
        for cid, html in docs.items():
            want = select_document(html, self.SELECTORS, None, emit_text)
            root = parse(html) if emit_text else None
            for sel, (n, texts) in zip(self.SELECTORS, want):
                assert got[(cid, sel)] == n, (cid, sel)
                if emit_text:
                    assert texts == [
                        el.text for el in root.query_selector_all(sel)
                    ], (cid, sel)


class TestNodeRows:
    """explode_document's rows equal the pre-order elements of
    parse(html), each parent as an element row.  The row builder reads the
    flat tree, not node objects, so its id / class / attrs columns are
    checked against the object DOM here: a drift that matches no selector
    would pass the count-parity tests.  EDGE_CASES holds the repair shapes
    (``<div><h3>…</div>``, ``<h3>a<h3>…``, ``<a><b>…</a>``), whose
    detached elements must have no row."""

    ATTR_CASES = [
        '<p ID="up" id=" " class="  a\tb  ">x</p>',
        "<a  id='x' class=y   >t</a><a id=\"\" class=''>",
        '<img src="a&amp;b" alt=\'q\' data-x><img src=>',
        "<div class='\u00a0c\u00a0' id=\u3000z>u</div>",
        "<DIV Class=z iD=q class=w>v</DIV>",
        '<p title="a=b" class="c" class="d" id=1 id=2>',
    ]

    @staticmethod
    def object_rows(html):
        """The object DOM's rows, with one value column per attribute key
        that any of its elements holds, and those keys."""
        rows = _element_rows(parse(html))
        keys = list(dict.fromkeys(k for el, _ in rows for k in el.attributes))
        return [(parent, el.tag_name, el.id, " ".join(el.class_names),
                 *[el.attributes.get(k) for k in keys])
                for el, parent in rows], keys

    def assert_rows(self, html):
        from node_html_parser_ray.stages.flat_select import explode_document

        want, keys = self.object_rows(html)
        rows = list(zip(*explode_document(html, keys)))
        assert rows == want, html[:200]

    def test_edge_cases(self):
        from test_fast_extract import EDGE_CASES

        for html in EDGE_CASES + self.ATTR_CASES:
            self.assert_rows(html)

    def test_generator_corpus(self):
        from node_html_parser_ray.kernel.extract import assemble_document
        from node_html_parser_ray.sources.corpus import generate_documents

        corpus = generate_documents(400, seed=11, giant_fraction=0.01)
        for row in corpus.to_pylist():
            spans = row["spans"]
            html, _ = assemble_document(
                [s["kind"] for s in spans], [s["text"] for s in spans],
                [s["media_ref"] for s in spans], [s["offset"] for s in spans],
            )
            self.assert_rows(html)

class TestIterativeExplore:
    def test_deep_nesting_no_recursion_limit(self):
        """querySelector(+All) must survive documents nested past the
        interpreter recursion limit (wild tag soup), like the parser does."""
        from node_html_parser_ray.kernel.parser import parse
        from node_html_parser_ray.kernel.selector import (
            query_selector,
            query_selector_all,
        )

        root = parse("<div>" * 1500 + "<span>x</span>" + "</div>" * 1500)
        hits = query_selector_all(root, "span")
        assert [e.tag_name for e in hits] == ["span"]
        assert query_selector(root, "span") is hits[0]

    def test_bom_only_selector_part_skipped(self):
        """JS trim() strips U+FEFF: a BOM-only part must be skipped like the
        reference, not compiled into an always-true checker."""
        from node_html_parser_ray.kernel.parser import parse
        from node_html_parser_ray.kernel.selector import query_selector_all

        root = parse("<div><p><span>hi</span></p></div>")
        got = [e.tag_name for e in query_selector_all(root, "div﻿")]
        assert got == ["div"]

    def test_iterative_matches_recursive_reference_fuzz(self):
        """Differential fuzz: the iterative explore reproduces the exact
        result SEQUENCE of the reference's recursive formulation on random
        tag soup (including the deeper-first same-tag chain order), and
        :func:`select_union`, which explores each (element, level) state
        once, gives that sequence deduplicated in first-seen order, on the
        soup and on same-tag nestings."""
        import random

        from node_html_parser_ray.kernel.parser import parse
        from node_html_parser_ray.kernel.selector import (
            Matcher,
            _explore_all,
            compile_parts,
            select_union,
        )

        def explore_rec(node, matcher):
            advanced = matcher.advance(node) if node.tag_name else False
            if advanced:
                cloned = matcher.clone()
                cloned.rewind()
                kids = []
                for child in node.children:
                    kids.extend(explore_rec(child, cloned.clone()))
                if matcher.matched:
                    return [node, *kids]
                for child in node.children:
                    kids.extend(explore_rec(child, matcher.clone()))
                return kids
            out = []
            for child in node.children:
                out.extend(explore_rec(child, matcher.clone()))
            return out

        def first_seen(ids):
            return list(dict.fromkeys(ids))

        rng = random.Random(11)
        tags = ["div", "p", "span", "a", "b", "ul", "li"]
        sels = ["div", "p span", "div div", "*", "ul li", "div p span",
                ".x", "div.x", "span b", "div div div", "* div",
                "div div, div", "p, div p"]
        docs = []
        for _ in range(150):
            parts = []
            for _ in range(rng.randint(1, 25)):
                t = rng.choice(tags)
                cls = ' class="x"' if rng.random() < 0.3 else ""
                parts.append(rng.choice([
                    f"<{t}{cls}>", f"</{t}>", "w ",
                ]))
            docs.append("".join(parts))
        # same-tag nestings: valid, unclosed and with same-tag siblings
        for _ in range(60):
            depth = rng.randint(1, 9)
            t = rng.choice(["div", "p", "span"])
            inner = rng.choice(["w", "<p>w</p>", f"<{t}>w</{t}>", "<div>w"])
            closes = f"</{t}>" * rng.randint(0, depth)
            docs.append((f"<{t}>" * depth + inner + closes) * rng.randint(1, 2))
        for doc in docs:
            root = parse(doc)
            for s in sels:
                want = []
                for part in s.split(","):
                    want += explore_rec(root, Matcher(part.strip()))
                if "," not in s:
                    got = [id(e) for e in _explore_all(root, Matcher(s))]
                    assert got == [id(e) for e in want], \
                        ("order mismatch", s, doc)
                union = select_union(root, compile_parts(s))
                assert [id(e) for e in union] == \
                    first_seen(id(e) for e in want), ("union mismatch", s, doc)
