"""Ported parse() structural tests (reference test/html.test.ts:47-435)."""
from __future__ import annotations

import re

import pytest

from node_html_parser_ray.kernel import (
    CommentNode,
    HTMLElement,
    TextNode,
    parse,
)


def detached(node):
    node.parent_node = None
    return node


class TestParse:
    def test_basic_tree_with_implicit_li_close(self):
        root = parse(
            '<p id="id"><a class=\'cls\'>Hello</a><ul><li><li></ul><span></span></p>'
        )
        p = HTMLElement("p", 'id="id"')
        a = p.append_child(HTMLElement("a", "class='cls'"))
        a.append_child(TextNode("Hello"))
        ul = p.append_child(HTMLElement("ul"))
        ul.append_child(HTMLElement("li"))
        ul.append_child(HTMLElement("li"))
        p.append_child(HTMLElement("span"))
        assert detached(root.first_child) == p

    def test_lowercase_tag_name_option(self):
        root = parse("<DIV><a><img/></A><p></P></div>", {"lowerCaseTagName": True})
        div = HTMLElement("div")
        a = div.append_child(HTMLElement("a"))
        a.append_child(HTMLElement("img"))
        div.append_child(HTMLElement("p"))
        assert detached(root.first_child) == div

    def test_case_preserved_without_option(self):
        root = parse("<div><a><img/></a><p></p></div>")
        div = HTMLElement("div")
        a = div.append_child(HTMLElement("a"))
        a.append_child(HTMLElement("img"))
        div.append_child(HTMLElement("p"))
        assert detached(root.first_child) == div

    def test_tr_th_roundtrip(self):
        s = "<tr><th></th></tr>"
        assert parse(s).first_child.to_string() == s

    def test_text_node_with_br(self):
        assert parse("this is text<br />").outer_html == "this is text<br />"

    def test_text_with_two_br(self):
        s = "this is text<br /> with 2<br />"
        assert parse(s).outer_html == s

    def test_bare_text_node(self):
        assert parse("text node").first_child == TextNode("text node")

    def test_comments_dropped_by_default(self):
        root = parse("<div><a><!-- my comment --></a></div>")
        div = HTMLElement("div")
        div.append_child(HTMLElement("a"))
        assert detached(root.first_child) == div

    def test_comments_kept_with_option(self):
        root = parse("<div><a><!-- my comment --></a></div>", {"comment": True})
        div = HTMLElement("div")
        a = div.append_child(HTMLElement("a"))
        a.append_child(CommentNode(" my comment "))
        assert detached(root.first_child) == div

    def test_html_inside_comment_not_parsed(self):
        root = parse("<div><!--<a></a>--></div>", {"comment": True})
        div = HTMLElement("div")
        div.append_child(CommentNode("<a></a>"))
        assert detached(root.first_child) == div

    def test_parent_set_when_adding(self):
        root = parse("<div>a</div><div>b</div>", {"comment": True})
        assert root.first_child.parent_node is root

    def test_picture_element(self):
        root = parse(
            '<picture><source srcset="/images/example-1.jpg 1200w, /images/example-2.jpg 1600w" sizes="100vw">'
            '<img src="/images/example.jpg" alt="Example"/></picture>'
        )
        picture = HTMLElement("picture")
        picture.append_child(
            HTMLElement(
                "source",
                'srcset="/images/example-1.jpg 1200w, /images/example-2.jpg 1600w" sizes="100vw"',
            )
        )
        picture.append_child(HTMLElement("img", 'src="/images/example.jpg" alt="Example"'))
        assert detached(root.first_child) == picture

    def test_script_style_dropped_by_default(self):
        root = parse("<script>1</script><style>2</style>")
        assert root.first_child.child_nodes == []
        assert root.last_child.child_nodes == []

    def test_script_style_kept_with_options(self):
        root = parse(
            "<script>1</script><style>2&amp;</style>", {"script": True, "style": True}
        )
        assert root.first_child.child_nodes == [TextNode("1")]
        assert root.first_child.text == "1"
        assert root.last_child.child_nodes == [TextNode("2&amp;")]
        assert root.last_child.text == "2&"
        assert root.last_child.raw_text == "2&amp;"

    def test_incomplete_script_fixture(self, fixture_html):
        parse(fixture_html["incomplete-script"], {"script": True})

    def test_incomplete_script_page(self, page_html):
        # an unterminated <script> parses; its raw text runs to EOF
        root = parse(page_html["incomplete_script.html"], {"script": True})
        assert root.valid is False
        assert """document.write("<div class='late'>late</div>");""" in (
            root.to_string()
        )

    def test_namespaces(self):
        s = "<ns:identifier>content</ns:identifier>"
        assert parse(s).to_string() == s

    def test_parse_100x_fast(self):
        for _ in range(100):
            parse("<div><a><img/></a><p></p></div>" * 20)

    def test_nested_elements_roundtrip(self):
        html = """
            <article class="post">
                <header>
                    <h1 class="title">Post Title</h1>
                </header>
                <div class="content">
                    <p data-paragraph="1">First paragraph</p>
                    <p data-paragraph="2">Second paragraph</p>
                    <a href="https://example.com" target="_blank" rel="noopener">External Link</a>
                    <a href="/internal.html" class="internal">Internal Link</a>
                </div>
            </article>
        """
        assert parse(html).to_string() == html

    def test_self_closing_render(self):
        assert parse('<img src="test.jpg">').to_string() == '<img src="test.jpg" />'
        assert parse('<meta charset="utf-8" >').to_string() == '<meta charset="utf-8" />'

    def test_gt_inside_quoted_attr(self):
        root = parse("<div attr='>'></div>")
        child = root.first_child
        assert child.tag_name == "div"
        assert child.attributes["attr"] == ">"

    def test_nested_nodes_roundtrip(self):
        html = "<body>\n\t<section>\n\t\t<section>word</section>\n\t</section>\n\t<p>test</p>\n</body>"
        assert parse(html).outer_html == html

    def test_malformed_attributes_garbage_skipped(self):
        root = parse(
            "<span id='tree-title-end' ;=\"\" test='a' \"random text\" 'more text' \"=\"\" '=' class='editable'></span>"
        )
        child = root.first_child
        assert child.tag_name == "span"
        assert child.attributes["id"] == "tree-title-end"
        assert child.attributes["class"] == "editable"

    def test_malformed_img_attr(self):
        root = parse(
            '<img src="https://bienalecole.fr/wp-content/uploads/2023/05/icon1.png" "="">'
        )
        assert (
            root.first_child.attributes["src"]
            == "https://bienalecole.fr/wp-content/uploads/2023/05/icon1.png"
        )

    def test_multiline_svg(self):
        root = parse(
            '<svg viewBox="0 0 16 15" fill="none" xmlns="http://www.w3.org/2000/svg">\n'
            '    <path\n        d="M14.0669 1.66309L2.03027 13.259"\n    />\n'
            '    <path\n        d="M2.03027 1.66309L14.0669 13.259"\n    />\n</svg>\n'
        )
        assert root.first_child.tag_name == "svg"
        assert len(root.first_child.children) == 2

    def test_root_has_empty_tagname(self):
        assert parse("").tag_name == ""

    def test_table_colgroup(self):
        root = parse(
            '<table data-id="390643da"><colgroup><col style=""></col><col style=""></col></colgroup>'
            "<tr><td><p>content 1</p></td><td><p>content 2</p></td></tr>"
            "<tr><td><p>content 3</p></td><td><p>content 4</p></td></tr></table>"
        )
        assert ",".join(c.tag_name for c in root.children[0].children) == "colgroup,tr,tr"

    def test_namespace_selectable(self):
        root = parse("<ns:identifier>content</ns:identifier>")
        assert root.query_selector("ns:identifier").to_string() == "<ns:identifier>content</ns:identifier>"

    def test_simple_script_roundtrip(self):
        html = "<script src='story_content/triggers.js' type=text/javascript></script>"
        assert parse(html).query_selector("script").outer_html == html

    def test_selfclose_inside_quoted_attr_not_selfclosing(self):
        root = parse("<div attr='/>'></div>")
        assert root.first_child.tag_name == "div"
        assert root.first_child.to_string() == "<div attr='/>'></div>"

    def test_unquoted_value_with_slash(self):
        root = parse("<img src=/images/icon.png data=text/javascript />")
        child = root.first_child
        assert child.attributes["src"] == "/images/icon.png"
        assert child.attributes["data"] == "text/javascript"
        assert child.to_string() == "<img src=/images/icon.png data=text/javascript />"

    def test_selfclose_nonvoid_with_unquoted_value(self):
        root = parse("<div data=foo/>")
        assert root.first_child.attributes["data"] == "foo"
        assert root.first_child.to_string() == "<div data=foo></div>"

    def test_slash_not_followed_by_gt_stays_in_value(self):
        root = parse("<div data=foo/ ></div>")
        assert root.first_child.attributes["data"] == "foo/"
        assert root.first_child.to_string() == "<div data=foo/></div>"

    def test_doctype_falls_through_to_text(self):
        # <!DOCTYPE html> does not match the tokenizer (uppercase tag chars
        # only via /i on [a-z]; '!' prefix only matches full comments), so it
        # becomes a text node (FIXTURES.md §3).
        root = parse("<!DOCTYPE html><p>x</p>")
        assert isinstance(root.first_child, TextNode)
        assert root.first_child.value == "<!DOCTYPE html>"

    def test_unterminated_comment_becomes_text(self):
        root = parse("<div><!-- oops</div>", {"comment": True})
        # no --> terminator: the comment alternation cannot match; '<!--'
        # falls through as text, '</div>' closes the div.
        assert root.valid


class TestParseValidation:
    def test_p_p_fixed(self):
        result = parse("<p><p></p>")
        assert result.valid is True
        assert result.to_string() == "<p></p><p></p>"

    def test_p_selfclose_p(self):
        result = parse("<p><p/></p>")
        assert result.valid is True
        assert result.to_string() == "<p><p></p></p>"

    def test_p_h3_p(self):
        result = parse("<p><h3></p>")
        assert result.valid is True
        assert result.to_string() == "<p></p><h3></h3>"

    @pytest.mark.parametrize(
        "name", ["hillcrestpartyrentals.html", "google.html", "gmail.html", "ffmpeg.html"]
    )
    def test_fixture_valid(self, fixture_html, name):
        assert parse(fixture_html[name]).valid is True

    def test_pair_error_fix(self):
        result = parse("<div data-id=1><h3 data-id=2><h3><div>")
        assert result.valid is False
        assert result.to_string() == "<div data-id=1><h3 data-id=2></h3></div>"

    def test_pair_error_fix_with_spans(self):
        result = parse("<div><h3><h3><span><span><div>")
        assert result.valid is False
        assert result.to_string() == "<div><h3></h3><span></span></div>"

    @pytest.mark.parametrize("name", ["gmail.html", "nice.html"])
    def test_corrupted_fixture_invalid(self, fixture_html, name):
        data = re.sub("</", "<", fixture_html[name], flags=re.I)
        assert parse(data).valid is False

    @pytest.mark.parametrize("name", ["article.html", "forum.html"])
    def test_page_valid(self, page_html, name):
        assert parse(page_html[name]).valid is True

    @pytest.mark.parametrize("name", ["article.html", "forum.html"])
    def test_corrupted_page_invalid(self, page_html, name):
        data = re.sub("</", "<", page_html[name], flags=re.I)
        assert parse(data).valid is False


class TestStringify:
    def test_roundtrip(self):
        html = '<p id="id" data-feidao-actions="ssss"><a class=\'cls\'>Hello</a><ul><li>aaaaa</li></ul><span>bbb</span></p>'
        assert parse(html).to_string() == html

    def test_comments_dropped(self):
        assert parse("<p><!-- my comment --></p>").to_string() == "<p></p>"

    def test_comments_kept(self):
        html = "<!----><p><!-- my comment --></p>"
        assert parse(html, {"comment": True}).to_string() == html

    def test_entities_stay_encoded(self):
        assert parse("<p>&lt;</p>").to_string() == "<p>&lt;</p>"

    def test_comment_node_type(self):
        assert parse("<!-- my comment -->", {"comment": True}).first_child.node_type == 8

    def test_custom_element(self):
        assert parse("<my-widget></my-widget>").first_child.tag_name == "my-widget"
        assert parse("<my-new-widget></my-new-widget>").first_child.tag_name == "my-new-widget"

    def test_font_family_style_attr(self):
        root = parse("<div style='font-family: \"Nunito\", \"Arial\", sans-serif'></div>")
        assert root.first_child.attributes["style"] == 'font-family: "Nunito", "Arial", sans-serif'

    def test_background_image_style_attr(self):
        root = parse("<div class=\"a\" style=\"background-image:url('test.jpg')\"></div>")
        assert root.query_selector(".a").attributes["style"] == "background-image:url('test.jpg')"
