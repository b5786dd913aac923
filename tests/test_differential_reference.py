"""LIVE differential test: this repo's kernel vs the ACTUAL reference.

The container ships Node 20 but no npm access, so the frozen reference
source (`/root/reference/src/index.ts`) is type-stripped at test time by
``scripts/ts_strip.py`` into /tmp (never committed — the repo contains no
reference-derived code) and driven through ``scripts/ref_driver.js`` over
a JSONL pipe.  Every document is pushed through BOTH engines and compared
byte-for-byte on the full extraction + mutation surface:

    text, structuredText, toString(), structure, toJSON(), valid,
    per-element attribute maps (raw + decoded + id/classNames),
    setAttribute/removeAttribute/getAttribute round-trip,
    a scripted tree-mutation sequence (set_content, appendChild, remove,
    innerHTML=, prependChild, exchangeChild, firstChild/lastChild/children),
    querySelectorAll(sel) -> [outerHTML...], removeWhitespace().toString()

Entity decode/encode are common-mode (the driver ports the HTML5
character-reference algorithm with tables from ``html.entities``; see
ref_driver.js) — entity parity itself is pinned by the ported fixture
suite; everything tokenizer/DOM/selector-related here is fully
differential.  If node or the reference tree is absent the module skips.
"""
from __future__ import annotations

import glob
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_TS = "/root/reference/src/index.ts"
NODE = shutil.which("node")

pytestmark = pytest.mark.skipif(
    NODE is None or not os.path.exists(REF_TS),
    reason="node or the reference source is not available",
)

SELECTORS = [
    "p",
    "div",
    "li",
    "a",
    "#main",
    ".c",
    "div.c",
    "ul li",
    "div p b",
    "[href]",
    "[id=main]",
    "[class^=c]",
    "[class$=x]",
    "[class*=a]",
    "[data-k~=v]",
    "[lang|=en]",
    "[href!=x]",
    "p, li",
]


@pytest.fixture(scope="module")
def ref(tmp_path_factory):
    """Strip the reference to JS, start the Node driver, yield an ask()."""
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    from ts_strip import exported_names, strip_ts

    with open(REF_TS, encoding="utf-8") as f:
        src = f.read()
    js = strip_ts(src)
    js += "\nmodule.exports = {%s};\n" % ", ".join(exported_names(src))

    d = tmp_path_factory.mktemp("refjs")
    mod = str(d / "reference_stripped.js")
    with open(mod, "w", encoding="utf-8") as f:
        f.write(js)
    chk = subprocess.run([NODE, "--check", mod], capture_output=True, text=True)
    assert chk.returncode == 0, f"type-strip produced invalid JS:\n{chk.stderr}"

    import html as html_mod
    import html.entities as ent

    tables = str(d / "entities.json")
    with open(tables, "w", encoding="utf-8") as f:
        json.dump(
            {
                "html5": ent.html5,
                "invalid_charrefs": {
                    str(k): v for k, v in html_mod._invalid_charrefs.items()
                },
                "invalid_codepoints": sorted(html_mod._invalid_codepoints),
            },
            f,
        )

    proc = subprocess.Popen(
        [NODE, os.path.join(REPO, "scripts", "ref_driver.js"), mod, tables],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    counter = iter(range(1, 10**9))

    def ask(html: str, options=None, selectors=()):
        rid = next(counter)
        req = {
            "id": rid,
            "html": html,
            "options": options,
            "selectors": list(selectors),
        }
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        resp = json.loads(proc.stdout.readline())
        assert resp["id"] == rid
        assert "error" not in resp, resp.get("error")
        return resp

    yield ask
    proc.kill()
    proc.wait()


def _ours(html: str, options=None, selectors=()):
    from node_html_parser_ray.kernel.dom import HTMLElement
    from node_html_parser_ray.kernel.parser import parse

    root = parse(html, options)
    sel = {
        s: [el.to_string() for el in root.query_selector_all(s)]
        for s in selectors
    }

    attrs = []

    def dfs(node):
        if isinstance(node, HTMLElement):
            attrs.append(
                {
                    "tag": node.tag_name,
                    "id": node.id,
                    "classes": list(node.class_names),
                    "raw": dict(node.raw_attributes),
                    "dec": dict(node.attributes),
                }
            )
            for c in node.child_nodes:
                dfs(c)

    dfs(root)
    out = {
        "text": root.text,
        "structured": root.structured_text,
        "outer": root.to_string(),
        "structure": root.structure,
        "valid": root.valid,
        "attrs": attrs,
        "sel": sel,
        "tojson": root.to_json(),
    }
    target = next(
        (el for el in root.query_selector_all("*") if el.raw_attributes), None
    )
    if target is not None:
        target.set_attribute("data-new", "a<b&\"c'")
        target.remove_attribute("class")
        out["mut_outer"] = root.to_string()
        out["mut_get"] = target.get_attribute("data-new")
    else:
        out["mut_outer"] = None
        out["mut_get"] = None
    # scripted tree-mutation sequence, mirroring ref_driver.js exactly
    from node_html_parser_ray.kernel.dom import TextNode

    snaps = []

    def first(s):
        hits = root.query_selector_all(s)
        return hits[0] if hits else None

    d = first("div")
    if d is not None:
        d.set_content("<em>new</em> content &amp; more")
        snaps.append(root.to_string())
    p = first("p")
    if p is not None:
        p.append_child(TextNode(" appended"))
        p.append_child(parse("<i>frag</i>").first_child)
        snaps.append(root.to_string())
    sp = first("span")
    if sp is not None:
        sp.remove()
        snaps.append(root.to_string())
    li = first("li")
    if li is not None:
        li.inner_html = "<b>x</b>y"
        snaps.append(root.to_string())
    ul = first("ul")
    if ul is not None:
        ul.prepend_child(TextNode("pre "))
        snaps.append(root.to_string())
    if root.child_nodes:
        root.exchange_child(root.child_nodes[0], TextNode("X"))
        snaps.append(root.to_string())
    out["mut_script"] = snaps
    out["fc"] = root.first_child.to_string() if root.first_child else None
    out["lc"] = root.last_child.to_string() if root.last_child else None
    out["n_children"] = len(root.children)
    root.remove_whitespace()
    out["rw_outer"] = root.to_string()
    # trimRight differential (round-5 verdict #7): mirrors ref_driver.js
    root.trim_right("e")
    out["tr_outer"] = root.to_string()
    # removeAttribute on a MISSING key still re-serializes rawAttrs from
    # the decoded map (quote-style normalization quirk) — compared too
    t2 = next(
        (el for el in root.query_selector_all("*") if el.raw_attributes), None
    )
    if t2 is not None:
        t2.remove_attribute("data-definitely-missing")
        out["ra_missing_outer"] = root.to_string()
    else:
        out["ra_missing_outer"] = None
    return out


_KEYS = (
    "valid", "text", "structured", "outer", "structure", "attrs", "sel",
    "tojson",
    "mut_outer", "mut_get", "mut_script", "fc", "lc", "n_children",
    "rw_outer", "tr_outer", "ra_missing_outer",
)


def _compare(ask, html: str, options=None, selectors=(), label=""):
    theirs = ask(html, options, selectors)
    mine = _ours(html, options, selectors)
    for key in _KEYS:
        assert mine[key] == theirs[key], (
            f"{label or html[:80]!r}: {key} diverges\n"
            f"  ours:   {mine[key]!r}\n  theirs: {theirs[key]!r}"
        )


class TestFixtureParity:
    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob("/root/reference/test/html/*")),
        ids=os.path.basename,
    )
    def test_reference_fixture(self, ref, path):
        with open(path, encoding="utf-8") as f:
            html = f.read()
        _compare(ref, html, selectors=SELECTORS, label=path)

    def test_fixtures_with_comments_kept(self, ref):
        for path in sorted(glob.glob("/root/reference/test/html/*"))[:2]:
            with open(path, encoding="utf-8") as f:
                html = f.read()
            _compare(ref, html, options={"comment": True}, label=f"{path}+comment")


def _random_html(rng: random.Random, n_tokens: int) -> str:
    tags = ["div", "p", "span", "b", "ul", "li", "table", "tr", "td", "a",
            "img", "br", "h1", "script", "style", "pre", "DIV", "P"]
    words = ["hello", "a&amp;b", "x &lt; y", "&copy;", "&#65;", "&#x41;",
             "&notit;", "&unknown;", "tail  spaces ", "\n\t", "1<2", "€ü",
             ""]
    attrs = ['', ' class="c"', ' id="main"', " href='/x'", ' data-k=v',
             ' class="ca cx"', ' lang=en-US', ' checked', ' src="/i.png"',
             " style='a:b'", ' class=', ' =weird', ' a="un']
    out = []
    depth = 0
    for _ in range(n_tokens):
        r = rng.random()
        if r < 0.35:
            t = rng.choice(tags)
            out.append(f"<{t}{rng.choice(attrs)}{rng.choice(['', ' /', ''])}>")
            depth += 1
        elif r < 0.55 and depth:
            out.append(f"</{rng.choice(tags)}>")
            depth -= 1
        elif r < 0.62:
            out.append(f"<!--{rng.choice(words)}-->")
        elif r < 0.66:
            out.append(rng.choice(["<!doctype html>", "<!-- unterminated",
                                   "</>", "< notatag", "<>"]))
        else:
            out.append(rng.choice(words))
    return "".join(out)


class TestFuzzParity:
    def test_seeded_tag_soup(self, ref):
        rng = random.Random(20260817)
        for i in range(300):
            html = _random_html(rng, rng.randint(1, 60))
            _compare(ref, html, selectors=SELECTORS[:8], label=f"fuzz[{i}]")

    def test_seeded_attribute_soup(self, ref):
        """In-suite slice of the bulk attribute-soup campaign generator
        (scripts/diff_campaign_attrs.py — multi-attribute tags, mixed
        quote styles, entity/bracket-bearing values): keeps the campaign's
        doc grammar permanently under pytest, not only in one-off bulk
        runs.  The generator indices listed in ``SKIP`` are skipped: the
        ones the since-deleted ReDoS prescan flagged for this seed, whose
        shapes can blow up the reference's own backtracking in V8 (the
        bounded parse of such shapes is tests/test_redos.py's subject)."""
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "scripts"))
        from diff_campaign_attrs import _random_html_attrs

        SKIP = frozenset((
            1, 4, 6, 7, 8, 9, 11, 13, 14, 16, 17, 20, 21, 23, 24, 25, 26, 27,
            28, 30, 31, 32, 34, 35, 37, 39, 41, 42, 44, 46, 48, 50, 51, 52,
            53, 54, 55, 56, 57, 59, 60, 61, 62, 64, 65, 67, 68, 69, 71, 76,
            77, 79, 80, 81, 83, 85, 86, 87, 89, 90, 93, 96, 97, 99, 100, 103,
            104, 105, 106, 108, 109, 111, 112, 118, 120, 121, 123, 124, 125,
            127, 128, 130, 133, 134, 135, 138, 142, 143, 144, 146, 147, 148,
            149, 150, 151, 152, 153, 154, 155, 156, 157, 158, 159, 161, 162,
            163, 164, 166, 167, 169, 171, 173, 175, 176, 177, 178, 179, 180,
            181, 182, 183, 184, 185, 187, 190, 191, 192, 193, 196, 197, 201,
            203, 204, 205, 206, 207, 208, 209, 210, 213, 218, 219, 221, 223,
        ))
        rng = random.Random(20260818)
        n_done = 0
        i = 0
        while n_done < 80:
            i += 1
            html = _random_html_attrs(rng, rng.randint(1, 60))
            if i in SKIP:
                continue
            _compare(ref, html, selectors=["[class]", "[id=main]", "a[href]"],
                     label=f"attr-fuzz[{i}]")
            n_done += 1

    def test_seeded_tag_soup_with_options(self, ref):
        rng = random.Random(42)
        option_sets = [
            {"comment": True},
            {"lowerCaseTagName": True},
            {"script": True, "style": True},
            {"pre": True, "comment": True, "lowerCaseTagName": True},
        ]
        for i in range(120):
            html = _random_html(rng, rng.randint(1, 40))
            opts = option_sets[i % len(option_sets)]
            _compare(ref, html, options=opts, label=f"fuzz-opt[{i}]{opts}")


def _random_selector(rng: random.Random) -> str:
    """One random (possibly nonsensical) selector over the fuzz vocabulary."""
    tags = ["div", "p", "span", "li", "a", "*", ""]
    ops = ["=", "!=", "^=", "$=", "*=", "~=", "|="]
    vals = ["c", "ca", "cx", "main", "en-US", "v", "/x", "un", ""]

    def part() -> str:
        s = rng.choice(tags)
        if rng.random() < 0.4:
            s += "#" + rng.choice(["main", "x", "a1"])
        if rng.random() < 0.5:
            s += "." + ".".join(
                rng.sample(["c", "ca", "cx", "z"], rng.randint(1, 2))
            )
        while rng.random() < 0.35:
            key = rng.choice(["class", "id", "href", "data-k", "lang", "checked"])
            if rng.random() < 0.3:
                s += f"[{key}]"
            else:
                q = rng.choice(['"', "'", ""])
                s += f"[{key}{rng.choice(ops)}{q}{rng.choice(vals)}{q}]"
        return s or "div"

    sel = " ".join(part() for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.25:
        sel += ", " + part()
    return sel


class TestSelectorFuzzParity:
    def test_random_selectors_over_random_docs(self, ref):
        """querySelectorAll parity under RANDOM selectors (the fixed-list
        fuzz above exercises random documents; this axis randomizes the
        selector grammar itself — attribute operators, quoting, compound
        and comma forms)."""
        rng = random.Random(190817)
        for i in range(150):
            html = _random_html(rng, rng.randint(5, 50))
            sels = []
            while len(sels) < 6:
                s = _random_selector(rng)
                if s not in sels:
                    sels.append(s)
            _compare(ref, html, selectors=sels, label=f"selfuzz[{i}]")


class TestTargetedParity:
    CASES = [
        "<ul><li>1<li>2<li>3</ul>",                       # implicit close
        "<table><tr><td>a<td>b<tr><td>c</table>",          # table repair
        "<p>a<p>b<h1>c</h1>",                              # p/h closures
        "<script>if (a<b) { x('</div>'); }</script>done",  # raw text
        "<style>p > a { color: red }</style>",
        "<pre>  keep   spaces  </pre>",
        "<textarea><p>not parsed</p></textarea>",
        "<div><h3>pair</h3><h3>error</div>",               # fixup paths
        "<div><h3>single</div>",
        "<img src=x><br><hr />",                           # void tags
        "<a href='mixed\"quotes'>x</a>",
        "<div a=1 b = '2' c=\"3\" d>attrs</div>",
        "<DIV CLASS=UP>case</DIV>",
        "text only, no tags at all",
        "&copy; 2024 &unknown; &#169; &#xA9; &notit;",
        "<div>&#0;&#13;&#x80;&#x110000;</div>",           # invalid charrefs
        "<p>unclosed",
        "</div>stray close",
        "<div><!-- c --><span>s</span></div>",
        "",
        " \t\n ",
    ]

    # adversarial raw-text closer forms: probed against the live reference
    # (zero divergences over all forms x option sets) and pinned here so a
    # kernel regression in the raw-text fast-forward scan cannot land silently
    RAW_TEXT_CLOSERS = [
        "<script>var a = '</div>';</script>after",
        "<script>x</script >tail",          # probed non-closer: raw text runs to EOF
        "<script>x</SCRIPT>tail",           # probed non-closer: raw text runs to EOF
        "<script>x</script x y=1>tail",     # probed non-closer: raw text runs to EOF
        "<script>x</ script>tail",          # space after </ (NOT a closer)
        "<script>never closed <div> <b>",   # EOF-unterminated raw text
        "<style>p{content:'</style'}</style>done",  # partial closer in value
        "<textarea><div>not parsed?</div></textarea>",
        "<script src='x'/>selfclose<div>d</div>",
        "<SCRIPT>x</script>mixedcase",
        "<script></scrip></script>ok",      # near-miss closer
    ]

    @pytest.mark.parametrize("html", CASES, ids=range(len(CASES)))
    def test_case(self, ref, html):
        _compare(ref, html, selectors=SELECTORS, label=html)

    @pytest.mark.parametrize(
        "html", RAW_TEXT_CLOSERS, ids=range(len(RAW_TEXT_CLOSERS))
    )
    def test_raw_text_closer_forms(self, ref, html):
        for opts in (None, {"script": True, "style": True},
                     {"lowerCaseTagName": True}):
            _compare(ref, html, options=opts, selectors=("script", "div"),
                     label=f"{html!r}+{opts}")

    def test_lowercase_option_preserves_render_set(self, ref):
        _compare(
            ref,
            "<DIV><SPAN id=A>x</SPAN></DIV>",
            options={"lowerCaseTagName": True},
            selectors=["div", "span", "#A"],
        )
