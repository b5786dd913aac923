"""Growth: every parse path stays near linear on deep and unclosed nesting.

Each family is timed at ``n`` and ``8n`` (best of 3 runs, no parse
deadline) on each path, and the ratio must stay under 20: linear gives 8
and quadratic 64.  The families are the shapes whose cost grew with the
square of the input or worse:

* unclosed nesting, which the repair pass of ``flat_parse`` takes apart
  (``<div><h3>x`` single errors, ``<a><a>`` and ``<div><div>`` pair
  errors);
* deep valid nesting, on which ``.text`` per match and the automaton's
  descendant matching re-walked subtrees, and on which the selector masks
  propagated an ancestor flag one tree level per numpy pass
  (``section div``);
* a tag whose quoted values each hold a tag open, with no ``>`` anywhere
  (``'<a' + ' x="<a"' * n``): every ``<a`` was a failing site whose
  full-pattern retry scanned on through the later quotes, and is now past
  the document's last ``>``, where ``flat_parse`` ends its token loop.

The controls were near linear already.  Each ``n`` is sized so that a
quadratic path's ``8n`` case still finishes in about 10 s.  Both
``SelectorStage`` modes run the selectors ``div div`` and ``section div``,
so text mode's multi-part order keys are timed too.  The DOM API, the one
object path, runs the deep valid nestings at ``OBJECT_N``, where a
quadratic explore of the 2000-deep case takes ~5 s.
"""
from __future__ import annotations

import gc
import time

import pyarrow as pa
import pytest

from node_html_parser_ray.kernel.parser import flat_parse, parse
from node_html_parser_ray.stages.classify import BoilerplateClassifier
from node_html_parser_ray.stages.extract_stage import extract_batch
from node_html_parser_ray.stages.selector_stage import SelectorStage

RATIO_LIMIT = 20
SCALE = 8
OBJECT_N = 250

# name -> (document of size n, n)
FAMILIES = {
    "div_h3_unclosed": (lambda n: "<div><h3>x" * n, 1500),
    "a_unclosed": (lambda n: "<a>" * n + "t", 2500),
    "div_unclosed": (lambda n: "<div>" * n + "x" * 30, 2500),
    "div_valid": (lambda n: "<div>" * n + "x" * 30 + "</div>" * n, 2500),
    "section_div_valid": (
        lambda n: "<section>" + "<div>" * n + "x" + "</div>" * n, 2500
    ),
    "quoted_tag_opens": (lambda n: "<a" + ' x="<a"' * n, 100),
    # controls
    "ul_li": (lambda n: "<ul><li>" * n, 2000),
    "a_b_closed": (lambda n: "<a><b>t</a>" * n, 2000),
    "h3_div_close": (lambda n: "<div>" + "<h3>x</div>" * n, 2000),
}
DEEP_VALID = {"div_valid", "section_div_valid"}


def _batch(html: str) -> pa.Table:
    return pa.table({"doc_id": ["d"], "html": [html]})


PATHS = {
    "flat_parse": flat_parse,
    "extract_batch": lambda d: extract_batch(_batch(d)),
    "count_only": lambda d: SelectorStage(
        ["div div", "section div"], emit_text=False
    )(_batch(d)),
    "text_mode": lambda d: SelectorStage(["div div", "section div"])(_batch(d)),
    "classifier": lambda d: BoilerplateClassifier()(_batch(d)),
    "dom_api": lambda d: parse(d).query_selector_all("div div"),
}
OBJECT_PATHS = {"dom_api"}


def _best(fn, doc: str, runs: int = 3, stop_below: float = 0.0) -> float:
    """Best wall time of up to ``runs`` calls; stops early once a call
    takes less than ``stop_below`` seconds.  The cyclic collector is off
    while a call runs: a full collection costs time in proportion to
    everything the process holds (the rest of the suite), not to the path
    under test, and one of them in the ``8n`` call alone would read as
    superlinear growth."""
    best = float("inf")
    for _ in range(runs):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn(doc)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        if best < stop_below:
            break
    return best


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_growth_is_near_linear(family, path, monkeypatch):
    monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "0")
    make, n = FAMILIES[family]
    if path in OBJECT_PATHS and family in DEEP_VALID:
        n = OBJECT_N
    fn = PATHS[path]
    fn(make(n))  # warm-up: imports, compiled patterns, allocator
    small = _best(fn, make(n))
    large = _best(fn, make(SCALE * n), stop_below=RATIO_LIMIT * small)
    assert large < RATIO_LIMIT * small, (
        f"{family} via {path}: {large:.3f} s at n={SCALE * n} against "
        f"{small:.4f} s at n={n} (ratio {large / small:.1f})"
    )
