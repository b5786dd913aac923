"""Golden digests of the classifier and selector stages' per-document results.

``tests/data/stage_golden.json`` maps each case id to the sha256 of:

* ``classify_document(html, options, min_text_len, max_link_density)`` under
  each of the four option sets of ``test_fast_extract.OPTION_SETS`` and each
  threshold pair of ``THRESHOLDS``;
* ``select_document(html, SELECTORS, None, True)``: match counts and the
  matched elements' texts.

The cases: every input of ``test_tokenizer_golden.case_inputs`` plus the
handwritten classifier edges of ``CLASSIFIER_CASES``.  perfbench's dom_query
check compares the stages with these same two functions, so this golden is
the independent check of their results.  Rewrite it (only for an intended
change of a stage result) from the repo root with::

    PYTHONPATH=. python tests/test_stage_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from node_html_parser_ray.stages.classify import classify_document
from node_html_parser_ray.stages.selector_stage import select_document
from test_fast_extract import OPTION_SETS
from test_tokenizer_golden import CASE_SETS, DATA_DIR, case_inputs

GOLDEN = os.path.join(DATA_DIR, "stage_golden.json")
THRESHOLDS = ((25, 0.5), (4, 0.5), (0, 1.0))
# perfbench's dom_query SELECTORS, then q_selectors' extra "*", then two
# selectors outside the columnar grammar
SELECTORS = ["div.c", "img", "section p", '[src^="/img/"]',
             "div.c img, .missing", "*", "div > p", '[class~=""]']
LONG = "long enough text for a content block, well past the thresholds"
CLASSIFIER_CASES = [
    # the link test is case-sensitive: "A" is a link only when lowercased
    f"<div><A href=x>{LONG}</A> tail</div>",
    f"<p>{LONG}<!-- a comment {LONG} --> and more</p>",
    # a text that decodes to whitespace: an empty structuredText line
    f"<p><span><div>&NewLine;</div></span>{LONG}</p>",
    f"<video src=v.mp4>{LONG}</video><p>{LONG}</p>",
    f'<p>{LONG} <img src="a.png" alt="alt text"> {LONG}</p>',
    # the repair detaches the unclosed <aside>; its <p> moves to the <div>
    f"<div><aside><p>{LONG}</p>",
    f"<html><body><nav><p>{LONG}</p></nav><div><p>{LONG}</p><p>x</p></div>",
]


STAGE_SETS = CASE_SETS + ("classify",)


def stage_inputs(case_set: str):
    """(case id, html) pairs of one case set: a tokenizer-golden set, or
    the handwritten classifier cases."""
    if case_set != "classify":
        yield from case_inputs(case_set)
        return
    for i, html in enumerate(CLASSIFIER_CASES):
        yield f"classify/{i}", html


def case_digest(html: str) -> str:
    """sha256 over ``html``'s classifier and selector results."""
    classified = [classify_document(html, options, *t)
                  for options in OPTION_SETS for t in THRESHOLDS]
    selected = select_document(html, SELECTORS, None, True)
    return hashlib.sha256(
        json.dumps([classified, selected]).encode()).hexdigest()


@pytest.mark.parametrize("case_set", STAGE_SETS)
def test_stages_match_golden(case_set):
    with open(GOLDEN, encoding="utf-8") as f:
        golden = {k: v for k, v in json.load(f).items()
                  if k.startswith(case_set + "/")}
    got = {cid: case_digest(html) for cid, html in stage_inputs(case_set)}
    assert got.keys() == golden.keys()
    changed = sorted(cid for cid in got if got[cid] != golden[cid])
    assert not changed, f"{len(changed)} results differ, e.g. {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=. python tests/test_stage_golden.py --write")
    out = {cid: case_digest(html)
           for case_set in STAGE_SETS for cid, html in stage_inputs(case_set)}
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(out)} digests to {GOLDEN}")
