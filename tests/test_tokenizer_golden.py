"""Golden digests of ``parse()``: pins the tokenizer and the repair pass.

``tests/data/tokenizer_golden.json`` maps each case id to the sha256 of a
canonical serialisation of the ``parse(html, options)`` trees and their
``ParseMetrics``, under each of the four option sets of
``test_fast_extract.OPTION_SETS``.  A tree serialises in pre-order: tag name,
``raw_attrs``, child count and parent index for elements, the value for text
and comment nodes, and ``valid`` on the root; the parent index pins
``parent_node`` (elements only; text and comment nodes have none).

The cases: the handwritten edge list of ``test_fast_extract``, the 400-doc
generator corpus (seed 11, ``giant_fraction=0.01``), the ``tests/data`` pages
and 2000 tag-soup strings drawn with ``random.Random(5)`` from
``TAG_FRAGMENTS``.  Every case is checked twice: parsed on CPython ``re``,
and parsed under ``parser.run_bounded`` on the interruptible ``regex`` copy
of the tokenizer pattern that prescan-flagged documents use; both must give
the same digests.  Rewrite the golden (only for an intended change of the
parse result) from the repo root with::

    PYTHONPATH=. python tests/test_tokenizer_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from node_html_parser_ray.kernel.extract import assemble_document
from node_html_parser_ray.kernel.parser import ParseMetrics, parse, run_bounded
from node_html_parser_ray.sources.corpus import generate_documents
from test_fast_extract import EDGE_CASES, OPTION_SETS, TAG_FRAGMENTS

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA_DIR, "tokenizer_golden.json")
METRIC_FIELDS = ("n_nodes", "n_elements", "n_text", "n_comments", "n_fixups",
                 "n_bytes", "valid")
CASE_SETS = ("edge", "corpus", "page", "soup")


def serialise(root, metrics: ParseMetrics) -> list:
    """Canonical pre-order rows of one parsed tree plus its metrics."""
    rows: list = [root.valid, [getattr(metrics, f) for f in METRIC_FIELDS]]
    index: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        index[id(node)] = len(index)
        parent = node.parent_node
        parent_ref = -1 if parent is None else index.get(id(parent), -2)
        if node.node_type == 1:
            rows.append(["E", node.tag_name, node.raw_attrs,
                         len(node.child_nodes), parent_ref])
            stack.extend(reversed(node.child_nodes))
        else:
            rows.append(["T" if node.node_type == 3 else "C", node.value,
                         parent_ref])
    return rows


def case_digest(html: str) -> str:
    """sha256 over the trees of ``html`` under every option set."""
    trees = []
    for options in OPTION_SETS:
        metrics = ParseMetrics()
        trees.append(serialise(parse(html, options, metrics), metrics))
    return hashlib.sha256(json.dumps(trees).encode()).hexdigest()


def case_inputs(case_set: str):
    """(case id, html) pairs of one case set."""
    if case_set == "edge":
        for i, html in enumerate(EDGE_CASES):
            yield f"edge/{i}", html
    elif case_set == "corpus":
        corpus = generate_documents(400, seed=11, giant_fraction=0.01)
        for row in corpus.to_pylist():
            spans = row["spans"]
            html, _ = assemble_document(
                [s["kind"] for s in spans], [s["text"] for s in spans],
                [s["media_ref"] for s in spans], [s["offset"] for s in spans],
            )
            yield f"corpus/{row['doc_id']}", html
    elif case_set == "page":
        for name in sorted(os.listdir(DATA_DIR)):
            if name.endswith(".html"):
                with open(os.path.join(DATA_DIR, name), encoding="utf-8") as f:
                    yield f"page/{name}", f.read()
    else:
        rng = random.Random(5)
        for i in range(2000):
            n = rng.randint(0, 24)
            yield f"soup/{i}", "".join(rng.choice(TAG_FRAGMENTS)
                                       for _ in range(n))


def bounded_case_digest(html: str) -> str:
    """:func:`case_digest` with every parse on the bounded engine."""
    return run_bounded(case_digest, html, timeout=60.0)


def assert_golden(case_set: str, digest) -> None:
    with open(GOLDEN, encoding="utf-8") as f:
        golden = {k: v for k, v in json.load(f).items()
                  if k.startswith(case_set + "/")}
    got = {cid: digest(html) for cid, html in case_inputs(case_set)}
    assert got.keys() == golden.keys()
    changed = sorted(cid for cid in got if got[cid] != golden[cid])
    assert not changed, f"{len(changed)} trees differ, e.g. {changed[:10]}"


@pytest.mark.parametrize("case_set", CASE_SETS)
def test_parse_matches_golden(case_set):
    assert_golden(case_set, case_digest)


@pytest.mark.parametrize("case_set", CASE_SETS)
def test_bounded_parse_matches_golden(case_set):
    assert_golden(case_set, bounded_case_digest)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=. python tests/test_tokenizer_golden.py --write")
    out = {cid: case_digest(html)
           for case_set in CASE_SETS for cid, html in case_inputs(case_set)}
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(out)} digests to {GOLDEN}")
