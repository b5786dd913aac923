"""Engine parity: ``flat_parse`` on CPython ``re`` and on the bounded
``regex`` copy of the tokenizer pattern give the same trees and metrics.

Prescan-flagged documents tokenize on the ``regex`` copy (under
``parser.run_bounded``) and every other document on ``re``, so a prescan
false positive must parse exactly as it would unflagged.  The inputs come
from ``scripts/diff_engines.py`` (the same check, run at scale): the four
non-ASCII letters CPython's IGNORECASE folds into ``[a-z]`` in tag and
attribute names, and seeded random tag soup.  The ``re`` side of the soup
runs under the script's SIGALRM watchdog; an input ``re`` cannot finish is
left out of the comparison, and must be prescan-flagged (otherwise the
stages would parse it on unbounded ``re``).
"""
from __future__ import annotations

import os
import random
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
import diff_engines  # noqa: E402
from diff_engines import (  # noqa: E402
    FOLD_LETTERS,
    OPTION_SETS,
    fold_letter_cases,
    parse_result,
    random_soup,
)

from node_html_parser_ray.kernel.parser import (  # noqa: E402
    flat_parse,
    is_pathological,
    run_bounded,
)

WATCHDOG_S = 5.0


def bounded_result(html, options):
    return run_bounded(parse_result, html, options, timeout=60.0)


@pytest.fixture
def watchdog():
    old = signal.signal(signal.SIGALRM, diff_engines._alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, old)


def test_fold_letters_are_tag_and_attr_name_letters():
    for c in FOLD_LETTERS:
        for tree in (flat_parse(f"<{c}>x</{c}>"),
                     run_bounded(flat_parse, f"<{c}>x</{c}>", timeout=60.0)):
            assert tree[0] == ["", c], c


def test_fold_letter_cases_match():
    for html in fold_letter_cases():
        for options in OPTION_SETS:
            assert bounded_result(html, options) == parse_result(html, options), \
                (html, options)


def test_random_tag_soup_matches(watchdog):
    rng = random.Random(2026)
    compared = 0
    for _ in range(1500):
        html = random_soup(rng, 30)
        for options in OPTION_SETS:
            want = diff_engines.re_result(html, options, WATCHDOG_S)
            if want is None:
                assert is_pathological(html), f"prescan miss: {html!r}"
                break
            assert bounded_result(html, options) == want, (html, options)
            compared += 1
    assert compared >= 5800
