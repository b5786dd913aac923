"""Tokenizer parity: the shipped ``flat_parse`` gives the full pattern's trees.

``flat_parse`` searches with KMARKUP's first-path copy and retries the full
pattern on the ``regex`` copy at each site where that copy fails.  These
tests compare it with ``flat_parse`` driven by the full ``KMARKUP`` on
CPython ``re`` (``diff_engines.full_pattern``), trees and metrics.  The
inputs come from ``scripts/diff_engines.py`` (the same check, run at scale):
the four non-ASCII letters CPython's IGNORECASE folds into ``[a-z]`` in tag
and attribute names, seeded random tag soup, and the give-back sites that
only the fallback matches.  The full-pattern side of the soup runs under
the script's SIGALRM watchdog; where it cannot finish, the shipped parse
must still finish under a 60 s ``NHPR_PARSE_TIMEOUT`` deadline.
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
    count_fallbacks,
    fold_letter_cases,
    full_pattern,
    parse_result,
    random_soup,
)

from node_html_parser_ray.kernel import parser  # noqa: E402
from node_html_parser_ray.kernel.parser import flat_parse  # noqa: E402

WATCHDOG_S = 5.0


@pytest.fixture
def watchdog():
    old = signal.signal(signal.SIGALRM, diff_engines._alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def deadline_60s(monkeypatch):
    monkeypatch.setenv("NHPR_PARSE_TIMEOUT", "60")


def test_fold_letters_are_tag_and_attr_name_letters(monkeypatch):
    for c in FOLD_LETTERS:
        for timeout in ("0", "60"):  # with no deadline, then with one
            monkeypatch.setenv("NHPR_PARSE_TIMEOUT", timeout)
            assert flat_parse(f"<{c}>x</{c}>")[0] == ["", c], c


def test_fold_letter_cases_match(deadline_60s):
    for html in fold_letter_cases():
        for options in OPTION_SETS:
            with full_pattern():
                want = parse_result(html, options)
            assert parse_result(html, options) == want, (html, options)


def test_random_tag_soup_matches(watchdog, deadline_60s):
    rng = random.Random(2026)
    compared = 0
    with count_fallbacks() as fallbacks:
        for _ in range(1500):
            html = random_soup(rng, 30)
            for options in OPTION_SETS:
                got = parse_result(html, options)  # raises past 60 s
                want = diff_engines.re_result(html, options, WATCHDOG_S)
                if want is None:
                    break
                assert got == want, (html, options)
                compared += 1
    assert compared >= 5800
    # the soup reaches the give-back sites the fallback exists for
    assert fallbacks[1] > 0


@pytest.mark.parametrize("html, tag, attrs", [
    ("<BA=/x>", "B", "A=/x"),
    # a drawn soup input: the first path's tag name takes 'ſK', which
    # leaves the value's '/' unconsumable
    ("<ſK=\xa0 =v/w></script><!--<p><!--ı", "ſ",
     "K=\xa0 =v/w"),
])
def test_give_back_only_through_fallback(monkeypatch, html, tag, attrs):
    """These tags match the full pattern only through give-back: the
    shipped parse gets them from one fallback match, and the first path
    alone does not."""
    with count_fallbacks() as fallbacks:
        got = parse_result(html, None)
    assert fallbacks == [1, 1]
    assert got[0][0][1] == tag and got[0][1][1] == attrs
    with full_pattern():
        assert parse_result(html, None) == got
    monkeypatch.setattr(parser, "_full_match", lambda data, q, deadline: None)
    assert flat_parse(html)[0][1:2] != [tag]
