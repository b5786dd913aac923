"""Engine differential: ``flat_parse`` on CPython ``re`` against the bounded
``regex`` copy of the tokenizer pattern (``parser.run_bounded``).

Draws seeded random tag soup (attribute-heavy fragments, JS-only whitespace
and the four letters CPython's IGNORECASE folds into ``[a-z]``) and parses
every input under each of the four option sets of
``tests/test_fast_extract.OPTION_SETS`` on both engines, comparing the flat
trees and ``ParseMetrics``.  The ``re`` parse runs under a per-input
watchdog (SIGALRM, which CPython's regex engine honours between steps in the
main thread).  Prints every mismatch, every ``re`` timeout, and every ``re``
timeout the prescan does not flag (a prescan miss: such a document would
tokenize on unbounded ``re`` in the stages).  Exit status 1 on any mismatch
or prescan miss.

Usage, from the repo root:

    python scripts/diff_engines.py [n_inputs] [seed] [watchdog_s]

(defaults 5000 / 0 / 2.0).  Run it after any change to the tokenizer
pattern (``parser._KMARKUP_SRC``) or to the prescan shapes.
"""
from __future__ import annotations

import os
import random
import signal
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from node_html_parser_ray.kernel.parser import (  # noqa: E402
    ParseMetrics,
    flat_parse,
    is_pathological,
    run_bounded,
)

# the letters CPython's IGNORECASE folds into [a-z] besides ASCII
FOLD_LETTERS = "\u0130\u0131\u017f\u212a"
OPTION_SETS = [
    None,
    {"comment": True},
    {"lowerCaseTagName": True},
    {"script": True, "pre": True, "style": True, "noscript": True},
]
_PIECES = (
    list("aaab-/=<>  \"'") + list(FOLD_LETTERS)
    + ["\t", "\u00a0", "\ufeff", "\u2028", "x.y", ":", "_1", "<p>", "</p>",
       "<!--", "-->", "<script>", "</script>", "<pre>", "</", "/>", "='v'",
       '="v w"', "=v/w"]
)
_TAG_STARTS = "aAbBpP" + FOLD_LETTERS


def random_soup(rng: random.Random, max_pieces: int = 40) -> str:
    """One tag-soup input: an optional well-formed prefix, a tag-open on an
    ASCII or fold letter, then up to ``max_pieces`` random fragments."""
    head = rng.choice(("", "<p>x</p>", "<div>"))
    body = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, max_pieces)))
    return head + "<" + rng.choice(_TAG_STARTS) + body


def fold_letter_cases() -> list[str]:
    """Every fold letter as a tag name's first / later char and as an
    attribute name's first / later char, alone and mixed with ASCII."""
    out = []
    for c in FOLD_LETTERS:
        out += [
            f"<{c}>x</{c}>", f"<a{c}>x</a{c}>", f"<{c}a b>y", f"<p {c}=1>z</p>",
            f"<p a{c}='v' {c}b=\"w\">t</p>", f"<{c}{c}/>", f"<div {c}>q</div>",
            f"<{c.lower()}>u</{c.upper()}>", f"<p x={c}{c}>v", f"<{c}-:.{c}_9>",
        ]
    return out


def parse_result(html: str, options):
    """``flat_parse``'s tree plus the ParseMetrics fields it sets."""
    metrics = ParseMetrics()
    tree = flat_parse(html, options, metrics)
    return tree, [getattr(metrics, f) for f in ParseMetrics.__slots__]


class _Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise _Watchdog()


def re_result(html: str, options, watchdog_s: float):
    """:func:`parse_result` on CPython ``re``, or ``None`` past the watchdog."""
    signal.setitimer(signal.ITIMER_REAL, watchdog_s)
    try:
        return parse_result(html, options)
    except _Watchdog:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(n_inputs: int = 5000, seed: int = 0, watchdog_s: float = 2.0) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(seed)
    inputs = fold_letter_cases() + [random_soup(rng) for _ in range(n_inputs)]
    mismatches = timeouts = misses = 0
    t0 = time.time()
    for html in inputs:
        for options in OPTION_SETS:
            want = re_result(html, options, watchdog_s)
            if want is None:
                timeouts += 1
                flagged = is_pathological(html)
                print(f"re timeout (flagged={flagged}): {html!r} {options}")
                if not flagged:
                    misses += 1
                    print(f"PRESCAN MISS: {html!r}")
                break
            got = run_bounded(parse_result, html, options, timeout=60.0)
            if got != want:
                mismatches += 1
                print(f"MISMATCH {options}: {html!r}")
    print(f"{len(inputs)} inputs x {len(OPTION_SETS)} option sets in "
          f"{time.time() - t0:.1f} s: {mismatches} mismatches, {timeouts} re "
          f"timeouts, {misses} unflagged re timeouts (prescan misses)")
    return 1 if mismatches or misses else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(
        int(args[0]) if args else 5000,
        int(args[1]) if len(args) > 1 else 0,
        float(args[2]) if len(args) > 2 else 2.0,
    ))
