"""Tokenizer differential: the shipped ``flat_parse`` (KMARKUP's first-path
copy, with the full pattern retried on the ``regex`` copy at the sites where
that copy fails) against ``flat_parse`` driven by the full ``KMARKUP`` on
CPython ``re``.

Draws seeded random tag soup (attribute-heavy fragments, JS-only whitespace
and the four letters CPython's IGNORECASE folds into ``[a-z]``), plus a
fifth as many soup inputs holding an unclosed comment open with every
``-->`` stripped (so ``flat_parse`` drops the comment branch after the
first open fails), and parses
every input under each of the four option sets of
``tests/test_fast_extract.OPTION_SETS`` both ways, comparing the flat trees
and ``ParseMetrics``.  The full-pattern parse runs under a per-input
watchdog (SIGALRM, which CPython's regex engine honours between steps in the
main thread); where it times out, the shipped parse must still finish under
its 60 s deadline (the script sets ``NHPR_PARSE_TIMEOUT=60``).  Prints every
mismatch, every full-pattern timeout and every shipped parse that did not
finish, then the number of fallback sites (sites the first-path copy failed
at and the full pattern was retried at) and of fallback matches (sites the
full pattern matched only through give-back).  Exit status 1 on any mismatch or
unfinished shipped parse.

Usage, from the repo root:

    python scripts/diff_engines.py [n_inputs] [seed] [watchdog_s]

(defaults 5000 / 0 / 2.0).  Run it after any change to the tokenizer
patterns (``parser._KMARKUP_SRC``, ``parser._KMARKUP_FIRST_PATH_SRC``) or to
``flat_parse``'s fallback.
"""
from __future__ import annotations

import contextlib
import os
import random
import signal
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from node_html_parser_ray.kernel import parser  # noqa: E402
from node_html_parser_ray.kernel.parser import ParseMetrics, flat_parse  # noqa: E402

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


def unclosed_comment_soup(rng: random.Random) -> str:
    """One :func:`random_soup` input with a comment open spliced in at a
    random point, then every ``-->`` stripped: each of its comment opens
    fails, so the shipped parse searches on without the comment branch
    from the first one."""
    html = random_soup(rng)
    cut = rng.randint(0, len(html))
    html = html[:cut] + "<!--" + html[cut:]
    while "-->" in html:
        html = html.replace("-->", "")
    return html


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
    """``flat_parse``'s tree plus the ParseMetrics fields it sets
    (TimeoutError past its ``NHPR_PARSE_TIMEOUT`` deadline)."""
    metrics = ParseMetrics()
    tree = flat_parse(html, options, metrics)
    return tree, [getattr(metrics, f) for f in ParseMetrics.__slots__]


@contextlib.contextmanager
def full_pattern(pattern=parser.KMARKUP):
    """``flat_parse`` searching with the full KMARKUP instead of its
    first-path copy (on ``re``, or pass the ``regex`` copy
    ``parser._bounded_kmarkup()``): the full pattern's matches never set
    the ``fail`` group, so no site falls back."""
    saved = parser.KMARKUP_FIRST_PATH
    parser.KMARKUP_FIRST_PATH = pattern
    try:
        yield
    finally:
        parser.KMARKUP_FIRST_PATH = saved


@contextlib.contextmanager
def count_fallbacks():
    """Yields a two-item list ``[sites, matches]`` that counts the full-
    pattern retries ``flat_parse`` makes inside the block, and those that
    matched."""
    real = parser._full_match
    counts = [0, 0]

    def counting(data, q, deadline):
        m = real(data, q, deadline)
        counts[0] += 1
        counts[1] += m is not None
        return m

    parser._full_match = counting
    try:
        yield counts
    finally:
        parser._full_match = real


class _Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise _Watchdog()


def re_result(html: str, options, watchdog_s: float):
    """:func:`parse_result` with the full KMARKUP on CPython ``re``, or
    ``None`` past the watchdog."""
    with full_pattern():
        signal.setitimer(signal.ITIMER_REAL, watchdog_s)
        try:
            return parse_result(html, options)
        except _Watchdog:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main(n_inputs: int = 5000, seed: int = 0, watchdog_s: float = 2.0) -> int:
    os.environ["NHPR_PARSE_TIMEOUT"] = "60"
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(seed)
    inputs = fold_letter_cases() + [random_soup(rng) for _ in range(n_inputs)]
    inputs += [unclosed_comment_soup(rng) for _ in range(n_inputs // 5)]
    mismatches = timeouts = unfinished = 0
    t0 = time.time()
    with count_fallbacks() as fallbacks:
        for html in inputs:
            for options in OPTION_SETS:
                try:
                    got = parse_result(html, options)
                except TimeoutError:
                    unfinished += 1
                    print(f"SHIPPED PARSE PAST 60 s {options}: {html!r}")
                    break
                want = re_result(html, options, watchdog_s)
                if want is None:
                    timeouts += 1
                    print(f"full-pattern re timeout: {html!r} {options}")
                    break
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH {options}: {html!r}")
    print(f"{len(inputs)} inputs x {len(OPTION_SETS)} option sets in "
          f"{time.time() - t0:.1f} s: {mismatches} mismatches, {timeouts} "
          f"full-pattern re timeouts, {unfinished} shipped parses past 60 s, "
          f"{fallbacks[0]} fallback sites, {fallbacks[1]} fallback matches")
    return 1 if mismatches or unfinished else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(
        int(args[0]) if args else 5000,
        int(args[1]) if len(args) > 1 else 0,
        float(args[2]) if len(args) > 2 else 2.0,
    ))
