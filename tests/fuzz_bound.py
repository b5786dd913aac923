"""Wall bound for the fuzz tests that parse generated input in-process.

The tokenizer inherits the reference's backtracking blowup on some
truncated tags (kernel/parser.py), so a hypothesis test that calls
``parse()`` or ``flat_parse()`` on a drawn input could hang the whole run
on CPython ``re``.  :func:`bounded_body` runs the test body for a
prescan-flagged input under ``parser.run_bounded`` — the same deadline the
stages put on flagged documents, so every parse inside the body tokenizes
on the interruptible ``regex`` copy of the pattern — and fails the test,
naming the input, when the body's parses do not finish within
:data:`BOUND_S`.  No input is filtered out: an unflagged input runs the
body on ``re`` as before, and a flagged one runs the body's own assertions
on the bounded engine, which gives the same trees
(tests/test_engine_parity.py).

The bounded engine's cost on the blowup shapes is quadratic, not
exponential: drawn inputs of a few hundred characters finish in
milliseconds, so the bound only fires on a real hang.
"""
from __future__ import annotations

import pytest

from node_html_parser_ray.kernel.parser import is_pathological, run_bounded

BOUND_S = 30.0


def bounded_body(inputs, body, *args):
    """``body(*args)``; under :data:`BOUND_S`'s deadline when ``inputs`` (a
    drawn html string, or a list of them) holds a prescan-flagged one,
    failing the calling test if that deadline passes.  Returns the body's
    result; exceptions it raises (its assertions) propagate unchanged."""
    inputs = [inputs] if isinstance(inputs, str) else inputs
    if not any(map(is_pathological, inputs)):
        return body(*args)
    try:
        return run_bounded(body, *args, timeout=BOUND_S)
    except TimeoutError:
        pytest.fail(
            f"the test's parses did not finish within {BOUND_S:.0f} s on {inputs!r}"
        )
