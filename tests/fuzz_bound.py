"""Wall bound for the fuzz tests that parse generated input in-process.

The tokenizer inherits the reference's backtracking blowup on some
truncated tags (kernel/parser.py), so a hypothesis test that calls
``parse()`` or ``flat_parse()`` on a drawn input can hang the whole run.
:func:`require_bounded_parse` first runs a prescan-flagged input through
``flat_parse`` in a killable sidecar and fails the test, naming the input,
when that parse does not return within :data:`BOUND_S`.  No input is
filtered out: an unflagged input, or a flagged one that parses in time,
goes on to the test's own assertions.

The bound is well above the slow inputs that do finish: hypothesis draws a
flagged input that parses in 17-47 s on one vCPU in about one run of these
test files in three, and the test must still pass on those.  A failing
test then costs at most the bound, hypothesis's 300 s of shrinking and the
replay, inside the suite's time budget.
"""
from __future__ import annotations

from typing import Optional

import pytest

from node_html_parser_ray.kernel.parser import flat_parse, is_pathological
from node_html_parser_ray.kernel.redos_lane import RedosSidecar

BOUND_S = 120.0
_SIDECAR = RedosSidecar()


def require_bounded_parse(html: str, options: Optional[dict] = None) -> None:
    """Fail the calling test if ``html`` is prescan-flagged and
    ``flat_parse(html, options)`` does not return within :data:`BOUND_S`
    (or raises) in the sidecar."""
    if is_pathological(html) and _SIDECAR.call(
        flat_parse, (html, options), BOUND_S
    ) is None:
        pytest.fail(
            f"flat_parse did not return within {BOUND_S:.0f} s on {html!r}"
        )
