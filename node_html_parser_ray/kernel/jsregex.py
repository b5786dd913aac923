"""JavaScript-compatible whitespace classes and trim, shared by kernel regexes.

JS ``\\s`` matches ``[\\f\\n\\r\\t\\v\\u0020\\u00a0\\u1680\\u2000-\\u200a``
``\\u2028\\u2029\\u202f\\u205f\\u3000\\ufeff]`` — notably *including* the BOM
(U+FEFF) and *excluding* the ASCII separator controls U+001C..U+001F that
Python's ``\\s`` matches in unicode mode.  Every regex ported from the
reference (src/index.ts:833-835, 84, 192, 265, 267, 588, 669, 694) uses these
explicit classes so behaviour is identical on exotic whitespace.
"""
from __future__ import annotations

import re

# Character-class *contents* (no surrounding brackets) for JS \s.
WS = "\\t\\n\\v\\f\\r \\u00a0\\u1680\\u2000-\\u200a\\u2028\\u2029\\u202f\\u205f\\u3000\\ufeff"
S = f"[{WS}]"  # JS \s
NS = f"[^{WS}]"  # JS \S

_JS_WS_CHARS = (
    "\t\n\v\f\r \u00a0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000\ufeff"
)

_TRIM = re.compile(f"^{S}+|{S}+$")
_WS_RUN = re.compile(f"{S}+")


_ASCII_WS = "\t\n\v\f\r "
_EXOTIC_WS = frozenset(_JS_WS_CHARS) - frozenset(_ASCII_WS)


def js_trim(s: str) -> str:
    """Equivalent of JS String.prototype.trim() (trims JS whitespace incl. BOM).

    Fast path: plain ``str.strip`` over ASCII whitespace covers almost every
    real string; the regex only runs when exotic unicode whitespace remains
    at either end.
    """
    t = s.strip(_ASCII_WS)
    if t and (t[0] in _EXOTIC_WS or t[-1] in _EXOTIC_WS):
        return _TRIM.sub("", t)
    return t


def js_ws_split(s: str) -> list[str]:
    """Equivalent of JS ``s.split(/\\s+/)`` (empty leading field preserved)."""
    return _WS_RUN.split(s)
