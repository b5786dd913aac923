"""Tag-soup differential campaign: N random docs through BOTH engines.

Standalone bulk driver for the harness in
tests/test_differential_reference.py — strips the reference TS once
(scripts/ts_strip.py), starts scripts/ref_driver.js under Node, then
streams seeded random tag-soup documents + selectors and compares the
full surface (text / structuredText / toString / structure / valid /
attribute maps / querySelectorAll — the test module's ``_KEYS``).  Any
divergence prints and the script exits non-zero.

This is the exact driver behind the 3M-doc tag-soup campaign slices
recorded in SURVEY.md (seed ranges 4,000,000+ / 8,000,000+ /
12,000,000+, zero divergences); its attribute-soup sibling is
scripts/diff_campaign_attrs.py.  The generator (`_random_html` in the
test module) produces small 1-80-token documents; a divergence OR a hang
here is a real finding.

Usage: python scripts/diff_campaign_tagsoup.py [n_docs] [seed0] [lo,hi]
(defaults 50000 / 4_000_000 / 1,80; pick a FRESH seed0 per campaign so
slices never overlap — SURVEY.md records which ranges are spent).  The
optional lo,hi token range selects the doc-size regime: 1,80 is the
small tag-soup campaign; 40,400 reproduces the "large-doc" slices.
"""
import json
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/scripts")
sys.path.insert(0, "/root/repo/tests")


def main(n_docs: int, seed0: int, tok_lo: int = 1, tok_hi: int = 80) -> int:
    import html as html_mod
    import html.entities as ent
    import shutil

    from ts_strip import exported_names, strip_ts

    node = shutil.which("node")
    with open("/root/reference/src/index.ts", encoding="utf-8") as f:
        src = f.read()
    js = strip_ts(src)
    js += "\nmodule.exports = {%s};\n" % ", ".join(exported_names(src))
    d = "/tmp/diff_campaign_js"
    os.makedirs(d, exist_ok=True)
    mod = os.path.join(d, "reference_stripped.js")
    with open(mod, "w", encoding="utf-8") as f:
        f.write(js)
    tables = os.path.join(d, "entities.json")
    with open(tables, "w", encoding="utf-8") as f:
        json.dump(
            {
                "html5": ent.html5,
                "invalid_charrefs": {
                    str(k): v for k, v in html_mod._invalid_charrefs.items()
                },
                "invalid_codepoints": sorted(html_mod._invalid_codepoints),
            },
            f,
        )

    proc = subprocess.Popen(
        [node, "/root/repo/scripts/ref_driver.js", mod, tables],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    counter = iter(range(1, 10**9))

    def ask(html, options=None, selectors=()):
        rid = next(counter)
        proc.stdin.write(json.dumps(
            {"id": rid, "html": html, "options": options,
             "selectors": list(selectors)}) + "\n")
        proc.stdin.flush()
        resp = json.loads(proc.stdout.readline())
        assert resp["id"] == rid and "error" not in resp, resp.get("error")
        return resp

    from test_differential_reference import (
        _KEYS,
        _ours,
        _random_html,
        _random_selector,
        SELECTORS,
    )

    t0 = time.time()
    n_div = 0
    try:
        for i in range(n_docs):
            rng = random.Random(seed0 + i)
            html = _random_html(rng, rng.randint(tok_lo, tok_hi))
            if rng.random() < 0.5:
                sels = [_random_selector(rng) for _ in range(4)]
            else:
                sels = rng.sample(SELECTORS, 4)
            options = None
            r = rng.random()
            if r < 0.1:
                options = {"comment": True}
            elif r < 0.2:
                options = {"lowerCaseTagName": True}
            elif r < 0.25:
                options = {"script": True, "style": True, "pre": True}
            theirs = ask(html, options, sels)
            mine = _ours(html, options, sels)
            for key in _KEYS:
                if mine[key] != theirs[key]:
                    n_div += 1
                    print(f"DIVERGENCE doc={i} seed={seed0 + i} key={key}")
                    print(f"  html:   {html!r}")
                    print(f"  opts:   {options!r} sels={sels!r}")
                    print(f"  ours:   {mine[key]!r}")
                    print(f"  theirs: {theirs[key]!r}")
            if (i + 1) % 2000 == 0:
                rate = (i + 1) / (time.time() - t0) * 60
                print(f"[{i + 1}/{n_docs}] {rate:.0f} docs/min, "
                      f"{n_div} divergences", flush=True)
    finally:
        proc.kill()
        proc.wait()
    print(f"DONE {n_docs} docs, {n_div} divergences, "
          f"{time.time() - t0:.0f}s")
    return 1 if n_div else 0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 4_000_000
    lo, hi = (
        (int(x) for x in sys.argv[3].split(","))
        if len(sys.argv) > 3
        else (1, 80)
    )
    sys.exit(main(n, seed, lo, hi))
