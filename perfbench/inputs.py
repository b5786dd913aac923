"""Seeded benchmark corpora, generated once per (corpus, seed) and cached.

Every corpus file is written by ``sources.corpus.write_corpus_shard``, the
shard writer behind ``write_corpus``, so the benchmark reads exactly the
file layout the tests use; giant files are then cut to a prefix of their
documents.  Generation happens before any timer starts.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import shutil

import pyarrow.parquet as pq

# Documents above this many HTML characters count as giant (the generator's
# giant documents are 200-600 KB, ordinary ones about 0.5 KB).
GIANT_CHARS = 100_000

# Per file: (documents, giant fraction); files hold consecutive doc
# indexes.  ``crawl`` is ``write_corpus(n_docs=8000, giant_fraction=0)`` and
# ``small`` the same at 2000 documents, for dom_query.  A crawl_small job
# over 2000 documents took 0.7-1.3 s, most of it the fixed cost of four
# dataset executions, and one slow job moved a run's docs/s by several
# percent; over 8000 documents a job takes 1.6-2 s on an unloaded machine.
# ``giant`` holds 490 ordinary documents and two files of giant ones, and
# pins the giant HTML per file rather than drawing giants per document
# (``giant_fraction=0.02``): nearly all of a job's time goes to giant bytes,
# and a binomial giant count (10 +- 3 here) times 200-600 KB per giant would
# make docs/s follow the seed.  The giant files sort after the ordinary
# ones, so the pipeline's round-robin sharding gives each shard one of each.
# Twice these sizes gave 2-3 s jobs whose docs/s spread no less (within a
# run they agreed to 5%; between runs they followed the machine's speed).
CORPORA = {
    "small": [(1000, 0.0), (1000, 0.0)],
    "crawl": [(4000, 0.0), (4000, 0.0)],
    "giant": [(245, 0.0), (245, 0.0), (10, 1.0), (10, 1.0)],
}
# A giant file keeps its first documents up to this many HTML characters
# (about 5 of its 10 candidates, so about 2% of the corpus's documents).
GIANT_FILE_CHARS = 2_000_000


def doc_id(index: int) -> str:
    """The generator's doc id for a document index."""
    return f"doc-{index:08d}"


def _doc_chars(table) -> list[int]:
    """HTML characters per document, as ``write_corpus_shard`` counts them."""
    out = []
    for spans in table.column("spans").to_pylist():
        out.append(sum(len(s["text"]) for s in spans or () if s["kind"] == "html"))
    return out


def _prescan_flagged(table) -> int:
    from node_html_parser_ray.stages.extract_stage import (
        htmls_from_batch,
        parse_timeout,
        prescan_flags,
    )

    flags = prescan_flags(htmls_from_batch(table), parse_timeout())
    return 0 if flags is None else int(flags.sum())


def _generate(out_dir: str, corpus: str, seed: int) -> dict:
    from node_html_parser_ray.sources.corpus import write_corpus_shard

    files, html_chars, giant_chars, flagged = [], 0, 0, 0
    giant_ids: list[str] = []
    start = 0
    for n, giant_fraction in CORPORA[corpus]:
        path, _ = write_corpus_shard(out_dir, start, n, seed, giant_fraction)
        table = pq.read_table(path)
        chars = _doc_chars(table)
        if giant_fraction:
            keep = next(i + 1 for i, total in enumerate(itertools.accumulate(chars))
                        if total >= GIANT_FILE_CHARS)
            table, chars = table.slice(0, keep), chars[:keep]
            pq.write_table(table, path, use_dictionary=False)
        files.append(os.path.basename(path))
        html_chars += sum(chars)
        for i, c in enumerate(chars):
            if c > GIANT_CHARS:
                giant_chars += c
                giant_ids.append(doc_id(start + i))
        flagged += _prescan_flagged(table)
        start += table.num_rows
    return {
        "corpus": corpus,
        "seed": seed,
        "files": sorted(files),
        "docs": start,
        "html_chars": html_chars,
        "html_mb": html_chars / 1e6,
        "giant_docs": len(giant_ids),
        "giant_byte_share": giant_chars / html_chars if html_chars else 0.0,
        "prescan_flagged_docs": flagged,
        "giant_ids": giant_ids,
    }


def ensure_corpus(cache_root: str, corpus: str, seed: int) -> tuple[list[str], dict]:
    """Return (sorted input files, stats) for ``corpus`` at ``seed``.

    A finished corpus directory holds ``meta.json``, written last; a
    directory without it is a crashed generation and is rebuilt.
    """
    out_dir = os.path.join(cache_root, f"{corpus}-{seed}")
    meta_path = os.path.join(out_dir, "meta.json")
    if not os.path.exists(meta_path):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        meta = _generate(out_dir, corpus, seed)
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, meta_path)
    with open(meta_path) as f:
        meta = json.load(f)
    return [os.path.join(out_dir, name) for name in meta["files"]], meta


# Correctness sample: documents drawn uniformly, plus giant ones.
SAMPLE_DOCS = 16
SAMPLE_GIANTS = 2


def sample_ids(meta: dict, seed: int) -> list[str]:
    """Seeded correctness sample: ``SAMPLE_DOCS`` documents drawn uniformly
    plus up to ``SAMPLE_GIANTS`` giant ones, so both size classes are
    always checked."""
    rng = random.Random(seed)
    ids = {doc_id(i) for i in rng.sample(range(meta["docs"]), SAMPLE_DOCS)}
    giants = meta["giant_ids"]
    ids.update(rng.sample(giants, min(SAMPLE_GIANTS, len(giants))))
    return sorted(ids)


def public_stats(meta: dict) -> dict:
    """The corpus stats printed with every result."""
    return {
        "docs": meta["docs"],
        "html_mb": round(meta["html_mb"], 3),
        "giant_docs": meta["giant_docs"],
        "giant_byte_share": round(meta["giant_byte_share"], 4),
        "prescan_flagged_docs": meta["prescan_flagged_docs"],
    }
