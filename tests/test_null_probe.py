"""Adversarial corpus probe: null / empty / whitespace-only / short /
non-ASCII / 'x'-containing texts through every documents-table query that
has a DuckDB oracle, compared value-for-value against that oracle.

The shipped testdata never exercises these branches (memory: probe them with
synthetic sf dirs); round 3 found six latent divergences this way (None
rendered into synthesis templates, NaN token lengths, ghost join groups,
closed-form oracles assuming non-empty/x-free text).
"""
from __future__ import annotations

import os
import shutil

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# documents-only queries with oracles (others need TPC-H tables)
_PROBE_QUERIES = [
    "extract_interleaved", "structured_text", "text_spans", "media_refs",
    "dom_api", "selectors", "selector_counts_columnar", "boilerplate",
    "corpus_clean", "vocab_topk", "length_quantiles", "redact_digits",
    "decontaminate", "repetition_score", "sequence_packing",
    "stratified_sample", "sample_mod", "doc_stats_by_lang", "token_counts",
    "quality", "lang_id", "exact_dedup", "fingerprints", "pdf_extract",
    "epoch_shuffle", "distinct_lang_source", "partition_metrics",
]

_TEXTS = [
    None, "", "short", "exactly8",
    "the quick brown fox and the lazy dog for real " * 8,
    "a" * 7, "é中文" * 5,
    "hello world this is a longer document with text " * 20,
    "\t \n", "x" * 8, None,
    "the and of to is that with for " * 4,
    # long enough to pass corpus_clean's 50-token quality gate, so the
    # null-lang doc reaches the lang rollup groupby
    "null lang document words here for the counter " * 10,
    "null source document words " * 3,
]
# last two docs carry null lang / null source: groupby-key null handling
# (pandas drops NaN keys by default; SQL keeps a NULL group)
_LANGS = ["en", "zh", "fr", "en", "de", "en", "zh", "en", "fr", "de",
          "en", "en", None, "en"]
_SOURCES = ["s0", "s1", "s2", "s0", "s1", "s2", "s0", "s1", "s2", "s0",
            "s1", "s2", "s0", None]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("null_probe"))
    n = len(_TEXTS)
    tb = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(_TEXTS, pa.string()),
        "lang": pa.array(_LANGS),
        "source": pa.array(_SOURCES),
        "n_chars": pa.array([len(t or "") for t in _TEXTS], pa.int64()),
    })
    pq.write_table(tb, os.path.join(d, "documents.parquet"))
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _value_rows(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return sorted(
        tuple(str(v) for v in row)
        for row in df.itertuples(index=False, name=None)
    )


@pytest.mark.parametrize("name", _PROBE_QUERIES)
def test_query_matches_oracle_on_adversarial_corpus(ray_session, probe_dir, name):
    from node_html_parser_ray.pipelines.queries import ORACLE_SQL, QUERIES

    import pandas as pd

    result = QUERIES[name](probe_dir)
    if isinstance(result, pd.DataFrame):
        got = result
    elif isinstance(result, pa.Table):
        got = result.to_pandas()
    else:  # ray Dataset
        got = result.to_pandas()

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{probe_dir}/documents.parquet')"
    )
    want = con.execute(ORACLE_SQL[name]).df()
    assert len(got) == len(want), (name, len(got), len(want))
    assert sorted(got.columns) == sorted(want.columns), name
    assert _value_rows(got) == _value_rows(want), name


class TestEmptyCorpus:
    """Zero-row tables (an empty partition/shard in production) must yield
    empty results, never crash — columnless empty frames from Ray's
    aggregate layer were a recurring crash class."""

    @pytest.fixture(scope="class")
    def empty_dir(self, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("empty_probe"))
        pq.write_table(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }), os.path.join(d, "documents.parquet"))
        pq.write_table(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
            "label": pa.array([], pa.int32()),
        }), os.path.join(d, "embeddings.parquet"))
        yield d
        shutil.rmtree(d, ignore_errors=True)

    @pytest.mark.parametrize("name", _PROBE_QUERIES + [
        "minhash_neardup", "minhash_neardup_verified", "simhash_neardup",
        "interleaved_media_features", "av_features",
        "frame_pipeline", "embedding_neardup", "ann_topk", "ann_topk_ivf",
        "kmeans_clusters",
    ])
    def test_empty_corpus_yields_empty(self, ray_session, empty_dir, name):
        import pandas as pd

        from node_html_parser_ray.pipelines import queries as qmod
        from node_html_parser_ray.pipelines.queries import QUERIES

        # minhash_neardup left the driver registry (its plan re-runs inside
        # the verified query) but the function must stay empty-corpus-safe
        fn = QUERIES.get(name) or getattr(qmod, f"q_{name}")
        r = fn(empty_dir)
        n = len(r) if isinstance(r, (pd.DataFrame, pa.Table)) else r.count()
        assert n == 0

class TestLargeStringSynthesis:
    """The corpus text column is large_string at scale; the vectorized
    synthesis joins must not assume string (round-4 review: mixed-type
    binary_join_element_wise raises ArrowNotImplementedError)."""

    def _batches(self):
        ids = pa.array([0, 1, 2, 5], pa.int64())
        texts = [None, "", "hello <world>", "x" * 40]
        small = pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
        large = pa.table(
            {"doc_id": ids, "text": pa.array(texts, pa.large_string())}
        )
        return small, large

    def test_wrap_html_type_agnostic(self):
        from node_html_parser_ray.pipelines.queries import _wrap_html_batch

        small, large = self._batches()
        a, b = _wrap_html_batch(small), _wrap_html_batch(large)
        assert a.to_pylist() == b.to_pylist()
        assert "</div><img src=" in a.column("html")[0].as_py()

    def test_interleaved_type_agnostic(self):
        from node_html_parser_ray.pipelines.queries import _interleaved_batch

        small, large = self._batches()
        a, b = _interleaved_batch(small), _interleaved_batch(large)
        assert a.to_pylist() == b.to_pylist()
        # doc 5 -> 5 % 3 = 2 media spans between head and tail
        spans = a.to_pylist()[3]["spans"]
        assert [s["kind"] for s in spans] == ["html", "image", "video", "html"]
