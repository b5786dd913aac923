"""Fingerprint definition parity with the DuckDB oracle on edge cases the
testdata never exercises (nulls, empties, short docs, non-ASCII)."""
import duckdb
import numpy as np
import pyarrow as pa

from node_html_parser_ray.pipelines.queries import ORACLE_SQL
from node_html_parser_ray.stages.textstats import fingerprint_batch


def test_fingerprint_edge_parity(tmp_path):
    import pyarrow.parquet as pq

    texts = [None, "", "short", "exactly8", "exactly9!", "a" * 7,
             "é中文" * 5, "hello world this is a longer document " * 20,
             "\t \n", "x" * 8, "\U0001F600 astral \U0001F680 plane"]
    tb = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    path = str(tmp_path / "documents.parquet")
    pq.write_table(tb, path)
    got = fingerprint_batch(tb).to_pandas().sort_values("doc_id")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    want = con.execute(ORACLE_SQL["fingerprints"]).df().sort_values("doc_id")
    assert (got["text_fingerprint"].to_numpy()
            == want["text_fingerprint"].to_numpy()).all()
    assert (got["window_fingerprint"].to_numpy()
            == want["window_fingerprint"].to_numpy()).all()

