"""Import-guarded Lance source/sink with parquet fallback.

BASELINE.json's ``input_hint`` names Lance tables as the production storage
format; this container ships no ``lance`` wheel, so every entry point probes
the import once and falls back to parquet.  The Lance code path is real —
``ray.data.read_lance`` / Ray's ``LanceDatasink`` — and fragment ids are
surfaced either way so :class:`~node_html_parser_ray.state.manifest.ShardManifest`
can record per-shard lineage at fragment granularity (north_rule: "resumable
from checkpoint with per-partition lineage").

At 10^12 docs the Lance advantages this module is shaped around:

* fragment-granular scans — a resumed job opens only uncommitted fragments,
  parquet's equivalent being file-granular input lists (what the fallback
  uses);
* zero-copy Arrow batches out of ``read_lance`` (same contract as
  ``read_parquet`` with ``batch_format="pyarrow"`` downstream).
"""
from __future__ import annotations

import os
import threading
from typing import Optional, Sequence, Union

import pyarrow.compute as pc
import ray
from ray.data import Datasink
from ray.data._internal.datasource.lance_datasink import LanceDatasink
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor
from ray.data.datasource import WriteResult

try:  # pragma: no cover - exercised only where the wheel exists
    import lance  # type: ignore

    HAS_LANCE = True
except ImportError:  # expected in this container
    lance = None
    HAS_LANCE = False

__all__ = [
    "HAS_LANCE",
    "is_lance_dataset",
    "read_documents",
    "write_output",
    "output_fragments",
]


def is_lance_dataset(path: Union[str, Sequence[str]]) -> bool:
    """A Lance dataset is a directory with a ``_versions`` manifest dir."""
    return (
        isinstance(path, str)
        and os.path.isdir(path)
        and os.path.isdir(os.path.join(path, "_versions"))
    )


# Path-resolution race: building a reader or a sink resolves its path, and
# without aiohttp Ray retries ``from fsspec.implementations.http import
# HTTPFileSystem`` on every resolution.  Two threads retrying at once can see
# the half-imported module and get ``ImportError``, which Ray does not catch
# (it catches only ``ModuleNotFoundError``).  Shards are built and written
# from several threads, so every reader and sink is built under this lock.
_PATH_LOCK = threading.Lock()


def read_documents(path: Union[str, Sequence[str]]):
    """``ray.data.read_lance`` when available and the path is Lance, else
    ``read_parquet``.  Safe to call from several threads at once."""
    # a single-element file list may carry a Lance dataset dir (extract_job
    # passes the dataset through as one shard) — unwrap for detection
    if not isinstance(path, str) and len(path) == 1:
        path = path[0]
    if is_lance_dataset(path):
        if HAS_LANCE:
            with _PATH_LOCK:
                return ray.data.read_lance(path)
        # round-4 review: silently falling through scanned the .lance data
        # files as parquet and died with a cryptic Arrow error — name the
        # actual problem instead
        raise RuntimeError(
            f"{path} is a Lance dataset (_versions/ manifest present) but "
            "the lance wheel is not installed; install pylance or provide "
            "parquet input"
        )
    with _PATH_LOCK:
        return ray.data.read_parquet(path)


METRIC_KEYS = ("n_docs", "n_valid", "n_nodes", "n_fixups", "n_bytes", "n_spans")


def _partial_sums(blocks) -> dict:
    """Metric sums of one write task's extracted rows."""
    out = dict.fromkeys(METRIC_KEYS, 0)
    for block in blocks:
        t = BlockAccessor.for_block(block).to_arrow()
        if not t.num_rows:
            continue  # an empty input file's block keeps the input schema
        m = t.column("metrics").combine_chunks()
        out["n_docs"] += t.num_rows
        out["n_valid"] += pc.sum(pc.cast(t.column("valid"), "int64")).as_py() or 0
        for f in METRIC_KEYS[2:]:  # fields of the per-doc metrics struct
            out[f] += pc.sum(m.field(f)).as_py() or 0
    return out


class MetricsSink(Datasink):
    """Wraps the backend's own sink: each write task also returns its rows'
    metric sums, totalled into ``totals``.  Ray keeps the returns of
    successful tasks only, so a retried task counts once."""

    def __init__(self, inner: Datasink) -> None:
        self.inner = inner
        self.totals: Optional[dict] = None

    def on_write_start(self) -> None:
        self.inner.on_write_start()

    def write(self, blocks, ctx):
        blocks = list(blocks)  # the Lance sink calls next() on its input
        return self.inner.write(iter(blocks), ctx), _partial_sums(blocks)

    def on_write_complete(self, res: WriteResult) -> None:
        self.inner.on_write_complete(WriteResult(
            res.num_rows, res.size_bytes, [r for r, _ in res.write_returns]))
        self.totals = {k: sum(p[k] for _, p in res.write_returns) for k in METRIC_KEYS}

    def get_name(self) -> str:
        return self.inner.get_name()

    @property
    def supports_distributed_writes(self) -> bool:
        return self.inner.supports_distributed_writes

    @property
    def min_rows_per_write(self) -> Optional[int]:
        return self.inner.min_rows_per_write


def write_output(ds, out_dir: str, *,
                 partition_cols: Optional[list] = None) -> tuple[str, dict]:
    """Write a Dataset shard in one execution; returns the backend used
    ("lance"/"parquet") and the shard's metric totals (``METRIC_KEYS``).
    Safe to call from several threads at once.

    ``partition_cols`` hive-partitions the parquet fallback (north_rule:
    per-partition output directories keyed on the salted doc_id hash); the
    Lance path ignores it (fragments are Lance's own partition unit).
    Parquet writes disable dictionary encoding: mostly-unique text pages
    decode ~40x slower with it (measured round 1).
    """
    with _PATH_LOCK:
        if HAS_LANCE:
            backend, inner = "lance", LanceDatasink(out_dir)
        else:  # the sink Dataset.write_parquet builds, with its file names
            backend, inner = "parquet", ParquetDatasink(
                out_dir, partition_cols=partition_cols, dataset_uuid=ds._get_uuid(),
                arrow_parquet_args={"use_dictionary": False})
    ds.write_datasink(sink := MetricsSink(inner))
    return backend, sink.totals


def output_fragments(out_dir: str, backend: str) -> list[str]:
    """Fragment lineage of a written shard.

    Lance: real fragment ids from the dataset manifest.  Parquet: the
    written file names (file == fragment at this granularity).  A zero-row
    shard has no Lance commit, and Ray removes its empty parquet dir: [].
    """
    if backend == "lance" and HAS_LANCE and is_lance_dataset(out_dir):
        dataset = lance.dataset(out_dir)
        return [f"fragment:{frag.fragment_id}" for frag in dataset.get_fragments()]
    # walk: hive-partitioned shards keep files under partition_id=N/
    return sorted(
        os.path.relpath(os.path.join(root, f), out_dir)
        for root, _, names in os.walk(out_dir)
        for f in names if f.endswith((".parquet", ".lance")))
