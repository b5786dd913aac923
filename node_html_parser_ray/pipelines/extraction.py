"""Flagship extraction pipeline: read -> parse/extract -> partitioned write.

Target equivalent of SURVEY.md §3.1: ``read_parquet`` (Lance in prod) ->
``map_batches(extract_batch, batch_format="pyarrow")`` -> partitioned write
with shard-granular checkpointing (state/manifest.py) and per-partition
metrics.  The pipeline is shuffle-free: spans are ordered *within* each row
(list column), so no sort/groupby touches the document stream; a shard's
metrics are summed from its write tasks' returns, never read back.

Shards run concurrently: a window of at most one shard execution per
cluster CPU keeps the cluster busy while a shard finishes its last, slowest
tasks.  Each shard commits its own manifest record as soon as its write
returns, so commits land in completion order and a crash loses only the
shards still in flight.  Windows were measured up to 4 (8 shards,
``num_cpus=4`` on a 4-vCPU VM: window 4 beat window 2 in 12 of 12 paired
runs, peak memory within 1%).  Larger windows are unmeasured: each
execution budgets CPUs and object-store memory as if it had the cluster to
itself.
"""
from __future__ import annotations

import os
import shutil
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import pyarrow.parquet as pq
import ray

from ..sources import lance_io
from ..stages.extract_stage import add_partition_column, make_extract_batch
from ..state.manifest import ShardManifest

__all__ = [
    "run_checkpointed", "rows_per_batch", "DEFAULT_BATCH_SIZE", "EXTRACT_BATCH_BYTES",
]

# Uncompressed input bytes per map_batches batch: each shard's rows per
# batch is this over the shard's bytes per row (rows_per_batch).  Heap
# bound: a task holds its input batch (~1x this), the Arrow-assembled html
# column while it becomes Python strings (~1x), and the strings, each
# released as its row is consumed (1x for ASCII, up to 4x for astral text
# in CPython's str), so size this x 3-6 x concurrency against the worker
# heap.  A row above the budget runs alone (1 row per batch).  The bytes
# per row are the shard's average, so a shard that mixes tiny and giant
# files gets the blended figure: its batches of giant rows hold
# proportionally more bytes than the budget.
EXTRACT_BATCH_BYTES = 1_310_720

# The benchmark's in-process replay batches by this many rows; also the
# rows per batch of a shard whose inputs have no parquet footer rows (a
# Lance dataset, or only empty files).
DEFAULT_BATCH_SIZE = 64


def rows_per_batch(files: list[str]) -> int:
    """Rows per extraction batch for a shard of ``files``:
    ``max(1, EXTRACT_BATCH_BYTES // bytes_per_row)``, with the shard's
    bytes per row summed from its parquet footers (row groups'
    ``total_byte_size`` over ``num_rows``; no data is read)."""
    rows = nbytes = 0
    for path in files:
        if lance_io.is_lance_dataset(path):
            continue
        meta = pq.read_metadata(path)
        rows += meta.num_rows
        nbytes += sum(
            meta.row_group(i).total_byte_size for i in range(meta.num_row_groups)
        )
    if not rows:
        return DEFAULT_BATCH_SIZE
    return max(1, EXTRACT_BATCH_BYTES // max(1, nbytes // rows))


def run_checkpointed(
    input_files: list[str],
    out_dir: str,
    shard_count: int = 8,
    partition_output: bool = False,
) -> dict:
    """Run the extraction over input files with shard-granular resume.

    Input files are grouped into ``shard_count`` shards.  Every committed
    shard's record is checked against its current files before any shard
    runs, then the pending shards run concurrently, at most one per cluster
    CPU at a time (one at a time on a cluster that reports less than one
    CPU).  Each shard is one dataset execution that commits its
    manifest entry with lineage metrics as soon as its write returns, so
    commits land in completion order.  If a shard fails, no further shard
    starts, the running ones finish and commit, and the first failure (in
    shard order) is raised.  Already-committed shards are skipped at the
    source scan.  Returns the run summary (shards run/skipped, in shard
    order, aggregate metrics, lineage, and each run shard's rows per
    batch).

    A shard's dataset reads its files (``lance_io.read_documents``) and maps
    ``make_extract_batch()``'s function over pyarrow batches of
    :func:`rows_per_batch` rows, with the reference's default
    ParsingOptions.
    ``partition_output=True`` additionally hash-partitions each shard's
    parquet output by the salted doc_id partition (north_rule clause:
    ``partition_id=N/`` hive directories for
    extract_stage.add_partition_column's 64 partitions, giant documents
    routed to its dedicated salt range).
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be at least 1, got {shard_count!r}")
    manifest = ShardManifest(out_dir)
    shards: list[list[str]] = [[] for _ in range(shard_count)]
    for i, path in enumerate(sorted(input_files)):
        shards[i % shard_count].append(path)

    skipped, pending = [], []
    for shard_id, files in enumerate(shards):
        # the completeness check runs BEFORE the empty-shard skip: a shard
        # that committed files which are no longer in the input set maps to
        # an EMPTY current file list, and skipping it early would silently
        # keep the removed files' metrics in totals/lineage (round-4
        # review) — it must hit the same resume-mismatch refusal
        if manifest.is_complete(shard_id):
            committed = manifest.read(shard_id).get("input_files", [])
            if sorted(committed) != sorted(files):
                # the input set or shard_count changed since the committed
                # run: skipping by id would silently drop the files now in
                # this shard (and double-process others) — refuse instead,
                # before any shard runs
                raise ValueError(
                    f"resume mismatch for shard {shard_id}: the committed "
                    f"record covers {len(committed)} input file(s) that "
                    "differ from the current shard assignment (input set or "
                    "shard_count changed). Resume requires the same inputs "
                    "and shard count; use a fresh output directory for a "
                    "re-sharded run."
                )
            skipped.append(shard_id)
        elif files:
            pending.append(shard_id)

    batch_rows = {s: rows_per_batch(shards[s]) for s in pending}

    def run_shard(shard_id: int) -> None:
        shard_out = os.path.join(out_dir, f"shard={shard_id:06d}")
        # Lance dataset dirs go through read_lance when available,
        # everything else read_parquet
        batch_size = batch_rows[shard_id]
        ds = lance_io.read_documents(shards[shard_id]).map_batches(
            make_extract_batch(), batch_format="pyarrow", batch_size=batch_size,
        )
        if partition_output:
            ds = ds.map_batches(
                add_partition_column, batch_format="pyarrow", batch_size=batch_size,
            )
        # overwrite any partial output from a crashed run (idempotent commit)
        if os.path.isdir(shard_out):
            shutil.rmtree(shard_out)
        backend, metrics = lance_io.write_output(
            ds, shard_out,
            partition_cols=["partition_id"] if partition_output else None,
        )
        metrics["n_invalid"] = metrics["n_docs"] - metrics["n_valid"]
        manifest.commit(
            shard_id, shards[shard_id], metrics["n_docs"], metrics,
            fragments=lance_io.output_fragments(shard_out, backend),
            backend=backend,
        )

    if pending:
        # a cluster may report no CPU yet (an autoscaling head with
        # num-cpus=0) or a fraction of one: the window is then 1
        cpus = int(ray.cluster_resources().get("CPU", 1))
        window = min(len(pending), max(1, cpus))
        with ThreadPoolExecutor(window) as pool:
            futures = [pool.submit(run_shard, s) for s in pending]
            wait(futures, return_when=FIRST_EXCEPTION)
            for f in futures:  # after a failure, start no further shard
                f.cancel()
        for f in futures:  # raises the first failure in shard order
            if not f.cancelled():
                f.result()

    lineage = manifest.lineage()
    total = {
        k: sum(r["metrics"].get(k, 0) for r in lineage)
        for k in ("n_docs", "n_valid", "n_invalid", "n_nodes", "n_fixups", "n_bytes", "n_spans")
    }
    return {"ran": pending, "skipped": skipped, "totals": total,
            "lineage": lineage, "rows_per_batch": batch_rows}
