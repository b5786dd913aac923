"""Flagship extraction pipeline: read -> parse/extract -> partitioned write.

Target equivalent of SURVEY.md §3.1: ``read_parquet`` (Lance in prod) ->
``map_batches(extract_batch, batch_format="pyarrow")`` -> partitioned write
with shard-granular checkpointing (state/manifest.py) and per-partition
metrics.  The pipeline is shuffle-free: spans are ordered *within* each row
(list column), so no sort/groupby touches the document stream; a shard's
metrics are summed from its write tasks' returns, never read back.
"""
from __future__ import annotations

import os
import shutil
from typing import Optional

from ..sources import lance_io
from ..stages.extract_stage import add_partition_column, make_extract_batch
from ..state.manifest import ShardManifest

__all__ = ["build_extraction_dataset", "run_checkpointed", "DEFAULT_BATCH_SIZE"]

# Modest batch size so a batch of multi-MB giant docs stays well under the
# object-store slice (SURVEY.md §4 memory row); Ray's dynamic block splitting
# handles the output side.  Heap multiplier (round-4 ADVICE): extract_batch
# assembles the whole batch's html strings before the per-doc loop and the
# ReDoS prescan makes one transient Arrow copy, so peak per-actor heap is
# ~2x the batch's html bytes during the prescan, dropping to ~1x in the
# loop (assembled strings are released as consumed).  Size batch_size x
# concurrency x 2 x max_doc_bytes against the worker heap.
DEFAULT_BATCH_SIZE = 64


def build_extraction_dataset(
    input_path,
    options: Optional[dict] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    num_partitions: int = 64,
    with_partition_column: bool = False,
):
    """Lazy Dataset: interleaved docs -> extracted spans (streaming)."""
    # same source routing as run_checkpointed: Lance dataset dirs go through
    # read_lance when available, everything else read_parquet
    ds = lance_io.read_documents(input_path)
    ds = ds.map_batches(
        make_extract_batch(options),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if with_partition_column:
        ds = ds.map_batches(
            lambda b: add_partition_column(b, num_partitions),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds


def run_checkpointed(
    input_files: list[str],
    out_dir: str,
    shard_count: int = 8,
    options: Optional[dict] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    partition_output: bool = False,
    num_partitions: int = 64,
) -> dict:
    """Run the extraction over input files with shard-granular resume.

    Input files are grouped into ``shard_count`` shards; each shard streams
    through the pipeline and commits a manifest entry with lineage metrics.
    Already-committed shards are skipped at the source scan.  Returns the
    run summary (shards run/skipped + aggregate metrics).

    ``partition_output=True`` additionally hash-partitions each shard's
    parquet output by the salted doc_id partition (north_rule clause:
    ``partition_id=N/`` hive directories, giant documents routed to the
    dedicated salt range — see extract_stage.add_partition_column).
    """
    manifest = ShardManifest(out_dir)
    shards: list[list[str]] = [[] for _ in range(shard_count)]
    for i, path in enumerate(sorted(input_files)):
        shards[i % shard_count].append(path)

    ran, skipped = [], []
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
                # this shard (and double-process others) — refuse instead
                raise ValueError(
                    f"resume mismatch for shard {shard_id}: the committed "
                    f"record covers {len(committed)} input file(s) that "
                    "differ from the current shard assignment (input set or "
                    "shard_count changed). Resume requires the same inputs "
                    "and shard count; use a fresh output directory for a "
                    "re-sharded run."
                )
            skipped.append(shard_id)
            continue
        if not files:
            continue
        shard_out = os.path.join(out_dir, f"shard={shard_id:06d}")
        ds = build_extraction_dataset(
            files, options, batch_size, num_partitions,
            with_partition_column=partition_output,
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
            shard_id, files, metrics["n_docs"], metrics,
            fragments=lance_io.output_fragments(shard_out, backend),
            backend=backend,
        )
        ran.append(shard_id)

    lineage = manifest.lineage()
    total = {
        k: sum(r["metrics"].get(k, 0) for r in lineage)
        for k in ("n_docs", "n_valid", "n_invalid", "n_nodes", "n_fixups", "n_bytes", "n_spans")
    }
    return {"ran": ran, "skipped": skipped, "totals": total, "lineage": lineage}
