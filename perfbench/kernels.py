"""In-process pass over the corpus batches: per-document kernel costs.

The traced run cannot time the kernels inside a Ray worker without
changing the package, so it replays the same batches in this process,
timing each step of ``extract_batch`` through the public functions it is
built from.  The pass also runs ``add_partition_column`` for the partition
skew counts.  It runs after the Ray session has stopped, on an idle core.
"""
from __future__ import annotations

import time

import pyarrow.parquet as pq

from node_html_parser_ray.kernel.extract import assemble_document
from node_html_parser_ray.kernel.fast_extract import extract_spans_into
from node_html_parser_ray.kernel.parser import ParseMetrics, parse
from node_html_parser_ray.pipelines.extraction import DEFAULT_BATCH_SIZE
from node_html_parser_ray.stages.extract_stage import (
    add_partition_column,
    decode_spans_batch,
    extract_batch,
    parse_timeout,
    prescan_flags,
)

NUM_PARTITIONS = 64  # run_checkpointed's default partition count


def kernel_costs(files: list[str]) -> dict[str, float]:
    """Per-layer kernel metrics over every batch of ``files``."""
    clock = time.perf_counter
    spent = dict.fromkeys(("decode", "assemble", "prescan", "fast", "batch", "parse"), 0.0)
    docs = chars = salted = 0
    part_bytes: dict[int, int] = dict.fromkeys(range(NUM_PARTITIONS), 0)
    timeout = parse_timeout()
    for path in files:
        table = pq.read_table(path)
        for off in range(0, table.num_rows, DEFAULT_BATCH_SIZE):
            batch = table.slice(off, DEFAULT_BATCH_SIZE)
            t0 = clock()
            rows, kinds, texts, refs, offsets = decode_spans_batch(batch)
            t1 = clock()
            assembled = [
                assemble_document(kinds[lo:hi], texts[lo:hi], refs[lo:hi], offsets[lo:hi])
                for lo, hi in zip(rows[:-1], rows[1:])
            ]
            t2 = clock()
            htmls = [html for html, _ in assembled]
            prescan_flags(htmls, timeout)
            t3 = clock()
            for html, media_map in assembled:
                extract_spans_into(html, media_map, None, ParseMetrics(), [], [], [])
            t4 = clock()
            extract_batch(batch)
            t5 = clock()
            for html in htmls:
                parse(html)
            t6 = clock()
            for key, t in zip(spent, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
                spent[key] += t
            docs += batch.num_rows
            chars += sum(map(len, htmls))
            pids = add_partition_column(batch, NUM_PARTITIONS).column("partition_id")
            for pid, html in zip(pids.to_pylist(), htmls):
                part_bytes[pid] = part_bytes.get(pid, 0) + len(html)
                salted += pid >= NUM_PARTITIONS
    us, ns = 1e6 / docs, 1e9 / chars
    parts = list(part_bytes.values())
    steps = spent["decode"] + spent["assemble"] + spent["prescan"] + spent["fast"]
    return {
        "kernel.fast_extract.us_per_doc": spent["fast"] * us,
        "kernel.fast_extract.ns_per_byte": spent["fast"] * ns,
        "kernel.extract.assemble_us_per_doc": spent["assemble"] * us,
        "extract_stage.decode_us_per_doc": spent["decode"] * us,
        "extract_stage.prescan_us_per_doc": spent["prescan"] * us,
        # what extract_batch spends beyond its steps: building the output
        "extract_stage.build_us_per_doc": max(0.0, spent["batch"] - steps) * us,
        "kernel.parser.us_per_doc": spent["parse"] * us,
        "kernel.parser.ns_per_byte": spent["parse"] * ns,
        "extract_stage.partition_bytes_max_over_mean":
            max(parts) / (sum(parts) / len(parts)),
        "extract_stage.salted_docs": salted,
    }
