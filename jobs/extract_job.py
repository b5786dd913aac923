#!/usr/bin/env python
"""Cluster job entrypoint: checkpointed extraction via ``ray job submit``.

north_rule deployment shape:

    ray job submit --working-dir . -- \
        python jobs/extract_job.py --input /data/corpus --output /data/spans \
        --shards 256

On a cluster the driver attaches to the running Ray (``address="auto"``);
standalone it starts a local session.  The job is resumable: shards already
committed in the output manifest are skipped at the source scan, so
re-submitting after a failure finishes only the remaining shards
(state/manifest.py).  Each shard's batches are sized by bytes, not rows
(``EXTRACT_BATCH_BYTES`` over the shard's bytes per row).  Prints one JSON
line with totals and each run shard's rows per batch.

This file OWNS its Ray session (the library never calls ray.init).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True,
                        help="directory of parquet (or Lance) input files")
    parser.add_argument("--output", required=True,
                        help="output root (shard dirs + _manifest)")
    parser.add_argument("--shards", type=int, default=0,
                        help="shard count (0 = one per ~16 input files)")
    parser.add_argument("--partition-output", action="store_true",
                        help="hash-partition each shard's output by salted "
                             "doc_id (partition_id=N/ hive dirs)")
    parser.add_argument("--local-cpus", type=int, default=0,
                        help="standalone only: ray.init num_cpus (0 = all)")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        if os.environ.get("RAY_ADDRESS") not in (None, "", "local"):
            ray.init(address="auto")  # submitted into a running cluster
        else:
            ray.init(
                address="local",
                num_cpus=args.local_cpus or None,
                include_dashboard=False,
            )

    from node_html_parser_ray.pipelines.extraction import run_checkpointed

    from node_html_parser_ray.sources import lance_io

    if lance_io.is_lance_dataset(args.input):
        if not lance_io.HAS_LANCE:
            # without the wheel the parquet fallback would try to parse
            # .lance files as parquet and crash mid-job — refuse up front
            print(json.dumps({"error": "input is a Lance dataset but the "
                                       "lance package is not installed"}))
            sys.exit(2)
        # a Lance dataset runs as ONE shard: resume granularity is the whole
        # dataset (a crash restarts it), unlike the parquet path's
        # file-shard granularity.  Fragment-granular sharding needs the
        # lance fragment-scanner API and is the production follow-up; the
        # manifest already records output fragment ids per shard.
        files = [args.input]
    else:
        files = sorted(
            os.path.join(args.input, f)
            for f in os.listdir(args.input)
            if f.endswith(".parquet")
        )
    if not files:
        print(json.dumps({"error": f"no parquet files under {args.input}"}))
        sys.exit(2)
    shard_count = args.shards or max(1, len(files) // 16)

    t0 = time.perf_counter()
    result = run_checkpointed(
        files, args.output, shard_count=shard_count,
        partition_output=args.partition_output,
    )
    wall = time.perf_counter() - t0
    totals = result["totals"]
    # throughput covers only THIS invocation's work: totals span the full
    # manifest lineage (incl. shards committed by earlier runs), so dividing
    # them by this run's wall time would fabricate the headline on a resume
    ran_ids = set(result["ran"])
    ran_docs = sum(
        r["metrics"].get("n_docs", 0)
        for r in result["lineage"]
        if r["shard_id"] in ran_ids
    )
    print(json.dumps({
        "metric": "extract_job",
        "wall_sec": round(wall, 2),
        "n_input_files": len(files),
        "shards_ran": len(result["ran"]),
        "shards_skipped": len(result["skipped"]),
        "docs_this_run": ran_docs,
        "docs_per_sec": round(ran_docs / wall, 1) if wall else None,
        # rows per extraction batch, derived from each run shard's bytes
        # per row (pipelines.extraction.rows_per_batch)
        "rows_per_batch": result["rows_per_batch"],
        **totals,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
