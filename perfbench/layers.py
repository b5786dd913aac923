"""Per-layer metrics of the traced run, and the end-to-end metric each
layer is predicted to move.

``LAYERS`` is written down before any measurement: a change to a layer
should move the named end-to-end metric on the workload where the layer
does most of the work, and leave the workload in the last column alone.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from .workloads import DomQueryWorkload, ExtractionWorkload

# (layer, its metrics, end-to-end metrics it moves, does most work in,
#  predicted ~no change)
LAYERS = [
    ("kernel.fast_extract",
     ["kernel.fast_extract.us_per_doc", "kernel.fast_extract.ns_per_byte"],
     "docs_per_s, html_mb_per_s", "giant_skew", "dom_query"),
    ("stages.extract_stage / kernel.extract",
     ["extract_stage.decode_us_per_doc", "extract_stage.prescan_us_per_doc",
      "extract_stage.build_us_per_doc", "kernel.extract.assemble_us_per_doc",
      "extract_stage.batch_ms.p50", "extract_stage.batch_ms.p90",
      "extract_stage.busy_s"],
     "docs_per_s", "crawl_small", "giant_skew"),
    ("pipelines.extraction + sources.lance_io",
     ["extraction.wall_s", "extraction.stage_busy_share", "extraction.rollup_s",
      "lance_io.write_output_s", "lance_io.bytes_written"],
     "docs_per_s", "crawl_small", "dom_query"),
    ("state.manifest",
     ["manifest.commit_ms", "manifest.lineage_ms", "manifest.commits"],
     "docs_per_s", "crawl_small", "dom_query"),
    ("kernel.parser / kernel.selector / stages.selector_stage / stages.flat_select",
     ["kernel.parser.us_per_doc", "kernel.parser.ns_per_byte",
      "selector_stage.busy_s", "selector_stage.actor_init_s",
      "selector_stage.columnar_selectors", "selector_stage.matches"],
     "docs_per_s", "dom_query", "crawl_small"),
    ("stages.classify",
     ["classify.busy_s", "classify.actor_init_s", "classify.content_blocks"],
     "docs_per_s", "dom_query", "giant_skew"),
    ("partitioning / kernel.redos_lane",
     ["extract_stage.partition_bytes_max_over_mean", "extract_stage.salted_docs",
      "redos_lane.calls", "redos_lane.bounded_out"],
     "peak_rss_mb, failed_ratio", "giant_skew", "crawl_small"),
]

UNITS = {
    "us_per_doc": "us", "ns_per_byte": "ns/B", "_ms": "ms", ".p50": "ms",
    ".p90": "ms", "_s": "s", "_share": "ratio", "bytes_written": "B",
    "max_over_mean": "ratio",
}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _per_job(spans: list[dict]) -> dict[str, list[float]]:
    """Span-derived values, one per traced job that ran the layer."""
    jobs = defaultdict(lambda: defaultdict(list))
    for s in spans:
        jobs[s["trace"]][s["name"]].append(s)
    out = defaultdict(list)
    for named in jobs.values():
        if "extraction.run_checkpointed" in named:
            wall = sum(map(_dur, named["extraction.run_checkpointed"]))
            busy = sum(map(_dur, named["extract_stage"]))
            writes = sorted(named["lance_io.write_output"], key=lambda s: s["start"])
            commits = sorted(named["manifest.commit"], key=lambda s: s["start"])
            out["extraction.wall_s"].append(wall)
            out["extract_stage.busy_s"].append(busy)
            out["extraction.stage_busy_share"].append(busy / wall)
            # between a shard's write and its commit: the shard's metrics
            # rollup (one more Ray Data pass) and listing its output files
            out["extraction.rollup_s"].append(
                sum(c["start"] - w["end"] for w, c in zip(writes, commits)))
            out["lance_io.write_output_s"].append(sum(map(_dur, writes)))
            out["manifest.commit_ms"].extend(1e3 * _dur(c) for c in commits)
            out["manifest.lineage_ms"].extend(
                1e3 * _dur(s) for s in named["manifest.lineage"])
            out["manifest.commits"].append(len(commits))
        for stage in ("selector_stage", "classify"):
            if stage in named:
                out[f"{stage}.busy_s"].append(sum(map(_dur, named[stage])))
                out[f"{stage}.actor_init_s"].extend(
                    map(_dur, named[f"{stage}.init"]))
    return out


def layer_metrics(spans, workload, traced, companion, other, kernel, meta) -> dict:
    """Every per-layer metric of ``LAYERS``, as ``{name: {value, unit}}``.

    ``traced`` are the workload's own traced jobs and ``other`` the one
    traced job of ``companion``, which runs the layers the workload does
    not.  ``kernel`` holds the in-process kernel costs."""
    values = {name: statistics.mean(v) for name, v in _per_job(spans).items()}
    batch_ms = [1e3 * _dur(s) for s in spans if s["name"] == "extract_stage"]
    pct = statistics.quantiles(batch_ms, n=10)
    values["extract_stage.batch_ms.p50"] = statistics.median(batch_ms)
    values["extract_stage.batch_ms.p90"] = pct[8]
    print(f"extract_stage batches timed: {len(batch_ms)}")

    jobs = {type(workload): traced, type(companion): [other]}
    extraction = jobs[ExtractionWorkload]
    dom = jobs[DomQueryWorkload]
    values["lance_io.bytes_written"] = statistics.median(
        r.counts["bytes_written"] for r in extraction)
    values["selector_stage.matches"] = statistics.median(r.counts["matches"] for r in dom)
    values["classify.content_blocks"] = statistics.median(
        r.counts["content_blocks"] for r in dom)
    dom_stage = workload if isinstance(workload, DomQueryWorkload) else companion
    values["selector_stage.columnar_selectors"] = dom_stage.columnar_selectors
    # every prescan-flagged document goes through the bounded lane once per
    # stage that parses it in one job of this workload
    values["redos_lane.calls"] = meta["prescan_flagged_docs"] * workload.stages_per_doc
    values["redos_lane.bounded_out"] = statistics.median(
        r.counts["bounded_out"] for r in traced)
    values.update(kernel)

    metrics = {}
    for layer, names, moves, most, none in LAYERS:
        print(f"{layer}: moves {moves}; most work in {most}; ~no change in {none}")
        for name in names:
            metrics[name] = {"value": values[name], "unit": _unit(name)}
            print(f"  {name} = {values[name]:.6g} {_unit(name)}")
    return metrics
