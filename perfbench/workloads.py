"""The benchmark's jobs: what each workload runs, and how its output is checked.

A job is one closed-loop unit of work over the whole corpus.  Its timer
covers only the calls into the package; the output checks run after the
timer stops.  Every job's output is checked: rows out must equal docs in,
and a seeded sample must equal the in-process reference kernels.
"""
from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from node_html_parser_ray.kernel.extract import assemble_document, parse_and_extract
from node_html_parser_ray.pipelines.extraction import DEFAULT_BATCH_SIZE, run_checkpointed
from node_html_parser_ray.sources import lance_io
from node_html_parser_ray.stages.classify import BoilerplateClassifier, classify_document
from node_html_parser_ray.stages.selector_stage import SelectorStage, select_document

from .session import PeakMemory
from .spans import TracedActor

SHARDS = 2
SELECTORS = ["div.c", "img", "section p", '[src^="/img/"]', "div.c img, .missing"]
# BoilerplateClassifier's defaults, passed explicitly to the in-process check
MIN_TEXT_LEN, MAX_LINK_DENSITY = 25, 0.5


@dataclass
class JobResult:
    wall_s: float
    peak_mb: float
    docs: int
    failed: int
    mismatches: list[str]
    counts: dict = field(default_factory=dict)


def _sample_rows(files: list[str], ids: list[str]) -> dict[str, list[dict]]:
    table = pq.read_table(files, filters=[("doc_id", "in", ids)])
    return {r["doc_id"]: r["spans"] or [] for r in table.to_pylist()}


def _assembled(spans: list[dict]) -> str:
    return assemble_document(
        [s["kind"] for s in spans], [s["text"] for s in spans],
        [s["media_ref"] for s in spans], [s["offset"] for s in spans],
    )[0]


class ExtractionWorkload:
    """``run_checkpointed`` over the corpus: parquet output, manifest commits."""

    stages_per_doc = 1
    # Logical CPUs of the session.  With one, an actor-pool stage after
    # ``read_parquet`` holds the only slot and the read task never schedules.
    # With four, this job's parallel tasks contend with whatever else the
    # machine runs: on a four-core machine shared with other work, giant_skew
    # docs/s spread by 24% (quartile distance over median, five seeds)
    # against 15% with two.
    ray_cpus = 2

    def __init__(self, files: list[str], meta: dict, work_dir: str,
                 sample: list[str]) -> None:
        self.files, self.meta, self.work_dir = files, meta, work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.expected = {}
        for did, spans in _sample_rows(files, sample).items():
            got, _, _ = parse_and_extract(
                [s["kind"] for s in spans], [s["text"] for s in spans],
                [s["media_ref"] for s in spans], [s["offset"] for s in spans],
            )
            self.expected[did] = [list(s) for s in got]

    def warm(self) -> None:
        """One unchecked pass over the corpus."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        run_checkpointed(self.files, self.out_dir, shard_count=SHARDS)
        shutil.rmtree(self.out_dir)

    def job(self, tracer=None) -> JobResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with PeakMemory() as mem:
            start = time.perf_counter()
            if tracer is None:
                run_checkpointed(self.files, self.out_dir, shard_count=SHARDS)
            else:
                with tracer.instrument_extraction(), \
                        tracer.span("extraction.run_checkpointed"):
                    run_checkpointed(self.files, self.out_dir, shard_count=SHARDS)
            wall = time.perf_counter() - start
        result = self._check(wall, mem.peak_mb)
        shutil.rmtree(self.out_dir)
        return result

    def _check(self, wall: float, peak_mb: float) -> JobResult:
        docs = self.meta["docs"]
        table = pq.read_table(self.out_dir, columns=["doc_id", "metrics"])
        metrics = table.column("metrics").combine_chunks()
        bounded_out = pc.sum(pc.and_(
            pc.greater(metrics.field("n_bytes"), 0),
            pc.equal(metrics.field("n_nodes"), 0),
        )).as_py() or 0
        distinct = pc.count_distinct(table.column("doc_id")).as_py()
        mismatches = []
        if table.num_rows != docs or distinct != docs:
            mismatches.append(f"{table.num_rows} rows ({distinct} distinct) "
                              f"out for {docs} docs in")
        got = pq.read_table(self.out_dir, columns=["doc_id", "spans", "metrics"],
                            filters=[("doc_id", "in", list(self.expected))])
        rows = {r["doc_id"]: r for r in got.to_pylist()}
        for did, want in self.expected.items():
            row = rows.get(did)
            if row is None:
                mismatches.append(f"{did}: missing from output")
                continue
            m = row["metrics"]
            if m["n_bytes"] > 0 and m["n_nodes"] == 0:
                continue  # bounded out: counted in failed, not compared
            spans = [[s["kind"], s["text"], s["media_ref"], s["order"]]
                     for s in row["spans"]]
            if spans != want:
                mismatches.append(f"{did}: spans differ from parse_and_extract")
        written = 0
        for root, dirs, names in os.walk(self.out_dir):
            dirs[:] = [d for d in dirs if not d.startswith("_")]
            written += sum(os.path.getsize(os.path.join(root, n)) for n in names)
        return JobResult(
            wall, peak_mb, docs, max(0, docs - distinct) + bounded_out,
            mismatches, {"bounded_out": bounded_out, "bytes_written": written},
        )


def _reduce(batch: pa.Table, sample: list[str], count: str, keep: list[str]) -> pa.Table:
    """Stage rows -> one row: row count, total of ``count`` (sentinels
    excluded), the doc ids whose ``count`` is the bounded-out sentinel -1,
    and the sampled docs' ``keep`` columns."""
    n = batch.column(count)
    ids = batch.column("doc_id")
    picked = batch.filter(pc.is_in(ids, value_set=pa.array(sample)))
    return pa.Table.from_pylist([{
        "rows": batch.num_rows,
        "total": pc.sum(pc.max_element_wise(n, 0)).as_py() or 0,
        "bounded_out": json.dumps(pc.unique(ids.filter(pc.equal(n, -1))).to_pylist()),
        "sample": json.dumps(picked.select(keep).to_pylist()),
    }])


def reduce_selector(batch: pa.Table, sample: list[str]) -> pa.Table:
    return _reduce(batch, sample, "n_matches", ["doc_id", "selector", "n_matches"])


def reduce_classify(batch: pa.Table, sample: list[str]) -> pa.Table:
    return _reduce(batch, sample, "n_content_blocks",
                   ["doc_id", "n_content_blocks", "n_boilerplate_blocks"])


class DomQueryWorkload:
    """Read-only: ``SelectorStage`` (count-only) and then
    ``BoilerplateClassifier`` actor pools over the corpus, reduced to counts."""

    stages_per_doc = 2
    # With two logical CPUs the actor and the read and reduce tasks queue
    # for the slots: jobs took 3.3-6.9 s instead of 3.1-4.2 s with four.
    ray_cpus = 4

    def __init__(self, files: list[str], meta: dict, work_dir: str,
                 sample: list[str]) -> None:
        self.files, self.meta, self.sample = files, meta, sample
        self.expected_sel, self.expected_cls = {}, {}
        for did, spans in _sample_rows(files, sample).items():
            html = _assembled(spans)
            for sel, (n, _) in zip(SELECTORS, select_document(html, SELECTORS, None, False)):
                self.expected_sel[(did, sel)] = n
            _, n_content, n_boiler = classify_document(
                html, None, MIN_TEXT_LEN, MAX_LINK_DENSITY)
            self.expected_cls[did] = (n_content, n_boiler)
        self.columnar_selectors = len(SelectorStage(SELECTORS, emit_text=False).columnar)

    def _pass(self, files, stage, args, kwargs, layer, reducer, tracer):
        if tracer is not None:
            stage, args, kwargs = TracedActor, (
                stage, args, kwargs, layer, tracer.trace, "dom_query.job"), {}
        parts = (
            lance_io.read_documents(files)
            .map_batches(stage, fn_constructor_args=args,
                         fn_constructor_kwargs=kwargs, concurrency=1,
                         batch_size=DEFAULT_BATCH_SIZE, batch_format="pyarrow")
            .map_batches(reducer, fn_kwargs={"sample": self.sample},
                         batch_format="pyarrow")
            .take_all()
        )
        return {
            "rows": sum(p["rows"] for p in parts),
            "total": sum(p["total"] for p in parts),
            "bounded_out": {d for p in parts for d in json.loads(p["bounded_out"])},
            "sample": [r for p in parts for r in json.loads(p["sample"])],
        }

    def _run(self, files, tracer=None):
        sel = self._pass(files, SelectorStage, (SELECTORS,), {"emit_text": False},
                         "selector_stage", reduce_selector, tracer)
        cls = self._pass(files, BoilerplateClassifier, (),
                         {"min_text_len": MIN_TEXT_LEN,
                          "max_link_density": MAX_LINK_DENSITY},
                         "classify", reduce_classify, tracer)
        return sel, cls

    def warm(self) -> None:
        """One unchecked pass over the corpus."""
        self._run(self.files)

    def job(self, tracer=None) -> JobResult:
        with PeakMemory() as mem:
            start = time.perf_counter()
            if tracer is None:
                sel, cls = self._run(self.files)
            else:
                with tracer.span("dom_query.job"):
                    sel, cls = self._run(self.files, tracer)
            wall = time.perf_counter() - start
        docs = self.meta["docs"]
        mismatches = []
        if sel["rows"] != docs * len(SELECTORS):
            mismatches.append(f"{sel['rows']} selector rows out for {docs} docs "
                              f"x {len(SELECTORS)} selectors in")
        if cls["rows"] != docs:
            mismatches.append(f"{cls['rows']} classifier rows out for {docs} docs in")
        bounded = sel["bounded_out"] | cls["bounded_out"]
        got_sel = {(r["doc_id"], r["selector"]): r["n_matches"] for r in sel["sample"]}
        for key, want in self.expected_sel.items():
            if key[0] not in bounded and got_sel.get(key) != want:
                mismatches.append(f"{key}: {got_sel.get(key)} matches, "
                                  f"select_document gives {want}")
        got_cls = {r["doc_id"]: (r["n_content_blocks"], r["n_boilerplate_blocks"])
                   for r in cls["sample"]}
        for did, want in self.expected_cls.items():
            if did not in bounded and got_cls.get(did) != want:
                mismatches.append(f"{did}: blocks {got_cls.get(did)}, "
                                  f"classify_document gives {want}")
        missing = max(docs - sel["rows"] // len(SELECTORS), docs - cls["rows"], 0)
        return JobResult(
            wall, mem.peak_mb, docs, missing + len(bounded), mismatches,
            {"bounded_out": len(bounded), "matches": sel["total"],
             "content_blocks": cls["total"]},
        )


# workload -> (corpus, job runner)
WORKLOADS = {
    "crawl_small": ("crawl", ExtractionWorkload),
    "giant_skew": ("giant", ExtractionWorkload),
    "dom_query": ("small", DomQueryWorkload),
}
