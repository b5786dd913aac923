"""Spans for the traced run, recorded only around calls into the package.

Calls made in this process (``run_checkpointed``, ``lance_io.write_output``,
``ShardManifest.commit`` / ``lineage``) are wrapped at run time by patching
the attributes the package looks them up through.  Stage code on Ray
workers is traced by wrapping the callable handed to ``map_batches``; each
batch span is sent to a ``SpanSink`` actor before the batch returns, so a
job's spans are all in the sink when the job ends.  Spans stay in memory
and are written out once, when the run ends.

A span is a dict: ``name``, ``trace`` (the job it belongs to), ``parent``
(the name of the span that caused it), ``start`` / ``end`` in seconds of
the machine-wide monotonic clock, and counts such as ``docs``.
"""
from __future__ import annotations

import contextlib
import json
import time

import ray

SINK_NAME = "perfbench-spans"


@ray.remote(num_cpus=0)
class SpanSink:
    """Collects spans sent from Ray workers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, spans: list[dict]) -> None:
        self.spans.extend(spans)

    def drain(self) -> list[dict]:
        out, self.spans = self.spans, []
        return out


def _send(span: dict) -> None:
    ray.get(ray.get_actor(SINK_NAME).add.remote([span]))


class TracedBatchFn:
    """A ``map_batches`` function that records one span per batch."""

    def __init__(self, fn, layer: str, trace: int, parent: str) -> None:
        self.fn, self.layer, self.trace, self.parent = fn, layer, trace, parent

    def __call__(self, batch):
        start = time.monotonic()
        out = self.fn(batch)
        # waiting for the sink keeps the span ahead of the batch's result
        _send({"name": self.layer, "trace": self.trace, "parent": self.parent,
               "start": start, "end": time.monotonic(), "docs": len(batch)})
        return out


class TracedActor:
    """A ``map_batches`` callable class wrapping a stage class: one span
    for the stage's constructor and one per batch."""

    def __init__(self, cls, args: tuple, kwargs: dict, layer: str,
                 trace: int, parent: str) -> None:
        start = time.monotonic()
        inner = cls(*args, **kwargs)
        _send({"name": f"{layer}.init", "trace": trace, "parent": parent,
               "start": start, "end": time.monotonic(), "docs": 0})
        self.fn = TracedBatchFn(inner, layer, trace, parent)

    def __call__(self, batch):
        return self.fn(batch)


class LocalTracer:
    """Spans of the calls made in this process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace = -1

    def wrap(self, fn, name: str, parent: str):
        def traced(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append({"name": name, "trace": self.trace,
                                   "parent": parent, "start": start,
                                   "end": time.monotonic()})
        return traced

    @contextlib.contextmanager
    def span(self, name: str, parent: str = "", **counts):
        start = time.monotonic()
        try:
            yield
        finally:
            self.spans.append({"name": name, "trace": self.trace,
                               "parent": parent, "start": start,
                               "end": time.monotonic(), **counts})

    @contextlib.contextmanager
    def instrument_extraction(self):
        """Patch the extraction pipeline's in-process calls and its
        ``map_batches`` function for the duration of the block."""
        from node_html_parser_ray.pipelines import extraction
        from node_html_parser_ray.sources import lance_io
        from node_html_parser_ray.state.manifest import ShardManifest

        parent = "extraction.run_checkpointed"
        saved = [
            (lance_io, "write_output", lance_io.write_output),
            (ShardManifest, "commit", ShardManifest.commit),
            (ShardManifest, "lineage", ShardManifest.lineage),
            (extraction, "make_extract_batch", extraction.make_extract_batch),
        ]
        make = extraction.make_extract_batch
        lance_io.write_output = self.wrap(lance_io.write_output,
                                          "lance_io.write_output", parent)
        ShardManifest.commit = self.wrap(ShardManifest.commit,
                                         "manifest.commit", parent)
        ShardManifest.lineage = self.wrap(ShardManifest.lineage,
                                          "manifest.lineage", parent)
        extraction.make_extract_batch = lambda options=None: TracedBatchFn(
            make(options), "extract_stage", self.trace, "lance_io.write_output")
        try:
            yield
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)


def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: s["start"]):
            f.write(json.dumps(s) + "\n")
