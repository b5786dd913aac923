"""Run one benchmark workload and print its metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload crawl_small --seed 1 --seconds 15 --trace 0

The load is a closed loop: one job at a time over the whole corpus, driven
from this process, repeated for about ``--seconds``.  Every job's
output is checked; on any mismatch the run prints what differed to stderr,
prints no metrics and exits with code 1.

Throughput is the documents (or HTML megabytes) of one job over the
median wall time of the run's timed jobs.  The failed ratio (missing rows
plus bounded-out documents, over the documents attempted) is printed with
its base; it is 0 on these corpora, so it is carried by the result's
``attempted`` and ``failed`` rather than as a metric.

Figures are not comparable with the ``BENCH_r0*.json`` files, which time
other queries on a 32-CPU session.  A session with one logical CPU hangs
(an actor-pool stage after ``read_parquet`` takes the only slot), so the
sessions here have two or four whatever the machine.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it prints the per-layer metrics and ``trace.overhead_share``,
and writes its spans to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")

# Set-up is ray.init plus one warm-up pass over the whole corpus: after a
# warm-up over a few dozen documents the first full job still ran 1.5-2x
# slower than the next ones.  An untraced run sets up this many sessions,
# reports the median set-up, and splits its timed jobs evenly over the
# sessions, so that no one session's job times decide the run.
SETUPS = 2


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _checked(results, what):
    """Print the mismatches of ``results`` and exit 1 when there are any."""
    bad = [m for r in results for m in r.mismatches]
    if bad:
        print(f"perfbench: {what} failed the correctness gate:", file=sys.stderr)
        for m in bad[:20]:
            print(f"  {m}", file=sys.stderr)
        sys.exit(1)


def _timed_jobs(workload, seconds):
    """Closed loop: run jobs back to back for about ``seconds``.  A job
    starts only if at least half of one still fits, so a run overshoots
    by at most half a job."""
    results = []
    deadline = time.monotonic() + seconds
    while not results or time.monotonic() + results[-1].wall_s / 2 < deadline:
        results.append(workload.job())
    return results


def run_untraced(args, session, workload, meta) -> dict:
    setups, results = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        session.start(workload.ray_cpus)
        workload.warm()
        setups.append(time.perf_counter() - start)
        results += _timed_jobs(workload, args.seconds / SETUPS)
        session.stop()
    _checked(results, args.workload)

    attempted = sum(r.docs for r in results)
    failed = sum(r.failed for r in results)
    walls = [r.wall_s for r in results]
    # the median job, so that a job slowed by the machine's other work
    # for a second or two does not move the run's figure
    wall = statistics.median(walls)
    print(f"jobs: {len(results)}  wall_s median {wall:.3f}  "
          f"each {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s runs: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} docs)")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "docs_per_s": _metric(meta["docs"] / wall, "1/s"),
            "html_mb_per_s": _metric(meta["html_mb"] / wall, "MB/s"),
            # the mean: a dom_query job's peak falls on one of two levels
            # some 10% apart, so a median of three flips between them
            "peak_rss_mb": _metric(statistics.mean(r.peak_mb for r in results), "MB"),
        },
    }


def run_traced(args, session, workload, companion, files, meta) -> dict:
    import ray

    from perfbench.kernels import kernel_costs
    from perfbench.layers import layer_metrics
    from perfbench.spans import SINK_NAME, LocalTracer, SpanSink, write_spans

    session.start(workload.ray_cpus)
    workload.warm()
    companion.warm()
    sink = SpanSink.options(name=SINK_NAME).remote()
    tracer = LocalTracer()
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    # traced and untraced jobs alternate, so both see the same machine load
    while not traced or time.monotonic() + traced[-1].wall_s < deadline:
        untraced.append(workload.job())
        tracer.trace += 1
        traced.append(workload.job(tracer))
    # the layers this workload does not run, traced once on the same corpus
    tracer.trace += 1
    other = companion.job(tracer)
    worker_spans = ray.get(sink.drain.remote())
    session.stop()
    _checked(untraced + traced + [other], args.workload)

    spans = tracer.spans + worker_spans
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    write_spans(os.path.join(STATE, "traces", f"{args.workload}-{args.seed}.jsonl"), spans)

    own = sum(r.docs for r in traced) / sum(r.wall_s for r in traced)
    base = sum(r.docs for r in untraced) / sum(r.wall_s for r in untraced)
    metrics = layer_metrics(spans, workload, traced, companion, other,
                            kernel_costs(files), meta)
    metrics["trace.overhead_share"] = _metric(own / base, "ratio")
    attempted = sum(r.docs for r in untraced + traced + [other])
    failed = sum(r.failed for r in untraced + traced + [other])
    print(f"traced jobs: {len(traced)}  untraced jobs: {len(untraced)}  "
          f"spans: {len(spans)}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} docs)")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "node_html_parser_ray")):
        print("perfbench: run from the repository root; the package "
              "node_html_parser_ray/ is not here", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    from perfbench.inputs import ensure_corpus, public_stats, sample_ids
    from perfbench.session import RaySession
    from perfbench.workloads import WORKLOADS

    corpus, kind = WORKLOADS[args.workload]
    files, meta = ensure_corpus(os.path.join(STATE, "cache"), corpus, args.seed)
    print("corpus: " + json.dumps(public_stats(meta)))
    work_dir = os.path.join(STATE, "work")
    sample = sample_ids(meta, args.seed)
    workload = kind(files, meta, work_dir, sample)
    session = RaySession(ROOT, STATE)
    try:
        if args.trace:
            companion_kind = next(k for c, k in WORKLOADS.values() if k is not kind)
            companion = companion_kind(files, meta, work_dir, sample)
            out = run_traced(args, session, workload, companion, files, meta)
        else:
            out = run_untraced(args, session, workload, meta)
    finally:
        session.stop()
    print(json.dumps({"correct": True, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
