"""Benchmark for the extraction engine: workloads, Ray session control and tracing.

Run it from the repository root::

    python3 perfbench/run.py --workload crawl_small --seed 1 --seconds 15 --trace 0
"""
