"""Shared pytest fixtures. Ray is initialised ONCE per session."""
from __future__ import annotations

import os

import pytest

FIXTURE_DIR = "/root/reference/test/html"
# small in-repo pages: the same parse-validity properties as the reference
# fixtures, checked wherever the suite runs
PAGES_DIR = os.path.join(os.path.dirname(__file__), "data")
SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            log_to_driver=False,
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def fixture_html():
    """Real-world fixture payloads (read-only pattern sources)."""
    out = {}
    if os.path.isdir(FIXTURE_DIR):
        for name in os.listdir(FIXTURE_DIR):
            with open(
                os.path.join(FIXTURE_DIR, name), encoding="utf-8", errors="replace"
            ) as f:
                out[name] = f.read()
    return out


@pytest.fixture(scope="session")
def page_html():
    """In-repo test pages (tests/data), keyed by file name."""
    out = {}
    for name in os.listdir(PAGES_DIR):
        with open(os.path.join(PAGES_DIR, name), encoding="utf-8") as f:
            out[name] = f.read()
    return out
