"""The names the benchmark under ``perfbench/`` looks up in leadsel.

A deleted or renamed function would otherwise surface only in a
benchmark run. Building a tracer resolves every span target, and
``begin`` fails unless every required alias binding gets patched.
"""
from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_path():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_tracer_resolves_every_target_and_alias(perfbench_path):
    import spans
    from leadsel import exhaustive, harness

    tracer = spans.Tracer()
    tracer.begin(0)
    try:
        assert harness.solve_exhaustive is not exhaustive.solve_exhaustive
    finally:
        tracer.end()
    assert harness.solve_exhaustive is exhaustive.solve_exhaustive


def test_metrics_and_workloads_import(perfbench_path):
    # both import leadsel names at module level
    import metrics  # noqa: F401
    import workloads  # noqa: F401
