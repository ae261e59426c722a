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


def test_episode_attrs_read_a_capped_episode(perfbench_path):
    # the traced run annotates each episode from these outcome attributes
    import spans
    from leadsel import ProtocolConfig, generate_instance, run_episode
    from leadsel.protocol import FOLLOW_REQUEST, NACK

    inst = generate_instance(12, 1)
    cfg = ProtocolConfig(rho=5, caps={n: 0 for n in inst.ue_ids})
    outcome = run_episode(inst, cfg, 0)
    attrs = spans._episode_attrs((inst, cfg), {}, outcome)
    counts = outcome.message_counts

    def count(kind):
        return sum(k for (_, kd, _), k in counts.items() if kd == kind)

    assert attrs["nacks"] == count(NACK) > 0
    assert attrs["requests"] == count(FOLLOW_REQUEST)
    assert attrs["protocol_messages"] == outcome.protocol_messages
    assert attrs["messages"] == outcome.total_messages
    assert attrs["l"] == len(outcome.leader_set_phase1)


def test_episode_scale_runs_and_checks_one_op(perfbench_path, tmp_path):
    import workloads

    workload = workloads.EpisodeScale(0, True, str(tmp_path))
    workload.setup()
    inp = workload.prepare(0)
    out = workload.run(inp, None)
    assert isinstance(workload.check(inp, out), str)
