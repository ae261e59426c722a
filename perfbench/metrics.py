"""Metric names, units and the arithmetic that turns samples into metrics."""
from __future__ import annotations

import math
import statistics

from leadsel.counting import count_configs_exhaustive
from leadsel.harness import broadcast_bound, p2p_bound
from leadsel.protocol import BROADCAST

from spans import ATTRS, END, NAME, OP, START, nearest_ancestor, self_times

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("exhaustive.solve_ms.uncapacitated", "ms"),
    ("exhaustive.configs_visited", "count"),
    ("exhaustive.visited_per_s", "1/s"),
    ("exhaustive.visited_ratio", "ratio"),
    ("exhaustive.solve_ms.capacitated", "ms"),
    ("exhaustive.configs_visited.capacitated", "count"),
    ("protocol.run_episode_ms.broadcast", "ms"),
    ("protocol.run_episode_ms.p2p", "ms"),
    ("protocol.run_episode_ms.capacitated", "ms"),
    ("protocol.simulate_protocol_ms", "ms"),
    ("protocol.run_fallback_process_ms", "ms"),
    ("protocol.messages_per_episode", "count"),
    ("protocol.messages_per_s", "1/s"),
    ("protocol.bound_ratio", "ratio"),
    ("protocol.nack_ratio", "ratio"),
    ("protocol.write_log_ms", "ms"),
    ("model.generate_instance_ms", "ms"),
    ("model.lxi_row_ms_per_episode", "ms"),
    ("model.load_instance_ms", "ms"),
    ("harness.run_benchmark_self_ms", "ms"),
    ("harness.solve_calls_per_instance", "count"),
    ("harness.episode_calls_per_instance", "count"),
    ("harness.report_write_ms", "ms"),
    ("cli.self_ms.gen", "ms"),
    ("cli.self_ms.simulate", "ms"),
    ("cli.self_ms.solve", "ms"),
    ("cli.nonzero_exits", "count"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)


# The latency tail is one fixed percentile, so that runs with more or fewer
# ops compare like with like. p90 is the highest with at least 10 samples
# beyond it in a 35 s run of paper_grid and cli_roundtrip (about 230 and 200
# ops when the benchmark was defined). episode_scale runs about 14 ops, too
# few for that rule; there p90 has one sample beyond it, which still keeps
# it off the maximum, a statistic that grows with the op count.
TAIL_PERCENTILE = 90.0


def tail(samples, percentile: float = TAIL_PERCENTILE) -> tuple:
    """(value, samples beyond it) of the nearest-rank ``percentile``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(spans, n_ops: int, nonzero_exits: int,
              overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the spans of the timed ops (op ids are ints).

    Instance generation also counts spans from set-up, where
    ``episode_scale`` makes its inputs.
    """
    own = self_times(spans)
    timed = [i for i, r in enumerate(spans) if isinstance(r[OP], int)]
    by_name: dict = {}
    for i in timed:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_ms(idx):
        return _mean(dur(i) for i in idx) * 1e3

    def attr(i, key):
        return spans[i][ATTRS][key]

    solves = by_name.get("exhaustive.solve_exhaustive", [])
    uncap = [i for i in solves if not attr(i, "caps")]
    cap = [i for i in solves if attr(i, "caps")]
    episodes = by_name.get("protocol.run_episode", [])
    ep_uncap = [i for i in episodes if not attr(i, "caps")]
    ep_cap = [i for i in episodes if attr(i, "caps")]

    bound_ratios = []
    for i in ep_uncap:
        bound = (broadcast_bound if attr(i, "transport") == BROADCAST
                 else p2p_bound)(attr(i, "n"), attr(i, "l"))
        bound_ratios.append(attr(i, "protocol_messages") / bound)

    in_episode = nearest_ancestor(spans, "protocol.run_episode")
    lxi_in_episode = sum(dur(i) for i in by_name.get("model.lxi_row", [])
                         if in_episode[i] is not None)
    in_bench = nearest_ancestor(spans, "harness.run_benchmark")

    def under_bench(name):
        return sum(1 for i in by_name.get(name, []) if in_bench[i] is not None)

    generated = [i for i, r in enumerate(spans)
                 if r[NAME] == "model.generate_instance"
                 and (isinstance(r[OP], int) or r[OP] == "setup")]
    instances = under_bench("model.generate_instance")

    m = {
        "exhaustive.solve_ms.uncapacitated": mean_ms(uncap),
        "exhaustive.configs_visited": _mean(attr(i, "visited") for i in uncap),
        "exhaustive.visited_per_s": _ratio(
            sum(attr(i, "visited") for i in uncap), sum(dur(i) for i in uncap)),
        "exhaustive.visited_ratio": _mean(
            attr(i, "visited") / count_configs_exhaustive(attr(i, "nodes"))
            for i in uncap),
        "exhaustive.solve_ms.capacitated": mean_ms(cap),
        "exhaustive.configs_visited.capacitated": _mean(
            attr(i, "visited") for i in cap),
        "protocol.run_episode_ms.broadcast": mean_ms(
            i for i in ep_uncap if attr(i, "transport") == BROADCAST),
        "protocol.run_episode_ms.p2p": mean_ms(
            i for i in ep_uncap if attr(i, "transport") != BROADCAST),
        "protocol.run_episode_ms.capacitated": mean_ms(ep_cap),
        "protocol.simulate_protocol_ms": mean_ms(
            by_name.get("protocol.simulate_protocol", [])),
        "protocol.run_fallback_process_ms": mean_ms(
            by_name.get("protocol.run_fallback_process", [])),
        "protocol.messages_per_episode": _mean(
            attr(i, "messages") for i in episodes),
        "protocol.messages_per_s": _ratio(
            sum(attr(i, "messages") for i in episodes),
            sum(dur(i) for i in episodes)),
        "protocol.bound_ratio": _mean(bound_ratios),
        "protocol.nack_ratio": _ratio(sum(attr(i, "nacks") for i in ep_cap),
                                      sum(attr(i, "requests") for i in ep_cap)),
        "protocol.write_log_ms": mean_ms(by_name.get("protocol.write_log", [])),
        "model.generate_instance_ms": mean_ms(generated),
        "model.lxi_row_ms_per_episode": _ratio(lxi_in_episode * 1e3,
                                               len(episodes)),
        "model.load_instance_ms": mean_ms(by_name.get("model.load_instance", [])),
        "harness.run_benchmark_self_ms": _mean(
            own[i] for i in by_name.get("harness.run_benchmark", [])) * 1e3,
        "harness.solve_calls_per_instance": _ratio(
            under_bench("exhaustive.solve_exhaustive"), instances),
        "harness.episode_calls_per_instance": _ratio(
            under_bench("protocol.run_episode"), instances),
        "harness.report_write_ms": mean_ms(by_name.get("harness.report_write", [])),
        "cli.nonzero_exits": nonzero_exits,
        "trace.overhead_ms_per_op": _ratio(overhead_s * 1e3, n_ops),
        "trace.overhead_pct": _ratio(overhead_s * 100.0, untraced_s),
        "trace.spans_per_op": _ratio(len(timed), n_ops),
    }
    for command in ("gen", "simulate", "solve"):
        m[f"cli.self_ms.{command}"] = _mean(
            own[i] for i in by_name.get(f"cli.{command}", [])) * 1e3
    return m
