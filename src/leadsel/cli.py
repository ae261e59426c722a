"""Command line surface.

Exit codes: 0 success, 1 IO failure, 2 usage error, 3 infeasible,
4 degenerate outcome (with --strict-outcome). The LEADSEL_SEED
environment variable supplies the seed when --seed is absent.
"""
from __future__ import annotations

import json
import math
import os
import sys

import click

from . import harness, model, protocol
from .counting import count_configs_distributed_bound, count_configs_exhaustive
from .exhaustive import (CONFIG_BUDGET, HARD_LIMIT, Infeasible, LimitExceeded,
                         solve_exhaustive)
from .model import check_constraints, feasibility_scan

EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_DEGENERATE = 4

# The exhaustive count at n = 1000 has 2,057 digits and takes about 2 s on
# a 2-core machine; from about n = 1,888 it has more than the 4,300 digits
# str() will print.
COUNT_MAX_N = 1000
# `gen` holds about N² bytes, one a score, over the 21 MB that the
# interpreter and the package take: at N = 3,000 it takes about 0.6 s CPU
# and 31 MB peak RSS in-process on the same machine, with or without
# --edge-server, and N = 20,000 would need about 420 MB.
# Each file it writes fits the input-file budget, model._INPUT_MAX_BYTES.
GEN_MAX_N = 3000
# `bench` solves each instance uncapacitated, so N stops where the exact
# search's configuration budget does (N = 13).
BENCH_MAX_N = max(n for n in range(1, HARD_LIMIT + 1)
                  if count_configs_exhaustive(n) <= CONFIG_BUDGET)


# Every click.echo names its stream. Left to pick one, click caches the
# stream in a WeakKeyDictionary whose value is the stream itself, so each
# sys.stdout or sys.stderr that an in-process caller swaps in for one call
# would stay alive for the life of the process.
def _fail(ctx, code: int, message: str, **extra):
    if ctx.find_root().params.get("json_errors"):
        payload = {"error": message, "exit_code": code, **extra}
        click.echo(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        click.echo(f"error: {message}", file=sys.stderr)
    ctx.exit(code)


def _seed_default(seed):
    if seed is not None:
        return seed
    env = os.environ.get("LEADSEL_SEED")
    return int(env) if env else 0


def _read(ctx, kind: str, load, path):
    try:
        return load(path)
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"cannot read {path}: {exc}")
    except model.InstanceFormatError as exc:
        _fail(ctx, EXIT_USAGE, f"bad {kind} file {path}: {exc}")


def _load_caps(ctx, path, inst: model.Instance):
    if path is None:
        return None
    raw = _read(ctx, "caps", model.read_json, path)
    if not isinstance(raw, dict):
        _fail(ctx, EXIT_USAGE, f"caps file {path} must map ue-id to limit")
    caps, keys = {}, {}
    for key, limit in raw.items():
        try:
            node = int(key)
        except ValueError:
            node = None
        if node not in inst.node_ids:
            _fail(ctx, EXIT_USAGE, f"caps file {path}: key {key!r} is not a "
                  f"node id of the instance ({inst.node_ids.start}..{inst.n})")
        if node in caps:
            _fail(ctx, EXIT_USAGE, f"caps file {path}: key {key!r} names "
                  f"node {node} again (first as {keys[node]!r})")
        caps[node] = limit
        keys[node] = key
    try:
        # diagnostics name a key as the file spells it
        model.check_caps(caps, lambda node: repr(keys[node]))
    except ValueError as exc:
        _fail(ctx, EXIT_USAGE, f"caps file {path}: {exc}")
    return caps


def _threshold(ctx, rho: float):
    """``--rho`` as an exact int when integral; it must be finite."""
    if not math.isfinite(rho):
        _fail(ctx, EXIT_USAGE, f"--rho must be a finite number, got {rho}")
    return int(rho) if rho.is_integer() else rho


class _Main(click.Group):
    """Under --json-errors, click's usage errors (a bad value, an unknown
    command or option) go through ``_fail`` too, with their exit code."""

    def parse_args(self, ctx, args):
        json_errors = "--json-errors" in args  # the parser consumes args
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            if not json_errors:
                raise
            ctx.params["json_errors"] = True  # the failed parse set no option
            _fail(ctx, exc.exit_code, exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            if not ctx.params.get("json_errors"):
                raise
            _fail(ctx, exc.exit_code, exc.format_message())


@click.group(cls=_Main)
@click.option("--json-errors", is_flag=True,
              help="Emit machine-readable JSON diagnostics on stderr.")
def main(json_errors):
    """Leader selection / follower association toolkit."""


@main.command()
@click.option("--n", type=click.IntRange(min=1, max=GEN_MAX_N),
              required=True, help="Number of regular UEs.")
@click.option("--seed", type=int, default=None, help="RNG seed.")
@click.option("--edge-server", is_flag=True,
              help="Attach node 0 with default scores.")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output instance JSON path.")
@click.pass_context
def gen(ctx, n, seed, edge_server, out):
    """Generate a uniform random instance."""
    edge = None
    if edge_server:
        edge = (model.DEFAULT_EDGE_LII, [model.DEFAULT_EDGE_LXI] * n)
    inst = model.generate_instance(n, _seed_default(seed), edge_server=edge)
    try:
        model.save_instance(inst, out)
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"cannot write {out}: {exc}")
    scan = feasibility_scan(inst, 0)
    click.echo(json.dumps({
        "written": out,
        "n": inst.n,
        "edge_server": inst.has_edge_server,
        "case1": scan.case1,
        "case2_isolated": sorted(scan.case2_isolated),
    }, sort_keys=True), file=sys.stdout)


@main.command()
@click.option("--rho", type=float, default=0.0, help="Leader threshold.")
@click.option("--mode", type=click.Choice(["strict", "relaxed"]),
              default="relaxed", show_default=True)
@click.option("--caps", "caps_path", type=click.Path(exists=False),
              default=None, help="JSON file mapping ue-id to follower limit.")
@click.argument("instance", type=click.Path())
@click.pass_context
def solve(ctx, rho, mode, caps_path, instance):
    """Solve an instance optimally by exhaustive search."""
    rho = _threshold(ctx, rho)
    inst = _read(ctx, "instance", model.load_instance, instance)
    caps = _load_caps(ctx, caps_path, inst)
    try:
        sol = solve_exhaustive(inst, rho, caps=caps, mode=mode)
    except Infeasible:
        scan = feasibility_scan(inst, rho)
        diagnosis = "Case 1" if scan.case1 else (
            "Case 2" if scan.case2_isolated else "no feasible leader set")
        _fail(ctx, EXIT_INFEASIBLE, f"infeasible: {diagnosis}",
              case1=scan.case1, case2_isolated=sorted(scan.case2_isolated))
    except LimitExceeded as exc:
        _fail(ctx, EXIT_USAGE, str(exc))
    result = sol.to_json_dict()
    rep = check_constraints(inst, sol.assignment, rho, caps=caps,
                            strict=(mode == "strict"))
    result["constraints"] = {
        "c1_ok": rep.c1_ok, "c2_ok": rep.c2_ok, "c3_ok": rep.c3_ok,
        "capacity_ok": rep.capacity_ok,
    }
    click.echo(json.dumps(result, sort_keys=True), file=sys.stdout)


@main.command()
@click.option("--rho", type=float, default=None, help="Leader threshold.")
@click.option("--rho-rule", type=click.Choice(["mean", "half_n"]), default=None,
              help="Derive the threshold from the instance instead.")
@click.option("--transport", type=click.Choice(["broadcast", "p2p"]),
              default="broadcast", show_default=True)
@click.option("--caps", "caps_path", type=click.Path(), default=None,
              help="JSON file mapping ue-id to follower limit.")
@click.option("--edge-server", is_flag=True,
              help="Enable the edge-server fallback (node 0).")
@click.option("--seed", type=int, default=None, help="Episode seed.")
@click.option("--log", "log_path", type=click.Path(dir_okay=False),
              default=None, help="Write the message log as JSON lines.")
@click.option("--strict-outcome", is_flag=True,
              help="Exit 4 when the episode ends with everyone isolated.")
@click.argument("instance", type=click.Path())
@click.pass_context
def simulate(ctx, rho, rho_rule, transport, caps_path, edge_server, seed,
             log_path, strict_outcome, instance):
    """Run one episode of the two-phase distributed protocol."""
    if (rho is None) == (rho_rule is None):
        _fail(ctx, EXIT_USAGE, "give exactly one of --rho or --rho-rule")
    if rho is not None:
        rho = _threshold(ctx, rho)
    inst = _read(ctx, "instance", model.load_instance, instance)
    caps = _load_caps(ctx, caps_path, inst)
    if rho_rule is not None:
        rho = harness.rho_rule(inst, rho_rule)
    cfg = protocol.ProtocolConfig(rho=rho, transport=transport, caps=caps,
                                  edge_server_policy=edge_server)
    outcome = protocol.run_episode(inst, cfg, _seed_default(seed))
    if log_path:
        try:
            outcome.write_log(log_path)
        except OSError as exc:
            _fail(ctx, EXIT_IO, f"cannot write {log_path}: {exc}")
    result = outcome.to_json_dict()
    result["rho"] = rho
    click.echo(json.dumps(result, sort_keys=True), file=sys.stdout)
    if strict_outcome and not outcome.assignment.leaders:
        _fail(ctx, EXIT_DEGENERATE,
              "degenerate outcome: no leader, every node isolated")


@main.command()
@click.option("--n", "n_values", type=click.IntRange(min=1, max=BENCH_MAX_N),
              multiple=True, required=True,
              help="Device count; repeat for a grid.")
@click.option("--instances", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--rho", "rho_values", type=int, multiple=True,
              default=tuple(range(10)), show_default=True)
@click.option("--transport", type=click.Choice(["broadcast", "p2p"]),
              default="broadcast", show_default=True)
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes; reports are identical for any count, "
              "timing columns aside.")
@click.option("--timing-reps", type=click.IntRange(min=1), default=3,
              show_default=True, help="Wall-clock repetitions per solver.")
@click.option("--out", type=click.Path(file_okay=False), required=True,
              help="Output directory for CSV, histograms and .dat files.")
@click.pass_context
def bench(ctx, n_values, instances, rho_values, transport, seed, jobs,
          timing_reps, out):
    """Benchmark the distributed protocol against the optimal solver."""
    cfg = harness.ExperimentConfig(
        n_values=tuple(n_values),
        instances_per_n=instances,
        rho_values=tuple(rho_values),
        master_seed=_seed_default(seed),
        modes=(transport,),
        timing_reps=timing_reps,
        jobs=jobs,
    )
    report = harness.run_benchmark(cfg)
    try:
        report.write(out)
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"cannot write to {out}: {exc}")
    click.echo(json.dumps({"written": out, "rows": len(report.rows)},
                          sort_keys=True), file=sys.stdout)


@main.command()
@click.option("--n", type=click.IntRange(min=1, max=COUNT_MAX_N),
              required=True, help="Device count.")
@click.option("--l", "l_value", type=click.IntRange(min=0), default=None,
              help="Candidate-leader set size for the distributed bound.")
@click.pass_context
def count(ctx, n, l_value):
    """Print configuration counts for the search strategies."""
    result = {"n": n, "exhaustive": str(count_configs_exhaustive(n))}
    if l_value is not None:
        if l_value > n:
            _fail(ctx, EXIT_USAGE, "--l cannot exceed --n")
        result["l"] = l_value
        result["distributed_bound"] = str(
            count_configs_distributed_bound(n, l_value))
    click.echo(json.dumps(result, sort_keys=True), file=sys.stdout)


if __name__ == "__main__":
    main()
