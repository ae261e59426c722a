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
from .exhaustive import Infeasible, LimitExceeded, solve_exhaustive
from .model import check_constraints, feasibility_scan

EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_DEGENERATE = 4


def _fail(ctx, code: int, message: str, **extra):
    if ctx.obj and ctx.obj.get("json_errors"):
        payload = {"error": message, "exit_code": code, **extra}
        click.echo(json.dumps(payload, sort_keys=True), err=True)
    else:
        click.echo(f"error: {message}", err=True)
    ctx.exit(code)


def _seed_default(seed):
    if seed is not None:
        return seed
    env = os.environ.get("LEADSEL_SEED")
    return int(env) if env else 0


def _load_instance(ctx, path) -> model.Instance:
    try:
        return model.load_instance(path)
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"cannot read {path}: {exc}")
    except model.InstanceFormatError as exc:
        _fail(ctx, EXIT_USAGE, f"bad instance file {path}: {exc}")


def _load_caps(ctx, path, inst: model.Instance):
    if path is None:
        return None
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(ctx, EXIT_USAGE, f"bad caps file {path}: {exc}")
    if not isinstance(raw, dict):
        _fail(ctx, EXIT_USAGE, f"caps file {path} must map ue-id to limit")
    caps = {}
    for key, limit in raw.items():
        try:
            node = int(key)
        except ValueError:
            node = None
        if node not in inst.node_ids:
            _fail(ctx, EXIT_USAGE, f"caps file {path}: key {key!r} is not a "
                  f"node id of the instance ({inst.node_ids.start}..{inst.n})")
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            _fail(ctx, EXIT_USAGE, f"caps file {path}: key {key!r}: limit must "
                  f"be a non-negative integer, got {limit!r}")
        caps[node] = limit
    return caps


def _threshold(ctx, rho: float):
    """``--rho`` as an exact int when integral; it must be finite."""
    if not math.isfinite(rho):
        _fail(ctx, EXIT_USAGE, f"--rho must be a finite number, got {rho}")
    return int(rho) if rho.is_integer() else rho


@click.group()
@click.option("--json-errors", is_flag=True,
              help="Emit machine-readable JSON diagnostics on stderr.")
@click.pass_context
def main(ctx, json_errors):
    """Leader selection / follower association toolkit."""
    ctx.obj = {"json_errors": json_errors}


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Number of regular UEs.")
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
    }, sort_keys=True))


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
    inst = _load_instance(ctx, instance)
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
    click.echo(json.dumps(result, sort_keys=True))


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
    inst = _load_instance(ctx, instance)
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
    click.echo(json.dumps(result, sort_keys=True))
    if strict_outcome and not outcome.assignment.leaders:
        ctx.exit(EXIT_DEGENERATE)


@main.command()
@click.option("--n", "n_values", type=int, multiple=True, required=True,
              help="Device count; repeat for a grid.")
@click.option("--instances", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--rho", "rho_values", type=int, multiple=True,
              default=tuple(range(10)), show_default=True)
@click.option("--transport", type=click.Choice(["broadcast", "p2p"]),
              default="broadcast", show_default=True)
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes; 1 keeps timing columns bit-stable.")
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
                          sort_keys=True))


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
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
    click.echo(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
