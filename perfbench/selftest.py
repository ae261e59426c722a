"""Self-tests for the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

1. Each workload's checker accepts a correct op and rejects deliberately
   corrupted results: a utility off by one, a log missing a line and a
   transport mismatch.
2. The tracer refuses to run when a known second binding is left
   unpatched, and span counts reconcile with the outputs.
3. A tiny-size smoke run of each workload, untraced and traced, prints
   every metric that ``BENCHMARK.json`` names and reports no failure.
"""
import contextlib
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

FAILURES = []


def expect_reject(what, fn):
    try:
        fn()
    except CheckFailed as exc:
        print(f"ok   {what}: rejected ({exc})")
        return
    FAILURES.append(what)
    print(f"FAIL {what}: accepted a corrupted result")


def one_op(wl, i=0):
    inp = wl.prepare(i)
    try:
        out = wl.run(inp, contextlib.nullcontext)
    finally:
        wl.finish(inp)
    wl.check(inp, out)  # the uncorrupted op must pass
    return inp, out


def check_paper_grid(workdir):
    wl = workloads.PaperGrid(0, True, workdir)
    wl.setup()
    inp, report = one_op(wl)
    solves = inp[1].calls["solve_exhaustive"]
    args, kwargs, sol = solves[0]
    solves[0] = (args, kwargs, dataclasses.replace(sol, utility=sol.utility + 1))
    expect_reject("paper_grid optimum utility off by one",
                  lambda: wl.check(inp, report))
    solves[0] = (args, kwargs, sol)
    episodes = inp[1].calls["run_episode"]
    args, kwargs, ep = episodes[0]
    episodes[0] = (args, kwargs, dataclasses.replace(ep, utility=ep.utility - 1))
    expect_reject("paper_grid episode utility off by one",
                  lambda: wl.check(inp, report))


def check_episode_scale(workdir):
    wl = workloads.EpisodeScale(0, True, workdir)
    wl.setup()
    inp, (bcast, p2p) = one_op(wl)
    expect_reject("episode_scale utility off by one", lambda: wl.check(
        inp, (bcast, dataclasses.replace(p2p, utility=p2p.utility + 1))))
    # p2p drops one follower of a leader that keeps another one, and its
    # utility is made consistent, so only the transport comparison can fail
    a = p2p.assignment
    load = {}
    for n in a.follows.values():
        load[n] = load.get(n, 0) + 1
    m = next(m for m, n in sorted(a.follows.items()) if load[n] > 1)
    follows = {k: v for k, v in a.follows.items() if k != m}
    moved = type(a).build(a.leaders, follows, set(a.isolated) | {m})
    inst = p2p.effective_instance
    moved = dataclasses.replace(p2p, assignment=moved, utility=(
        p2p.utility - inst.lxi_of(m, a.follows[m])))
    expect_reject("episode_scale transport mismatch",
                  lambda: wl.check(inp, (bcast, moved)))


def check_cli_roundtrip(workdir):
    wl = workloads.CliRoundtrip(0, True, workdir)
    wl.setup()
    inp, out = one_op(wl)
    log = wl.paths["log"]
    with open(log) as fh:
        lines = fh.readlines()
    with open(log, "w") as fh:
        fh.writelines(lines[:-1])
    expect_reject("cli_roundtrip log missing a line", lambda: wl.check(inp, out))
    with open(log, "w") as fh:
        fh.writelines(lines)
    wl.check(inp, out)
    code, text = out[3]
    solve = json.loads(text)
    solve["utility"] += 1
    bad = out[:3] + [(code, json.dumps(solve))]
    expect_reject("cli_roundtrip solve utility off by one",
                  lambda: wl.check(inp, bad))
    bad = out[:3] + [(2, text)]
    expect_reject("cli_roundtrip non-zero exit", lambda: wl.check(inp, bad))


def check_tracer():
    import spans
    from leadsel import harness
    tracer = spans.Tracer()
    saved = harness.solve_exhaustive
    harness.solve_exhaustive = lambda *a, **k: saved(*a, **k)  # hides the binding
    try:
        tracer.begin(0)
    except spans.TraceError as exc:
        print(f"ok   tracer refuses a hidden binding ({exc})")
    else:
        tracer.end()
        FAILURES.append("tracer hidden binding")
        print("FAIL tracer accepted a hidden binding")
    finally:
        harness.solve_exhaustive = saved


def check_reconciliation(workdir):
    import run
    import spans
    from leadsel import harness
    wl = workloads.PaperGrid(0, True, workdir)
    wl.setup()
    tracer = spans.Tracer()
    op = run.execute(wl, 0, tracer.span, None, tracer)
    if op.error:
        FAILURES.append("reconciliation clean op")
        print(f"FAIL traced op failed: {op.error}")
        return
    # hide harness's binding from the tracer and switch off the alias guard:
    # the span counts must no longer match the outputs
    saved, aliases = harness.run_episode, spans.REQUIRED_ALIASES
    harness.run_episode = lambda *a, **k: saved(*a, **k)
    spans.REQUIRED_ALIASES = ()
    try:
        op = run.execute(wl, 1, tracer.span, None, tracer)
    finally:
        harness.run_episode, spans.REQUIRED_ALIASES = saved, aliases
    if op.error and "spans" in op.error:
        print(f"ok   span counts reconcile ({op.error})")
    else:
        FAILURES.append("reconciliation")
        print("FAIL an under-reporting tracer went unnoticed")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "3",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            what = f"smoke {w['name']} trace={trace}"
            if proc.returncode != 0:
                FAILURES.append(what)
                print(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            text = "\n".join(lines[:-1])
            names = [m["name"] for m in bench[key]]
            missing = [n for n in names if n not in result["metrics"]
                       or f"{n} " not in text]
            extra = sorted(set(result["metrics"]) - set(names))
            if missing or extra or not result["correct"] or result["failed"]:
                FAILURES.append(what)
                print(f"FAIL {what}: missing {missing} extra {extra} "
                      f"correct={result['correct']} failed={result['failed']}")
            else:
                print(f"ok   {what}: {len(names)} metrics, "
                      f"{result['attempted']} ops")


def main():
    os.chdir(ROOT)
    workdir = os.path.join(".perfbench", "selftest")
    os.makedirs(workdir, exist_ok=True)
    check_paper_grid(workdir)
    check_episode_scale(workdir)
    check_cli_roundtrip(workdir)
    check_tracer()
    check_reconciliation(workdir)
    smoke()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed: {FAILURES}")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
