"""leadsel benchmark: one workload per run, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # each workload in its own process

The program is imported from ``src/`` in-process; nothing is built. With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list every metric by name with its unit,
the error rate and the run metadata. Working files, span dumps and a JSON
record of each run go to ``.perfbench/`` under the repository root.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = ".perfbench"  # relative to ROOT
GOLDEN = os.path.join(HERE, "golden.json")
NAMES = ("paper_grid", "episode_scale", "cli_roundtrip")
DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # kept out of tuning; later claims are re-checked on it
SETUPS = 3  # set-ups per run: this process plus SETUPS - 1 fresh children
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=int, default=35,
                    help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instance sizes, for smoke runs")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    ap.add_argument("--record-golden", type=int, metavar="OPS", default=0,
                    help="record digests of the first OPS ops in golden.json")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# -- run metadata --------------------------------------------------------------

def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """Digest of the program's sources, for checkouts without git."""
    h = hashlib.blake2b(digest_size=12)
    src = os.path.join(ROOT, "src", "leadsel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_meta(loadavg):
    from importlib import metadata
    meta = {"python": platform.python_version()}
    for pkg in ("scipy", "numpy", "click"):
        try:
            meta[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            meta[pkg] = None
    meta.update(nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
                commit=git_commit(), src_digest=src_digest(),
                loadavg_1m_at_start=loadavg)
    return meta


# -- one op --------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    """The outcome of one op: timings, failure message and digest."""
    wall: float
    cpu: float
    error: Optional[str] = None
    digest: Optional[str] = None
    nonzero_exits: int = 0


def execute(wl, i, span, golden, tracer=None):
    """Prepare, time, finish and check op ``i``; never raises for the op."""
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.begin(i)
    inp = wl.prepare(i)
    # Every op starts from an empty collector, so a full collection that
    # the previous op's garbage made due does not land on a later op.
    gc.collect()
    out = None
    op = Op(0.0, 0.0)
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run(inp, span)
    except Exception as exc:  # an op that raises is a failed op
        op.error = f"op {i} raised {exc!r}"
    op.wall, op.cpu = time.perf_counter() - w0, time.process_time() - c0
    wl.finish(inp)
    if tracer:
        tracer.end()
    if op.error is None:
        try:
            op.digest = wl.check(inp, out)
        except Exception as exc:  # a malformed output can fail any way
            op.error = f"op {i}: {exc!r}"
    if op.error is None and golden is not None and i < len(golden):
        if op.digest != golden[i]:
            op.error = f"op {i}: outputs differ from the recorded digest"
    if op.error is None and tracer:
        seen: dict = {}
        for rec in tracer.spans[first_span:]:
            seen[rec[0]] = seen.get(rec[0], 0) + 1
        for name, want in wl.expected_spans(inp, out).items():
            if seen.get(name, 0) != want:
                op.error = (f"op {i}: {seen.get(name, 0)} {name} spans, "
                            f"outputs imply {want}")
                break
    if tracer and out is not None and hasattr(wl, "nonzero_exits"):
        op.nonzero_exits = wl.nonzero_exits(out)
    return op


# -- modes ---------------------------------------------------------------------

def load_golden(name, seed, tiny):
    if tiny or not os.path.isfile(GOLDEN):
        return None
    with open(GOLDEN) as fh:
        data = json.load(fh)
    if data.get("seed") != seed:
        return None
    return data.get("workloads", {}).get(name)


def record_golden(wl, ops, seed):
    data = {"seed": seed, "workloads": {}}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as fh:
            data = json.load(fh)
    if data["seed"] != seed:
        raise SystemExit(f"golden.json holds seed {data['seed']}, not {seed}")
    digests = []
    for i in range(ops):
        op = execute(wl, i, contextlib.nullcontext, None)
        if op.error:
            raise SystemExit(op.error)
        digests.append(op.digest)
    data["workloads"][wl.name] = digests
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {ops} digests for {wl.name}")


def child_setup_times(args, count):
    """Set-up time of ``count`` fresh processes, one after another."""
    times = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_all(args):
    """Each workload in a process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    loadavg = read_loadavg()
    if not os.path.isdir(os.path.join(ROOT, "src", "leadsel")):
        sys.stderr.write(f"perfbench: no src/leadsel under {ROOT}\n")
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    # a work directory of its own, so concurrent runs cannot clobber files
    workdir = os.path.join(WORKDIR, "work", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        return run_workload(args, wl, loadavg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, wl, loadavg):
    import metrics

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.begin("setup")
    wl.setup()
    if tracer:
        tracer.end()
        tracer.begin("warmup")
    wl.warmup(tracer.span if tracer else contextlib.nullcontext)
    if tracer:
        tracer.end()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_golden:
        record_golden(wl, args.record_golden, args.seed)
        return 0

    golden = load_golden(wl.name, args.seed, args.tiny)
    ops, pairs = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        if tracer:
            # the same op untraced and traced, alternating which goes first
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runs[traced] = execute(
                    wl, i, tracer.span if traced else contextlib.nullcontext,
                    golden, tracer if traced else None)
            pairs.append((runs[False], runs[True]))
            ops += [runs[False], runs[True]]
        else:
            ops.append(execute(wl, i, contextlib.nullcontext, golden))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [op for op in ops if op.error]
    lines = []
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "ops": i,
            "digests_checked": min(i, len(golden)) if golden else 0,
            "errors": [op.error for op in failed[:10]]}
    if tracer:
        untraced = sum(u.wall for u, _ in pairs)
        overhead = sum(t.wall for _, t in pairs) - untraced
        values = metrics.per_layer(
            tracer.spans, len(pairs),
            sum(t.nonzero_exits for _, t in pairs),
            overhead, untraced)
        names = metrics.PER_LAYER
        info["trace_overhead"] = {"traced_minus_untraced_s": overhead,
                                  "untraced_s": untraced}
        os.makedirs(os.path.join(WORKDIR, "trace"), exist_ok=True)
        span_file = os.path.join(WORKDIR, "trace",
                                 f"{wl.name}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        info["span_file"] = span_file
        info["spans"] = len(tracer.spans)
    else:
        walls = [op.wall for op in ops]
        tail_value, beyond = metrics.tail(walls)
        setups = [setup_s] + child_setup_times(args, SETUPS - 1)
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": len(ops) / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "cpu_ms_per_op": sum(op.cpu for op in ops) / len(ops) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        names = metrics.END_TO_END
        info["latency_tail"] = {"percentile": metrics.TAIL_PERCENTILE,
                                "samples": len(walls),
                                "samples_beyond": beyond}
        info["setup_runs_s"] = setups
    info["error_rate"] = len(failed) / len(ops)
    info["meta"] = run_meta(loadavg)

    for name, unit in names:
        lines.append(f"{name:42s} {values[name]:>14.6g} {unit}")
    lines.append(f"{'error_rate':42s} {info['error_rate']:>14.6g} "
                 f"({len(failed)}/{len(ops)})")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    record = {"info": info, "result": result,
              "samples": [{"wall_s": op.wall, "cpu_s": op.cpu} for op in ops]}
    with open(os.path.join(WORKDIR, "results",
                           f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
