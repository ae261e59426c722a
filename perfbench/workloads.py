"""The three benchmark workloads: inputs from the seed, one op, its checks.

Each workload has the same shape. ``setup`` makes the inputs that all
ops share; ``warmup`` runs one checked op on inputs of its own;
``prepare(i)`` makes the inputs of op ``i`` (untimed); ``run`` is the
timed op; ``finish`` undoes what ``prepare`` installed; ``check`` raises :class:`CheckFailed` on a wrong
output and returns a digest of the op's non-timing outputs;
``expected_spans`` gives the span counts the outputs imply.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import click

from leadsel import cli, harness, model, protocol
from leadsel.harness import ExperimentConfig, check_message_bounds
from leadsel.protocol import BROADCAST, P2P, ProtocolConfig

class CheckFailed(Exception):
    """An op produced an output that fails the workload's checks."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sub_seed(seed: int, *tag) -> int:
    """Input seed for one part of a workload, derived from the run's seed."""
    text = repr(("perfbench", seed) + tag).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def recompute_utility(lii, lxi, offset: int, leaders, follows) -> int:
    """Utility from raw score tables, independent of ``leadsel.utility``."""
    total = sum(lii[n - offset] for n in leaders)
    total += sum(lxi[int(m) - offset][n - offset] for m, n in follows.items())
    return total


def check_assignment_utility(inst, assignment, claimed, what: str) -> None:
    offset = 0 if inst.has_edge_server else 1
    actual = recompute_utility(inst.lii, inst.lxi, offset,
                               assignment.leaders, assignment.follows)
    require(actual == claimed,
            f"{what}: reported utility {claimed} but assignment scores {actual}")


class Capture:
    """Records what ``harness`` gets back from the solver and the protocol.

    It calls whatever the binding held when installed, so it nests inside
    the tracer's wrappers, and it times nothing.
    """

    NAMES = ("solve_exhaustive", "run_episode")

    def __init__(self):
        self.calls = {name: [] for name in self.NAMES}
        self._saved = {}

    def install(self) -> None:
        for name in self.NAMES:
            inner = getattr(harness, name)
            self._saved[name] = inner
            log = self.calls[name]

            def recording(*args, _inner=inner, _log=log, **kwargs):
                result = _inner(*args, **kwargs)
                _log.append((args, kwargs, result))
                return result

            setattr(harness, name, recording)

    def uninstall(self) -> None:
        for name, inner in self._saved.items():
            setattr(harness, name, inner)
        self._saved = {}


class PaperGrid:
    """The ``leadsel bench`` pipeline through ``harness.run_benchmark``.

    One op is one grid instance index: ``run_benchmark`` with one instance
    per N under the CLI defaults (broadcast, rho 0..9, 3 timing reps,
    uncapacitated), whose master seed comes from the run's seed and the op
    index, followed by writing the report.

    N is 7 and 9, not the paper's 7 and 10. The cost of one N = 10 instance
    varies with the instance (coefficient of variation about 0.4), and a run
    holds only about 50 of them, so which instances a seed drew moved the
    run's median latency by up to a quarter. N = 9 is about 7 times cheaper
    per solve, so a run averages about 230 instances.
    """

    name = "paper_grid"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.n_values = (4, 5) if tiny else (7, 9)
        self.outdir = os.path.join(workdir, "paper_grid")

    def setup(self) -> None:
        os.makedirs(self.outdir, exist_ok=True)

    def warmup(self, span) -> None:
        # small N: the warm-up touches every code path, and its cost does
        # not swing with how hard one N = 10 instance happens to be
        inp = self.prepare("warmup", n_values=(4, 5))
        out = self.run(inp, span)
        self.finish(inp)
        self.check(inp, out)

    def prepare(self, i, n_values=None):
        cfg = ExperimentConfig(n_values=n_values or self.n_values,
                               instances_per_n=1,
                               master_seed=sub_seed(self.seed, self.name, i))
        capture = Capture()
        capture.install()
        return cfg, capture

    def run(self, inp, span):
        cfg, _ = inp
        report = harness.run_benchmark(cfg)
        report.write(self.outdir)
        return report

    def finish(self, inp) -> None:
        inp[1].uninstall()

    def check(self, inp, report) -> str:
        cfg, capture = inp
        solves = capture.calls["solve_exhaustive"]
        episodes = capture.calls["run_episode"]
        want = self.expected_spans(inp, report)
        for name, calls in (("exhaustive.solve_exhaustive", solves),
                            ("protocol.run_episode", episodes)):
            require(len(calls) == want[name],
                    f"expected {want[name]} calls of {name}, saw {len(calls)}")

        optimum = {}
        for args, kwargs, sol in solves:
            inst, rho = args[0], args[1]
            require(rho == cfg.optimal_rho, "optimal reference at the wrong rho")
            check_assignment_utility(inst, sol.assignment, sol.utility,
                                     f"optimum n={inst.n}")
            rep = model.check_constraints(inst, sol.assignment, rho)
            require(rep.all_ok, f"optimum n={inst.n} violates {rep.violators}")
            first = optimum.setdefault(inst.n, sol.utility)
            require(first == sol.utility,
                    f"optimum n={inst.n} changed between timing reps")
        for args, kwargs, outcome in episodes:
            inst, pcfg = args[0], args[1]
            check_assignment_utility(outcome.effective_instance,
                                     outcome.assignment, outcome.utility,
                                     f"episode n={inst.n} rho={pcfg.rho}")
            require(outcome.utility <= optimum[inst.n],
                    f"episode n={inst.n} rho={pcfg.rho} beats the optimum")
            require(check_message_bounds(outcome, inst.n,
                                         len(outcome.leader_set_phase1),
                                         pcfg.transport),
                    f"episode n={inst.n} rho={pcfg.rho} exceeds the message bound")
        for row in report.rows:
            require(row.mean_util_opt == optimum[row.n],
                    f"report row n={row.n} lost the optimum")
            require(row.mean_util_dist <= row.mean_util_opt,
                    f"report row n={row.n} rho={row.rho} beats the optimum")

        files = [f"report_{m}.csv" for m in cfg.modes]
        files += [f"hist_{k}_n{n}.json" for k in ("optimal", "distributed")
                  for n in cfg.n_values]
        files += [f"sweep_{k}_n{n}.dat" for k in ("util", "L")
                  for n in cfg.n_values]
        parts = [report.csv_text(transport=m, include_timing=False)
                 for m in cfg.modes]
        for fname in files:
            path = os.path.join(self.outdir, fname)
            require(os.path.isfile(path), f"report file {fname} missing")
            if not fname.endswith(".csv"):  # the CSVs carry timing columns
                with open(path, "rb") as fh:
                    parts.append(fh.read())
        return digest(*parts)

    def expected_spans(self, inp, report) -> dict:
        cfg, _ = inp
        per_n = 1 + cfg.timing_reps
        k = len(cfg.n_values)
        return {
            "harness.run_benchmark": 1,
            "harness.report_write": 1,
            "model.generate_instance": k,
            "exhaustive.solve_exhaustive": k * per_n,
            "protocol.run_episode":
                k * len(cfg.rho_values) * len(cfg.modes) * per_n,
        }


class EpisodeScale:
    """Pre-generated N = 1000 instances at rho = 5, uncapacitated.

    One op is one instance through ``run_episode`` under broadcast and
    then under p2p. The message logs are never read.
    """

    name = "episode_scale"
    rho = 5
    pool_size = 2

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.n = 60 if tiny else 1000
        self.pool: list = []

    def setup(self) -> None:
        self.pool = [model.generate_instance(
            self.n, sub_seed(self.seed, self.name, "inst", k))
            for k in range(self.pool_size)]

    def warmup(self, span) -> None:
        warm = model.generate_instance(50, sub_seed(self.seed, self.name, "warmup"))
        inp = (warm, sub_seed(self.seed, self.name, "warmup"))
        self.check(inp, self.run(inp, span))

    def prepare(self, i):
        return self.pool[i % self.pool_size], sub_seed(self.seed, self.name, "ep", i)

    def run(self, inp, span):
        inst, seed = inp
        bcast = protocol.run_episode(
            inst, ProtocolConfig(rho=self.rho, transport=BROADCAST), seed)
        p2p = protocol.run_episode(
            inst, ProtocolConfig(rho=self.rho, transport=P2P), seed)
        return bcast, p2p

    def finish(self, inp) -> None:
        pass

    def check(self, inp, out) -> str:
        inst, _ = inp
        summary = []
        for transport, outcome in zip((BROADCAST, P2P), out):
            check_assignment_utility(outcome.effective_instance,
                                     outcome.assignment, outcome.utility,
                                     transport)
            l = len(outcome.leader_set_phase1)
            require(check_message_bounds(outcome, inst.n, l, transport),
                    f"{transport}: {outcome.protocol_messages} messages "
                    f"exceed the bound for n={inst.n}, L={l}")
            rep = model.check_constraints(outcome.effective_instance,
                                          outcome.assignment, self.rho)
            require(rep.c2_ok and rep.c3_ok,
                    f"{transport}: C2/C3 violated by {rep.violators[:5]}")
            summary.append({
                "assignment": outcome.assignment.to_json_dict(),
                "utility": outcome.utility, "rounds": outcome.rounds,
                "protocol_messages": outcome.protocol_messages, "l": l})
        bcast, p2p = out
        require(bcast.assignment == p2p.assignment,
                "broadcast and p2p chose different assignments")
        require(bcast.utility == p2p.utility,
                f"broadcast utility {bcast.utility} != p2p {p2p.utility}")
        return digest(summary)

    def expected_spans(self, inp, out) -> dict:
        return {"protocol.run_episode": 2, "protocol.simulate_protocol": 2}


def invoke_cli(argv) -> tuple:
    """``leadsel <argv>`` in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main.main(args=list(argv), prog_name="leadsel",
                                 standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
    return code or 0, out.getvalue()


class CliRoundtrip:
    """The README flow through ``cli.main`` in-process.

    One op is ``gen --n 100``, ``simulate --rho 5 --caps --log``,
    ``gen --n 12`` and ``solve --caps``. Caps files hold limits in 1..3
    drawn from the seed; they are written before the op, untimed.
    """

    name = "cli_roundtrip"
    rho = 5

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.n_sim, self.n_solve = (20, 6) if tiny else (100, 12)
        d = os.path.join(workdir, "cli")
        self.paths = {k: os.path.join(d, f) for k, f in (
            ("sim_inst", "sim_inst.json"), ("sim_caps", "sim_caps.json"),
            ("log", "episode.jsonl"), ("solve_inst", "solve_inst.json"),
            ("solve_caps", "solve_caps.json"))}
        self.dir = d

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)

    def warmup(self, span) -> None:
        inp = self.prepare("warmup")
        self.check(inp, self.run(inp, span))

    def prepare(self, i):
        rng = random.Random(sub_seed(self.seed, self.name, "caps", i))
        p = self.paths
        for key, n in (("sim_caps", self.n_sim), ("solve_caps", self.n_solve)):
            caps = {str(u): rng.randint(1, 3) for u in range(1, n + 1)}
            with open(p[key], "w") as fh:
                json.dump(caps, fh, sort_keys=True)
        s = [str(sub_seed(self.seed, self.name, tag, i) % 2**31)
             for tag in ("gen_sim", "episode", "gen_solve")]
        return (
            ("gen", ["gen", "--n", str(self.n_sim), "--seed", s[0],
                     "--out", p["sim_inst"]]),
            ("simulate", ["simulate", "--rho", str(self.rho), "--caps",
                          p["sim_caps"], "--seed", s[1], "--log", p["log"],
                          p["sim_inst"]]),
            ("gen", ["gen", "--n", str(self.n_solve), "--seed", s[2],
                     "--out", p["solve_inst"]]),
            ("solve", ["solve", "--caps", p["solve_caps"], p["solve_inst"]]),
        )

    def run(self, inp, span):
        results = []
        for command, argv in inp:
            with span(f"cli.{command}"):
                results.append(invoke_cli(argv))
        return results

    def finish(self, inp) -> None:
        pass

    @staticmethod
    def nonzero_exits(out) -> int:
        return sum(1 for code, _ in out if code != 0)

    def _read(self, key) -> bytes:
        with open(self.paths[key], "rb") as fh:
            return fh.read()

    def check(self, inp, out) -> str:
        for (command, _), (code, _) in zip(inp, out):
            require(code == 0, f"{command} exited {code}")
        (_, gen1), (_, sim), (_, gen2), (_, solve) = out
        parts = []
        for text, key, n in ((gen1, "sim_inst", self.n_sim),
                             (gen2, "solve_inst", self.n_solve)):
            meta = json.loads(text)
            written = meta.pop("written")  # the work directory differs per run
            require(written == self.paths[key] and meta["n"] == n,
                    f"gen wrote {written}, reported {meta}")
            parts += [meta, self._read(key)]

        inst = json.loads(self._read("sim_inst"))
        caps = {int(k): v for k, v in json.loads(self._read("sim_caps")).items()}
        episode = json.loads(sim)
        self._check_assignment(inst, caps, episode, "simulate")
        log = self._read("log")
        lines = log.decode().splitlines()
        require(len(lines) == episode["messages_total"],
                f"log has {len(lines)} lines, simulate reported "
                f"{episode['messages_total']} messages")
        for k, line in enumerate(lines):
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                raise CheckFailed(f"log line {k + 1} is not valid JSON") from None
            require(isinstance(msg, dict) and "kind" in msg,
                    f"log line {k + 1} is not a message")
        parts += [sim, log]

        inst = json.loads(self._read("solve_inst"))
        caps = {int(k): v for k, v in json.loads(self._read("solve_caps")).items()}
        result = json.loads(solve)
        flags = result["constraints"]
        require(all(flags[k] for k in ("c1_ok", "c2_ok", "c3_ok", "capacity_ok")),
                f"solve reported constraint flags {flags}")
        self._check_assignment(inst, caps, result, "solve")
        result.pop("elapsed_us")
        parts.append(result)
        return digest(*parts)

    @staticmethod
    def _check_assignment(inst, caps, result, what: str) -> None:
        follows = {int(m): n for m, n in result["follows"].items()}
        actual = recompute_utility(inst["lii"], inst["lxi"], 1,
                                   result["leaders"], follows)
        require(actual == result["utility"],
                f"{what}: reported utility {result['utility']} but the "
                f"assignment scores {actual}")
        load: dict = {}
        for n in follows.values():
            load[n] = load.get(n, 0) + 1
        over = [n for n, c in load.items() if c > caps.get(n, c)]
        require(not over, f"{what}: leaders {over} exceed their caps")

    def expected_spans(self, inp, out) -> dict:
        return {
            "cli.gen": 2, "cli.simulate": 1, "cli.solve": 1,
            "model.generate_instance": 2, "model.save_instance": 2,
            "model.load_instance": 2, "protocol.run_episode": 1,
            "protocol.write_log": 1, "exhaustive.solve_exhaustive": 1,
        }


WORKLOADS = {w.name: w for w in (PaperGrid, EpisodeScale, CliRoundtrip)}
