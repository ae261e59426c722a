"""Record or check the two pinned output files of the test suite.

``golden_episodes.json`` pins protocol episodes (``test_episode_golden.py``).
Each recorded episode keeps its assignment, utility, round count, phase-1
candidate set, message counts per (phase, kind, transport) and a blake2b
digest of the bytes ``EpisodeOutcome.write_log`` writes. The counts are
recounted here from the materialised ``outcome.messages``, so the file does
not depend on how an episode keeps its own tally. The episodes are the
seeds of acceptance criteria 2 (uncapacitated and caps = 2) and 6
(broadcast and p2p), N = 100 and N = 1000 with and without caps under both
transports, and small instances that take the edge-server and incentive
fallback paths. The 3,200 episodes of the two criterion sweeps are stored
as a digest of their record, which keeps the file small; the others are
stored in full.

``golden_capacitated.json`` pins capped exact solves
(``test_capacitated_golden.py``). Each entry is
``solve_exhaustive(..., caps=...).to_json_dict()`` without ``elapsed_us``
(leaders, follower map, isolated set, utility and the configurations
visited), or ``{"infeasible": true}`` when the solve raised ``Infeasible``.
The pinned follower map fixes which of several equal matchings the
per-leader-set assignment picked, not only the utility. The cases cover:

- generated instances at N = 2..12, relaxed and strict, with and without an
  edge server, rho 0/3/5, caps of 0..3 with some UEs missing from the map;
- instances built directly with scores in 0..2, where ties between leader
  sets and between matchings inside one set are common;
- instances with non-integer scores, where sums of the same scores taken
  in a different order can round differently; in the small ones with
  scores in tenths, leader sets whose utilities are equal in exact
  arithmetic often differ in the last bit.

Run from the repository root. Without options it overwrites both files:

    PYTHONPATH=src python tests/golden.py

With ``--check`` it writes nothing: for each file it names every key whose
record differs, with the fields that changed for a dict record, and it
exits 1 if any does.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile

from leadsel import (
    IncentivePolicy,
    Infeasible,
    Instance,
    ProtocolConfig,
    attach_edge_server,
    derive_seed,
    generate_instance,
    run_episode,
    solve_exhaustive,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EPISODES = os.path.join(HERE, "golden_episodes.json")
CAPACITATED = os.path.join(HERE, "golden_capacitated.json")
TRANSPORTS = ("broadcast", "p2p")
MODES = ("relaxed", "strict")
FRACTIONS = (0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 3.3, 4.9, 6.6, 10)
TENTHS = (0, 0.1, 0.2, 0.3, 0.6)  # sums of these tie, up to rounding


# -- protocol episodes --------------------------------------------------

def episode_cases():
    """Yield ``(name, instance, config, seed)`` for every golden episode."""
    yield from criterion_cases()
    yield from large_cases()
    for i in range(40):  # edge-server fallback: high thresholds strand UEs
        inst = generate_instance(8, derive_seed(400, "edge", i))
        for transport in TRANSPORTS:
            cfg = ProtocolConfig(rho=8 + i % 2, transport=transport,
                                 edge_server_policy=True)
            yield f"edge/{i}/{transport}", inst, cfg, i
    for i in range(20):  # nobody willing to lead: incentive rerun
        base = generate_instance(6, derive_seed(400, "incentive", i))
        inst = Instance(6, (0,) * 6, base.lxi)
        for transport in TRANSPORTS:
            cfg = ProtocolConfig(rho=i % 3, transport=transport,
                                 edge_server_policy=i % 2 == 0,
                                 incentive_policy=IncentivePolicy(5, 0.5))
            yield f"incentive/{i}/{transport}", inst, cfg, i


def criterion_cases():
    """The episodes of acceptance criteria 2 and 6, seed for seed."""
    for i in range(1000):  # criterion 2, uncapacitated
        inst = generate_instance(10, derive_seed(200, "cons", i))
        yield f"c2/{i}", inst, ProtocolConfig(rho=5), i
    caps = {m: 2 for m in range(1, 11)}
    for i in range(200):  # criterion 2, caps = 2
        inst = generate_instance(10, derive_seed(200, "caps", i))
        yield f"c2caps/{i}", inst, ProtocolConfig(rho=5, caps=caps), i
    for n in (7, 10):  # criterion 6
        for i in range(500):
            inst = generate_instance(n, derive_seed(300, "mb", n, i))
            for transport in TRANSPORTS:
                cfg = ProtocolConfig(rho=i % 10, transport=transport)
                yield f"c6/{n}/{i}/{transport}", inst, cfg, i


def large_cases():
    """N = 100 and 1000, caps none or 1..3, both transports.

    The keys keep the ``/random`` suffix they had when a second, ascending
    delivery order was also recorded, so that the file needs no re-recording.
    """
    for n in (100, 1000):
        inst = generate_instance(n, derive_seed(400, "golden", n))
        rng = random.Random(derive_seed(400, "caps", n))
        caps = {m: rng.randint(1, 3) for m in inst.ue_ids}
        for caps_name, limits in (("uncapped", None), ("caps", caps)):
            for transport in TRANSPORTS:
                cfg = ProtocolConfig(rho=5, transport=transport, caps=limits)
                yield (f"n{n}/{caps_name}/{transport}/random", inst, cfg,
                       derive_seed(400, "episode", n))


def recount(outcome) -> dict:
    """Messages per (phase, kind, transport), counted one by one."""
    table: dict = {}
    for m in outcome.messages:
        key = (m.phase, m.kind, m.transport)
        table[key] = table.get(key, 0) + 1
    return table


def log_digest(outcome, path) -> str:
    outcome.write_log(path)
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def describe_episode(name: str, outcome, counts: dict, digest: str):
    """The golden record of one episode, or its digest for a sweep episode."""
    rec = outcome.assignment.to_json_dict()
    rec.update({
        "utility": outcome.utility,
        "rounds": outcome.rounds,
        "leader_set_phase1": sorted(outcome.leader_set_phase1),
        "counts": sorted([p, k, t, c] for (p, k, t), c in counts.items()),
        "log": digest,
    })
    if name.startswith(("c2", "c6")):
        text = json.dumps(rec, sort_keys=True).encode()
        return hashlib.blake2b(text, digest_size=8).hexdigest()
    return rec


def episode_records(count=recount) -> dict:
    """Every golden episode's record, by key, with its message counts
    taken by ``count(outcome)``."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        for name, inst, cfg, seed in episode_cases():
            outcome = run_episode(inst, cfg, seed)
            records[name] = describe_episode(name, outcome, count(outcome),
                                             log_digest(outcome, path))
    return records


# -- capacitated exact solves -------------------------------------------

def random_caps(rng: random.Random, inst: Instance) -> dict:
    """A limit of 0..3 per node, with about one node in five left out."""
    caps = {}
    for m in inst.node_ids:
        limit = rng.choice((None, 0, 1, 1, 2, 2, 3))
        if limit is not None:
            caps[m] = limit
    return caps


def built_instance(rng: random.Random, n: int, scores) -> Instance:
    """An instance with every score drawn from ``scores``, zero diagonal."""
    lii = tuple(rng.choice(scores) for _ in range(n))
    lxi = tuple(tuple(0 if r == c else rng.choice(scores) for c in range(n))
                for r in range(n))
    return Instance(n, lii, lxi)


def with_edge(rng: random.Random, inst: Instance, scores) -> Instance:
    lii0 = rng.choice([s for s in scores if s > 0])
    return attach_edge_server(inst, lii0,
                              [rng.choice(scores) for _ in inst.ue_ids])


def solve_cases():
    """Yield ``(name, instance, rho, caps, mode)`` for every golden solve."""
    for n in range(2, 13):  # generated instances, scores 0..10
        for edge in (False, True):
            for rho in (0, 3, 5):
                for j in range(2):
                    seed = derive_seed(500, "gen", n, edge, rho, j)
                    rng = random.Random(seed)
                    inst = generate_instance(
                        n, seed, edge_server=(10, [1] * n) if edge else None)
                    caps = random_caps(rng, inst)
                    for mode in MODES:
                        yield (f"gen/{n}/{edge}/{rho}/{j}/{mode}", inst, rho,
                               caps, mode)
    for i in range(300):  # scores 0..2: ties everywhere
        rng = random.Random(derive_seed(500, "ties", i))
        n = 2 + i % 11
        inst = built_instance(rng, n, (0, 1, 2))
        if i % 4 == 3:
            inst = with_edge(rng, inst, (0, 1, 2))
        rho = (0, 0, 1)[i % 3]
        caps = random_caps(rng, inst)
        for mode in MODES:
            yield f"ties/{i}/{mode}", inst, rho, caps, mode
    for i in range(120):  # non-integer scores
        rng = random.Random(derive_seed(500, "float", i))
        n = 3 + i % 8
        scores = TENTHS if i % 2 else FRACTIONS
        inst = built_instance(rng, n, scores)
        if i % 5 == 4:
            inst = with_edge(rng, inst, scores)
        rho = (0, 0, 0.2, 1.1)[i % 4] if i % 2 else (0, 0.2, 1.1, 3)[i % 4]
        caps = random_caps(rng, inst)
        for mode in MODES:
            yield f"float/{i}/{mode}", inst, rho, caps, mode
    for i in range(200):  # tenths: equal sums that round apart
        rng = random.Random(derive_seed(500, "tenths", i))
        inst = built_instance(rng, 3 + i % 5, TENTHS)
        caps = {m: rng.randint(1, 4) for m in inst.node_ids
                if rng.random() < 0.5}
        mode = MODES[i % 2]
        yield f"tenths/{i}/{mode}", inst, 0, caps, mode


def describe_solve(inst: Instance, rho, caps: dict, mode: str) -> dict:
    """The golden record of one capacitated solve."""
    try:
        sol = solve_exhaustive(inst, rho, caps=caps, mode=mode)
    except Infeasible:
        return {"infeasible": True}
    rec = sol.to_json_dict()
    del rec["elapsed_us"]
    return rec


def solve_records() -> dict:
    """Every golden solve's record, by key."""
    return {name: describe_solve(inst, rho, caps, mode)
            for name, inst, rho, caps, mode in solve_cases()}


# -- both files ---------------------------------------------------------

FILES = ((EPISODES, episode_records), (CAPACITATED, solve_records))


def read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write(path: str, records: dict) -> None:
    """Write ``records`` as ``{"key": record, ...}``, one key a line."""
    lines = [f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in records.items()]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def changes(records: dict, golden: dict) -> list:
    """One line per key whose record in ``records`` differs from
    ``golden``: the key, and the changed fields of a dict record.

    ``records`` is compared as its JSON text reads back, as the file was.
    """
    records = json.loads(json.dumps(records))
    lines = []
    for name in sorted(records.keys() | golden.keys()):
        new, old = records.get(name), golden.get(name)
        if new == old:
            continue
        if isinstance(new, dict) and isinstance(old, dict):
            fields = sorted(k for k in new.keys() | old.keys()
                            if new.get(k) != old.get(k))
            name += ": " + ", ".join(fields)
        elif new is None or old is None:
            name += ": not recorded" if new is None else ": not in the file"
        lines.append(name)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files instead of writing them")
    check = parser.parse_args(argv).check
    differ = False
    for path, build in FILES:
        records = build()
        if check:
            lines = changes(records, read(path))
            differ = differ or bool(lines)
            print("\n".join(lines + [f"{len(lines)} of {len(records)} "
                                     f"records differ from {path}"]))
        else:
            write(path, records)
            print(f"wrote {len(records)} records to {path}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
