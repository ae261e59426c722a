"""Record the golden protocol episodes that ``test_episode_golden.py`` checks.

Each recorded episode keeps its assignment, utility, round count, phase-1
candidate set, message counts per (phase, kind, transport) and a blake2b
digest of the bytes ``EpisodeOutcome.write_log`` writes. The counts are
recounted here from the materialised ``outcome.messages``, so the file does
not depend on how an episode keeps its own tally.

The episodes are the seeds of acceptance criteria 2 (uncapacitated and
caps = 2) and 6 (broadcast and p2p), N = 100 and N = 1000 with and without
caps under both transports, and small instances that take the edge-server
and incentive fallback paths. The 3,200 episodes
of the two criterion sweeps are stored as a digest of their record, which
keeps the file small; the others are stored in full.

Run from the repository root; it overwrites ``tests/golden_episodes.json``:

    PYTHONPATH=src python tests/record_episode_golden.py

With ``--check`` it writes nothing: it names each key whose record differs
from the file, with the fields that changed for a full record, and exits 1
if any does.
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
    Instance,
    ProtocolConfig,
    derive_seed,
    generate_instance,
    run_episode,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_episodes.json")
TRANSPORTS = ("broadcast", "p2p")


def cases():
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


def recount(messages) -> dict:
    """Messages per (phase, kind, transport), counted one by one."""
    table: dict = {}
    for m in messages:
        key = (m.phase, m.kind, m.transport)
        table[key] = table.get(key, 0) + 1
    return table


def log_digest(outcome, path) -> str:
    outcome.write_log(path)
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def describe(name: str, outcome, counts: dict, digest: str):
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


def changes(records: dict, golden: dict) -> list:
    """One line per key whose record in ``records`` differs from
    ``golden``: the key, and the changed fields of a full record."""
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
                        help="compare with the file instead of writing it")
    check = parser.parse_args(argv).check
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        for name, inst, cfg, seed in cases():
            outcome = run_episode(inst, cfg, seed)
            records[name] = describe(name, outcome, recount(outcome.messages),
                                     log_digest(outcome, path))
    if check:
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        lines = changes(json.loads(json.dumps(records)), golden)
        print("\n".join(lines + [f"{len(lines)} of {len(records)} episodes "
                                 f"differ from {GOLDEN}"]))
        return 1 if lines else 0
    lines = [f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in records.items()]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} episodes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
