"""Record the golden capacitated solves that ``test_capacitated_golden.py`` checks.

Each entry is ``solve_exhaustive(..., caps=...).to_json_dict()`` without
``elapsed_us`` (leaders, follower map, isolated set, utility and the
configurations visited), or ``{"infeasible": true}`` when the solve raised
``Infeasible``. The pinned follower map fixes which of several equal
matchings the per-leader-set assignment picked, not only the utility.

The cases cover:

- generated instances at N = 2..12, relaxed and strict, with and without an
  edge server, rho 0/3/5, caps of 0..3 with some UEs missing from the map;
- instances built directly with scores in 0..2, where ties between leader
  sets and between matchings inside one set are common;
- instances with non-integer scores, where sums of the same scores taken
  in a different order can round differently; in the small ones with
  scores in tenths, leader sets whose utilities are equal in exact
  arithmetic often differ in the last bit.

Run from the repository root; it overwrites ``tests/golden_capacitated.json``:

    PYTHONPATH=src python tests/record_capacitated_golden.py
"""
from __future__ import annotations

import json
import os
import random
import sys

from leadsel import (
    Infeasible,
    Instance,
    attach_edge_server,
    derive_seed,
    generate_instance,
    solve_exhaustive,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_capacitated.json")
MODES = ("relaxed", "strict")
FRACTIONS = (0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 3.3, 4.9, 6.6, 10)
TENTHS = (0, 0.1, 0.2, 0.3, 0.6)  # sums of these tie, up to rounding


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


def cases():
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


def describe(inst: Instance, rho, caps: dict, mode: str) -> dict:
    """The golden record of one capacitated solve."""
    try:
        sol = solve_exhaustive(inst, rho, caps=caps, mode=mode)
    except Infeasible:
        return {"infeasible": True}
    rec = sol.to_json_dict()
    del rec["elapsed_us"]
    return rec


def main() -> int:
    lines = [f"{json.dumps(name)}: "
             f"{json.dumps(describe(inst, rho, caps, mode), sort_keys=True)}"
             for name, inst, rho, caps, mode in cases()]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} solves to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
