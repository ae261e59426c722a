"""Capacitated exact solves reproduce ``golden_capacitated.json`` exactly.

The file was recorded with the per-leader-set matching search before it
was bounded (see ``record_capacitated_golden.py``); the search must still
pick the same assignment, utility and configuration count on every case,
including the ones where several leader sets or matchings tie.
"""
from __future__ import annotations

import json

from record_capacitated_golden import GOLDEN, cases, describe


def test_capacitated_solves_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    seen, mismatched = [], []
    for name, inst, rho, caps, mode in cases():
        seen.append(name)
        rec = describe(inst, rho, caps, mode)
        if json.loads(json.dumps(rec)) != golden.get(name):
            mismatched.append(name)
    assert sorted(seen) == sorted(golden)
    assert mismatched == []
