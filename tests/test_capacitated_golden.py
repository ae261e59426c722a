"""Capacitated exact solves reproduce ``golden_capacitated.json`` exactly.

The file was recorded with the per-leader-set matching search before it
was bounded (see ``golden.py``); the search must still pick the same
assignment, utility and configuration count on every case, including the
ones where several leader sets or matchings tie.
"""
from __future__ import annotations

from golden import CAPACITATED, changes, read, solve_records


def test_capacitated_solves_match_golden():
    assert changes(solve_records(), read(CAPACITATED)) == []
