"""Uncapped exact solves reproduce ``golden_uncapacitated.json`` exactly.

The file was recorded with the search that completed every configuration
one UE at a time (see ``golden.py``); the search must still pick the same
assignment and utility and visit the same number of configurations on
every case, including those with ties and non-integer scores.
"""
from __future__ import annotations

from golden import UNCAPACITATED, changes, read, uncapacitated_records


def test_uncapacitated_solves_match_golden():
    assert changes(uncapacitated_records(), read(UNCAPACITATED)) == []
