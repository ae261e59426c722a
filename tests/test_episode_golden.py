"""Protocol episodes reproduce ``golden_episodes.json`` exactly.

The file was recorded from fully materialised message logs (see
``golden.py``); the episode's own message tally and its on-demand log must
give the same counts and the same log bytes.
"""
from __future__ import annotations

from golden import EPISODES, changes, episode_records, read


def test_episodes_match_golden():
    records = episode_records(lambda outcome: outcome.message_counts)
    assert changes(records, read(EPISODES)) == []
