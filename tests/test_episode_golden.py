"""Protocol episodes reproduce ``golden_episodes.json`` exactly.

The file was recorded from fully materialised message logs (see
``record_episode_golden.py``); the episode's own message tally and its
on-demand log must give the same counts and the same log bytes.
"""
from __future__ import annotations

import json

from leadsel import run_episode

from record_episode_golden import GOLDEN, cases, describe, log_digest


def test_episodes_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    path = tmp_path / "log.jsonl"
    seen, mismatched = [], []
    for name, inst, cfg, seed in cases():
        outcome = run_episode(inst, cfg, seed)
        rec = describe(name, outcome, outcome.message_counts,
                       log_digest(outcome, path))
        seen.append(name)
        if json.loads(json.dumps(rec)) != golden.get(name):
            mismatched.append(name)
    assert sorted(seen) == sorted(golden)
    assert mismatched == []
