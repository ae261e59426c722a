"""The mutant catalogue of ``mutants.py`` still fits the code and the suite.

Running the mutants takes ``python tests/mutants.py --check``; this only
checks that each one still edits one place and names tests that exist.
"""
from __future__ import annotations

import ast
import os

from mutants import MUTANTS, ROOT, SRC


def _test_names(path: str) -> set:
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_each_mutant_edits_one_place_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        with open(os.path.join(SRC, "leadsel", m.file)) as fh:
            assert fh.read().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert name in _test_names(os.path.join(ROOT, path)), (m.name,
                                                                   test)
