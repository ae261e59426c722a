"""Every third-party module the package imports is a declared dependency."""
from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared() -> set:
    """The names in ``[project] dependencies`` of pyproject.toml, read with
    a pattern rather than ``tomllib``, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def _imported() -> set:
    """Top-level names of the absolute imports under ``src/leadsel``."""
    names = set()
    for path in (ROOT / "src" / "leadsel").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"leadsel"}


def test_every_third_party_import_is_declared():
    # each module used here shares its name with its distribution
    imported = _imported()
    assert {"click", "numpy"} <= imported
    assert imported <= _declared()
