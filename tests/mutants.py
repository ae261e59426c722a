"""Check that the test suite kills the committed mutants of ``src/leadsel``.

A mutant is one small edit that breaks a rule the tests are meant to hold.
Each entry of ``MUTANTS`` names it, the file under ``src/leadsel`` it
edits, the exact ``old`` text it replaces (which occurs once in that
file), the ``new`` text, and the ids of the tests that must kill it.
``test_mutants.py`` checks the catalogue itself in the tier-1 suite: each
``old`` text is still there once, and each named test exists. So a change
that moves the code must update its entries in the same commit.

Run from the repository root. Without options it lists the catalogue:

    python tests/mutants.py

With ``--check`` it copies ``src/`` to a temporary directory, runs every
named test there once unmutated (they must pass), and then, for each
mutant, copies ``src/`` again, applies the mutant and runs its tests with
pytest against the copy. A mutant survives when its tests pass. It prints
each survivor and exits 1 if any survives, and 2 if the unmutated run
fails or a run ends other than by passing or failing. The check of the
catalogue below took 29 s on a 2-core host.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/leadsel
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant(
        "best-candidate-stops-at-a-tying-run", "protocol.py",
        "if best is not None and neg - SCORE_MAX > best_key:",
        "if best is not None and neg - SCORE_MAX >= best_key:",
        ("tests/test_protocol.py::"
         "test_cross_run_tie_goes_to_the_lower_id_in_the_lower_run",)),
    Mutant(
        "score-max-run-ends-the-scan", "protocol.py",
        "            best, best_key = n, key\n    return best",
        "            best, best_key = n, key\n"
        "        if top == SCORE_MAX:\n"
        "            break\n"
        "    return best",
        ("tests/test_protocol.py::"
         "test_score_max_run_does_not_hide_a_total_that_rounds_equal",)),
    Mutant(
        "delivery-sorts-instead-of-shuffling", "protocol.py",
        "rng.shuffle(pending)",
        "pending.sort()",
        ("tests/test_protocol.py::"
         "test_capacity_nack_retry_in_any_arrival_order",)),
    Mutant(
        "device-holds-the-next-devices-row", "protocol.py",
        "zip(ids, inst.lii[1 - off:], inst.lxi[1 - off:])",
        # the last device holds the first one's row
        "zip(ids, inst.lii[1 - off:],"
        " inst.lxi[2 - off:] + inst.lxi[1 - off:2 - off])",
        ("tests/test_protocol.py::"
         "test_protocol_reads_each_row_only_in_its_owners_device_steps",)),
    Mutant(
        "phase2-table-from-the-whole-candidate-group", "protocol.py",
        "[states[n] for n in leading], off)\n",
        "[states[n] for n in leading], off)\n"
        "    table = _announcer_table("
        "[(-states[n].lii, n) for n in candidates], off)\n",
        ("tests/test_protocol.py::"
         "test_devices_rank_only_what_was_announced_to_them",)),
    Mutant(
        "capped-cut-without-its-slack", "exhaustive.py",
        "if bound[s] < best.floor:",
        "if best.util is not None and bound[s] < best.util:",
        ("tests/test_capacitated_golden.py::"
         "test_capacitated_solves_match_golden",)),
    Mutant(
        "capped-cut-takes-ties", "exhaustive.py",
        "if bound[s] < best.floor:",
        "if best.util is not None and bound[s] <= best.util:",
        ("tests/test_capacitated_golden.py::"
         "test_capacitated_solves_match_golden",)),
    Mutant(
        "incumbent-keeps-the-first-optimum", "exhaustive.py",
        "if self.util is None or util > self.util or key < self.key:",
        "if self.util is None or util > self.util:",
        ("tests/test_exhaustive.py::"
         "test_tie_contract_on_tie_heavy_instances",)),
    Mutant(
        "incumbent-floor-without-its-slack", "exhaustive.py",
        "self.floor = util - 1e-9 * (1 + abs(util))",
        "self.floor = util",
        ("tests/test_capacitated_golden.py::"
         "test_capacitated_solves_match_golden",
         "tests/test_uncapacitated_golden.py::"
         "test_uncapacitated_solves_match_golden")),
    Mutant(
        "int-scores-pass-unranged", "model.py",
        "\n            and SCORE_MIN <= min(row) and max(row) <= SCORE_MAX):",
        "):",
        ("tests/test_model.py::test_instance_rejects_out_of_range_score",
         "tests/test_model.py::test_instance_diagnostic_names_the_bad_score")),
    Mutant(
        "bounded-read-stops-at-the-budget", "model.py",
        "data = fh.read(_INPUT_MAX_BYTES + 1)",
        "data = fh.read(_INPUT_MAX_BYTES)",
        ("tests/test_cli.py::"
         "test_input_without_a_size_is_read_only_to_the_budget",)),
    Mutant(
        "caps-keys-in-any-script", "cli.py",
        "if key.isascii() and key.isdigit()",
        "if key.isdigit()",
        ("tests/test_cli.py::test_caps_reject_bad_ids_and_limits",)),
)


def mutated_src(tmp: str, mutant: "Mutant | None") -> str:
    """A copy of ``src/`` under ``tmp``, with ``mutant`` applied if given."""
    src = os.path.join(tmp, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info"))
    if mutant is not None:
        path = os.path.join(src, "leadsel", mutant.file)
        with open(path) as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text is not in "
                             f"{mutant.file} exactly once")
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
    return src


def run_tests(mutant: "Mutant | None", tests) -> int:
    """pytest's exit code for ``tests`` run against a copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = mutated_src(tmp, mutant)
        # the ini option puts the copy ahead of the repository's src/, and
        # PYTHONPATH reaches any subprocess a test starts
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode


def check() -> int:
    started = time.perf_counter()
    every_test = sorted({t for m in MUTANTS for t in m.tests})
    if run_tests(None, every_test) != 0:
        print("the named tests fail without a mutant")
        return 2
    survivors, errors = [], []
    for mutant in MUTANTS:
        code = run_tests(mutant, mutant.tests)
        if code == 0:
            survivors.append(mutant.name)
        elif code != 1:
            errors.append(f"{mutant.name}: pytest exited {code}")
    print("\n".join([f"survived: {name}" for name in survivors] + errors + [
        f"{len(MUTANTS) - len(survivors) - len(errors)} of {len(MUTANTS)} "
        f"mutants killed in {time.perf_counter() - started:.0f} s"]))
    return 2 if errors else 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run the named tests against every mutant")
    if parser.parse_args(argv).check:
        return check()
    for mutant in MUTANTS:
        print(f"{mutant.name} ({mutant.file}): {', '.join(mutant.tests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
