"""Command line surface: subcommands, exit codes, determinism."""
from __future__ import annotations

import ast
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

import leadsel
from leadsel import cli, model, save_instance
from leadsel.cli import BENCH_MAX_N, COUNT_MAX_N, GEN_MAX_N, main
from leadsel.counting import count_configs_exhaustive
from leadsel.exhaustive import CONFIG_BUDGET
from leadsel.model import Instance


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def instance_a_path(tmp_path, instance_a):
    path = tmp_path / "a.json"
    save_instance(instance_a, path)
    return str(path)


@pytest.fixture
def zero_lii_path(tmp_path):
    inst = Instance(3, (0, 0, 0), ((0, 5, 5), (5, 0, 5), (5, 5, 0)))
    path = tmp_path / "zero.json"
    save_instance(inst, path)
    return str(path)


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for sub in ("gen", "solve", "simulate", "bench", "count"):
        assert sub in result.output


def _loaded_by_import(names) -> str:
    """The sorted list of the top-level modules ``names`` that a new
    interpreter has loaded after ``import leadsel, leadsel.cli``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leadsel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, leadsel, leadsel.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            f"& {set(names)!r}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


def test_import_loads_neither_numpy_nor_scipy():
    # only the capacitated solver needs them, and imports them when called
    assert _loaded_by_import({"numpy", "scipy"}) == "[]"


def test_import_loads_no_process_pool():
    # only `bench --jobs` above 1 needs it, and imports it then
    assert _loaded_by_import({"concurrent", "multiprocessing"}) == "[]"


def test_in_process_calls_leave_their_streams_unreferenced(tmp_path):
    # click caches a stream it picks itself for the life of the process, so
    # a caller that redirects stdout or stderr per call would keep each one
    inst = str(tmp_path / "inst.json")
    for argv, redirect, code in (
            (["gen", "--n", "3", "--out", inst], redirect_stdout, 0),
            (["--json-errors", "solve", str(tmp_path / "missing.json")],
             redirect_stderr, 1)):
        stream = io.StringIO()
        with redirect(stream):
            assert (main.main(args=argv, prog_name="leadsel",
                              standalone_mode=False) or 0) == code
        assert json.loads(stream.getvalue())
        gone = weakref.ref(stream)
        del stream
        gc.collect()
        assert gone() is None, argv


def test_every_echo_names_its_stream():
    # a new echo left to pick its stream would keep each redirected one
    # alive again, which only an in-process caller would notice
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("echo", "secho")]
    assert calls
    unnamed = [node.lineno for node in calls
               if "file" not in {k.arg for k in node.keywords}]
    assert unnamed == []


def _capped_solve_in_fresh_process(tmp_path, setup: str, after: str) -> str:
    """Run ``setup``, a capped ``solve_exhaustive`` and ``leadsel solve
    --caps`` (N = 12) through ``cli.main`` in a new interpreter, then
    ``after``; returns the last line printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leadsel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    inst_path, caps_path = tmp_path / "inst.json", tmp_path / "caps.json"
    code = (f"{setup}\n"
            "import json, sys\n"
            "from leadsel import generate_instance, save_instance, "
            "solve_exhaustive\n"
            "from leadsel.cli import main\n"
            "inst = generate_instance(12, 0)\n"
            "caps = {m: 1 + m % 3 for m in inst.ue_ids}\n"
            "lib = solve_exhaustive(inst, 5, caps=caps)\n"
            f"save_instance(inst, {str(inst_path)!r})\n"
            f"open({str(caps_path)!r}, 'w').write(json.dumps(caps))\n"
            f"main(['solve', '--rho', '5', '--caps', {str(caps_path)!r}, "
            f"{str(inst_path)!r}], standalone_mode=False)\n"
            f"{after}\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip().splitlines()[-1]


def test_capped_solves_never_load_scipy(tmp_path):
    # the capacitated search runs its own assignment solver; importing
    # scipy.optimize alone would cost more than half a second
    last = _capped_solve_in_fresh_process(
        tmp_path, "import sys",
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    assert last == "[]"


def test_capped_solve_time_leaves_out_the_numpy_import(tmp_path):
    # Importing numpy is made to take 1000 s on the clock the solver reads,
    # so a solve that started its clock before the import reports it.
    setup = ("import sys, time\n"
             "clock, skew = time.perf_counter, [0.0]\n"
             "time.perf_counter = lambda: clock() + skew[0]\n"
             "class SlowNumpy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        skew[0] += 1000.0 * (name == 'numpy')\n"
             "sys.meta_path.insert(0, SlowNumpy())")
    last = _capped_solve_in_fresh_process(
        tmp_path, setup, "print(json.dumps([lib.elapsed, skew[0]]))")
    lib_elapsed, skew = json.loads(last)
    assert skew == 1000.0  # numpy was imported once, by the library solve
    assert lib_elapsed < 1000.0


# -- gen ----------------------------------------------------------------------

def test_gen_writes_valid_instance(runner, tmp_path):
    out = tmp_path / "g.json"
    result = runner.invoke(main, ["gen", "--n", "3", "--seed", "7",
                                  "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3 and len(data["lxi"]) == 3
    summary = json.loads(result.output)
    assert summary["written"] == str(out)
    assert "case1" in summary


def test_gen_is_byte_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    runner.invoke(main, ["gen", "--n", "5", "--seed", "3", "--out", str(a)])
    runner.invoke(main, ["gen", "--n", "5", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_zero_n(runner, tmp_path):
    result = runner.invoke(main, ["gen", "--n", "0",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize("json_errors", [False, True])
def test_gen_refuses_n_above_its_budget(runner, tmp_path, json_errors):
    out = tmp_path / "x.json"
    argv = ["gen", "--n", str(GEN_MAX_N + 1), "--out", str(out)]
    result = runner.invoke(main, ["--json-errors"] * json_errors + argv)
    assert result.exit_code == 2
    assert "--n" in result.output
    if json_errors:
        assert json.loads(result.output)["exit_code"] == 2
    assert not out.exists()


def test_bench_n_stops_at_the_config_budget():
    assert BENCH_MAX_N == 13
    assert (count_configs_exhaustive(BENCH_MAX_N) <= CONFIG_BUDGET
            < count_configs_exhaustive(BENCH_MAX_N + 1))


@pytest.mark.parametrize("n", [0, BENCH_MAX_N + 1])
@pytest.mark.parametrize("json_errors", [False, True])
def test_bench_refuses_n_outside_its_budget(runner, tmp_path, n, json_errors):
    out = tmp_path / "report"
    argv = ["bench", "--n", "3", "--n", str(n), "--instances", "1",
            "--rho", "0", "--timing-reps", "1", "--out", str(out)]
    result = runner.invoke(main, ["--json-errors"] * json_errors + argv)
    assert result.exit_code == 2
    assert "--n" in result.output
    if json_errors:
        assert json.loads(result.output)["exit_code"] == 2
    assert not out.exists()


def test_gen_edge_server_flag(runner, tmp_path):
    out = tmp_path / "e.json"
    result = runner.invoke(main, ["gen", "--n", "3", "--seed", "1",
                                  "--edge-server", "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["edge_server"] is True
    assert len(data["lii"]) == 4


def test_gen_seed_from_environment(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("LEADSEL_SEED", "3")
    a = tmp_path / "env.json"
    runner.invoke(main, ["gen", "--n", "5", "--out", str(a)])
    b = tmp_path / "flag.json"
    runner.invoke(main, ["gen", "--n", "5", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# -- solve --------------------------------------------------------------------

def test_solve_worked_example(runner, instance_a_path):
    result = runner.invoke(main, ["solve", "--rho", "0", instance_a_path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["utility"] == 17
    assert payload["leaders"] == [1]
    assert payload["constraints"]["c2_ok"] is True


def test_solve_infeasible_reports_case1(runner, zero_lii_path):
    result = runner.invoke(main, ["solve", "--mode", "strict", zero_lii_path])
    assert result.exit_code == 3
    assert "Case 1" in result.output


def test_solve_json_errors(runner, zero_lii_path):
    result = runner.invoke(main, ["--json-errors", "solve", "--mode", "strict",
                                  zero_lii_path])
    assert result.exit_code == 3
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["exit_code"] == 3
    assert payload["case1"] is True


def test_solve_json_errors_report_case2_at_rho(runner, tmp_path):
    # UE 2 accepts only UE 1, which may not lead at rho 5
    inst = Instance(3, (3, 0, 9), ((0, 0, 0), (5, 0, 0), (1, 0, 0)))
    path = tmp_path / "case2.json"
    save_instance(inst, path)
    result = runner.invoke(main, ["--json-errors", "solve", "--mode", "strict",
                                  "--rho", "5", str(path)])
    assert result.exit_code == 3
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["case1"] is False
    assert payload["case2_isolated"] == [1, 2]


def test_solve_over_the_config_budget_exits_2(runner, tmp_path):
    path = str(tmp_path / "n14.json")
    assert runner.invoke(main, ["gen", "--n", "14", "--seed", "0",
                                "--out", path]).exit_code == 0
    result = runner.invoke(main, ["solve", path])
    assert result.exit_code == 2
    assert ("error: 14 nodes need 3144297352 configurations, over the budget "
            "of 337611001") in result.output


@pytest.mark.parametrize("mode, code", [("relaxed", 0), ("strict", 3)])
def test_solve_with_caps_on_a_single_ue(runner, tmp_path, mode, code):
    path, caps = tmp_path / "n1.json", tmp_path / "caps.json"
    save_instance(Instance(1, (5,), ((0,),)), path)
    caps.write_text("{}")
    result = runner.invoke(main, ["solve", "--mode", mode, "--caps",
                                  str(caps), str(path)])
    assert result.exit_code == code
    if code == 0:
        payload = json.loads(result.output)
        assert (payload["utility"], payload["isolated"]) == (0, [1])
    else:
        assert "no feasible leader set" in result.output


def test_solve_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["solve", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


def test_solve_with_caps(runner, instance_a_path, tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"1": 1, "2": 1, "3": 1}))
    result = runner.invoke(main, ["solve", "--caps", str(caps),
                                  instance_a_path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["constraints"]["capacity_ok"] is True


def test_solve_rejects_bad_caps(runner, instance_a_path, tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"one": "many"}))
    result = runner.invoke(main, ["solve", "--caps", str(caps),
                                  instance_a_path])
    assert result.exit_code == 2


def test_solve_rejects_scalar_lxi_rows(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "lii": [1, 2], "lxi": [5, 6]}))
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 2
    assert "lxi[0]" in result.output


@pytest.mark.parametrize("flag", ["no", 1, None, [True]])
def test_solve_rejects_non_boolean_edge_server(runner, tmp_path, flag):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "lii": [1, 2], "lxi": [[0, 1], [1, 0]],
                                "edge_server": flag}))
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 2
    assert "edge_server" in result.output


@pytest.mark.parametrize("kind", ["instance", "caps"])
def test_solve_rejects_deeply_nested_json(runner, instance_a_path, tmp_path,
                                          kind):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    args = [str(deep)] if kind == "instance" else [
        "--caps", str(deep), instance_a_path]
    result = runner.invoke(main, ["solve"] + args)
    assert result.exit_code == 2
    assert f"bad {kind} file" in result.output
    assert "nested too deeply" in result.output


@pytest.mark.parametrize("content", [
    b"\xff\xfe", b'{"1": ' + b"7" * 5000 + b"}",
], ids=["not-utf8", "long-int"])
@pytest.mark.parametrize("kind", ["instance", "caps"])
def test_solve_rejects_unreadable_json(runner, instance_a_path, tmp_path,
                                       kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = [str(bad)] if kind == "instance" else [
        "--caps", str(bad), instance_a_path]
    result = runner.invoke(main, ["solve"] + args)
    assert result.exit_code == 2
    assert f"bad {kind} file" in result.output


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("kind", ["instance", "caps"])
def test_input_file_over_the_budget_exits_2_unparsed(
        runner, instance_a_path, tmp_path, monkeypatch, kind, json_errors):
    budget = model._INPUT_MAX_BYTES
    big = tmp_path / "big.json"
    with open(big, "wb") as fh:
        fh.truncate(budget + 1)  # sparse: no block is written
    parsed, load = [], json.load

    def recording_load(fh):
        parsed.append(fh.name)
        return load(fh)

    monkeypatch.setattr(json, "load", recording_load)
    error = (f"bad {kind} file {big}: file has {budget + 1} bytes, over the "
             f"budget of {budget}")
    args = [str(big)] if kind == "instance" else [
        "--caps", str(big), instance_a_path]
    for command in (["solve"], ["simulate", "--rho", "4"]):
        result = runner.invoke(main, ["--json-errors"] * json_errors
                               + command + args)
        assert result.exit_code == 2
        if json_errors:
            assert json.loads(result.stderr) == {"error": error,
                                                 "exit_code": 2}
        else:
            assert result.stderr == f"error: {error}\n"
    # only the instance file of a caps case reaches the parser
    assert parsed == ([] if kind == "instance" else [instance_a_path] * 2)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_input_without_a_size_is_read_only_to_the_budget(runner, monkeypatch):
    # a device reports st_size 0, so only the read can stop it
    monkeypatch.setattr(model, "_INPUT_MAX_BYTES", 4096)
    result = runner.invoke(main, ["--json-errors", "solve", "/dev/zero"])
    assert result.exit_code == 2
    assert json.loads(result.stderr) == {
        "error": "bad instance file /dev/zero: file runs past the budget of "
                 "4096 bytes", "exit_code": 2}


def test_the_input_budget_admits_every_file_gen_writes(tmp_path):
    # A file of N UEs and node 0 holds (N + 1)² scores of at most 7 bytes
    # ("   10,\n"), at most 16 bytes of frame a row and 64 more; a file of
    # the largest scores meets the bound.
    def bound(n):
        return 7 * (n + 1) ** 2 + 16 * (n + 1) + 64

    for n in (1, 2, 9, 40):
        tens = Instance(n, (10,) * (n + 1), ((0,) * (n + 1),) + tuple(
            tuple(0 if c == r else 10 for c in range(n + 1))
            for r in range(1, n + 1)), has_edge_server=True)
        path = tmp_path / f"tens{n}.json"
        save_instance(tens, path)
        assert os.path.getsize(path) <= bound(n)
    assert bound(GEN_MAX_N) <= model._INPUT_MAX_BYTES


@pytest.mark.parametrize("caps, key", [
    ({"1": -3}, "'1'"),
    ({"4": 1}, "'4'"),
    ({"0": 1}, "'0'"),
    ({"2": 1.5}, "'2'"),
    ({"1": 0, "01": 5}, "'01'"),
])
def test_caps_reject_bad_ids_and_limits(runner, instance_a_path, tmp_path,
                                        caps, key):
    path = tmp_path / "caps.json"
    path.write_text(json.dumps(caps))
    for command in (["solve"], ["simulate", "--rho", "4"]):
        result = runner.invoke(main, command + ["--caps", str(path),
                                                instance_a_path])
        assert result.exit_code == 2
        assert f"key {key}" in result.output


@pytest.mark.parametrize("case", [
    "caps-not-a-map", "caps-missing", "gen-out", "simulate-log", "bench-out"])
def test_json_errors_cover_file_failures(runner, instance_a_path, tmp_path,
                                         case):
    listed, missing = tmp_path / "list.json", tmp_path / "missing.json"
    listed.write_text("[1, 2]")
    afile = tmp_path / "afile"
    afile.write_text("")
    nodir = tmp_path / "nodir"
    argv, code, error = {
        "caps-not-a-map": (["solve", "--caps", str(listed), instance_a_path],
                           2, f"caps file {listed} must map ue-id to limit"),
        "caps-missing": (["solve", "--caps", str(missing), instance_a_path],
                         1, f"cannot read {missing}: "),
        "gen-out": (["gen", "--n", "3", "--out", str(nodir / "x.json")],
                    1, f"cannot write {nodir / 'x.json'}: "),
        "simulate-log": (["simulate", "--rho", "4", "--log",
                          str(nodir / "l.jsonl"), instance_a_path],
                         1, f"cannot write {nodir / 'l.jsonl'}: "),
        "bench-out": (["bench", "--n", "3", "--instances", "1", "--rho", "0",
                       "--timing-reps", "1", "--out", str(afile / "sub")],
                      1, f"cannot write to {afile / 'sub'}: "),
    }[case]
    result = runner.invoke(main, ["--json-errors"] + argv)
    assert result.exit_code == code
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["exit_code"] == code
    assert payload["error"].startswith(error)
    if case == "caps-not-a-map":
        assert payload == {"error": error, "exit_code": 2}


@pytest.mark.parametrize("lii0, row0, diagnostic", [
    (0, [0, 0, 0], "lii[0]: edge server needs lii > 0"),
    (10, [0, 1, 0], "lxi[0]: edge server never follows anyone; row 0 must "
                    "be zero"),
], ids=["lii0", "row0"])
def test_solve_rejects_a_bad_edge_server(runner, tmp_path, lii0, row0,
                                         diagnostic):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "n": 2, "edge_server": True, "lii": [lii0, 5, 5],
        "lxi": [row0, [1, 0, 1], [1, 1, 0]]}))
    result = runner.invoke(main, ["--json-errors", "solve", str(path)])
    assert result.exit_code == 2
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == f"bad instance file {path}: {diagnostic}"


@pytest.mark.parametrize("argv", [
    ["count", "--n", str(COUNT_MAX_N + 1)],
    ["gen", "--n", "0", "--out", "x.json"],
    ["count"],
    ["no-such-command"],
    ["--no-such-option"],
])
def test_json_errors_cover_usage_errors(runner, argv):
    plain = runner.invoke(main, argv)
    assert plain.exit_code == 2
    assert "Usage:" in plain.output and "Error:" in plain.output
    result = runner.invoke(main, ["--json-errors"] + argv)
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["exit_code"] == 2
    error = plain.output.splitlines()[-1]
    assert error == "Error: " + payload["error"]


@pytest.mark.parametrize("rho", ["inf", "-inf", "nan"])
def test_non_finite_rho_is_rejected(runner, instance_a_path, rho):
    for command in ("solve", "simulate"):
        result = runner.invoke(main, [command, "--rho", rho, instance_a_path])
        assert result.exit_code == 2
        assert "finite" in result.output


# -- simulate -----------------------------------------------------------------

def test_simulate_worked_example(runner, instance_a_path):
    result = runner.invoke(main, ["simulate", "--rho", "4", "--seed", "1",
                                  instance_a_path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["utility"] == 17
    assert payload["messages_total"] <= 9


def test_simulate_requires_exactly_one_rho_source(runner, instance_a_path):
    both = runner.invoke(main, ["simulate", "--rho", "1", "--rho-rule", "mean",
                                instance_a_path])
    neither = runner.invoke(main, ["simulate", instance_a_path])
    assert both.exit_code == 2
    assert neither.exit_code == 2


def test_simulate_rho_rule(runner, instance_a_path):
    result = runner.invoke(main, ["simulate", "--rho-rule", "mean",
                                  "--seed", "1", instance_a_path])
    assert result.exit_code == 0
    assert json.loads(result.output)["rho"] == pytest.approx(14 / 3)


def test_simulate_writes_log(runner, instance_a_path, tmp_path):
    log = tmp_path / "ep.jsonl"
    result = runner.invoke(main, ["simulate", "--rho", "4", "--seed", "1",
                                  "--log", str(log), instance_a_path])
    assert result.exit_code == 0
    lines = log.read_text().splitlines()
    assert lines and all(json.loads(line)["kind"] for line in lines)


def test_simulate_strict_outcome_flags_degenerate(runner, zero_lii_path):
    result = runner.invoke(main, ["simulate", "--rho", "0", "--seed", "1",
                                  "--strict-outcome", zero_lii_path])
    assert result.exit_code == 4


@pytest.mark.parametrize("json_errors", [False, True])
def test_strict_outcome_exit_gives_a_reason(runner, zero_lii_path,
                                            json_errors):
    argv = ["simulate", "--rho", "0", "--seed", "1", zero_lii_path]
    plain = runner.invoke(main, argv)
    assert plain.exit_code == 0
    result = runner.invoke(main, ["--json-errors"] * json_errors + argv
                           + ["--strict-outcome"])
    assert result.exit_code == 4
    # the outcome is still printed as without the flag
    assert result.stdout == plain.stdout
    error = "degenerate outcome: no leader, every node isolated"
    if json_errors:
        assert json.loads(result.stderr) == {"error": error, "exit_code": 4}
    else:
        assert result.stderr == f"error: {error}\n"


def test_simulate_edge_server_rescue(runner, zero_lii_path):
    result = runner.invoke(main, ["simulate", "--rho", "0", "--seed", "1",
                                  "--edge-server", "--strict-outcome",
                                  zero_lii_path])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["leaders"] == [0]
    assert payload["edge_server_used"] is True


# -- bench --------------------------------------------------------------------

def test_bench_writes_reports(runner, tmp_path):
    out = tmp_path / "rep"
    result = runner.invoke(main, [
        "bench", "--n", "4", "--instances", "3", "--rho", "0", "--rho", "2",
        "--seed", "1", "--timing-reps", "1", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(result.output)["rows"] == 2
    csv_lines = (out / "report_broadcast.csv").read_text().splitlines()
    assert len(csv_lines) == 3  # header + one row per rho
    hist = json.loads((out / "hist_distributed_n4.json").read_text())
    assert sum(hist["bins"].values()) == 6


# -- count --------------------------------------------------------------------

def test_count_exhaustive(runner):
    result = runner.invoke(main, ["count", "--n", "4"])
    assert result.exit_code == 0
    assert json.loads(result.output)["exhaustive"] == "16"


def test_count_with_bound(runner):
    result = runner.invoke(main, ["count", "--n", "10", "--l", "3"])
    payload = json.loads(result.output)
    assert int(payload["distributed_bound"]) < int(payload["exhaustive"])


def test_count_rejects_l_above_n(runner):
    result = runner.invoke(main, ["count", "--n", "3", "--l", "5"])
    assert result.exit_code == 2


def test_count_up_to_its_limit(runner):
    # deep enough that a Stirling recursion per n would overflow the stack
    result = runner.invoke(main, ["count", "--n", "600"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["exhaustive"]) == 1128
    result = runner.invoke(main, ["count", "--n", str(COUNT_MAX_N + 1)])
    assert result.exit_code == 2
    assert "--n" in result.output


# -- fuzz ---------------------------------------------------------------------

def _fuzz_files(tmp_path, instance_a) -> dict:
    """Paths by name: good and malformed instance and caps files, and paths
    that cannot be read or written."""
    text = {
        "deep": "[" * 100000 + "]" * 100000,
        "long-int": '{"n": ' + "7" * 5000 + "}",
        "nan": '{"n": 2, "lii": [NaN, 1], "lxi": [[0, 1], [1, 0]]}',
        "bool": '{"n": 2, "lii": [true, 1], "lxi": [[0, 1], [1, 0]]}',
        "bool-n": '{"n": true, "lii": [1], "lxi": [[0]]}',
        "short-row": '{"n": 2, "lii": [1, 1], "lxi": [[0, 1], [1]]}',
        "scalar-rows": '{"n": 2, "lii": [1, 1], "lxi": [1, 2]}',
        "list": "[1, 2]",
        "empty": "",
        "caps": '{"1": 1, "2": 2}',
        "caps-duplicate": '{"1": 1, "01": 2}',
        "caps-repeated": '{"1": 1, "1": 2}',
        "caps-negative": '{"1": -1}',
        "caps-float": '{"2": 1.5}',
        "caps-bool": '{"1": true}',
        "caps-nan": '{"1": NaN}',
        "caps-huge": '{"1": 1e308}',
        "caps-key": '{"x": 1}',
        "caps-node0": '{"0": 1}',
    }
    paths = {}
    for name, body in text.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(body)
    paths["not-utf8"] = tmp_path / "not-utf8.json"
    paths["not-utf8"].write_bytes(b"\xff\xfe{")
    for name, inst in (("inst", instance_a),
                       ("zero", Instance(3, (0, 0, 0), ((0, 5, 5), (5, 0, 5),
                                                       (5, 5, 0)))),
                       ("edge", model.attach_edge_server(instance_a, 10,
                                                         [1, 0, 1]))):
        paths[name] = tmp_path / f"{name}.json"
        save_instance(inst, paths[name])
    afile = tmp_path / "afile"
    afile.write_text("")
    paths.update(missing=tmp_path / "missing.json", dir=tmp_path,
                 under_file=afile / "x.json", no_dir=tmp_path / "nodir" / "x")
    return {name: str(path) for name, path in paths.items()}


def _fuzz_argv(rng, files) -> list:
    """One drawn command line over the five commands. Each option value is
    good three times in four, so that most commands get past their checks;
    half the file draws take a good file."""
    def value(good, bad):
        return str(rng.choice(good if rng.random() < 0.75 else bad))

    def maybe(option, good, bad):
        return [option, value(good, bad)] if rng.random() < 0.7 else []

    def flag(option):
        return [option] * rng.randint(0, 1)

    instance = value([files["inst"], files["zero"], files["edge"]],
                     list(files.values()))
    caps = ["--caps", value([files["caps"]], list(files.values()))] \
        if rng.random() < 0.4 else []
    rho = ["--rho", value([0, 4, 2.5, -1],
                          ["nan", "inf", "-inf", "1e308", "-1e308", "x", ""])]
    out = value([files["dir"] + "/out"], [files["under_file"], files["dir"],
                                          files["no_dir"], files["missing"]])
    command = rng.choice(["gen", "solve", "simulate", "bench", "count"])
    if rng.random() < 0.05:
        argv = [rng.choice(["no-such-command", "--no-such-option"])]
    elif command == "gen":
        argv = (["gen"] + maybe("--n", [1, 3, 6], [0, -1, GEN_MAX_N + 1, "x"])
                + maybe("--seed", [0, 7, -5], ["x"]) + flag("--edge-server")
                + ["--out", out + ".json"])
    elif command == "solve":
        argv = (["solve"] + rho * rng.randint(0, 1) + caps
                + maybe("--mode", ["strict", "relaxed"], ["x"]) + [instance])
    elif command == "simulate":
        rule = ["--rho-rule", value(["mean", "half_n"], ["x"])]
        argv = (["simulate"] + rng.choice([rho, rho, rule, rho + rule, []])
                + maybe("--transport", ["broadcast", "p2p"], ["smoke"])
                + caps + flag("--edge-server") + flag("--strict-outcome")
                + maybe("--seed", [0, 3], ["x"])
                + (["--log", out + ".jsonl"] if rng.random() < 0.3 else [])
                + [instance])
    elif command == "bench":
        # --instances always, so that a run never takes the default of 100
        argv = (["bench", "--n", value([1, 2, 3], [0, BENCH_MAX_N + 1, "x"]),
                 "--instances", value([1], [0, "x"])]
                + maybe("--rho", [0, 3], ["x"])
                + maybe("--transport", ["p2p"], ["x"])
                + maybe("--timing-reps", [1], [0]) + ["--out", out])
    else:
        argv = (["count"] + maybe("--n", [1, 7, 40], [0, COUNT_MAX_N + 1, "x"])
                + maybe("--l", [0, 2, 50], [-1, "x"]))
    return flag("--json-errors") + argv


@pytest.mark.parametrize("seed", range(3))
def test_cli_fuzz_exits_with_a_documented_code(runner, tmp_path, instance_a,
                                              seed):
    # Drawn command lines over bad values and malformed files end in a
    # documented exit code, never in an exception; every non-zero exit says
    # why on stderr, under --json-errors as one JSON object.
    files = _fuzz_files(tmp_path, instance_a)
    rng = random.Random(seed)
    codes = set()
    for _ in range(1000):
        argv = _fuzz_argv(rng, files)
        result = runner.invoke(main, argv)
        code = result.exit_code
        codes.add(code)
        assert code in {0, 1, 2, 3, 4}, (argv, result.output)
        assert result.exception is None or isinstance(
            result.exception, SystemExit), (argv, result.exception)
        if code == 0:
            json.loads(result.stdout.splitlines()[-1])
        elif argv[0] == "--json-errors":
            lines = result.stderr.splitlines()
            assert len(lines) == 1, (argv, result.stderr)
            assert json.loads(lines[0])["exit_code"] == code, argv
        else:
            assert result.stderr, argv
    assert codes == {0, 1, 2, 3, 4}
