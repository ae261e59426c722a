"""Command line surface: subcommands, exit codes, determinism."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from leadsel import save_instance
from leadsel.cli import main
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


@pytest.mark.parametrize("caps, key", [
    ({"1": -3}, "'1'"),
    ({"4": 1}, "'4'"),
    ({"0": 1}, "'0'"),
    ({"2": 1.5}, "'2'"),
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
