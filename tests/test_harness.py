"""Experiment harness: seeding, bounds, statistics and benchmark reports."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from leadsel import (
    ExperimentConfig,
    Instance,
    LeaderSizeStats,
    ProtocolConfig,
    check_message_bounds,
    derive_seed,
    generate_instance,
    harness,
    rho_rule,
    run_benchmark,
    run_episode,
)
from leadsel.harness import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    broadcast_bound,
    message_bound,
    p2p_bound,
)


# -- seed derivation ----------------------------------------------------------

def test_derive_seed_is_stable_and_tagged():
    assert derive_seed(0, "inst", 10, 3) == derive_seed(0, "inst", 10, 3)
    assert derive_seed(0, "inst", 10, 3) != derive_seed(0, "inst", 10, 4)
    assert derive_seed(0, "inst", 10, 3) != derive_seed(1, "inst", 10, 3)
    assert derive_seed(0, "ep", 10, 3) != derive_seed(0, "inst", 10, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(), st.integers())
def test_derive_seed_fits_64_bits(master, tag):
    assert 0 <= derive_seed(master, tag) < 2**64


# -- threshold rules ----------------------------------------------------------

def test_rho_rule_mean(instance_a):
    assert rho_rule(instance_a, "mean") == pytest.approx(14 / 3)


def test_rho_rule_mean_excludes_everyone_when_equal():
    inst = Instance(2, (5, 5), ((0, 1), (1, 0)))
    rho = rho_rule(inst, "mean")
    assert rho == 5
    assert all(inst.lii_of(n) <= rho for n in inst.ue_ids)


def test_rho_rule_half_n():
    inst = Instance(6, (10, 10, 10, 1, 1, 1),
                    tuple(tuple(0 if c == r else 1 for c in range(6))
                          for r in range(6)))
    rho = rho_rule(inst, "half_n")
    assert rho == 1
    assert sum(1 for n in inst.ue_ids if inst.lii_of(n) > rho) == 3
    # 3 of 4 UEs clear every threshold below 10, more than n // 2 = 2
    inst = Instance(4, (10, 10, 10, 1),
                    tuple(tuple(0 if c == r else 1 for c in range(4))
                          for r in range(4)))
    assert rho_rule(inst, "half_n") == 10


def test_rho_rule_rejects_unknown(instance_a):
    with pytest.raises(ValueError):
        rho_rule(instance_a, "median")


# -- message bounds -----------------------------------------------------------

def test_bound_formulas():
    assert broadcast_bound(10, 4) == 32  # 30 + 4 - 2
    assert p2p_bound(10, 4) == 120  # 110 + 12 - 2
    assert broadcast_bound(3, 2) == 9
    assert message_bound(10, 4, "broadcast") == 32
    assert message_bound(10, 4, "p2p") == 120


def test_check_message_bounds_on_episodes():
    for seed in range(50):
        inst = generate_instance(7, seed)
        for transport in ("broadcast", "p2p"):
            outcome = run_episode(inst, ProtocolConfig(rho=3, transport=transport),
                                  seed=seed)
            assert check_message_bounds(outcome, 7,
                                        len(outcome.leader_set_phase1), transport)


def test_check_message_bounds_rejects_bad_transport(instance_a):
    outcome = run_episode(instance_a, ProtocolConfig(rho=4), seed=0)
    with pytest.raises(ValueError):
        check_message_bounds(outcome, 3, 2, "smoke-signals")
    with pytest.raises(ValueError):
        message_bound(3, 2, "smoke-signals")


# -- leader-size statistics ---------------------------------------------------

def test_singleton_histogram():
    stats = LeaderSizeStats.from_sizes([2])
    assert stats.bins == {2: 1}
    assert stats.mean == 2
    assert stats.variance == 0


def test_empty_histogram_rejected():
    with pytest.raises(ValueError):
        LeaderSizeStats.from_sizes([])


def test_histogram_json_shape():
    d = LeaderSizeStats.from_sizes([1, 2, 2]).to_json_dict("optimal", 7)
    assert d["method"] == "optimal" and d["n"] == 7
    assert d["bins"] == {"1": 1, "2": 2}
    assert d["fit"]["mean"] == pytest.approx(5 / 3)


# -- benchmark pipeline -------------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(5,), instances_per_n=0)


@pytest.mark.parametrize("field, value, error", [
    ("timing_reps", 0, "timing_reps must be >= 1"),
    ("modes", ("smoke",), "unknown transport 'smoke'"),
    ("modes", ("p2p", "smoke"), "unknown transport 'smoke'"),
], ids=["timing-reps-0", "smoke", "p2p-and-smoke"])
def test_experiment_config_refuses_what_the_benchmark_cannot_run(
        monkeypatch, field, value, error):
    # refused when built, before any instance is generated or solved
    def work(*args, **kwargs):
        pytest.fail("the benchmark started work")

    for name in ("generate_instance", "solve_exhaustive", "run_episode"):
        monkeypatch.setattr(harness, name, work)
    with pytest.raises(ValueError, match=error):
        run_benchmark(ExperimentConfig(n_values=(4,), instances_per_n=1,
                                       **{field: value}))


def test_optimal_rho_is_a_constant():
    # the exact reference always solves at rho 0; it is not a setting
    assert ExperimentConfig(n_values=(5,)).optimal_rho == 0
    with pytest.raises(TypeError):
        ExperimentConfig(n_values=(5,), optimal_rho=1)


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(n_values=(5,), instances_per_n=6,
                           rho_values=(0, 3, 5), master_seed=11,
                           timing_reps=1)
    return cfg, run_benchmark(cfg)


def test_benchmark_row_grid(small_report):
    cfg, report = small_report
    assert len(report.rows) == 3  # one per rho
    assert {r.rho for r in report.rows} == {0, 3, 5}
    for row in report.rows:
        assert row.gap_pct <= 0.0 + 1e-9
        assert row.msgs_mean <= row.msgs_bound


def test_benchmark_histograms_sum_to_samples(small_report):
    cfg, report = small_report
    assert report.histograms[("optimal", 5)].count == 6
    assert report.histograms[("distributed", 5)].count == 6 * 3


def test_benchmark_csv_columns(small_report):
    cfg, report = small_report
    text = report.csv_text(transport="broadcast")
    header = text.splitlines()[0].split(",")
    assert header == list(CSV_COLUMNS)
    stripped = report.csv_text(include_timing=False).splitlines()[0].split(",")
    assert stripped == [c for c in CSV_COLUMNS if c not in TIMING_COLUMNS]


def test_benchmark_rerun_matches_excluding_timing(small_report):
    cfg, report = small_report
    again = run_benchmark(cfg)
    assert report.csv_text(include_timing=False) == \
        again.csv_text(include_timing=False)


def test_benchmark_write_outputs(tmp_path, small_report):
    cfg, report = small_report
    report.write(tmp_path)
    assert (tmp_path / "report_broadcast.csv").exists()
    assert (tmp_path / "hist_optimal_n5.json").exists()
    assert (tmp_path / "hist_distributed_n5.json").exists()
    dat = (tmp_path / "sweep_util_n5.dat").read_text()
    assert dat.startswith("#")
    assert len([l for l in dat.splitlines() if not l.startswith("#")]) == 3


def test_parallel_jobs_match_sequential():
    base = ExperimentConfig(n_values=(4,), instances_per_n=4,
                            rho_values=(0, 4), master_seed=2, timing_reps=1)
    parallel = ExperimentConfig(n_values=(4,), instances_per_n=4,
                                rho_values=(0, 4), master_seed=2,
                                timing_reps=1, jobs=2)
    assert run_benchmark(base).csv_text(include_timing=False) == \
        run_benchmark(parallel).csv_text(include_timing=False)
