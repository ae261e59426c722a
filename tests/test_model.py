"""Domain model: instances, assignments, utility, constraints."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from leadsel import (
    Assignment,
    Instance,
    attach_edge_server,
    check_constraints,
    feasibility_scan,
    generate_instance,
    li_score,
    load_instance,
    save_instance,
    utility,
)
from leadsel.model import InstanceFormatError, ModelError


# -- generation ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers())
def test_generated_scores_in_range_with_zero_diagonal(n, seed):
    inst = generate_instance(n, seed)
    assert all(0 <= v <= 10 for v in inst.lii)
    for i, row in enumerate(inst.lxi):
        assert row[i] == 0
        assert all(0 <= v <= 10 for v in row)


def test_generation_is_deterministic():
    a = generate_instance(6, 42)
    b = generate_instance(6, 42)
    assert a == b
    assert a != generate_instance(6, 43)


def test_generated_lii_mean_is_uniform():
    # law of large numbers on uniform {0..10}
    total = 0
    count = 0
    for seed in range(1000):
        inst = generate_instance(10, seed)
        total += sum(inst.lii)
        count += 10
    assert abs(total / count - 5.0) < 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
@pytest.mark.parametrize("seed", [0, 1, -7, 2**70])
def test_generation_draws_what_randint_draws(n, seed):
    rng = random.Random(seed)
    lii = tuple(rng.randint(0, 10) for _ in range(n))
    lxi = tuple(tuple(0 if c == r else rng.randint(0, 10) for c in range(n))
                for r in range(n))
    inst = generate_instance(n, seed)
    assert (inst.lii, inst.lxi) == (lii, lxi)


def test_generate_rejects_bad_n():
    with pytest.raises(ModelError):
        generate_instance(0, 1)


# -- instance invariants ------------------------------------------------------

def test_instance_rejects_nonzero_diagonal():
    with pytest.raises(InstanceFormatError):
        Instance(2, (1, 1), ((0, 2), (3, 1)))


def test_instance_rejects_out_of_range_score():
    with pytest.raises(InstanceFormatError):
        Instance(2, (11, 1), ((0, 2), (3, 0)))


@pytest.mark.parametrize("lxi, path", [
    (((0, True), (3, 0)), "lxi[0][1]"),
    (((0, 2), (float("nan"), 0)), "lxi[1][0]"),
    (((0, 2), (3, 11)), "lxi[1][1]"),
    (((0, -1), (3, 0)), "lxi[0][1]"),
    (((0, "2"), (3, 0)), "lxi[0][1]"),
])
def test_instance_diagnostic_names_the_bad_score(lxi, path):
    with pytest.raises(InstanceFormatError) as err:
        Instance(2, (1, 1), lxi)
    assert err.value.field_path == path


def test_instance_accepts_real_scores():
    inst = Instance(2, (1.5, 1), ((0, 2.25), (10.0, 0)))
    assert inst.lxi_of(1, 2) == 2.25


@pytest.mark.parametrize("data, path", [
    ({"n": 2, "lii": [1, 2], "lxi": [5, 6]}, "lxi[0]"),
    ({"n": True, "lii": [1], "lxi": [[0]]}, "n"),
    ({"n": 1, "lii": 5, "lxi": [[0]]}, "lii"),
    ({"n": 1, "lii": [5], "lxi": {"0": [0]}}, "lxi"),
])
def test_from_json_dict_rejects_malformed_fields(data, path):
    with pytest.raises(InstanceFormatError) as err:
        Instance.from_json_dict(data)
    assert err.value.field_path == path


def test_instance_rejects_ragged_matrix():
    with pytest.raises(InstanceFormatError):
        Instance(2, (1, 1), ((0, 2, 9), (3, 0)))


def test_lxi_row_matches_lxi_of(instance_a):
    for m in instance_a.node_ids:
        row = instance_a.lxi_row(m)
        assert m not in row
        for n, v in row.items():
            assert v == instance_a.lxi_of(m, n)


def test_lxi_row_with_edge_server(instance_a):
    inst = attach_edge_server(instance_a, 10, [1, 1, 1])
    assert inst.lxi_row(2) == {0: 1, 1: 6, 3: 2}
    assert inst.lxi_row(0) == {1: 0, 2: 0, 3: 0}


def test_node_id_ranges(instance_a):
    assert list(instance_a.node_ids) == [1, 2, 3]
    inst = attach_edge_server(instance_a, 10, [1, 1, 1])
    assert list(inst.node_ids) == [0, 1, 2, 3]
    assert list(inst.ue_ids) == [1, 2, 3]
    assert inst.node_count == 4


# -- serialization ------------------------------------------------------------

def test_save_load_round_trip(tmp_path, instance_a):
    path = tmp_path / "a.json"
    save_instance(instance_a, path)
    assert load_instance(path) == instance_a


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "lii": [1, 1]}))
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


# -- utility ------------------------------------------------------------------

def test_utility_of_empty_assignment(instance_a):
    assert utility(instance_a, Assignment.all_isolated(instance_a)) == 0


def test_utility_worked_values(instance_a):
    a = Assignment.build({1}, {2: 1, 3: 1}, set())
    assert utility(instance_a, a) == 17  # 7 + 6 + 4
    b = Assignment.build({3}, {1: 3, 2: 3}, set())
    assert utility(instance_a, b) == 15  # 5 + 8 + 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers())
def test_utility_equals_manual_sum(n, seed):
    inst = generate_instance(n, seed)
    leader = 1
    follows = {m: leader for m in range(2, n + 1)}
    a = Assignment.build({leader}, follows, set())
    expected = inst.lii_of(leader) + sum(
        inst.lxi_of(m, leader) for m in follows)
    assert utility(inst, a) == expected


def test_li_score_worked_values(instance_a):
    assert li_score(instance_a, 2, 1) == 13  # 7 + 6
    assert li_score(instance_a, 2, 3) == 7   # 5 + 2


def test_li_score_rejects_self(instance_a):
    with pytest.raises(ModelError):
        li_score(instance_a, 1, 1)


# -- assignment structure -----------------------------------------------------

def test_assignment_rejects_leader_follower_overlap(instance_a):
    a = Assignment.build({1}, {1: 3, 2: 3}, set())
    with pytest.raises(ModelError):
        a.validate_structure(instance_a)


def test_assignment_rejects_self_follow(instance_a):
    a = Assignment.build(set(), {1: 1}, {2, 3})
    with pytest.raises(ModelError):
        a.validate_structure(instance_a)


def test_assignment_rejects_unknown_nodes(instance_a):
    a = Assignment.build({9}, {}, {1, 2, 3})
    with pytest.raises(ModelError):
        a.validate_structure(instance_a)


def test_assignment_must_partition(instance_a):
    a = Assignment.build({1}, {2: 1}, set())  # UE 3 unaccounted for
    with pytest.raises(ModelError):
        a.validate_structure(instance_a)


# -- constraints --------------------------------------------------------------

def test_constraints_pass_on_optimal(instance_a):
    a = Assignment.build({1}, {2: 1, 3: 1}, set())
    rep = check_constraints(instance_a, a, 4)
    assert rep.all_ok
    assert rep.violators == ()


def test_c2_violated_by_empty_leader(instance_a):
    a = Assignment.build({1, 3}, {2: 1}, set())
    rep = check_constraints(instance_a, a, 4)
    assert not rep.c2_ok
    assert ("C2", 3) in rep.violators


def test_c3_violated_below_threshold(instance_a):
    a = Assignment.build({2}, {1: 2, 3: 2}, set())
    rep = check_constraints(instance_a, a, 4)
    assert not rep.c3_ok  # LII_2 = 2 <= 4


def test_strict_mode_flags_isolation(instance_a):
    a = Assignment.build({1}, {2: 1}, {3})
    assert check_constraints(instance_a, a, 0).c1_ok
    strict = check_constraints(instance_a, a, 0, strict=True)
    assert not strict.c1_ok
    assert ("C1", 3) in strict.violators


def test_capacity_violation_reported(instance_a):
    a = Assignment.build({1}, {2: 1, 3: 1}, set())
    rep = check_constraints(instance_a, a, 0, caps={1: 1})
    assert not rep.capacity_ok
    assert ("C2Lim", 1) in rep.violators


def test_edge_server_exempt_from_c1(instance_a):
    inst = attach_edge_server(instance_a, 10, [1, 1, 1])
    a = Assignment.build({1}, {2: 1, 3: 1}, {0})
    rep = check_constraints(inst, a, 0, strict=True)
    assert rep.c1_ok


# -- feasibility --------------------------------------------------------------

def test_case1_on_all_zero_lii():
    inst = Instance(2, (0, 0), ((0, 3), (4, 0)))
    assert feasibility_scan(inst, 0).case1


def test_instance_a_is_feasible(instance_a):
    scan = feasibility_scan(instance_a, 4)
    assert not scan.case1
    assert scan.case2_isolated == frozenset()


def test_case2_detects_unreachable_ue():
    inst = Instance(2, (0, 9), ((0, 0), (5, 0)))
    scan = feasibility_scan(inst, 0)
    assert not scan.case1
    assert scan.case2_isolated == frozenset({1})


# -- edge server --------------------------------------------------------------

def test_attach_edge_server_shape(instance_a):
    inst = attach_edge_server(instance_a, 10, [1, 1, 1])
    assert inst.has_edge_server
    assert inst.node_count == 4
    assert all(v == 0 for v in inst.lxi[0])
    a = Assignment.build({0}, {1: 0, 2: 0, 3: 0}, set())
    assert utility(inst, a) == 13  # 10 + 1 + 1 + 1


def test_attach_edge_server_twice_rejected(instance_a):
    inst = attach_edge_server(instance_a, 10, [1, 1, 1])
    with pytest.raises(ModelError):
        attach_edge_server(inst, 10, [1, 1, 1])


def test_attach_edge_server_validates_inputs(instance_a):
    with pytest.raises(ModelError):
        attach_edge_server(instance_a, 0, [1, 1, 1])
    with pytest.raises(ModelError):
        attach_edge_server(instance_a, 10, [1, 1])
