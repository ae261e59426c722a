"""Domain model: instances, assignments, utility, constraints."""
from __future__ import annotations

import json
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from leadsel import (
    Assignment,
    Infeasible,
    Instance,
    attach_edge_server,
    check_constraints,
    feasibility_scan,
    generate_instance,
    leader_candidates,
    load_instance,
    nobody_willing,
    save_instance,
    solve_exhaustive,
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


# n = 300 draws 90,000 scores, more than one getrandbits chunk yields
@pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 300])
@pytest.mark.parametrize("seed", [0, 1, -7, 2**70])
def test_generation_draws_what_randint_draws(n, seed):
    rng = random.Random(seed)
    lii = tuple(rng.randint(0, 10) for _ in range(n))
    lxi = tuple(tuple(0 if c == r else rng.randint(0, 10) for c in range(n))
                for r in range(n))
    inst = generate_instance(n, seed)
    assert (inst.lii, tuple(map(tuple, inst.lxi))) == (lii, lxi)
    assert all(type(r) is bytes for r in inst.lxi)


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
    ((b"\x00\x0b", b"\x03\x00"), "lxi[0][1]"),
    ([[0, 2], [300, 0]], "lxi[1][0]"),
    ([[0, -1], [3, 0]], "lxi[0][1]"),
])
def test_instance_diagnostic_names_the_bad_score(lxi, path):
    with pytest.raises(InstanceFormatError) as err:
        Instance(2, (1, 1), lxi)
    assert err.value.field_path == path


def test_int_rows_are_stored_as_bytes_however_given():
    given = [((0, 2), (3, 0)), [[0, 2], [3, 0]], (b"\x00\x02", b"\x03\x00")]
    insts = [Instance(2, (1, 1), lxi) for lxi in given]
    assert all(inst == insts[0] for inst in insts)
    assert len({hash(inst) for inst in insts}) == 1
    for inst in insts:
        assert inst.lxi == (b"\x00\x02", b"\x03\x00")
        assert inst.lxi_of(1, 2) == 2 and type(inst.lxi_of(1, 2)) is int


def test_float_and_mixed_rows_stay_tuples():
    inst = Instance(2, (1, 1), [[0, 2.5], [3.0, 0.0]])
    assert inst.lxi == ((0, 2.5), (3.0, 0.0))
    assert all(type(r) is tuple for r in inst.lxi)
    assert Instance(2, (1, 1), ((0, 2.0), (3, 0))).lxi == ((0, 2.0), b"\x03\x00")


def test_generated_instance_holds_one_byte_a_score():
    tracemalloc.start()
    try:
        inst = generate_instance(1000, 0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n == 1000
    assert held < 2_000_000  # tuple rows of ints held about 7.7 MB


@pytest.mark.parametrize("edge", [False, True], ids=["plain", "edge"])
def test_generation_peak_stays_below_twice_the_instance(edge):
    # rows are cut from a buffer carried across them, and node 0's rows are
    # built in the same pass, so the n * n draws are never all held twice
    edge_server = (10, [1] * 1000) if edge else None
    tracemalloc.start()
    try:
        inst = generate_instance(1000, 3, edge_server=edge_server)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.has_edge_server == edge
    assert peak < 2 * kept  # about 3x before


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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
_SCORES = st.lists(st.integers(0, 10) | _JSON, max_size=4)


@settings(max_examples=300, deadline=None)
@given(_JSON | st.fixed_dictionaries(
    {"n": st.integers(-1, 3) | _JSON,
     "lii": _SCORES | _JSON,
     "lxi": st.lists(_SCORES | _JSON, max_size=4) | _JSON},
    optional={"edge_server": st.booleans() | _JSON}))
def test_from_json_dict_raises_only_format_errors(data):
    # any JSON value either loads or is refused with a field diagnostic
    try:
        inst = Instance.from_json_dict(data)
    except InstanceFormatError:
        return
    assert Instance.from_json_dict(inst.to_json_dict()) == inst


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


_SAVED_SCORES = (st.integers(0, 10) | st.floats(0, 10)
                 | st.sampled_from([0.1, 1e-7, 10.0, 0.0, -0.0]))


@st.composite
def _saved_instances(draw):
    n = draw(st.integers(1, 5))
    edge = draw(st.booleans())
    size = n + edge
    lii = [draw(_SAVED_SCORES) for _ in range(size)]
    lxi = [[draw(st.sampled_from([0, 0.0])) if c == r else draw(_SAVED_SCORES)
            for c in range(size)] for r in range(size)]
    if edge:
        lii[0] = draw(st.integers(1, 10) | st.sampled_from([0.1, 1e-7, 10.0]))
        lxi[0] = [0] * size
    return Instance(n, tuple(lii), tuple(map(tuple, lxi)), edge)


@settings(max_examples=200, deadline=None)
@given(_saved_instances())
def test_save_instance_writes_what_json_dump_writes(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save_instance(inst, path)
        with open(path, "rb") as fh:
            assert fh.read() == (json.dumps(inst.to_json_dict(), indent=1,
                                            sort_keys=True) + "\n").encode()
        assert load_instance(path) == inst


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


def test_load_counts_lines_as_a_text_file_does(tmp_path):
    # bare carriage returns end lines, as the universal newlines of a
    # text-mode read have them
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\r "n": 1,\r\n "lii": [\r}')
    with pytest.raises(InstanceFormatError, match=r"\(line 4\)"):
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


def test_c2_violated_by_follower_of_non_leader(instance_a):
    a = Assignment.build(set(), {1: 2}, {2, 3})
    rep = check_constraints(instance_a, a, 0)
    assert rep.violators == (("C2", 2),)
    assert not rep.c2_ok and rep.c1_ok and rep.c3_ok and rep.capacity_ok


def test_violators_keep_check_order(instance_a):
    a = Assignment.build({2}, {1: 3}, {3})
    rep = check_constraints(instance_a, a, 4, strict=True)
    assert rep.violators == (("C1", 3), ("C2", 2), ("C2", 3), ("C3", 2))
    assert rep.capacity_ok and not rep.all_ok


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

def test_leader_candidates_worked_example(instance_a):
    assert leader_candidates(instance_a, 4) == [1, 3]  # UE 2 follows


def test_leader_candidates_extreme_thresholds(instance_a):
    assert leader_candidates(instance_a, 10) == []
    assert leader_candidates(instance_a, 0) == [1, 2, 3]  # no followers


def test_leader_candidates_refuses_ids_outside_the_instance(instance_a):
    edge = attach_edge_server(instance_a, 10, [1, 1, 1])
    for inst, outside in ((instance_a, (0, 4)), (edge, (-1, 4))):
        for bad in outside:
            with pytest.raises(ModelError):
                leader_candidates(inst, 0, [1, bad])
    assert leader_candidates(edge, 0, [0, 1]) == [0, 1]


_ROW_SCORES = st.one_of(st.integers(0, 10), st.sampled_from([0.5, 2.5, 9.5]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_reads_equal_the_by_id_formulas(data):
    # plain instances store id n at row n - 1, edge-server ones at row n
    n = data.draw(st.integers(1, 7))
    lii = tuple(data.draw(st.lists(_ROW_SCORES, min_size=n, max_size=n)))
    lxi = tuple(tuple(0 if c == r else data.draw(_ROW_SCORES)
                      for c in range(n)) for r in range(n))
    inst = Instance(n, lii, lxi)
    if data.draw(st.booleans()):
        inst = attach_edge_server(
            inst, data.draw(st.sampled_from([1, 9.5, 10])),
            data.draw(st.lists(_ROW_SCORES, min_size=n, max_size=n)))
    nodes = list(inst.node_ids)
    leaders = data.draw(st.sets(st.sampled_from(nodes)))
    follows = {m: data.draw(st.sampled_from(sorted(leaders)))
               for m in inst.ue_ids
               if m not in leaders and leaders and data.draw(st.booleans())}
    a = Assignment.build(leaders, follows, set(nodes) - leaders - set(follows))
    expected = sum(inst.lii_of(k) for k in a.leaders)
    expected += sum(inst.lxi_of(m, k) for m, k in a.follows.items())
    assert utility(inst, a) == expected
    rho = data.draw(st.sampled_from([0, 2.5, 5, 10]))
    ids = data.draw(st.lists(st.sampled_from(nodes)))
    assert leader_candidates(inst, rho, ids) == [
        k for k in ids if inst.lii_of(k) > rho]
    assert leader_candidates(inst, rho) == [
        k for k in nodes if inst.lii_of(k) > rho]
    assert nobody_willing(inst) == (
        not any(inst.lii_of(k) > 0 for k in inst.ue_ids))


def test_case1_on_all_zero_lii():
    inst = Instance(2, (0, 0), ((0, 3), (4, 0)))
    assert nobody_willing(inst)
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


def test_case2_counts_only_peers_that_may_lead_at_rho():
    # UE 2 accepts only UE 1, whose lii 3 does not clear rho 5
    inst = Instance(3, (3, 0, 9), ((0, 0, 0), (5, 0, 0), (1, 0, 0)))
    assert feasibility_scan(inst, 5).case2_isolated == frozenset({1, 2})
    with pytest.raises(Infeasible):
        solve_exhaustive(inst, 5, mode="strict")


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
    # a bad edge score is named at its place in its UE's row
    for bad in (11, True, "a"):
        with pytest.raises(InstanceFormatError) as err:
            attach_edge_server(instance_a, 10, [1, bad, 1])
        assert err.value.field_path == "lxi[2][0]"
    # a float edge score makes its row a tuple; the others stay bytes
    inst = attach_edge_server(instance_a, 10, [1, 0.5, 1])
    assert [type(row) for row in inst.lxi] == [bytes, bytes, tuple, bytes]
    assert inst.lxi[2] == (0.5, 6, 0, 2)
