"""Exact solvers: exhaustive search vs the independent brute-force oracle."""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import leadsel.exhaustive
from leadsel import (
    Assignment,
    Infeasible,
    Instance,
    LimitExceeded,
    attach_edge_server,
    brute_force_oracle,
    check_constraints,
    count_configs_exhaustive,
    generate_instance,
    solve_exhaustive,
    utility,
)
from leadsel.model import EDGE_SERVER_ID


def test_instance_a_optimum(instance_a):
    sol = solve_exhaustive(instance_a, 0)
    assert sol.utility == 17
    assert sol.assignment.leaders == frozenset({1})
    assert sol.assignment.follows == {2: 1, 3: 1}


def test_instance_a_oracle_agrees(instance_a):
    assert brute_force_oracle(instance_a, 0).utility == 17


def test_single_ue_is_infeasible_strict():
    inst = Instance(1, (5,), ((0,),))
    with pytest.raises(Infeasible):
        solve_exhaustive(inst, 0, mode="strict")
    sol = solve_exhaustive(inst, 0)  # relaxed: the lone UE stays isolated
    assert sol.utility == 0
    assert sol.assignment.leaders == frozenset()


@pytest.mark.parametrize("caps", [{}, {1: 2}])
def test_single_ue_with_caps_matches_the_uncapped_search(caps):
    # the lone UE clears rho, but no leader set fits in one node
    inst = Instance(1, (5,), ((0,),))
    with pytest.raises(Infeasible):
        solve_exhaustive(inst, 0, caps=caps, mode="strict")
    sol = solve_exhaustive(inst, 0, caps=caps)
    assert sol.utility == 0
    assert sol.assignment == solve_exhaustive(inst, 0).assignment
    assert sol.configs_visited == 0


def test_all_zero_lii():
    inst = Instance(3, (0, 0, 0), ((0, 5, 5), (5, 0, 5), (5, 5, 0)))
    with pytest.raises(Infeasible):
        solve_exhaustive(inst, 0, mode="strict")
    assert solve_exhaustive(inst, 0).utility == 0


def test_unknown_mode_rejected(instance_a):
    with pytest.raises(ValueError):
        solve_exhaustive(instance_a, 0, mode="greedy")


def test_hard_limit_enforced():
    inst = generate_instance(15, 0)
    with pytest.raises(LimitExceeded):
        solve_exhaustive(inst, 0)
    with pytest.raises(LimitExceeded):
        brute_force_oracle(generate_instance(8, 0), 0)


def test_config_budget_trips_before_the_search(monkeypatch):
    def entered(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(leadsel.exhaustive, "_search_uncapacitated", entered)
    budget = leadsel.exhaustive.CONFIG_BUDGET
    assert budget == count_configs_exhaustive(13) == 337_611_001
    inst = generate_instance(14, 0)
    with pytest.raises(LimitExceeded, match=f"3144297352 .* {budget}$"):
        solve_exhaustive(inst, 0)
    # N = 13 is within the budget, and the capacitated search, whose cost is
    # leader sets, keeps only the node limit
    with pytest.raises(AssertionError, match="the search started"):
        solve_exhaustive(generate_instance(13, 0), 0)
    monkeypatch.setattr(leadsel.exhaustive, "_search_capacitated", entered)
    with pytest.raises(AssertionError, match="the search started"):
        solve_exhaustive(inst, 0, caps={1: 1})


def test_solution_satisfies_constraints():
    for seed in range(20):
        inst = generate_instance(6, seed)
        sol = solve_exhaustive(inst, 2)
        rep = check_constraints(inst, sol.assignment, 2)
        assert rep.all_ok
        assert utility(inst, sol.assignment) == sol.utility


def test_zero_lxi_means_refusal():
    # UE 2 scores its only possible leader zero, so it must stay isolated
    inst = Instance(3, (9, 0, 0), ((0, 1, 1), (0, 0, 1), (5, 1, 0)))
    sol = solve_exhaustive(inst, 0)
    assert sol.assignment.leaders == frozenset({1})
    assert 2 not in sol.assignment.follows
    assert 2 in sol.assignment.isolated
    with pytest.raises(Infeasible):
        solve_exhaustive(inst, 0, mode="strict")


@pytest.mark.parametrize("limit", [1.5, True, -1, "2"])
def test_bad_cap_limit_is_rejected(instance_a, limit):
    with pytest.raises(ValueError, match=f"key 2: limit .* got {limit!r}"):
        solve_exhaustive(instance_a, 0, caps={1: 1, 2: limit})


@pytest.mark.parametrize("key", ["1", True, 1.0, None])
def test_cap_keys_must_be_int_node_ids(key):
    # caps keyed by strings, as json.load returns them, used to be ignored:
    # this instance solves to utility 49 uncapped and 0 with every cap at 0
    inst = generate_instance(6, 1)
    assert solve_exhaustive(inst, 0).utility == 49
    caps = {n: 0 for n in inst.node_ids}
    assert solve_exhaustive(inst, 0, caps=caps).utility == 0
    del caps[1]
    caps[key] = 0
    for solve in (solve_exhaustive, brute_force_oracle):
        with pytest.raises(ValueError, match=f"key {key!r}: caps must be "
                                             "keyed by int node ids"):
            solve(inst, 0, caps=caps)
    with pytest.raises(ValueError, match=f"key {key!r}"):
        check_constraints(inst, solve_exhaustive(inst, 0).assignment, 0,
                          caps=caps)


def _optima(inst, rho, caps, strict):
    """The largest utility and the sort keys of every assignment reaching
    it, by direct enumeration, or None when no assignment is feasible."""
    nodes = list(inst.node_ids)
    best, keys = None, []
    eligible = [n for n in nodes if inst.lii_of(n) > rho]
    for k in range(len(eligible) + 1):
        for leaders in combinations(eligible, k):
            rest = [m for m in nodes if m not in leaders]
            options = [[l for l in leaders if inst.lxi_of(m, l) > 0]
                       + ([None] if not strict or m == EDGE_SERVER_ID else [])
                       for m in rest]
            for choice in product(*options):
                follows = {m: l for m, l in zip(rest, choice) if l is not None}
                counts = Counter(follows.values())
                if len(counts) < k or any(counts[l] > caps.get(l, len(nodes))
                                          for l in leaders):
                    continue
                util = (sum(inst.lii_of(l) for l in leaders)
                        + sum(inst.lxi_of(m, l) for m, l in follows.items()))
                key = (leaders, tuple(sorted(follows.items())))
                if best is None or util > best:
                    best, keys = util, [key]
                elif util == best:
                    keys.append(key)
    return None if best is None else (best, keys)


def test_tie_contract_on_tie_heavy_instances():
    # Scores of 0..2 give many equal optima. Without caps the solver returns
    # the smallest sort key among all of them; with caps, the smallest
    # optimal leader tuple, with the matching the assignment solver picks
    # for it.
    rng = random.Random(8)
    for _ in range(600):
        n = rng.randint(2, 6)
        inst = Instance(n, tuple(rng.randint(0, 2) for _ in range(n)), tuple(
            tuple(0 if r == c else rng.randint(0, 2) for c in range(n))
            for r in range(n)))
        if rng.random() < 0.3:
            inst = attach_edge_server(inst, rng.randint(1, 2),
                                      [rng.randint(0, 2) for _ in range(n)])
        rho = rng.choice([0, 1])
        mode = rng.choice(["strict", "relaxed"])
        caps = None
        if rng.random() < 0.5:
            caps = {m: rng.randint(0, 2) for m in inst.node_ids
                    if rng.random() < 0.8}
        expected = _optima(inst, rho, caps or {}, mode == "strict")
        if expected is None:
            with pytest.raises(Infeasible):
                solve_exhaustive(inst, rho, caps=caps, mode=mode)
            continue
        sol = solve_exhaustive(inst, rho, caps=caps, mode=mode)
        util, keys = expected
        assert sol.utility == util == utility(inst, sol.assignment)
        key = sol.assignment.sort_key()
        assert key in keys
        if caps is None:
            assert key == min(keys)
        else:
            assert key[0] == min(keys)[0]


def test_tie_break_is_deterministic():
    # symmetric scores: both single-leader solutions score the same
    inst = Instance(2, (5, 5), ((0, 4), (4, 0)))
    sol = solve_exhaustive(inst, 0)
    assert sol.assignment.leaders == frozenset({1})
    assert solve_exhaustive(inst, 0).assignment == sol.assignment


def _slot_matrix(rng: random.Random) -> list:
    """A cost matrix shaped like the capacitated search's: per leader a
    mandatory slot column (-(v + big)) and optional ones (-v), inf where a
    UE refuses the leader, then zero-cost isolation columns (none, as in
    strict mode, about a quarter of the time)."""
    nr = rng.randint(1, 9)
    nc = rng.randint(nr, 20)
    isolation = 0 if rng.random() < 0.25 else rng.randint(0, nc - 1)
    leader_of, mandatory = [], []
    for c in range(nc - isolation):
        if c == 0 or rng.random() < 0.4:
            leader_of.append(len(mandatory))
            mandatory.append(True)
        else:
            leader_of.append(leader_of[-1])
            mandatory.append(False)
    if rng.random() < 0.5:
        draw = lambda: rng.randint(0, 3)  # noqa: E731  (tie-heavy)
    else:
        draw = lambda: rng.random() if rng.random() < 0.8 else 0  # noqa: E731
    scores = []
    for _ in range(nr):
        refuses_all = rng.random() < 0.05
        scores.append([0 if refuses_all else draw()
                       for _ in range(leader_of[-1] + 1)])
    big = sum(map(sum, scores)) + 1
    inf = float("inf")
    cost = []
    for row in scores:
        cells = []
        for e, first in zip(leader_of, mandatory):
            v = row[e]
            cells.append(inf if v <= 0 else float(-(v + big) if first else -v))
        cost.append(cells + [0.0] * isolation)
    return cost


def test_min_cost_assignment_matches_scipy():
    # The capacitated search pins scipy's choice among equal matchings
    # (tests/golden_capacitated.json), so the in-repo solver must pick the
    # same column for every row, and fail exactly where scipy raises.
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rng = random.Random(13)
    infeasible = 0
    for case in range(3000):
        cost = _slot_matrix(rng)
        try:
            expected = linear_sum_assignment(np.array(cost))[1].tolist()
        except ValueError:
            expected = None
            infeasible += 1
        got = leadsel.exhaustive._min_cost_assignment(cost)
        assert got == expected, (
            f"matrix {case} differs: {cost!r}: scipy {expected}, got {got}")
    assert infeasible > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(),
       st.sampled_from([0, 2, 5]))
def test_oracle_equivalence_relaxed(n, seed, rho):
    inst = generate_instance(n, seed)
    assert solve_exhaustive(inst, rho).utility == \
        brute_force_oracle(inst, rho).utility


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers())
def test_oracle_equivalence_strict(n, seed):
    inst = generate_instance(n, seed)
    try:
        expected = brute_force_oracle(inst, 0, mode="strict").utility
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_exhaustive(inst, 0, mode="strict")
        return
    assert solve_exhaustive(inst, 0, mode="strict").utility == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(),
       st.integers(min_value=1, max_value=3))
def test_oracle_equivalence_capacitated(n, seed, cap):
    inst = generate_instance(n, seed)
    caps = {m: cap for m in inst.ue_ids}
    sol = solve_exhaustive(inst, 0, caps=caps)
    assert sol.utility == brute_force_oracle(inst, 0, caps=caps).utility
    assert check_constraints(inst, sol.assignment, 0, caps=caps).capacity_ok


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_capacitated_oracle_equivalence_mixed_caps(data):
    # per-node caps of 0..3 or none at all, an optional edge server, both
    # modes; up to 7 nodes, the oracle's limit
    edge = data.draw(st.booleans(), label="edge")
    n = data.draw(st.integers(min_value=1, max_value=6 if edge else 7),
                  label="n")
    inst = generate_instance(n, data.draw(st.integers(), label="seed"),
                             edge_server=(10, [1] * n) if edge else None)
    caps = {}
    for m in inst.node_ids:
        limit = data.draw(st.sampled_from([None, 0, 1, 2, 3]), label=f"cap{m}")
        if limit is not None:
            caps[m] = limit
    rho = data.draw(st.sampled_from([0, 3, 5]), label="rho")
    mode = data.draw(st.sampled_from(["relaxed", "strict"]), label="mode")
    try:
        expected = brute_force_oracle(inst, rho, caps=caps, mode=mode).utility
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_exhaustive(inst, rho, caps=caps, mode=mode)
        return
    sol = solve_exhaustive(inst, rho, caps=caps, mode=mode)
    assert sol.utility == expected
    rep = check_constraints(inst, sol.assignment, rho, caps=caps,
                            strict=(mode == "strict"))
    assert rep.all_ok
    assert utility(inst, sol.assignment) == sol.utility


def test_capacity_one_forces_pairing():
    inst = generate_instance(6, 3)
    caps = {m: 1 for m in inst.ue_ids}
    sol = solve_exhaustive(inst, 0, caps=caps)
    counts = {}
    for leader in sol.assignment.follows.values():
        counts[leader] = counts.get(leader, 0) + 1
    assert all(c == 1 for c in counts.values())


def test_optimal_solution_json_shape(instance_a):
    d = solve_exhaustive(instance_a, 0).to_json_dict()
    assert d["leaders"] == [1]
    assert d["follows"] == {"2": 1, "3": 1}
    assert d["utility"] == 17
    assert int(d["configs_visited"]) > 0
    assert d["elapsed_us"] >= 0


def test_rho_prunes_leader_candidates(instance_a):
    # only UE 1 clears rho=5; optimum is unchanged
    sol = solve_exhaustive(instance_a, 5)
    assert sol.assignment.leaders == frozenset({1})
    with pytest.raises(Infeasible):
        solve_exhaustive(instance_a, 9, mode="strict")
    assert solve_exhaustive(instance_a, 9).utility == 0


def test_utility_monotone_in_rho():
    # raising the threshold can only shrink the feasible set
    for seed in range(10):
        inst = generate_instance(6, seed)
        utils = [solve_exhaustive(inst, rho).utility for rho in range(0, 10, 3)]
        assert utils == sorted(utils, reverse=True)
