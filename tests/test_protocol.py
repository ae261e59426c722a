"""Two-phase protocol: state machines, episodes, fallback and scenarios."""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import leadsel
from leadsel import (
    Assignment,
    Instance,
    IncentivePolicy,
    ProtocolConfig,
    ProtocolViolation,
    attach_edge_server,
    check_constraints,
    derive_seed,
    generate_instance,
    leader_candidates,
    nobody_willing,
    protocol,
    run_episode,
    run_fallback_process,
    solve_exhaustive,
    utility,
)
from leadsel.model import _utility
from leadsel.protocol import (
    ACK,
    ANNOUNCE,
    BROADCAST,
    CANDIDATE_LEADER,
    FOLLOW_REQUEST,
    FOLLOWER,
    NACK,
    P2P,
    PHASE2_ANNOUNCE,
    SCENARIO_1,
    SCENARIO_2,
    SCENARIO_3,
    Message,
    MessageLog,
    NodeState,
    _announcer_table,
    _best_candidate,
    _rank_candidates,
    close_phase1,
    detect_scenario,
    request_best,
    serve_request,
    simulate_protocol,
    take_reply,
    take_role,
)


def _scenario1_instance(n=4):
    """Everyone announces at rho=0: no followers exist."""
    lii = tuple(10 for _ in range(n))
    lxi = tuple(tuple(0 if c == r else 5 for c in range(n)) for r in range(n))
    return Instance(n, lii, lxi)


def _scenario2_instance():
    """UEs below threshold score every candidate leader zero."""
    return Instance(3, (9, 0, 0), ((0, 1, 1), (0, 0, 5), (0, 5, 0)))


def _scenario3_instance(n=3):
    lxi = tuple(tuple(0 if c == r else 5 for c in range(n)) for r in range(n))
    return Instance(n, tuple(0 for _ in range(n)), lxi)


# -- ranking ------------------------------------------------------------------

def _request(inst, m, candidates):
    """Whom UE ``m``'s device requests from an announcer table of
    ``candidates``."""
    off = inst.node_ids.start
    device = NodeState(m, inst.lii[m - off], inst.lxi[m - off])
    return request_best(device, _announcer_table(
        [(-inst.lii[n - off], n) for n in candidates], off))


def test_request_best_prefers_combined_score(instance_a):
    assert _request(instance_a, 2, {1, 3}) == 1  # LI 13 vs 7


def test_request_best_refuses_zero_scores():
    inst = Instance(3, (9, 9, 0), ((0, 1, 1), (1, 0, 1), (0, 0, 0)))
    assert _request(inst, 3, {1, 2}) is None


def test_request_best_tie_breaks_to_lower_id():
    inst = Instance(3, (5, 5, 0), ((0, 1, 1), (1, 0, 1), (3, 3, 0)))
    assert _request(inst, 3, {1, 2}) == 1


# -- node state machine -------------------------------------------------------

def test_take_role_announces_above_threshold():
    state = NodeState(1, 8, {2: 3})
    take_role(state, ProtocolConfig(rho=5))
    assert state.role == CANDIDATE_LEADER
    inst = Instance(2, (8, 3), ((0, 3), (3, 0)))
    sim = simulate_protocol(inst, ProtocolConfig(rho=5), random.Random(0))
    announced = [m for m in sim.log if m.phase == 1 and m.receiver is None]
    assert [(m.kind, m.sender, m.lii) for m in announced] == [(ANNOUNCE, 1, 8)]


def test_take_role_stays_quiet_below_threshold():
    state = NodeState(1, 3, {2: 3})
    take_role(state, ProtocolConfig(rho=5))
    assert state.role == FOLLOWER


def test_follow_request_to_non_leader_is_violation():
    state = NodeState(1, 3, {2: 3})
    take_role(state, ProtocolConfig(rho=5))  # a follower, which never leads
    with pytest.raises(ProtocolViolation):
        serve_request(state, 2)
    assert state.followers is None


def test_unexpected_ack_is_violation():
    # a reply at a candidate leader, which sends no requests
    state = NodeState(1, 8, {2: 3})
    take_role(state, ProtocolConfig(rho=5))
    assert state.role == CANDIDATE_LEADER
    for kind in (ACK, NACK):
        with pytest.raises(ProtocolViolation):
            take_reply(state, kind, 2)


def test_reply_without_a_request_is_violation():
    state = NodeState(1, 3, {2: 3})  # a follower that has requested nobody
    for kind in (ACK, NACK):
        with pytest.raises(ProtocolViolation):
            take_reply(state, kind, 2)
    assert state.role == FOLLOWER and state.leader is None


def test_announcement_to_request_handler_is_violation():
    state = NodeState(1, 3, {2: 3})
    assert request_best(state, _announcer_table([(-8, 2)], 0)) == 2
    with pytest.raises(ProtocolViolation):
        take_reply(state, ANNOUNCE, 2)


def test_leader_at_capacity_nacks():
    state = NodeState(1, 8, (0, 3, 3))
    take_role(state, ProtocolConfig(rho=5, caps={1: 1}))
    assert state.capacity_remaining == 1
    assert serve_request(state, 2) == ACK
    assert serve_request(state, 3) == NACK
    assert state.followers == {2}


def test_nack_retries_down_the_ranking():
    # UE 1 ranks 2 (5 + 4) over 3 (5 + 1) over 4 (3 + 2)
    state = NodeState(1, 0, {2: 4, 3: 1, 4: 2})
    table = _announcer_table([(-5, 2), (-5, 3), (-3, 4)], 0)
    assert request_best(state, table) == 2
    assert take_reply(state, NACK, 2) == 3
    assert take_reply(state, NACK, 3) == 4
    assert take_reply(state, NACK, 4) is None
    assert take_reply(state, ACK, 4) is None
    assert state.leader == 4


# -- configuration validation -------------------------------------------------

def test_config_rejects_unknown_transport():
    with pytest.raises(ValueError):
        ProtocolConfig(transport="carrier-pigeon")


@pytest.mark.parametrize("limit", [1.5, True, -1, None])
def test_config_rejects_bad_cap_limits(limit):
    # unchecked, a limit of 1.5 would let its leader take two followers
    with pytest.raises(ValueError, match=f"key 3: limit .* got {limit!r}"):
        ProtocolConfig(rho=5, caps={1: 1, 3: limit})


@pytest.mark.parametrize("key", ["3", True, 3.0])
def test_config_rejects_caps_not_keyed_by_node_id(key):
    # caps keyed by strings used to be ignored: the episode ran as uncapped
    inst = generate_instance(6, 1)
    uncapped = run_episode(inst, ProtocolConfig(rho=5), seed=0)
    assert uncapped.utility == 37 and uncapped.assignment.leaders == {2, 6}
    caps = {n: 0 for n in range(1, 7)}
    outcome = run_episode(inst, ProtocolConfig(rho=5, caps=caps), seed=0)
    assert outcome.utility == 0 and not outcome.assignment.leaders
    del caps[int(key)]
    caps[key] = 0
    with pytest.raises(ValueError, match=f"key {key!r}: caps must be keyed"):
        ProtocolConfig(caps=caps)


def test_incentive_policy_validation():
    with pytest.raises(ValueError):
        IncentivePolicy(delta=11, accept_prob=0.5)
    with pytest.raises(ValueError):
        IncentivePolicy(delta=1, accept_prob=1.5)


# -- full episodes ------------------------------------------------------------

def test_episode_worked_example(instance_a):
    outcome = run_episode(instance_a, ProtocolConfig(rho=4), seed=1)
    assert outcome.utility == 17
    assert outcome.assignment.leaders == frozenset({1})
    assert outcome.assignment.follows == {2: 1, 3: 1}
    assert outcome.leader_set_phase1 == frozenset({1, 3})
    assert outcome.total_messages <= 9  # 3N + L - 2 with N=3, L=2
    assert outcome.scenario is None


def test_episode_is_deterministic(instance_a):
    a = run_episode(instance_a, ProtocolConfig(rho=4), seed=7)
    b = run_episode(instance_a, ProtocolConfig(rho=4), seed=7)
    assert a.assignment == b.assignment
    assert a.messages == b.messages


def test_episode_messages_per_phase(instance_a):
    outcome = run_episode(instance_a, ProtocolConfig(rho=4), seed=1)
    per = {1: 0, 2: 0}
    for (phase, _, _), k in outcome.message_counts.items():
        per[phase] += k
    assert outcome.total_messages - outcome.protocol_messages == 0
    assert per[1] + per[2] == outcome.protocol_messages
    assert per[2] > 0  # UE 3 converts in phase 2


def test_p2p_transport_expands_announcements(instance_a):
    bcast = run_episode(instance_a, ProtocolConfig(rho=4), seed=1)
    p2p = run_episode(instance_a, ProtocolConfig(rho=4, transport=P2P), seed=1)
    assert p2p.assignment == bcast.assignment
    assert p2p.total_messages > bcast.total_messages


def test_episode_log_round_trip(tmp_path, instance_a):
    outcome = run_episode(instance_a, ProtocolConfig(rho=4), seed=1)
    path = tmp_path / "log.jsonl"
    outcome.write_log(path)
    lines = path.read_text().splitlines()
    assert len(lines) == outcome.total_messages
    kinds = {json.loads(line)["kind"] for line in lines}
    assert ANNOUNCE in kinds and FOLLOW_REQUEST in kinds


def test_capacity_nack_retry_in_any_arrival_order():
    # both followers prefer UE 1; with capacity 1 whichever request arrives
    # second is bounced to UE 2, and the seed decides which one that is
    inst = Instance(4, (9, 8, 0, 0),
                    ((0, 1, 1, 1), (1, 0, 1, 1), (9, 3, 0, 1), (9, 3, 1, 0)))
    cfg = ProtocolConfig(rho=5, caps={1: 1, 2: 1})
    bounced = set()
    for seed in range(20):
        outcome = run_episode(inst, cfg, seed)
        follows = outcome.assignment.follows
        assert sorted(follows.values()) == [1, 2]
        nacks = [m for m in outcome.messages if m.kind == NACK]
        assert len(nacks) == 1 and follows[nacks[0].receiver] == 2
        bounced.add(nacks[0].receiver)
    assert bounced == {3, 4}


def test_simulate_reports_unresolved():
    sim = simulate_protocol(_scenario2_instance(), ProtocolConfig(rho=0),
                            random.Random(0))
    assert sim.unresolved == {1, 2, 3}  # UE 1 announced but got nobody


# -- scenarios and fallback ---------------------------------------------------

def test_detect_scenarios(instance_a):
    assert detect_scenario(_scenario1_instance(), 0) == SCENARIO_1
    assert detect_scenario(_scenario2_instance(), 0) == SCENARIO_2
    assert detect_scenario(_scenario3_instance(), 0) == SCENARIO_3
    assert detect_scenario(instance_a, 4) is None


def test_scenario1_without_edge_server_isolates_everyone():
    outcome = run_episode(_scenario1_instance(), ProtocolConfig(rho=0), seed=0)
    assert outcome.scenario == SCENARIO_1
    assert outcome.utility == 0
    assert not outcome.assignment.leaders


def test_scenario1_with_edge_server_forms_single_cluster():
    cfg = ProtocolConfig(rho=0, edge_server_policy=True)
    outcome = run_episode(_scenario1_instance(), cfg, seed=0)
    assert outcome.edge_server_used
    assert outcome.assignment.leaders == frozenset({0})
    assert set(outcome.assignment.follows.values()) == {0}
    assert len(outcome.assignment.follows) == 4


def test_scenario2_isolation_and_rescue():
    inst = _scenario2_instance()
    plain = run_episode(inst, ProtocolConfig(rho=0), seed=0)
    assert plain.scenario == SCENARIO_2
    assert plain.utility == 0
    rescued = run_episode(inst, ProtocolConfig(rho=0, edge_server_policy=True),
                          seed=0)
    assert rescued.assignment.leaders == frozenset({0})
    assert rescued.utility == 10 + 3  # edge lii + three default scores of 1


def test_scenario3_edge_server_branch():
    cfg = ProtocolConfig(rho=0, edge_server_policy=True,
                         incentive_policy=IncentivePolicy(5, 0.0))
    outcome = run_episode(_scenario3_instance(), cfg, seed=0)
    assert outcome.scenario == SCENARIO_3
    assert outcome.assignment.leaders == frozenset({0})
    assert outcome.rounds == 0  # no UE cleared rho, so no round opened


def test_scenario3_incentive_rerun():
    cfg = ProtocolConfig(rho=0,
                         incentive_policy=IncentivePolicy(5, 1.0))
    outcome = run_episode(_scenario3_instance(), cfg, seed=0)
    assert outcome.scenario == SCENARIO_3
    assert outcome.effective_instance.lii == (5, 5, 5)
    # boosted instance is scenario-1-like, so no clusters form without node 0
    assert outcome.utility == 0


def test_edge_server_leads_only_in_the_exact_solver():
    # node 0 clears every threshold, but the protocol's candidate set and
    # the Case 1 / Scenario 3 test count regular UEs only
    inst = attach_edge_server(_scenario3_instance(), 10, [5, 5, 5])
    assert leader_candidates(inst, 0) == [0]
    assert leader_candidates(inst, 0, inst.ue_ids) == []
    assert nobody_willing(inst)
    sol = solve_exhaustive(inst, 0)
    assert sol.assignment.leaders == frozenset({0})
    assert sol.utility == 10 + 15
    assert detect_scenario(inst, 0) == SCENARIO_3
    cfg = ProtocolConfig(rho=0, edge_server_policy=True,
                         incentive_policy=IncentivePolicy(5, 0.0))
    log = MessageLog()
    final, extra_follows = run_fallback_process(inst, cfg, {1, 2, 3}, log, 1)
    assert final is inst
    assert extra_follows == {1: 0, 2: 0, 3: 0}
    outcome = run_episode(inst, cfg, seed=0)
    assert outcome.rounds == 0  # no regular UE may lead, so no round opened
    assert outcome.effective_instance is inst


def test_edge_server_offer_respects_refusal():
    inst = attach_edge_server(_scenario2_instance(), 10, [1, 0, 1])
    cfg = ProtocolConfig(rho=0, edge_server_policy=True)
    outcome = run_episode(inst, cfg, seed=0)
    assert outcome.assignment.follows == {1: 0, 3: 0}
    assert 2 in outcome.assignment.isolated


def test_fallback_message_accounting():
    inst = _scenario2_instance()
    cfg = ProtocolConfig(rho=0, edge_server_policy=True)
    outcome = run_episode(inst, cfg, seed=0)
    log = MessageLog()
    _, extra_follows = run_fallback_process(inst, cfg, {1, 2, 3}, log,
                                            outcome.rounds + 1)
    # one offer plus request/ack per accepting UE
    assert len(log) == 1 + 2 * len(extra_follows)
    assert outcome.total_messages - outcome.protocol_messages == len(log)
    # the exchange is appended to the episode's one log, after the phases
    assert outcome.log.batches[-2:] == log.batches


def test_edge_server_serves_its_offer_within_its_cap():
    # UE 1 refuses node 0; of the accepting UEs 2 to 4, the lowest follows
    # and each other one is refused once
    inst = attach_edge_server(_scenario1_instance(), 10, [0, 1, 1, 1])
    caps = {0: 1}
    for transport in (BROADCAST, P2P):
        cfg = ProtocolConfig(rho=0, transport=transport, caps=caps,
                             edge_server_policy=True)
        outcome = run_episode(inst, cfg, seed=0)
        assert outcome.assignment.follows == {2: 0}
        assert outcome.assignment.isolated == {1, 3, 4}
        nacks = [(m.sender, m.receiver) for m in outcome.messages
                 if m.kind == NACK]
        assert nacks == [(0, 3), (0, 4)]
        assert outcome.message_counts[(2, NACK, P2P)] == 2
        assert check_constraints(inst, outcome.assignment, 0, caps).all_ok


def test_edge_server_offers_only_when_it_clears_rho():
    # the default node 0 has lii 10, which does not clear rho = 10
    cfg = ProtocolConfig(rho=10, edge_server_policy=True)
    outcome = run_episode(_scenario1_instance(), cfg, seed=0)
    assert not outcome.edge_server_used and outcome.total_messages == 0
    assert not outcome.effective_instance.has_edge_server
    inst = attach_edge_server(_scenario2_instance(), 4, [1, 1, 1])
    outcome = run_episode(inst, ProtocolConfig(rho=5, edge_server_policy=True),
                          seed=0)
    assert outcome.assignment.isolated == {0, 1, 2, 3}
    assert outcome.total_messages == outcome.protocol_messages


def test_edge_server_episodes_keep_the_constraints_and_the_optimum():
    # node 0's lii, its scores and caps on it are drawn; the offer must
    # keep C3 and the caps, and never beat the exact optimum
    rng = random.Random(15)
    for i in range(200):
        edge = (rng.randint(1, 10), [rng.randint(0, 10) for _ in range(7)])
        inst = generate_instance(7, derive_seed(15, "edge", i),
                                 edge if i % 2 else None)
        caps = {m: rng.randint(0, 2) for m in range(8)}
        for rho in (-1, 0, 5, 8, 9, 10):
            for transport in (BROADCAST, P2P):
                cfg = ProtocolConfig(rho=rho, transport=transport, caps=caps,
                                     edge_server_policy=True)
                outcome = run_episode(inst, cfg, seed=i)
                final = outcome.effective_instance
                assert check_constraints(final, outcome.assignment, rho,
                                         caps).all_ok
                assert outcome.utility <= solve_exhaustive(
                    final, rho, caps=caps).utility


def test_an_episode_without_candidates_has_no_rounds():
    outcome = run_episode(generate_instance(8, 3), ProtocolConfig(rho=10), 0)
    assert outcome.scenario is None and outcome.leader_set_phase1 == set()
    assert outcome.rounds == 0 and outcome.total_messages == 0


def test_phases_run_below_a_negative_threshold_in_scenario3():
    outcome = run_episode(_ZERO_LII, ProtocolConfig(rho=-1), seed=0)
    assert outcome.scenario == SCENARIO_1
    assert outcome.leader_set_phase1 == {1, 2, 3}
    assert outcome.rounds == 1


def test_no_incentive_offer_when_every_ue_clears_a_negative_threshold():
    # nobody is willing to lead, but at rho = -1 every UE may: a Scenario 1
    # shape, so the incentive offer is not made
    cfg = ProtocolConfig(rho=-1, incentive_policy=IncentivePolicy(5, 1.0))
    outcome = run_episode(_ZERO_LII, cfg, seed=0)
    assert detect_scenario(_ZERO_LII, -1) == SCENARIO_1
    assert outcome.scenario == SCENARIO_1
    assert outcome.effective_instance.lii == (0, 0, 0)
    assert outcome.leader_set_phase1 == {1, 2, 3}


def test_edge_server_offer_goes_to_each_unresolved_ue_under_p2p():
    # no UE scores UE 1, the only candidate, so all three are offered node 0
    # in the round after the protocol's last
    cfg = ProtocolConfig(rho=0, transport=P2P, edge_server_policy=True)
    outcome = run_episode(_scenario2_instance(), cfg, seed=0)
    assert outcome.rounds == 1
    offers = [m for m in outcome.messages if m.kind == ANNOUNCE
              and m.sender == 0]
    assert [(m.receiver, m.round) for m in offers] == [(1, 2), (2, 2), (3, 2)]
    assert outcome.message_counts[(2, ANNOUNCE, P2P)] == 3
    assert {m.round for m in outcome.messages
            if 0 in (m.sender, m.receiver)} == {2}


@pytest.mark.parametrize("inst", [_scenario1_instance(), _scenario2_instance(),
                                  _scenario3_instance()])
@pytest.mark.parametrize("pol", [None, IncentivePolicy(5, 0.0),
                                 IncentivePolicy(5, 1.0)])
@pytest.mark.parametrize("edge", [False, True])
def test_episode_runs_the_phases_at_most_once(monkeypatch, inst, pol, edge):
    # exactly once, in every scenario: on the boosted instance when the
    # incentive offer raised some lii
    runs = []

    def traced(instance, cfg, rng):
        runs.append(instance)
        return simulate_protocol(instance, cfg, rng)

    monkeypatch.setattr(leadsel.protocol, "simulate_protocol", traced)
    cfg = ProtocolConfig(rho=0, edge_server_policy=edge,
                         incentive_policy=pol)
    outcome = run_episode(inst, cfg, seed=0)
    assert len(runs) == 1
    if outcome.scenario == SCENARIO_3 and pol is not None and pol.accept_prob:
        assert runs[0].lii == (5, 5, 5)
    else:
        assert runs[0] is inst


def test_centralized_reference_count():
    inst = generate_instance(8, 1)
    outcome = run_episode(inst, ProtocolConfig(rho=4), seed=0)
    assert outcome.centralized_messages == 9  # N + 1


def test_episode_constraints_hold_when_non_marginal():
    for seed in range(30):
        inst = generate_instance(7, seed)
        outcome = run_episode(inst, ProtocolConfig(rho=3), seed=seed)
        if outcome.scenario is not None:
            continue
        rep = check_constraints(inst, outcome.assignment, 3)
        assert rep.all_ok


# -- properties ---------------------------------------------------------------

SCORES = st.one_of(st.integers(0, 10), st.sampled_from([0.5, 2.5, 9.5]))


@st.composite
def instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    lii = tuple(draw(st.lists(SCORES, min_size=n, max_size=n)))
    lxi = tuple(
        tuple(0 if c == r else draw(SCORES) for c in range(n))
        for r in range(n))
    return Instance(n, lii, lxi)


def _closed_form(inst, rho):
    """Phase-1 argmax of lii + lxi, then the phase-2 argmax over leaders
    that have followers; refused (zero) scores never count, ties go to the
    lowest id."""
    def best(m, pool):
        scored = [(-(inst.lii_of(n) + inst.lxi_of(m, n)), n) for n in pool
                  if n != m and inst.lxi_of(m, n) > 0]
        return min(scored)[1] if scored else None

    cands = {n for n in inst.ue_ids if inst.lii_of(n) > rho}
    follows = {}
    for m in sorted(set(inst.ue_ids) - cands):
        choice = best(m, cands)
        if choice is not None:
            follows[m] = choice
    leaders = set(follows.values())
    for m in sorted(cands - leaders):
        choice = best(m, leaders)
        if choice is not None:
            follows[m] = choice
    isolated = set(inst.ue_ids) - leaders - set(follows)
    return cands, Assignment.build(leaders, follows, isolated)


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 10), st.sampled_from([BROADCAST, P2P]),
       st.integers(0, 2**32))
def test_episode_matches_closed_form(inst, rho, transport, seed):
    cands, expected = _closed_form(inst, rho)
    outcome = run_episode(inst, ProtocolConfig(rho=rho, transport=transport),
                          seed)
    assert outcome.assignment == expected
    assert outcome.utility == utility(inst, expected)
    assert outcome.leader_set_phase1 == cands


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_best_candidate_heads_the_full_ranking(inst, data):
    # the simulator never puts a device in its own table
    m = data.draw(st.sampled_from(inst.ue_ids))
    pool = data.draw(st.sets(st.sampled_from(inst.ue_ids))) - {m}
    device = NodeState(m, inst.lii_of(m), inst.lxi[m - 1])
    table = _announcer_table([(-inst.lii_of(n), n) for n in pool], 1)
    ranked = _rank_candidates(device, table)
    assert ranked == [n for _, n in sorted(
        (-(inst.lii_of(n) + inst.lxi_of(m, n)), n) for n in pool
        if inst.lxi_of(m, n) > 0)]
    head = ranked[0] if ranked else None
    assert _best_candidate(device, table) == head
    assert request_best(device, table) == head
    assert device.announcers is (None if head is None else table)


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_request_best_never_picks_the_device_itself(inst, data):
    # a device scores itself zero, so a table that holds it (with or
    # without an edge server) ranks as one that does not
    if data.draw(st.booleans()):
        inst = attach_edge_server(inst, 10, [1] * inst.n)
    m = data.draw(st.sampled_from(inst.ue_ids))
    pool = data.draw(st.sets(st.sampled_from(inst.node_ids))) | {m}
    chosen = _request(inst, m, pool)
    assert chosen != m
    assert chosen == _request(inst, m, pool - {m})


# Scores around SCORE_MAX: float and int tens, and lii values that give
# few runs, so that a top run often holds SCORE_MAX more than once and
# other runs hold none.
_NEAR_MAX = st.sampled_from([0, 1, 4, 9, 9.5, 10, 10.0])


def _assert_best_heads_ranking(row, lii, m, pool):
    # the simulator never puts a device in its own table
    assert m not in pool
    device = NodeState(m, lii[m - 1], row)
    table = _announcer_table([(-lii[k - 1], k) for k in pool], 1)
    ranked = _rank_candidates(device, table)
    assert ranked == [k for _, k in sorted(
        (-(lii[k - 1] + row[k - 1]), k) for k in pool if row[k - 1] > 0)]
    best = _best_candidate(device, table)
    assert best == (ranked[0] if ranked else None)
    return best


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_best_candidate_stops_at_score_max(data):
    n = data.draw(st.integers(2, 10))
    row = data.draw(st.lists(_NEAR_MAX, min_size=n, max_size=n))
    lii = data.draw(st.lists(st.sampled_from([0, 4, 5, 5.0, 10]),
                             min_size=n, max_size=n))
    m = data.draw(st.integers(1, n))
    _assert_best_heads_ranking(row, lii, m,
                               data.draw(st.sets(st.integers(1, n))) - {m})


@pytest.mark.parametrize("row, lii, best", [
    # SCORE_MAX three times in the top run, as int and float
    ([10, 10.0, 10, 3], [5, 5, 5, 5], 1),
    ([9.5, 10.0, 10, 3], [5, 5.0, 5, 5], 2),
    # the top run has none; a lower run's 10.0 ties 5 + 9 and loses on id
    ([9, 10.0, 0, 0], [5, 4.0, 5, 9], 1),
    # the lower run's 10 beats the top run's best total
    ([1, 10, 0, 0], [5, 4, 5, 9], 2),
    # no SCORE_MAX anywhere
    ([9, 9.5, 1, 0], [4, 5, 5.0, 9], 2),
])
def test_best_candidate_at_score_max_cases(row, lii, best):
    assert _assert_best_heads_ranking(row, lii, 4, {1, 2, 3}) == best


def test_score_max_run_does_not_hide_a_total_that_rounds_equal():
    # lii 9.5 and the next float up are two runs, but each plus 10 rounds to
    # 19.5, so the ranking ties them and the lower id, in the lower run,
    # wins; a scan ended by the top run's SCORE_MAX would take id 2
    up = math.nextafter(9.5, 10)
    assert -up - 10 == -9.5 - 10
    assert _assert_best_heads_ranking([10, 10, 0], [9.5, up, 0], 3,
                                      {1, 2}) == 1


# Each case below needs the scan to read the run past a tie at the early
# exit, and to take the first maximum of a run, the lowest id.

def _assert_chosen(inst, rho, follower, expected):
    candidates = [n for n in inst.ue_ids if inst.lii_of(n) > rho]
    assert _request(inst, follower, candidates) == expected
    for transport in (BROADCAST, P2P):
        outcome = run_episode(inst, ProtocolConfig(rho=rho, transport=transport),
                              seed=0)
        assert outcome.assignment.follows[follower] == expected


def test_cross_run_tie_goes_to_the_lower_id_in_the_lower_run():
    # UE 3 totals 19 for each candidate: lii 10 + lxi 9 for UE 2, lii 9 +
    # lxi 10 for UEs 1 and 4
    inst = Instance(4, (9, 10, 0, 9), ((0, 1, 1, 1), (1, 0, 1, 1),
                                      (10, 9, 0, 10), (1, 1, 1, 0)))
    assert [run[1] for run in _announcer_table(
        [(-inst.lii_of(n), n) for n in (1, 2, 4)], 1)] == [(2,), (1, 4)]
    _assert_chosen(inst, 5, 3, 1)


def test_runs_of_one_with_float_lii():
    # float lii, as an incentive of 0.5 leaves them, rarely tie, so each
    # announcer is a run of its own; UE 3 totals 19.5 for both
    inst = Instance(3, (9.5, 10, 0), ((0, 1, 1), (1, 0, 1), (10, 9.5, 0)))
    assert [run[1] for run in _announcer_table([(-10, 2), (-9.5, 1)], 1)] \
        == [(2,), (1,)]
    _assert_chosen(inst, 5, 3, 1)
    boosted = run_episode(_ZERO_LII, ProtocolConfig(
        rho=0.25, incentive_policy=IncentivePolicy(0.5, 1.0)), seed=0)
    effective = boosted.effective_instance
    assert effective.lii == (0.5, 0.5, 0.5)
    assert _request(effective, 1, [3]) == 3


def test_refused_run_is_passed_over_for_an_accepted_one():
    # UE 7 scores the lii-10 run {4, 5} zero, and totals 13 for each of
    # the lii-8 run {2, 3} and the lii-3 run {1, 6}
    lii = (3, 8, 8, 10, 10, 3, 0)
    rows = [[0 if c == r else 1 for c in range(7)] for r in range(7)]
    rows[6] = [10, 5, 5, 0, 0, 10, 0]
    inst = Instance(7, lii, tuple(map(tuple, rows)))
    device = NodeState(7, 0, inst.lxi[6])
    table = _announcer_table([(-inst.lii_of(n), n) for n in range(1, 7)], 1)
    assert [run[1] for run in table] == [(4, 5), (2, 3), (1, 6)]
    assert _rank_candidates(device, table) == [1, 2, 3, 6]
    _assert_chosen(inst, 2, 7, 1)


@st.composite
def episodes(draw):
    inst = draw(instances())
    caps = draw(st.none() | st.dictionaries(  # node 0 included
        st.integers(0, inst.n), st.integers(0, 3)))
    incentive = draw(st.none() | st.just(IncentivePolicy(4, 0.5)))
    cfg = ProtocolConfig(rho=draw(st.integers(0, 10)),
                         transport=draw(st.sampled_from([BROADCAST, P2P])),
                         caps=caps,
                         edge_server_policy=draw(st.booleans()),
                         incentive_policy=incentive)
    return inst, cfg, draw(st.integers(0, 2**32))


_ZERO_LII = Instance(3, (0, 0, 0), ((0, 5, 5), (5, 0, 5), (5, 5, 0)))


# the only phase-1 candidate leads, so under p2p its phase-2 announcement
# has no receiver but itself
_LONE_ANNOUNCER = Instance(3, (9, 0, 0), ((0, 1, 1), (5, 0, 0), (5, 0, 0)))
# lii 5 and 5.0 are equal and hash alike, but print differently
_INT_AND_FLOAT_LII = Instance(3, (5, 5.0, 0),
                              ((0, 1, 1), (1, 0, 1), (2, 3, 0)))


@pytest.mark.parametrize("feature", [
    "broadcast", "fan-out", "nack", "edge-offer", "edge-offer-p2p",
    "float-lii", "float-lii-p2p", "nack-broadcast", "lone-announcer",
    "int-and-float-lii"])
def test_write_log_bytes_equal_json_dumps(tmp_path, instance_a, feature):
    inst, cfg = {
        "broadcast": (instance_a, ProtocolConfig(rho=4)),
        "fan-out": (instance_a, ProtocolConfig(rho=4, transport=P2P)),
        "nack": (generate_instance(30, 2), ProtocolConfig(
            rho=5, transport=P2P, caps={n: 1 for n in range(1, 31)})),
        "edge-offer": (_ZERO_LII, ProtocolConfig(edge_server_policy=True)),
        "edge-offer-p2p": (_ZERO_LII, ProtocolConfig(
            transport=P2P, edge_server_policy=True)),
        "float-lii": (_ZERO_LII, ProtocolConfig(
            incentive_policy=IncentivePolicy(0.5, 1.0))),
        "float-lii-p2p": (_ZERO_LII, ProtocolConfig(
            transport=P2P, incentive_policy=IncentivePolicy(0.5, 1.0))),
        "nack-broadcast": (generate_instance(30, 2), ProtocolConfig(
            rho=5, caps={n: 1 for n in range(1, 31)})),
        "lone-announcer": (_LONE_ANNOUNCER, ProtocolConfig(transport=P2P)),
        "int-and-float-lii": (_INT_AND_FLOAT_LII, ProtocolConfig(rho=4)),
    }[feature]
    outcome = run_episode(inst, cfg, seed=1)
    batches = outcome.log.batches
    items = [(b, item) for b in batches for item in b.items]
    assert {
        "broadcast": any(b.transport == BROADCAST and b.group is None
                         and lii is not None for b, (_, _, _, lii) in items),
        "fan-out": any(b.group is not None for b in batches),
        "nack": any(kind == NACK for _, (kind, _, _, _) in items),
        "edge-offer": any(sender == 0 and receiver is None
                          for _, (_, sender, receiver, _) in items),
        "edge-offer-p2p": any(b.group == (0, 1, 2, 3) and sender == 0
                              for b, (_, sender, _, _) in items),
        "float-lii": any(isinstance(lii, float)
                         for _, (_, _, _, lii) in items),
        "float-lii-p2p": any(b.group is not None and isinstance(lii, float)
                             for b, (_, _, _, lii) in items),
        "nack-broadcast": any(kind == NACK for _, (kind, _, _, _) in items)
        and any(b.transport == BROADCAST and lii is not None
                for b, (_, _, _, lii) in items),
        "lone-announcer": outcome.leader_set_phase1 == {1}
        and outcome.assignment.leaders == {1},
        "int-and-float-lii": [(lii, lii.__class__) for b, (_, _, _, lii)
                              in items if b.round == 0]
        == [(5, int), (5.0, float)],
    }[feature]
    # the messages a batch stands for, built one by one
    reference = []
    for b, (kind, sender, receiver, lii) in items:
        receivers = ([receiver] if b.group is None
                     else [r for r in b.group if r != sender])
        reference += [Message(kind, sender, r, b.phase, b.round, b.transport,
                              lii) for r in receivers]
    messages = outcome.messages
    assert messages == tuple(reference)
    if feature == "lone-announcer":
        assert (2, PHASE2_ANNOUNCE, P2P) not in outcome.message_counts
        assert not any(m.kind == PHASE2_ANNOUNCE for m in messages)
    path = tmp_path / "log.jsonl"
    outcome.write_log(path)
    assert path.read_bytes() == "".join(
        json.dumps(m.to_json_dict(), sort_keys=True) + "\n"
        for m in messages).encode()


@settings(max_examples=150, deadline=None)
@given(episodes())
def test_message_counts_match_the_materialised_log(episode):
    inst, cfg, seed = episode
    outcome = run_episode(inst, cfg, seed)
    messages = outcome.messages
    assert outcome.total_messages == len(messages)
    protocol = messages[:outcome.protocol_messages]
    by_kind = {}
    for m in messages:
        by_kind[m.phase, m.kind, m.transport] = \
            by_kind.get((m.phase, m.kind, m.transport), 0) + 1
    assert outcome.message_counts == by_kind
    # the fallback exchange, sent last, adds to phase 2 only
    per = {1: 0, 2: 0}
    for (phase, _, _), k in outcome.message_counts.items():
        per[phase] += k
    assert per[1] == sum(1 for m in protocol if m.phase == 1)
    assert per[2] == outcome.total_messages - per[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        outcome.write_log(path)
        with open(path) as fh:
            assert fh.read() == "".join(
                json.dumps(m.to_json_dict(), sort_keys=True) + "\n"
                for m in messages)


@settings(max_examples=150, deadline=None)
@given(episodes())
def test_requests_are_bounded_by_ranked_candidates(episode):
    # each follower asks each ranked candidate at most once, and every
    # request gets exactly one reply (ACK or NACK)
    inst, cfg, seed = episode
    outcome = run_episode(inst, cfg, seed)
    protocol = outcome.messages[:outcome.protocol_messages]
    requests = [(m.phase, m.sender, m.receiver) for m in protocol
                if m.kind == FOLLOW_REQUEST]
    replies = [(m.phase, m.receiver, m.sender) for m in protocol
               if m.kind in (ACK, NACK)]
    assert len(set(requests)) == len(requests)
    assert sorted(requests) == sorted(replies)
    ranked = outcome.leader_set_phase1
    for _, m, n in requests:
        assert n in ranked and n != m and inst.lxi_of(m, n) > 0
    if cfg.caps is None:
        assert not any(m.kind == NACK for m in protocol)


# -- privacy ------------------------------------------------------------------

# A device reads scores in these steps, each with its NodeState as the local
# ``device`` or ``state``.
_DEVICE_STEPS = {f.__code__ for f in (
    take_role, request_best, serve_request, take_reply, close_phase1,
    _best_candidate, _rank_candidates)}
# The readers that only build, label or evaluate an episode; instance
# construction reads the rows it is given.
_CENTRAL = {f.__code__: f.__name__ for f in (
    detect_scenario, _utility, attach_edge_server, Instance.__post_init__)}
_PROTOCOL = {f.__code__: f.__name__ for f in (
    simulate_protocol, run_fallback_process)}


class _TrackedRow:
    """A stored lxi row that records each read of its scores as ``(owner,
    reader, central, within)``: the reader is the device whose step read
    it (None outside a step), ``central`` the central reader on the stack
    and ``within`` the protocol part running, each by name or None."""

    def __init__(self, row, owner, reads):
        self.row, self.owner, self.reads = row, owner, reads

    def __len__(self):
        return len(self.row)

    def __getitem__(self, i):
        self._record(sys._getframe(1))
        return self.row[i]

    def __iter__(self):
        self._record(sys._getframe(1))
        return iter(self.row)

    def _record(self, frame):
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        reader = None
        if frame.f_code in _DEVICE_STEPS:
            local = frame.f_locals
            reader = local.get("device", local.get("state")).id
        central = within = None
        while frame is not None:
            central = central or _CENTRAL.get(frame.f_code)
            within = within or _PROTOCOL.get(frame.f_code)
            frame = frame.f_back
        self.reads.append((self.owner, reader, central, within))


def _track_rows(monkeypatch, reads):
    # every instance built from here on stores tracked rows
    post_init = Instance.__post_init__

    def tracked(inst):
        post_init(inst)
        off = inst.node_ids.start
        object.__setattr__(inst, "lxi", tuple(
            _TrackedRow(row, r + off, reads) for r, row in enumerate(inst.lxi)))

    monkeypatch.setattr(Instance, "__post_init__", tracked)


def _privacy_episode(rng):
    """A drawn instance of up to 12 UEs, some scores float, maybe holding
    node 0, with a config under caps 0..3, the edge server and the
    incentive."""
    def score():
        return rng.choice((0.5, 2.5, 9.5)) if rng.random() < 0.1 \
            else rng.randint(0, 10)
    n = rng.randint(1, 12)
    inst = Instance(n, tuple(score() for _ in range(n)), tuple(
        tuple(0 if c == r else score() for c in range(n)) for r in range(n)))
    if rng.random() < 0.25:
        inst = attach_edge_server(inst, rng.randint(1, 10),
                                  [score() for _ in range(n)])
    caps = None if rng.random() < 0.3 else {
        m: rng.randint(0, 3) for m in inst.node_ids if rng.random() < 0.7}
    return inst, dict(
        rho=rng.randint(-1, 10), caps=caps,
        edge_server_policy=rng.random() < 0.7,
        incentive_policy=rng.choice((None, IncentivePolicy(4, 0.5))))


def test_protocol_reads_each_row_only_in_its_owners_device_steps(monkeypatch):
    # The abstract's privacy claim: during both phases and the edge-server
    # offer, a device's scores are read only by the device itself. Only
    # the named central readers read other rows.
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(2000):
        inst, kw = _privacy_episode(rng)
        seed = rng.getrandbits(32)
        for transport in (BROADCAST, P2P):
            cfg = ProtocolConfig(transport=transport, **kw)
            expected = run_episode(inst, cfg, seed)
            reads = []
            with monkeypatch.context() as patch:
                _track_rows(patch, reads)
                tracked = Instance(inst.n, inst.lii, inst.lxi,
                                   inst.has_edge_server)
                outcome = run_episode(tracked, cfg, seed)
            assert outcome.to_json_dict() == expected.to_json_dict()
            assert outcome.message_counts == expected.message_counts
            for owner, reader, central, within in reads:
                if central is None:
                    assert reader == owner, (
                        f"row {owner} read by {reader} in {within}", inst, cfg)
                elif within is not None:
                    assert central == "attach_edge_server"
                seen[central or within] += 1
    # every reader the claim covers took part
    assert set(seen) == {"simulate_protocol", "run_fallback_process",
                         "detect_scenario", "_utility", "attach_edge_server",
                         "__post_init__"}


def test_devices_rank_only_what_was_announced_to_them(monkeypatch):
    # A device ranks the announcer table of its round, so each (-lii, id)
    # pair of a table it reads must be an announcement of that id and lii in
    # the log, of the table's phase and round and sent to the device (to
    # all under broadcast). A table is built just after its round's
    # announcements are logged, so it takes their phase and round.
    add, build, request = (MessageLog.add, protocol._announcer_table,
                           protocol.request_best)
    logged, built, read = [None], [], []

    def logging_add(log, phase, rnd, *args, **kwargs):
        logged[0] = (phase, rnd)
        return add(log, phase, rnd, *args, **kwargs)

    def building(announcers, offset):
        pairs = list(announcers)
        table = build(pairs, offset)
        built.append((logged[0], pairs, table))
        return table

    def requesting(state, announcers):
        read.append((state.id, announcers))
        return request(state, announcers)

    monkeypatch.setattr(MessageLog, "add", logging_add)
    monkeypatch.setattr(protocol, "_announcer_table", building)
    monkeypatch.setattr(protocol, "request_best", requesting)
    rng = random.Random(2025)
    seen = Counter()
    for _ in range(500):
        inst, kw = _privacy_episode(rng)
        seed = rng.getrandbits(32)
        for transport in (BROADCAST, P2P):
            built.clear()
            read.clear()
            outcome = run_episode(inst, ProtocolConfig(transport=transport,
                                                       **kw), seed)
            sent = {(m.phase, m.round, m.sender, m.receiver, m.lii): m.kind
                    for m in outcome.messages
                    if m.kind in (ANNOUNCE, PHASE2_ANNOUNCE)}
            for reader, table in read:
                (phase, rnd), pairs = next((at, pairs) for at, pairs, t
                                           in built if t is table)
                for neg, n in pairs:
                    kind = sent.get((phase, rnd, n, None, -neg)) or sent.get(
                        (phase, rnd, n, reader, -neg))
                    assert kind is not None, (reader, n, phase, rnd, inst, kw)
                    seen[kind, transport, n == 0] += 1  # node 0's offer
    # both phases and the edge-server offer, under both transports
    assert set(seen) == {(kind, transport, False)
                         for kind in (ANNOUNCE, PHASE2_ANNOUNCE)
                         for transport in (BROADCAST, P2P)} | {
        (ANNOUNCE, BROADCAST, True), (ANNOUNCE, P2P, True)}


# -- messages -----------------------------------------------------------------

def test_message_is_immutable_hashable_and_serialises_as_before():
    msg = Message(ANNOUNCE, 2, None, 1, 0, BROADCAST, lii=8)
    with pytest.raises(AttributeError):
        msg.sender = 3
    assert msg._fields == ("kind", "sender", "receiver", "phase", "round",
                           "transport", "lii")
    assert msg.to_json_dict() == {
        "kind": ANNOUNCE, "sender": 2, "receiver": None, "phase": 1,
        "round": 0, "transport": BROADCAST, "lii": 8}
    req = Message(FOLLOW_REQUEST, 3, 2, 1, 1, P2P)
    assert req.lii is None
    assert req.to_json_dict() == {
        "kind": FOLLOW_REQUEST, "sender": 3, "receiver": 2, "phase": 1,
        "round": 1, "transport": P2P}
    twin = Message(FOLLOW_REQUEST, 3, 2, 1, 1, P2P, None)
    assert twin == req and hash(twin) == hash(req)
    assert twin != Message(FOLLOW_REQUEST, 3, 2, 1, 2, P2P)


def test_episodes_load_neither_numpy_nor_scipy():
    # importing numpy costs more than a whole small benchmark set-up, so the
    # protocol path stays on the standard library
    src = os.path.dirname(os.path.dirname(os.path.abspath(leadsel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from leadsel import ProtocolConfig, generate_instance, run_episode\n"
            "inst = generate_instance(50, 0)\n"
            "for t in ('broadcast', 'p2p'):\n"
            "    run_episode(inst, ProtocolConfig(rho=5, transport=t), 0)\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
