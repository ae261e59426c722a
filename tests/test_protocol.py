"""Two-phase protocol: state machines, episodes, fallback and scenarios."""
from __future__ import annotations

import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from leadsel import (
    Assignment,
    Instance,
    IncentivePolicy,
    ProtocolConfig,
    ProtocolViolation,
    attach_edge_server,
    choose_leader,
    generate_instance,
    partition,
    run_episode,
    run_fallback_process,
    utility,
)
from leadsel.protocol import (
    ACK,
    ANNOUNCE,
    BROADCAST,
    CANDIDATE_LEADER,
    FOLLOW_REQUEST,
    NACK,
    P2P,
    SCENARIO_1,
    SCENARIO_2,
    SCENARIO_3,
    LocalView,
    Message,
    NodeState,
    PhaseStart,
    _best_candidate,
    _rank_candidates,
    detect_scenario,
    on_event,
    simulate_protocol,
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


# -- partition and ranking ----------------------------------------------------

def test_partition_worked_example(instance_a):
    leaders, followers = partition(instance_a, 4)
    assert leaders == {1, 3}
    assert followers == {2}


def test_partition_extreme_thresholds(instance_a):
    assert partition(instance_a, 10)[0] == set()
    leaders, followers = partition(instance_a, 0)
    assert followers == set()


def test_choose_leader_prefers_combined_score(instance_a):
    assert choose_leader(instance_a, 2, {1, 3}) == 1  # LI 13 vs 7


def test_choose_leader_refuses_zero_scores():
    inst = Instance(3, (9, 9, 0), ((0, 1, 1), (1, 0, 1), (0, 0, 0)))
    assert choose_leader(inst, 3, {1, 2}) is None


def test_choose_leader_tie_breaks_to_lower_id():
    inst = Instance(3, (5, 5, 0), ((0, 1, 1), (1, 0, 1), (3, 3, 0)))
    assert choose_leader(inst, 3, {1, 2}) == 1


# -- node state machine -------------------------------------------------------

def test_phase_start_announces_above_threshold():
    view = LocalView(1, 8, {2: 3})
    state = NodeState(id=1)
    out = on_event(state, PhaseStart(1), ProtocolConfig(rho=5), view)
    assert state.role == CANDIDATE_LEADER
    assert len(out) == 1 and out[0].kind == ANNOUNCE and out[0].lii == 8


def test_phase_start_stays_quiet_below_threshold():
    view = LocalView(1, 3, {2: 3})
    state = NodeState(id=1)
    assert on_event(state, PhaseStart(1), ProtocolConfig(rho=5), view) == []


def test_follow_request_to_non_leader_is_violation():
    view = LocalView(1, 3, {2: 3})
    state = NodeState(id=1)  # plain follower, cannot take followers
    msg = Message(FOLLOW_REQUEST, 2, 1, 1, 0, P2P)
    with pytest.raises(ProtocolViolation):
        on_event(state, msg, ProtocolConfig(), view)


def test_unexpected_ack_is_violation():
    view = LocalView(1, 8, {2: 3})
    state = NodeState(id=1, role=CANDIDATE_LEADER)
    with pytest.raises(ProtocolViolation):
        on_event(state, Message(ACK, 2, 1, 1, 0, P2P), ProtocolConfig(), view)


def test_unknown_event_is_violation():
    with pytest.raises(ProtocolViolation):
        on_event(NodeState(id=1), object(), ProtocolConfig(),
                 LocalView(1, 0, {}))


def test_leader_at_capacity_nacks():
    view = LocalView(1, 8, {})
    state = NodeState(id=1, role=CANDIDATE_LEADER, capacity_remaining=1)
    cfg = ProtocolConfig(caps={1: 1})
    first = on_event(state, Message(FOLLOW_REQUEST, 2, 1, 1, 0, P2P), cfg, view)
    second = on_event(state, Message(FOLLOW_REQUEST, 3, 1, 1, 0, P2P), cfg, view)
    assert first[0].kind == ACK
    assert second[0].kind == NACK
    assert state.followers == {2}


# -- configuration validation -------------------------------------------------

def test_config_rejects_unknown_transport():
    with pytest.raises(ValueError):
        ProtocolConfig(transport="carrier-pigeon")


def test_config_rejects_unknown_delivery_order():
    with pytest.raises(ValueError):
        ProtocolConfig(delivery_order="chaotic")


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
    per = outcome.messages_per_phase()
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


def test_capacity_nack_retry_with_fixed_order():
    # both followers prefer UE 1; with capacity 1 the second is bounced to UE 2
    inst = Instance(4, (9, 8, 0, 0),
                    ((0, 1, 1, 1), (1, 0, 1, 1), (9, 3, 0, 1), (9, 3, 1, 0)))
    cfg = ProtocolConfig(rho=5, caps={1: 1, 2: 1}, delivery_order="ascending")
    outcome = run_episode(inst, cfg, seed=0)
    assert outcome.assignment.follows == {3: 1, 4: 2}
    nacks = [m for m in outcome.messages if m.kind == NACK]
    assert len(nacks) == 1 and nacks[0].receiver == 4


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
    assert outcome.rounds == 0  # the two-phase protocol never ran


def test_scenario3_incentive_rerun():
    cfg = ProtocolConfig(rho=0,
                         incentive_policy=IncentivePolicy(5, 1.0))
    outcome = run_episode(_scenario3_instance(), cfg, seed=0)
    assert outcome.scenario == SCENARIO_3
    assert outcome.effective_instance.lii == (5, 5, 5)
    # boosted instance is scenario-1-like, so no clusters form without node 0
    assert outcome.utility == 0


def test_edge_server_offer_respects_refusal():
    inst = attach_edge_server(_scenario2_instance(), 10, [1, 0, 1])
    cfg = ProtocolConfig(rho=0, edge_server_policy=True)
    outcome = run_episode(inst, cfg, seed=0)
    assert outcome.assignment.follows == {1: 0, 3: 0}
    assert 2 in outcome.assignment.isolated


def test_fallback_message_accounting():
    inst = _scenario2_instance()
    cfg = ProtocolConfig(rho=0, edge_server_policy=True)
    fb = run_fallback_process(inst, 0, cfg, {1, 2, 3}, random.Random(0))
    # one offer plus request/ack per accepting UE
    assert len(fb.messages) == 1 + 2 * len(fb.extra_follows)
    outcome = run_episode(inst, cfg, seed=0)
    assert outcome.total_messages == \
        outcome.protocol_messages + outcome.fallback_message_count


def test_centralized_reference_count():
    inst = generate_instance(8, 1)
    outcome = run_episode(inst, ProtocolConfig(rho=4), seed=0)
    assert outcome.centralized_messages == 9  # N + 1


def test_episode_constraints_hold_when_non_marginal():
    from leadsel import check_constraints
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
def test_episode_matches_closed_form_in_either_delivery_order(
        inst, rho, transport, seed):
    cands, expected = _closed_form(inst, rho)
    outcomes = [run_episode(inst, ProtocolConfig(rho=rho, transport=transport,
                                                 delivery_order=order), seed)
                for order in ("random", "ascending")]
    for outcome in outcomes:
        assert outcome.assignment == expected
        assert outcome.utility == utility(inst, expected)
        if outcome.scenario != SCENARIO_3:
            assert outcome.leader_set_phase1 == cands


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_best_candidate_heads_the_full_ranking(inst, data):
    m = data.draw(st.sampled_from(inst.ue_ids))
    pool = data.draw(st.sets(st.sampled_from(inst.ue_ids)))
    view = LocalView(m, inst.lii_of(m), inst.lxi[m - 1], 1)
    announcers = sorted((-inst.lii_of(n), n) for n in pool)
    ranked = _rank_candidates(view, announcers)
    head = ranked[0] if ranked else None
    assert _best_candidate(view, announcers) == head
    assert choose_leader(inst, m, pool) == head
    # a row keyed by peer id leaves the device out; its own id in the
    # table is skipped, not looked up
    by_id = LocalView(m, inst.lii_of(m), inst.lxi_row(m))
    assert m not in by_id.lxi_row
    announcers = sorted(set(announcers) | {(-inst.lii_of(m), m)})
    assert _rank_candidates(by_id, announcers) == ranked
    assert _best_candidate(by_id, announcers) == head


def test_ids_below_the_row_offset_are_refused():
    inst = Instance(2, (5, 5), ((0, 3), (3, 0)))
    view = LocalView(1, 5, inst.lxi[0], 1)
    # id 0 would index the row at -1, i.e. the last peer
    assert _rank_candidates(view, [(-9, 0), (-5, 2)]) == [2]
    assert _best_candidate(view, [(-9, 0)]) is None


@st.composite
def episodes(draw):
    inst = draw(instances())
    caps = draw(st.none() | st.dictionaries(
        st.sampled_from(inst.ue_ids), st.integers(0, 3)))
    incentive = draw(st.none() | st.just(IncentivePolicy(4, 0.5)))
    cfg = ProtocolConfig(rho=draw(st.integers(0, 10)),
                         transport=draw(st.sampled_from([BROADCAST, P2P])),
                         caps=caps,
                         edge_server_policy=draw(st.booleans()),
                         incentive_policy=incentive,
                         delivery_order=draw(st.sampled_from(
                             ["random", "ascending"])))
    return inst, cfg, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(episodes())
def test_message_counts_match_the_materialised_log(episode):
    inst, cfg, seed = episode
    outcome = run_episode(inst, cfg, seed)
    messages = outcome.messages
    assert outcome.total_messages == len(messages)
    protocol = messages[:outcome.protocol_messages]
    assert outcome.messages_per_phase() == {
        p: sum(1 for m in protocol if m.phase == p) for p in (1, 2)}
    by_kind, by_transport = {}, {}
    for m in messages:
        by_kind[m.phase, m.kind, m.transport] = \
            by_kind.get((m.phase, m.kind, m.transport), 0) + 1
        by_transport[m.phase, m.transport] = \
            by_transport.get((m.phase, m.transport), 0) + 1
    assert outcome.message_counts == by_kind
    assert outcome.counts == by_transport
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
