"""Two-phase distributed leader selection, simulated round by round.

Phase 1: every device whose internal willingness clears the threshold
announces itself; the rest rank the announcers and request the best one.
Phase 2: announcers that attracted nobody convert to followers and pick
among the leaders that did. A capacity-limited variant answers requests
with ACK/NACK and followers retry down their candidate list.
``run_episode`` takes three steps once each, in order: in Scenario 3 (no
UE willing to lead, and none clearing the threshold) an incentive offer
that may raise some lii; both phases; and the edge-server offer to the UEs
still without a role, which node 0 makes and serves through the same
device steps as any leader, its offer sent and logged by the phases'
announcement step.

A device is one ``NodeState``: its id, its own scores (lii and its stored
lxi row) and its protocol state. It has five steps, each seeing only
itself: take a phase-1 role, request the best announcer, serve one request
as a leader (ACK or NACK), take one reply as a requester (and pick the
retry after a NACK), and close phase 1. The simulator builds each device
and takes its role in one pass, keeps the candidate and follower ids in
ascending order, and calls the other steps on those lists in synchronous
rounds; the timer separating the phases is a round barrier, so every
request and reply of a phase is delivered before phase 1 closes. Requests
are delivered in seeded rounds, as ``simulate_protocol`` sets out; the
order only matters under capacities, where leaders serve first come first
serve.

The barrier also means that every receiver of an announcement round hears
the same announcers, so the simulator builds one announcer table per round
and all its receivers share it. The table groups the announcers into runs
of equal lii, best first, ids ascending within a run. A device reads a
run's scores from its stored row in one call and takes the first maximum,
the lowest id, or its first SCORE_MAX, which no score beats. It reads the
next run only while that run's lii could still reach the best total
found. A follower requests its best candidate and ranks the rest from the
same table only when that one answers NACK.

An episode keeps one message log, its ``Batch``es in send order: one per
announcement round, one for the requests and one for the replies of each
phase and round, and, logged last in the round after the protocol's last,
the edge-server offer and its requests and replies. Messages are counted
per (phase, kind, transport) as they are sent. The per-message records are
built only when ``EpisodeOutcome.messages`` reads the log, and
``write_log`` formats their lines without building them.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .model import (
    DEFAULT_EDGE_LII,
    DEFAULT_EDGE_LXI,
    EDGE_SERVER_ID,
    SCORE_MAX,
    Assignment,
    Instance,
    attach_edge_server,
    check_caps,
    leader_candidates,
    nobody_willing,
    _utility,
)

# message kinds
ANNOUNCE = "announce_lii"
FOLLOW_REQUEST = "follow_request"
ACK = "ack"
NACK = "nack"
PHASE2_ANNOUNCE = "phase2_announce"

BROADCAST = "broadcast"
P2P = "p2p"

# roles
CANDIDATE_LEADER = "candidate_leader"
FOLLOWER = "follower"
LEADER_WITH_FOLLOWERS = "leader_with_followers"
ISOLATED_LEADER = "isolated_leader"
ASSIGNED_FOLLOWER = "assigned_follower"

SCENARIO_1 = "Scenario1"
SCENARIO_2 = "Scenario2"
SCENARIO_3 = "Scenario3"


class ProtocolViolation(Exception):
    """A message arrived that is illegal for the receiver's role/phase."""


class Message(NamedTuple):
    kind: str
    sender: int
    receiver: Optional[int]  # None = broadcast
    phase: int
    round: int
    transport: str
    lii: Optional[object] = None

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "sender": self.sender, "receiver": self.receiver,
             "phase": self.phase, "round": self.round, "transport": self.transport}
        if self.lii is not None:
            d["lii"] = self.lii
        return d


@dataclass(frozen=True)
class IncentivePolicy:
    delta: object
    accept_prob: float

    def __post_init__(self):
        if not (0 <= self.delta <= SCORE_MAX):
            raise ValueError("incentive delta must lie in [0,10]")
        if not (0.0 <= self.accept_prob <= 1.0):
            raise ValueError("accept_prob must lie in [0,1]")


@dataclass(frozen=True)
class ProtocolConfig:
    rho: object = 0
    transport: str = BROADCAST
    caps: Optional[Mapping] = None
    edge_server_policy: bool = False
    incentive_policy: Optional[IncentivePolicy] = None

    def __post_init__(self):
        if self.transport not in (BROADCAST, P2P):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.caps is not None:
            check_caps(self.caps)


@dataclass(slots=True)
class NodeState:
    """One device: what it knows a priori, its own scores only, and its
    protocol state.

    ``lxi_row`` is the device's willingness to follow each node, the
    instance's stored row read in place; the announcer table's getters
    index it. A device holds a ``followers`` set only once it is a candidate
    leader.
    """
    id: int
    lii: object
    lxi_row: Sequence
    role: str = FOLLOWER
    # the announcer table of the node's first request
    announcers: Optional[list] = None
    # ids still to try, best last; None until the first NACK ranks them
    untried: Optional[list] = None
    followers: Optional[set] = None
    capacity_remaining: Optional[int] = None
    leader: Optional[int] = None


def _announcer_table(announcers: Iterable, offset: int) -> list:
    """The ``(-lii, id)`` announcer pairs as runs of equal lii.

    Each run is ``(-lii, ids, read)``, best lii first, with ``ids``
    ascending and ``read`` an ``itemgetter`` that reads their scores from a
    row indexed at ``id - offset`` in one call.
    """
    runs = []
    for neg, run in groupby(sorted(announcers), itemgetter(0)):
        ids = tuple(n for _, n in run)
        rows = [n - offset for n in ids]
        # a getter of one index returns a bare value, so a run of one reads
        # its index twice
        runs.append((neg, ids, itemgetter(*(rows * 2 if len(rows) == 1
                                            else rows))))
    return runs


def _rank_candidates(device: NodeState, table: list) -> list:
    """Candidate ids by descending ``lii + lxi``, lowest id first on ties.

    ``table`` comes from ``_announcer_table`` at the device's offset and
    does not hold the device. Candidates it scores zero are left out.
    """
    row = device.lxi_row
    scored = []
    for neg, ids, read in table:
        scored += [(neg - lxi, n) for n, lxi in zip(ids, read(row)) if lxi > 0]
    scored.sort()
    return [n for _, n in scored]


def _best_candidate(device: NodeState, table: list) -> Optional[int]:
    """The first id of ``_rank_candidates(device, table)``, or None.

    No lxi exceeds SCORE_MAX, so the scan stops at the first run whose lii
    can no longer reach the best total found. A run tying that total is
    still read, since a lower id there wins. A run holding SCORE_MAX is
    read only up to its first such score, since no score beats it. Runs
    have distinct lii, so that same test then ends the scan, unless float
    rounding ties the next run's total, as it does in the ranking.
    """
    row = device.lxi_row
    best = best_key = None
    for neg, ids, read in table:
        if best is not None and neg - SCORE_MAX > best_key:
            break
        scores = read(row)
        top = SCORE_MAX if SCORE_MAX in scores else max(scores)
        key, n = neg - top, ids[scores.index(top)]
        if top > 0 and (best is None or (key, n) < (best_key, best)):
            best, best_key = n, key
    return best


def take_role(state: NodeState, cfg: ProtocolConfig) -> None:
    """Phase 1 opens: the device becomes a candidate leader iff its lii
    clears the threshold."""
    if state.lii > cfg.rho:
        state.role = CANDIDATE_LEADER
        state.followers = set()
        if cfg.caps is not None:
            state.capacity_remaining = cfg.caps.get(state.id)


def request_best(state: NodeState, announcers: list) -> Optional[int]:
    """The id of the best in the announcer table, or None when the device
    scores every announcer zero."""
    target = _best_candidate(state, announcers)
    if target is not None:
        state.announcers = announcers  # the rest are ranked on the first NACK
    return target


def serve_request(state: NodeState, sender: int) -> str:
    """A leader takes one request from ``sender``: ACK, or NACK when it is
    at capacity."""
    if state.role not in (CANDIDATE_LEADER, LEADER_WITH_FOLLOWERS):
        raise ProtocolViolation(
            f"node {state.id} ({state.role}) cannot take followers")
    if state.capacity_remaining is not None:
        if state.capacity_remaining <= 0:
            return NACK
        state.capacity_remaining -= 1
    state.followers.add(sender)
    return ACK


def take_reply(state: NodeState, kind: str, leader: int) -> Optional[int]:
    """A requester takes the ACK or NACK ``leader`` sent it.

    Returns the id to request next after a NACK, or None.
    """
    if kind not in (ACK, NACK):
        raise ProtocolViolation(f"unknown message kind {kind}")
    if state.role not in (FOLLOWER, ISOLATED_LEADER) or state.announcers is None:
        raise ProtocolViolation(f"unexpected {kind} at {state.id}")
    if kind == ACK:
        state.role = ASSIGNED_FOLLOWER
        state.leader = leader
        return None
    if state.untried is None:
        # the best candidate, just refused, heads the full ranking
        state.untried = _rank_candidates(state, state.announcers)[:0:-1]
    if not state.untried:
        return None
    return state.untried.pop()


def close_phase1(state: NodeState) -> None:
    """Phase 1 closes: a candidate leader keeps leading only with followers."""
    if state.role == CANDIDATE_LEADER:
        state.role = LEADER_WITH_FOLLOWERS if state.followers else ISOLATED_LEADER


class Batch(NamedTuple):
    """Messages of one phase, round and transport, in send order.

    Each ``(kind, sender, receiver, lii)`` item is one message. When
    ``group`` is set (a sorted id sequence), an item's receiver is unused:
    the item is one message to every member of ``group`` but its sender.
    """
    phase: int
    round: int
    transport: str
    items: list
    group: Optional[Sequence] = None


@dataclass
class MessageLog:
    """The messages of one episode as batches, in send order.

    ``tally`` counts them per (phase, kind, transport) as they are sent.
    The messages themselves are built only when the log is read.
    """
    batches: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)

    def add(self, phase: int, rnd: int, transport: str, items: list,
            group: Optional[Sequence] = None) -> None:
        """Log ``items`` as one ``Batch``. An item whose group holds no
        member but its sender sends nothing and is dropped."""
        if group is None:
            counts = Counter(map(itemgetter(0), items))
        else:
            members, size = set(group), len(group)
            items = [item for item in items if size - (item[1] in members)]
            counts = Counter()
            for kind, sender, _, _ in items:
                counts[kind] += size - (sender in members)
        if items:
            self.batches.append(Batch(phase, rnd, transport, items, group))
        for kind, k in counts.items():
            self.tally[phase, kind, transport] += k

    def __len__(self) -> int:
        return sum(self.tally.values())

    def __iter__(self):
        for phase, rnd, transport, items, group in self.batches:
            if group is None:
                for kind, sender, receiver, lii in items:
                    yield Message(kind, sender, receiver, phase, rnd,
                                  transport, lii)
            else:
                for kind, sender, _, lii in items:
                    for r in group:
                        if r != sender:
                            yield Message(kind, sender, r, phase, rnd,
                                          transport, lii)


def _json_lines(batches: Iterable):
    """The log lines of the ``MessageLog`` batches ``batches``.

    Each message's line is ``json.dumps(msg.to_json_dict(), sort_keys=True)``
    and a newline, byte for byte, for the values a message holds: kinds and
    transports are this module's constants, which JSON quotes as they are;
    phases, rounds and ids are ints; and lii is an int or a float. A batch
    formats one template with its phase, round and transport, and from it
    one line per kind that takes the receiver and sender of an item without
    lii (a request or a reply). An item with lii fills the template itself.
    An item sent to a group is formatted once, split around its receiver,
    and yields the lines of all its recipients as one string.
    """
    for phase, rnd, transport, items, group in batches:
        # kinds and transports hold no '"', "\\" or "%"
        line = ('{"kind": "%%s", %%s"phase": %d, "receiver": %%s, '
                '"round": %d, "sender": %%s, "transport": "%s"}\n'
                % (phase, rnd, transport))
        if group is None:
            lines = {kind: line % (kind, "", "%d", "%d")
                     for kind in set(map(itemgetter(0), items))}
            yield "".join([
                lines[kind] % (receiver, sender) if lii is None else
                line % (kind, '"lii": %s, ' % (
                    lii if lii.__class__ is int else json.dumps(lii)),
                    "null" if receiver is None else receiver, sender)
                for kind, sender, receiver, lii in items])
        else:
            texts = list(map(str, group))
            at = {r: i for i, r in enumerate(group)}
            for kind, sender, _, lii in items:
                lii = "" if lii is None else '"lii": %s, ' % (
                    lii if lii.__class__ is int else json.dumps(lii))
                # no value of a line holds NUL, so it marks the receiver
                head, tail = (line % (kind, lii, "\0", sender)).split("\0")
                i = at.get(sender)
                rest = texts if i is None else texts[:i] + texts[i + 1:]
                yield head + (tail + head).join(rest) + tail


def _announce(log: MessageLog, cfg: ProtocolConfig, kind: str, phase: int,
              rnd: int, group: tuple, announcers: list, offset: int) -> list:
    """Each of the ``announcers`` (devices) reaches every other member of
    ``group``; the round's table, which all receivers share, is returned."""
    items = [(kind, state.id, None, state.lii) for state in announcers]
    log.add(phase, rnd, cfg.transport, items,
            None if cfg.transport == BROADCAST else group)
    return _announcer_table([(-lii, n) for _, n, _, lii in items], offset)


@dataclass
class SimulationResult:
    leaders: set
    follows: dict
    unresolved: set  # regular UEs that found no role
    log: MessageLog
    rounds: int
    leader_set_phase1: set


def simulate_protocol(inst: Instance, cfg: ProtocolConfig,
                      rng: random.Random) -> SimulationResult:
    """Run both phases over all regular UEs; the edge server never takes part.

    Phase 2 opens a round only when phase 1 had a candidate, so an episode
    with no candidate has 0 rounds. Each phase delivers its requests in
    rounds:

    1. A phase's first pending list holds the requesters in ascending id.
    2. Each round shuffles the whole list once, with ``rng`` (the
       episode's), after any incentive draws.
    3. Leaders serve requests in that order, and requesters take their
       replies in the same order.
    4. The NACKed requesters' retries, in delivery order, form the next
       round's list.
    """
    ids = inst.ue_ids
    off = inst.node_ids.start
    log = MessageLog()
    rnd = 0

    def request_and_deliver(requesters: list, announcers: list, phase: int,
                            at: int) -> None:
        # each of requesters requests its best announcer in round at; then
        # one pass per round delivers requests and retries (no node both
        # serves and requests, so this is the same as serving them first)
        nonlocal rnd
        pending = []
        for n in requesters:
            target = request_best(states[n], announcers)
            if target is not None:
                pending.append((n, target))
        log.add(phase, at, P2P, [(FOLLOW_REQUEST, m, n, None)
                                 for m, n in pending])
        while pending:
            rnd += 1
            rng.shuffle(pending)
            replies = []
            retries = []
            for m, n in pending:
                kind = serve_request(states[n], m)
                replies.append((kind, n, m, None))
                retry = take_reply(states[m], kind, n)
                if retry is not None:
                    retries.append((FOLLOW_REQUEST, m, retry, None))
            log.add(phase, rnd, P2P, replies)
            log.add(phase, rnd, P2P, retries)
            pending = [(m, n) for _, m, n, _ in retries]

    # Phase 1: every device takes its role, announcements go out in round
    # 0, then requests and NACK retries
    states = {}
    candidates, followers = [], []  # ascending, as are the lists below
    for n, lii, row in zip(ids, inst.lii[1 - off:], inst.lxi[1 - off:]):
        state = states[n] = NodeState(n, lii, row)
        take_role(state, cfg)
        (candidates if state.role == CANDIDATE_LEADER else followers).append(n)
    table = _announce(log, cfg, ANNOUNCE, 1, rnd, tuple(ids),
                      [states[n] for n in candidates], off)
    request_and_deliver(followers, table, 1, rnd + 1)
    leading, isolated = [], []
    for n in candidates:
        close_phase1(states[n])
        (leading if states[n].role == LEADER_WITH_FOLLOWERS
         else isolated).append(n)

    # Phase 2: re-announcements go to the phase-1 candidate set, and the
    # requests share their round, opened only if phase 1 had a candidate
    rnd += 1 if candidates else 0
    table = _announce(log, cfg, PHASE2_ANNOUNCE, 2, rnd, tuple(candidates),
                      [states[n] for n in leading], off)
    request_and_deliver(isolated, table, 2, rnd)

    # phase 2 leaves the leaders as phase 1 closed them
    leaders = set(leading)
    follows = {n: state.leader for n, state in states.items()
               if state.role == ASSIGNED_FOLLOWER}
    return SimulationResult(leaders, follows,
                            set(ids).difference(leaders, follows), log, rnd,
                            set(candidates))


@dataclass(frozen=True)
class EpisodeOutcome:
    assignment: Assignment
    utility: object
    log: MessageLog         # every message, the edge-server exchange last
    protocol_messages: int  # phase 1 + 2 traffic, before that exchange
    scenario: Optional[str]
    rounds: int             # protocol rounds, before that exchange
    leader_set_phase1: frozenset
    effective_instance: Instance

    @property
    def edge_server_used(self) -> bool:
        return EDGE_SERVER_ID in self.assignment.leaders

    @property
    def centralized_messages(self) -> int:
        """Reference count for the one-shot central scheme."""
        return self.effective_instance.n + 1

    @property
    def message_counts(self) -> dict:
        """Messages per (phase, kind, transport), fallback exchange included."""
        return dict(self.log.tally)

    @property
    def total_messages(self) -> int:
        return len(self.log)

    @cached_property
    def messages(self) -> tuple:
        """Every message in send order, built from the log on first use."""
        return tuple(self.log)

    def write_log(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(_json_lines(self.log.batches))

    def to_json_dict(self) -> dict:
        d = self.assignment.to_json_dict()
        d.update({
            "utility": self.utility,
            "scenario": self.scenario,
            "edge_server_used": self.edge_server_used,
            "rounds": self.rounds,
            "messages_total": self.total_messages,
            "messages_protocol": self.protocol_messages,
            "leader_set_phase1": sorted(self.leader_set_phase1),
            "centralized_messages": self.centralized_messages,
        })
        return d


def run_fallback_process(inst: Instance, cfg: ProtocolConfig, unresolved,
                         log: MessageLog, rnd: int) -> tuple[Instance, dict]:
    """An episode's last step: the edge-server offer to ``unresolved``.

    With the edge-server policy on and some UE left without a role, node 0
    (attached with default scores when ``inst`` lacks it) takes its role
    and serves through the same device steps as any leader, so the
    threshold and its cap hold. If its lii clears rho, it announces itself
    to those UEs through the phases' announcement step (one broadcast, or
    under p2p one message to each, in id order). Each of them, in id order,
    decides with ``request_best`` on its own device, as for any announcer,
    and node 0 answers each request: ACK, or NACK beyond its cap. The
    exchange is appended to ``log``, all of it in round ``rnd``. Otherwise
    nothing is sent and the UEs end isolated. Returns the instance, holding
    node 0 when it made the offer, and the ``{ue: 0}`` follows it gained.
    """
    if not (unresolved and cfg.edge_server_policy):
        return inst, {}
    offered = inst if inst.has_edge_server else attach_edge_server(
        inst, DEFAULT_EDGE_LII, [DEFAULT_EDGE_LXI] * inst.n)
    edge = NodeState(EDGE_SERVER_ID, offered.lii[0], offered.lxi[0])
    take_role(edge, cfg)
    if edge.role != CANDIDATE_LEADER:
        return inst, {}
    ues = sorted(unresolved)
    table = _announce(log, cfg, ANNOUNCE, 2, rnd, (EDGE_SERVER_ID, *ues),
                      [edge], 0)
    pairs = []
    for m in ues:
        if request_best(NodeState(m, offered.lii[m], offered.lxi[m]),
                        table) is not None:
            pairs += [(FOLLOW_REQUEST, m, EDGE_SERVER_ID, None),
                      (serve_request(edge, m), EDGE_SERVER_ID, m, None)]
    log.add(2, rnd, P2P, pairs)
    return offered, dict.fromkeys(sorted(edge.followers), EDGE_SERVER_ID)


def detect_scenario(inst: Instance, rho) -> Optional[str]:
    leaders = leader_candidates(inst, rho, inst.ue_ids)
    if nobody_willing(inst) and not leaders:
        return SCENARIO_3
    followers = set(inst.ue_ids).difference(leaders)
    if not followers:
        return SCENARIO_1
    off = inst.node_ids.start
    if leaders and all(inst.lxi[m - off][n - off] == 0
                       for m in followers for n in leaders):
        return SCENARIO_2
    return None


def run_episode(inst: Instance, cfg: ProtocolConfig, seed: int) -> EpisodeOutcome:
    """One episode: the module docstring's three steps, in order."""
    rng = random.Random(seed)
    scenario = detect_scenario(inst, cfg.rho)
    effective, pol = inst, cfg.incentive_policy
    if scenario == SCENARIO_3 and pol is not None:
        lii = list(inst.lii)  # one draw per UE, in id order, before shuffles
        for i in range(1 - inst.node_ids.start, len(lii)):
            if rng.random() < pol.accept_prob:
                lii[i] = min(SCORE_MAX, lii[i] + pol.delta)
        if tuple(lii) != inst.lii:
            effective = Instance(inst.n, tuple(lii), inst.lxi,
                                 inst.has_edge_server)

    sim = simulate_protocol(effective, cfg, rng)
    protocol_messages = len(sim.log)
    final, extra_follows = run_fallback_process(effective, cfg, sim.unresolved,
                                                sim.log, sim.rounds + 1)
    leaders = set(sim.leaders) | set(extra_follows.values())
    follows = {**sim.follows, **extra_follows}
    isolated = set(final.node_ids) - leaders - set(follows)
    assignment = Assignment.build(leaders, follows, isolated)
    return EpisodeOutcome(
        assignment=assignment,
        utility=_utility(final, assignment),
        log=sim.log,
        protocol_messages=protocol_messages,
        scenario=scenario,
        rounds=sim.rounds,
        leader_set_phase1=frozenset(sim.leader_set_phase1),
        effective_instance=final,
    )
