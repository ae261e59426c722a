"""Two-phase distributed leader selection as message-driven state machines.

Phase 1: every device whose internal willingness clears the threshold
announces itself; the rest rank the announcers and request the best one.
Phase 2: announcers that attracted nobody convert to followers and pick
among the leaders that did. A capacity-limited variant answers requests
with ACK/NACK and followers retry down their candidate list.

The timer separating the phases is modelled as a synchronous round
barrier: all requests and replies of a phase are delivered before the
timer event fires. Delivery order within a round is a seeded permutation
(it only matters under capacities, where leaders serve first come first
serve).

The barrier also means that every receiver of an announcement round hears
the same announcers, so the simulator keeps one table of ``(-lii, sender)``
pairs per round, sorted once, and all its receivers share it. Devices rank
candidates from their stored score row; a follower requests its best
candidate and ranks the rest only when that one answers NACK. The message log counts messages
per (phase, kind, transport) as they are sent and keeps a p2p announcement
as one entry for all its recipients; the per-recipient messages are built
only when ``EpisodeOutcome.messages`` or ``write_log`` reads the log.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .model import (
    DEFAULT_EDGE_LII,
    DEFAULT_EDGE_LXI,
    EDGE_SERVER_ID,
    SCORE_MAX,
    Assignment,
    Instance,
    attach_edge_server,
    leader_candidates,
    nobody_willing,
    utility as assignment_utility,
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
ISOLATED = "isolated"

SCENARIO_1 = "Scenario1"
SCENARIO_2 = "Scenario2"
SCENARIO_3 = "Scenario3"


class ProtocolViolation(Exception):
    """A message arrived that is illegal for the receiver's role/phase."""


@dataclass(frozen=True, slots=True)
class Message:
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
class PhaseStart:
    phase: int


@dataclass(frozen=True)
class TimerStarted:
    """Round barrier after the announcements of a phase have settled."""
    phase: int


@dataclass(frozen=True)
class TimerExpired:
    phase: int


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
    delivery_order: str = "random"  # or "ascending"

    def __post_init__(self):
        if self.transport not in (BROADCAST, P2P):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.delivery_order not in ("random", "ascending"):
            raise ValueError(f"unknown delivery order {self.delivery_order!r}")


@dataclass(slots=True)
class LocalView:
    """What a single device knows a priori: its own scores only.

    ``lxi_row[n - offset]`` is the device's willingness to follow peer n;
    the simulator passes the instance's stored row, read in place.
    """
    id: int
    lii: object
    lxi_row: Sequence
    offset: int = 0


def _view(inst: Instance, n: int) -> LocalView:
    return LocalView(n, inst.lii_of(n), inst.lxi[inst._idx(n)],
                     inst.node_ids.start)


@dataclass(slots=True)
class NodeState:
    id: int
    role: str = FOLLOWER
    # announcers as sorted (-lii, id) pairs: highest lii first, then lowest id
    known_liis: list = field(default_factory=list)        # phase 1
    phase2_liis: list = field(default_factory=list)       # phase 2
    # ids still to try, best last; None while only the best was requested
    leader_candidates: Optional[list] = field(default_factory=list)
    followers: set = field(default_factory=set)
    capacity_remaining: Optional[int] = None
    leader: Optional[int] = None
    phase: int = 1


def choose_leader(inst: Instance, m: int, candidates: Iterable[int]) -> Optional[int]:
    """Best candidate by combined score, refusing anyone scored zero."""
    return _best_candidate(_view(inst, m),
                           sorted((-inst.lii_of(n), n) for n in candidates))


def _rank_candidates(view: LocalView, announcers: Sequence) -> list:
    """Candidate ids by descending ``lii + lxi``, lowest id first on ties.

    ``announcers`` holds ``(-lii, id)`` pairs. The device itself, ids below
    ``view.offset`` (which would index the row from its end) and candidates
    it scores zero are left out.
    """
    row, off, me = view.lxi_row, view.offset, view.id
    scored = [(neg - row[n - off], n) for neg, n in announcers
              if n != me and n >= off and row[n - off] > 0]
    scored.sort()
    return [n for _, n in scored]


def _best_candidate(view: LocalView, announcers: Sequence) -> Optional[int]:
    """The first id of ``_rank_candidates(view, announcers)``, or None.

    ``announcers`` must be sorted. No lxi exceeds SCORE_MAX, so the scan
    stops at the first lii that can no longer reach the best total found.
    """
    row, off, me = view.lxi_row, view.offset, view.id
    best = best_key = None
    for neg, n in announcers:
        if best is not None and neg - SCORE_MAX > best_key:
            break
        if n != me and n >= off:
            lxi = row[n - off]
            if lxi > 0:
                key = neg - lxi
                if (best is None or key < best_key
                        or (key == best_key and n < best)):
                    best, best_key = n, key
    return best


def on_event(state: NodeState, event, cfg: ProtocolConfig, view: LocalView):
    """Advance one node's state machine; returns messages to emit.

    Request/announce messages are emitted with ``receiver=None``; the
    simulator materializes them per transport.
    """
    cls = event.__class__
    if cls is Message:
        return _on_message(state, event, cfg, view)
    if cls is PhaseStart:
        return _on_phase_start(state, event, cfg, view)
    if cls is TimerStarted:
        return _on_timer_started(state, event, cfg, view)
    if cls is TimerExpired:
        return _on_timer_expired(state, event, cfg, view)
    raise ProtocolViolation(f"unknown event {event!r}")


def _request(state: NodeState, phase: int) -> list:
    if not state.leader_candidates:
        return []
    target = state.leader_candidates.pop()
    return [Message(FOLLOW_REQUEST, state.id, target, phase, 0, P2P)]


def _on_phase_start(state, event, cfg, view):
    if event.phase == 1:
        state.phase = 1
        if view.lii > cfg.rho:
            state.role = CANDIDATE_LEADER
            if cfg.caps is not None:
                state.capacity_remaining = cfg.caps.get(view.id)
            return [Message(ANNOUNCE, state.id, None, 1, 0, cfg.transport,
                            lii=view.lii)]
        state.role = FOLLOWER
        return []
    if event.phase == 2:
        state.phase = 2
        if state.role == LEADER_WITH_FOLLOWERS:
            return [Message(PHASE2_ANNOUNCE, state.id, None, 2, 0, cfg.transport,
                            lii=view.lii)]
        return []
    raise ProtocolViolation(f"bad phase {event.phase}")


def _request_best(state: NodeState, view: LocalView, announcers: list,
                  phase: int) -> list:
    target = _best_candidate(view, announcers)
    if target is None:
        state.leader_candidates = []
        return []
    state.leader_candidates = None  # the rest are ranked on the first NACK
    return [Message(FOLLOW_REQUEST, state.id, target, phase, 0, P2P)]


def _on_timer_started(state, event, cfg, view):
    if event.phase == 1:
        if state.role == FOLLOWER:
            return _request_best(state, view, state.known_liis, 1)
        return []
    if event.phase == 2:
        if state.role == ISOLATED_LEADER:
            return _request_best(state, view, state.phase2_liis, 2)
        return []
    raise ProtocolViolation(f"bad phase {event.phase}")


def _on_timer_expired(state, event, cfg, view):
    if event.phase == 1 and state.role == CANDIDATE_LEADER:
        state.role = LEADER_WITH_FOLLOWERS if state.followers else ISOLATED_LEADER
    return []


def _on_message(state, msg: Message, cfg, view):
    if msg.kind == ANNOUNCE:
        insort(state.known_liis, (-msg.lii, msg.sender))
        return []
    if msg.kind == PHASE2_ANNOUNCE:
        insort(state.phase2_liis, (-msg.lii, msg.sender))
        return []
    if msg.kind == FOLLOW_REQUEST:
        if state.role not in (CANDIDATE_LEADER, LEADER_WITH_FOLLOWERS):
            raise ProtocolViolation(
                f"node {state.id} ({state.role}) cannot take followers")
        if state.capacity_remaining is not None and state.capacity_remaining <= 0:
            return [Message(NACK, state.id, msg.sender, state.phase, 0, P2P)]
        if state.capacity_remaining is not None:
            state.capacity_remaining -= 1
        state.followers.add(msg.sender)
        return [Message(ACK, state.id, msg.sender, state.phase, 0, P2P)]
    if msg.kind == ACK:
        if state.role not in (FOLLOWER, ISOLATED_LEADER):
            raise ProtocolViolation(f"unexpected ACK at {state.id}")
        state.role = ASSIGNED_FOLLOWER
        state.leader = msg.sender
        return []
    if msg.kind == NACK:
        if state.role not in (FOLLOWER, ISOLATED_LEADER):
            raise ProtocolViolation(f"unexpected NACK at {state.id}")
        if state.leader_candidates is None:
            liis = state.known_liis if state.phase == 1 else state.phase2_liis
            # the best candidate, just refused, heads the full ranking
            state.leader_candidates = _rank_candidates(view, liis)[:0:-1]
        return _request(state, state.phase)
    raise ProtocolViolation(f"unknown message kind {msg.kind}")


@dataclass
class MessageLog:
    """The messages of one protocol run, in send order.

    ``tally`` counts them per (phase, kind, transport) as they are sent. A
    p2p announcement is one ``(template, recipients)`` entry: the template
    has no receiver, and it stands for one message to every recipient but
    its sender. Those messages are built only when the log is read.
    """
    entries: list = field(default_factory=list)
    tally: dict = field(default_factory=dict)

    def add(self, msg: Message) -> None:
        self.entries.append(msg)
        self._count(msg, 1)

    def add_fanout(self, template: Message, recipients: tuple) -> None:
        """Log ``template`` once to each of the sorted ``recipients`` but
        its sender."""
        i = bisect_left(recipients, template.sender)
        k = len(recipients) - (recipients[i:i + 1] == (template.sender,))
        if k:
            self.entries.append((template, recipients))
            self._count(template, k)

    def _count(self, msg: Message, k: int) -> None:
        key = (msg.phase, msg.kind, msg.transport)
        self.tally[key] = self.tally.get(key, 0) + k

    def __len__(self) -> int:
        return sum(self.tally.values())

    def __iter__(self):
        for entry in self.entries:
            if entry.__class__ is Message:
                yield entry
                continue
            t, recipients = entry
            for r in recipients:
                if r != t.sender:
                    yield Message(t.kind, t.sender, r, t.phase, t.round,
                                  t.transport, t.lii)


def _json_line(msg: Message) -> str:
    return json.dumps(msg.to_json_dict(), sort_keys=True) + "\n"


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
    """Run both phases over all regular UEs; the edge server never takes part."""
    ids = sorted(inst.ue_ids)
    views = {n: _view(inst, n) for n in ids}
    states = {n: NodeState(id=n) for n in ids}
    log = MessageLog()
    rnd = 0

    def announce(event, group: tuple) -> list:
        # Each announcer reaches every other member of group. The round's
        # sorted (-lii, sender) table is returned for the whole group to share.
        table = []
        for n in ids:
            for out in on_event(states[n], event, cfg, views[n]):
                entry = Message(out.kind, n, None, out.phase, rnd,
                                cfg.transport, out.lii)
                if cfg.transport == BROADCAST:
                    log.add(entry)
                else:
                    log.add_fanout(entry, group)
                table.append((-out.lii, n))
        table.sort()
        return table

    def send(out: Message, rnd: int, queue: list) -> None:
        # the logged copy of a point-to-point message sent in round rnd
        entry = Message(out.kind, out.sender, out.receiver, out.phase, rnd,
                        P2P, out.lii)
        log.add(entry)
        queue.append((entry.receiver, entry))

    def deliver_requests(pending):
        # pending: list of (receiver, message); leaders serve in delivery order
        nonlocal rnd
        while pending:
            rnd += 1
            if cfg.delivery_order == "random":
                rng.shuffle(pending)
            else:
                pending.sort(key=lambda rm: rm[1].sender)
            responses = []
            for receiver, msg in pending:
                for out in on_event(states[receiver], msg, cfg, views[receiver]):
                    send(out, rnd, responses)
            pending = []
            for receiver, msg in responses:
                for out in on_event(states[receiver], msg, cfg, views[receiver]):
                    send(out, rnd, pending)

    # Phase 1: announcements
    known = announce(PhaseStart(1), tuple(ids))
    for n in ids:
        states[n].known_liis = known
    leader_set_phase1 = {n for n in ids if states[n].role == CANDIDATE_LEADER}

    # Phase 1: follower requests (plus NACK retries under capacities)
    pending = []
    timer = TimerStarted(1)
    for n in ids:
        for out in on_event(states[n], timer, cfg, views[n]):
            send(out, rnd + 1, pending)
    deliver_requests(pending)

    timer = TimerExpired(1)
    for n in ids:
        on_event(states[n], timer, cfg, views[n])

    # Phase 2: re-announcements go to the phase-1 candidate set
    rnd += 1
    group = tuple(sorted(leader_set_phase1))
    heard = announce(PhaseStart(2), group)
    for n in group:
        states[n].phase2_liis = heard

    pending = []
    timer = TimerStarted(2)
    for n in ids:
        for out in on_event(states[n], timer, cfg, views[n]):
            send(out, rnd, pending)
    deliver_requests(pending)

    leaders = {n for n in ids
               if states[n].role == LEADER_WITH_FOLLOWERS and states[n].followers}
    follows = {n: states[n].leader for n in ids
               if states[n].role == ASSIGNED_FOLLOWER}
    unresolved = {n for n in ids if n not in leaders and n not in follows}
    return SimulationResult(leaders, follows, unresolved, log, rnd,
                            leader_set_phase1)


@dataclass(frozen=True)
class EpisodeOutcome:
    assignment: Assignment
    utility: object
    log: MessageLog                  # phase 1 and 2 traffic
    fallback_messages: tuple         # the edge-server exchange, sent last
    scenario: Optional[str]
    edge_server_used: bool
    rounds: int
    leader_set_phase1: frozenset
    effective_instance: Instance
    centralized_messages: int  # reference count for the one-shot central scheme

    @property
    def message_counts(self) -> dict:
        """Messages per (phase, kind, transport), fallback exchange included."""
        table = dict(self.log.tally)
        for m in self.fallback_messages:
            key = (m.phase, m.kind, m.transport)
            table[key] = table.get(key, 0) + 1
        return table

    @property
    def total_messages(self) -> int:
        return self.protocol_messages + len(self.fallback_messages)

    @property
    def protocol_messages(self) -> int:
        """Phase 1 + 2 traffic, excluding the edge-server fallback exchange."""
        return len(self.log)

    @cached_property
    def messages(self) -> tuple:
        """Every message in send order, built from the log on first use."""
        return tuple(self.log) + self.fallback_messages

    def write_log(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(map(_json_line, self.log))
            fh.writelines(map(_json_line, self.fallback_messages))

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


@dataclass
class FallbackResult:
    instance: Instance          # possibly boosted / extended with node 0
    sim: Optional[SimulationResult]  # rerun after a successful incentive
    extra_follows: dict
    edge_server_used: bool
    messages: list


def run_fallback_process(inst: Instance, cfg: ProtocolConfig,
                         unresolved, rng: random.Random) -> FallbackResult:
    """Edge-server / incentive escape hatch for the marginal regimes.

    When nobody is willing to lead, the incentive policy may raise some
    willingness scores and the two-phase protocol is rerun. Any UE still
    without a role is offered the edge server, which it accepts iff its
    own score toward node 0 is positive. With the edge-server policy
    disabled the unresolved UEs simply end isolated.
    """
    effective = inst
    sim = None
    messages: list = []

    if nobody_willing(inst) and cfg.incentive_policy is not None:
        pol = cfg.incentive_policy
        accepted = tuple(n for n in sorted(inst.ue_ids)
                         if rng.random() < pol.accept_prob)
        if accepted:
            lii = list(inst.lii)
            for n in accepted:
                i = inst._idx(n)
                lii[i] = min(SCORE_MAX, lii[i] + pol.delta)
            effective = Instance(inst.n, tuple(lii), inst.lxi,
                                 inst.has_edge_server)
        if leader_candidates(effective, cfg.rho, effective.ue_ids):
            sim = simulate_protocol(effective, cfg, rng)
            unresolved = sim.unresolved

    extra_follows = {}
    edge_used = False
    if unresolved and cfg.edge_server_policy:
        if not effective.has_edge_server:
            effective = attach_edge_server(
                effective, DEFAULT_EDGE_LII, [DEFAULT_EDGE_LXI] * effective.n)
        offer = Message(ANNOUNCE, EDGE_SERVER_ID, None, 2, 0, cfg.transport,
                        lii=effective.lii_of(EDGE_SERVER_ID))
        messages.append(offer)
        for m in sorted(unresolved):
            if effective.lxi_of(m, EDGE_SERVER_ID) > 0:
                extra_follows[m] = EDGE_SERVER_ID
                messages.append(Message(FOLLOW_REQUEST, m, EDGE_SERVER_ID,
                                        2, 0, P2P))
                messages.append(Message(ACK, EDGE_SERVER_ID, m, 2, 0, P2P))
        edge_used = bool(extra_follows)

    return FallbackResult(effective, sim, extra_follows, edge_used, messages)


def detect_scenario(inst: Instance, rho) -> Optional[str]:
    if nobody_willing(inst):
        return SCENARIO_3
    leaders = leader_candidates(inst, rho, inst.ue_ids)
    followers = set(inst.ue_ids).difference(leaders)
    if not followers:
        return SCENARIO_1
    if leaders and all(inst.lxi_of(m, n) == 0
                       for m in followers for n in leaders):
        return SCENARIO_2
    return None


def run_episode(inst: Instance, cfg: ProtocolConfig, seed: int) -> EpisodeOutcome:
    """One full protocol episode: both phases plus the fallback process."""
    rng = random.Random(seed)
    scenario = detect_scenario(inst, cfg.rho)

    if scenario == SCENARIO_3:
        sim = SimulationResult(set(), {}, set(inst.ue_ids), MessageLog(), 0,
                               set())
    else:
        sim = simulate_protocol(inst, cfg, rng)

    leaders = set(sim.leaders)
    follows = dict(sim.follows)
    effective = inst
    edge_used = False
    fallback = ()

    if sim.unresolved:
        fb = run_fallback_process(inst, cfg, sim.unresolved, rng)
        effective = fb.instance
        if fb.sim is not None:  # incentive succeeded; protocol was rerun
            sim = fb.sim
            leaders = set(fb.sim.leaders)
            follows = dict(fb.sim.follows)
        follows.update(fb.extra_follows)
        if fb.edge_server_used:
            leaders.add(EDGE_SERVER_ID)
            edge_used = True
        fallback = tuple(fb.messages)

    isolated = set(effective.node_ids) - leaders - set(follows)
    assignment = Assignment.build(leaders, follows, isolated)
    util = assignment_utility(effective, assignment)
    return EpisodeOutcome(
        assignment=assignment,
        utility=util,
        log=sim.log,
        fallback_messages=fallback,
        scenario=scenario,
        edge_server_used=edge_used,
        rounds=sim.rounds,
        leader_set_phase1=frozenset(sim.leader_set_phase1),
        effective_instance=effective,
        centralized_messages=inst.n + 1,
    )
