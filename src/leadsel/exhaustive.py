"""Exact solvers for the joint leader selection / follower association problem.

``solve_exhaustive`` walks leader-first-follower configurations: a leader
set, one designated first follower per leader (which secures the
at-least-one-follower constraint), and a greedy best-score completion for
everyone else. ``brute_force_oracle`` is a deliberately unrelated direct
enumeration over role vectors, kept slow and simple so the two can check
each other.

A UE may only follow a leader it scores strictly positive (a zero external
score is read as refusal); isolated UEs are allowed in relaxed mode and
contribute nothing to the utility.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from operator import getitem
from typing import Mapping, Optional

from .counting import count_configs_exhaustive
from .model import (
    EDGE_SERVER_ID,
    Assignment,
    Instance,
    check_caps,
    leader_candidates,
    utility as assignment_utility,
)

HARD_LIMIT = 14
# bounds the paper's count of full cluster configurations,
# count_configs_exhaustive(N), not the configurations the uncapacitated
# search visits; N = 13 is the largest size that search may take on
CONFIG_BUDGET = count_configs_exhaustive(13)
ORACLE_LIMIT = 7

MODE_STRICT = "strict"
MODE_RELAXED = "relaxed"


class Infeasible(Exception):
    """No assignment satisfies the constraints (strict mode)."""


class LimitExceeded(Exception):
    """Instance too large for the requested exact method."""


@dataclass(frozen=True)
class OptimalSolution:
    """An optimum with the search effort behind it.

    ``configs_visited`` counts leader-first-follower configurations in the
    uncapacitated search. With caps it counts the leader sets enumerated,
    including those the bounded search cut without solving their matching.
    """

    assignment: Assignment
    utility: object  # int for integer instances
    configs_visited: int
    elapsed: float  # seconds

    def to_json_dict(self) -> dict:
        d = self.assignment.to_json_dict()
        d["utility"] = self.utility
        d["configs_visited"] = str(self.configs_visited)
        d["elapsed_us"] = int(self.elapsed * 1e6)
        return d


def _check_mode(mode: str) -> bool:
    if mode not in (MODE_STRICT, MODE_RELAXED):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == MODE_STRICT


def solve_exhaustive(inst: Instance, rho, caps: Optional[Mapping] = None,
                     mode: str = MODE_RELAXED) -> OptimalSolution:
    """Optimal assignment by exhaustive leader-first-follower search.

    Ties go to the smallest ``Assignment.sort_key``: the sorted leader
    tuple, then the sorted follower map. With caps the greedy completion
    is an exact slot-matching per leader set, so the leaders are the
    smallest optimal tuple but the follower map is the matching
    ``_min_cost_assignment`` picks for them, not always the smallest: it
    seats UEs in id order, scans slots last to first, and on a tie moves
    to a free slot. Leader sets are solved in descending order of an upper
    bound on their utility until the bound falls below the best utility
    found; ``configs_visited`` is then the number of leader sets
    enumerated, cut ones included. ``elapsed`` times the search only: the
    capacitated search's numpy is imported before the clock starts.

    Raises ``LimitExceeded`` before any work above ``HARD_LIMIT`` nodes
    and, without caps, above ``CONFIG_BUDGET`` configurations.
    """
    strict = _check_mode(mode)
    if inst.node_count > HARD_LIMIT:
        raise LimitExceeded(
            f"{inst.node_count} nodes exceeds the hard limit {HARD_LIMIT}")
    if caps is not None:
        check_caps(caps)
        import numpy  # noqa: F401  (for the bounds, imported off the clock)
    elif (configs := count_configs_exhaustive(inst.node_count)) > CONFIG_BUDGET:
        raise LimitExceeded(
            f"{inst.node_count} nodes need {configs} configurations, "
            f"over the budget of {CONFIG_BUDGET}")
    started = time.perf_counter()
    best = _Incumbent(inst)
    if caps is None:
        visited = _search_uncapacitated(inst, rho, strict, best)
    else:
        visited = _search_capacitated(inst, rho, caps, strict, best)
    elapsed = time.perf_counter() - started
    if best.assignment is None:
        if strict:
            raise Infeasible("no assignment satisfies C1-C3 in strict mode")
        return OptimalSolution(Assignment.all_isolated(inst), 0, visited, elapsed)
    return OptimalSolution(best.assignment, best.util, visited, elapsed)


class _Incumbent:
    """The best assignment offered so far: the largest utility, then the
    smallest ``Assignment.sort_key``, whatever order offers come in.
    ``floor``, the least bound still worth trying, is the best utility less
    a slack for float sums that round apart; integers compare exactly."""

    util = assignment = key = None
    floor = float("-inf")

    def __init__(self, inst: Instance):
        self.nodes = inst.node_ids

    def offer(self, util, leaders: tuple, follows: dict) -> None:
        """Keep this assignment if it wins; nodes that neither lead nor
        follow are isolated."""
        if self.util is not None and util < self.util:
            return
        isolated = [m for m in self.nodes
                    if m not in follows and m not in leaders]
        assignment = Assignment.build(leaders, follows, isolated)
        key = assignment.sort_key()
        if self.util is None or util > self.util or key < self.key:
            self.util, self.assignment, self.key = util, assignment, key
            self.floor = util - 1e-9 * (1 + abs(util))


def _search_uncapacitated(inst: Instance, rho, strict: bool,
                          best: _Incumbent) -> int:
    # Every UE that is not a first follower adds its best score toward the
    # leader set, whichever UEs the first followers are. So a configuration
    # scores the set's bound (leader scores plus each non-leader's best
    # score) plus what each first follower gives up to follow its leader:
    # k lookups. Only a configuration that may tie or beat the incumbent is
    # summed again score by score, in the order that fixes how floats round.
    eligible = leader_candidates(inst, rho)
    kmax = inst.node_count // 2
    off, size = inst.node_ids.start, inst.n + 1
    lii = [0] * off + list(inst.lii)
    lxi = [[0] * size] * off + [[0] * off + list(row) for row in inst.lxi]
    refused, floor = float("-inf"), best.floor
    visited = 0

    for k in range(1, kmax + 1):
        for leaders in combinations(eligible, k):
            nonleaders = [m for m in inst.node_ids if m not in leaders]
            # each UE's best score toward this set and the lowest leader id
            # giving it (None, and zero, if it scores every leader zero)
            tops, top_of = [0] * size, [None] * size
            for m in nonleaders:
                for l in leaders:
                    if lxi[m][l] > tops[m]:
                        tops[m], top_of[m] = lxi[m][l], l
            if strict and any(top_of[m] is None for m in nonleaders
                              if m != EDGE_SERVER_ID):
                continue  # someone could neither lead nor follow here
            base = sum(lii[l] for l in leaders)
            bound = base + sum(tops)
            cols = [[lxi[f][l] - tops[f] if lxi[f][l] > 0 else refused
                     for f in range(size)] for l in leaders]

            # One distinct first follower per leader secures C2.
            for firsts in permutations(nonleaders, k):
                gain = sum(map(getitem, cols, firsts))
                if gain == refused:
                    continue
                visited += 1
                if bound + gain < floor:
                    continue
                rest = [m for m in nonleaders if m not in firsts]
                util = base
                for l, f in zip(leaders, firsts):
                    util += lxi[f][l]
                for m in rest:
                    util += tops[m]
                follows = dict(zip(firsts, leaders))
                follows.update((m, top_of[m]) for m in rest
                               if top_of[m] is not None)
                best.offer(util, leaders, follows)
                floor = best.floor
    return visited


def _search_capacitated(inst: Instance, rho, caps: Mapping, strict: bool,
                        best: _Incumbent) -> int:
    # Exact per-leader-set completion as a max-weight slot matching: one
    # mandatory slot per leader (C2 lower bound) plus cap-1 optional slots,
    # and free isolation slots in relaxed mode.
    #
    # Leader sets are solved best bound first, and the search stops at the
    # first set whose bound falls below the best utility found. Sets that
    # tie the best are still solved, since the incumbent keeps the smallest
    # sort key whatever order the sets are visited in.
    import numpy as np  # solve_exhaustive loads it before its clock starts

    eligible = [n for n in leader_candidates(inst, rho)
                if caps.get(n, inst.node_count) >= 1]
    kmax = min(inst.node_count // 2, len(eligible))
    if not kmax:
        return 0
    off, lii, lxi = inst.node_ids.start, inst.lii, inst.lxi
    big = sum(lii) + sum(map(sum, lxi)) + 1

    # positive[m, e] is UE m's score toward eligible leader e, 0 where m
    # refuses it; row 0 (the edge server, which never follows) is all 0.
    ids = np.array(eligible)
    positive = np.zeros((inst.n + 1, len(eligible)))
    positive[off:] = np.array(list(map(list, lxi)), dtype=float)[:, ids - off]
    limits = [caps.get(l, inst.n) for l in eligible]

    # Every cost matrix is a slice of one table. Row m is UE m; columns 2e
    # and 2e + 1 are eligible leader e's mandatory and optional slot, and
    # column iso is the isolation column. A slice holds exactly the values
    # of the matrix built cell by cell for its leader set, so
    # _min_cost_assignment breaks ties between equal matchings the same way
    # (last column first, a free column wins a tie).
    iso = 2 * len(eligible)
    slots = np.repeat(positive, 2, axis=1)
    table = np.zeros((inst.n + 1, iso + 1))
    table[:, :iso] = np.where(slots > 0, -(slots + [big, 0] * len(eligible)),
                              np.inf)
    table = table.tolist()

    # A set's bound is its lii sum plus the smaller of two bounds on what
    # its followers add: the sum of each leader's cap largest scores, and
    # the sum of each other UE's best score toward the set.
    lii_e = np.array([lii[l - off] for l in eligible], dtype=float)
    top_e = np.array([np.sort(positive[:, e])[::-1][:limit].sum()
                      for e, limit in enumerate(limits)])
    sets, bounds = [], []
    for k in range(1, kmax + 1):
        combos = list(combinations(range(len(eligible)), k))
        idx = np.fromiter(chain.from_iterable(combos), np.intp,
                          len(combos) * k).reshape(-1, k)
        toward = positive[:, idx[:, 0]]
        for j in range(1, k):
            np.maximum(toward, positive[:, idx[:, j]], out=toward)
        toward[ids[idx], np.arange(len(combos))[:, None]] = 0  # leaders
        bounds.append(lii_e[idx].sum(axis=1) + np.minimum(
            top_e[idx].sum(axis=1), toward.sum(axis=0)))
        sets += combos
    bound = np.concatenate(bounds)
    order = np.argsort(-bound, kind="stable").tolist()
    bound = bound.tolist()

    for s in order:
        # a bound sums floats in another order than the utility it may tie
        if bound[s] < best.floor:
            break
        leaders = tuple(eligible[e] for e in sets[s])
        k = len(leaders)
        rows = [m for m in inst.ue_ids if m not in leaders]
        r = len(rows)
        if r < k:
            continue
        cols = []
        for e in sets[s]:
            cols += [2 * e] + [2 * e + 1] * (min(limits[e], r) - 1)
        if not strict:
            cols += [iso] * r
        elif len(cols) < r:
            continue  # strict: the solver below seats every UE or fails
        picked = _min_cost_assignment(
            [[table[m][c] for c in cols] for m in rows])
        if picked is None:
            continue  # no feasible placement of all UEs
        follows = {}
        mandatory_filled = 0
        for m, j in zip(rows, picked):
            c = cols[j]
            if c < iso:
                follows[m] = eligible[c // 2]
                mandatory_filled += c % 2 == 0
        if mandatory_filled < k:
            continue  # some leader cannot receive any follower
        util = sum(lii[l - off] for l in leaders)
        util += sum(lxi[m - off][l - off] for m, l in follows.items())
        best.offer(util, leaders, follows)
    return len(sets)


def _min_cost_assignment(cost: list) -> Optional[list]:
    """The column assigned to each row of a minimum-cost assignment, or
    None when no assignment avoids every ``inf`` cell.

    ``cost`` is a list of rows with at most as many rows as columns. This
    is the shortest augmenting path algorithm of D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016, step for step as the widely used C++ ``rectangular_lsap`` runs
    it, so the two pick the same assignment among equal-cost ones (a
    differential test in ``tests/test_exhaustive.py`` holds them
    together). Rows are seated in order, each by a Dijkstra search over
    reduced costs that scans the remaining columns last to first and, on
    an equal shortest distance, moves to a free column. The reduced cost
    is evaluated as ``minval + cost - u - v`` in that order, since floats
    round.
    """
    nr, nc = len(cost), len(cost[0])
    inf = float("inf")
    u, v = [0.0] * nr, [0.0] * nc
    path = [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        dist = [inf] * nc  # shortest path cost to each column
        remaining = list(range(nc - 1, -1, -1))
        seen_rows, seen_cols = [cur], []
        minval, i = 0.0, cur
        while True:
            row, ui = cost[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = minval + row[j] - ui - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d <= lowest and (d < lowest or row4col[j] == -1):
                    lowest, index = d, it
            minval = lowest
            if minval == inf:
                return None
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            seen_rows.append(i)
        # update the duals, then augment along the path ending at column j
        u[cur] += minval
        for i in seen_rows[1:]:
            u[i] += minval - dist[col4row[i]]
        for c in seen_cols:
            v[c] -= minval - dist[c]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def brute_force_oracle(inst: Instance, rho, caps: Optional[Mapping] = None,
                       mode: str = MODE_RELAXED) -> OptimalSolution:
    """Direct enumeration over leader subsets and per-UE leader choices.

    Shares nothing with :func:`solve_exhaustive` beyond the domain model;
    intended purely as a cross-check on small instances.
    """
    strict = _check_mode(mode)
    if caps is not None:
        check_caps(caps)
    if inst.node_count > ORACLE_LIMIT:
        raise LimitExceeded(
            f"oracle is limited to {ORACLE_LIMIT} nodes, got {inst.node_count}")
    started = time.perf_counter()

    nodes = list(inst.node_ids)
    eligible = [n for n in nodes if inst.lii_of(n) > rho]
    best = None  # (utility, leaders, choices)
    visited = 0

    for k in range(0, len(eligible) + 1):
        for leaders in combinations(eligible, k):
            lset = set(leaders)
            nonleaders = [m for m in nodes if m not in lset]
            if k > 0 and len(nonleaders) < k:
                continue
            options = []
            doomed = False
            for m in nonleaders:
                opts = [(l, inst.lxi_of(m, l)) for l in leaders
                        if inst.lxi_of(m, l) > 0]
                if not strict or m == EDGE_SERVER_ID:
                    opts.append((None, 0))
                if not opts:
                    doomed = True
                    break
                options.append(opts)
            if doomed:
                continue
            base = sum(inst.lii_of(l) for l in leaders)
            for combo in product(*options):
                visited += 1
                chosen = [l for l, _ in combo if l is not None]
                if set(chosen) != lset:
                    continue  # some leader left without a follower
                if caps is not None:
                    over = False
                    for l in lset:
                        limit = caps.get(l)
                        if limit is not None and chosen.count(l) > limit:
                            over = True
                            break
                    if over:
                        continue
                util = base + sum(v for _, v in combo)
                if best is None or util > best[0]:
                    best = (util, leaders, combo)

    elapsed = time.perf_counter() - started
    if best is None:
        raise Infeasible("no assignment satisfies C1-C3 in strict mode")
    util, leaders, combo = best
    nonleaders = [m for m in nodes if m not in set(leaders)]
    follows = {m: l for m, (l, _) in zip(nonleaders, combo) if l is not None}
    isolated = [m for m in nonleaders if m not in follows]
    assignment = Assignment.build(leaders, follows, isolated)
    assert assignment_utility(inst, assignment) == util
    return OptimalSolution(assignment, util, visited, elapsed)
