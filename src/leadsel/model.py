"""Domain model: instances, assignments, utility and constraint checks.

Scores are kept as exact small integers whenever the input is integral, so
utility comparisons and argmax tie-breaks never touch floating point.
Real-valued scores are accepted everywhere but the generators only produce
integers in {0..10}.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

SCORE_MIN = 0
SCORE_MAX = 10

EDGE_SERVER_ID = 0
DEFAULT_EDGE_LII = 10
DEFAULT_EDGE_LXI = 1


class ModelError(ValueError):
    """Invalid instance or assignment structure."""


class InstanceFormatError(ModelError):
    """Instance file rejected by the loader; carries a field diagnostic."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


def _check_score(value, field_path: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InstanceFormatError(f"score must be a number, got {value!r}", field_path)
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise InstanceFormatError(f"score {value!r} outside [0,10]", field_path)


def _check_scores(values, field_path: str):
    """``_check_score`` on each entry, in one pass when all are plain ints."""
    if (set(map(type, values)) == {int}
            and SCORE_MIN <= min(values) and max(values) <= SCORE_MAX):
        return
    for i, v in enumerate(values):
        _check_score(v, f"{field_path}[{i}]")


@dataclass(frozen=True)
class Instance:
    """N regular devices (ids 1..n) plus an optional edge server at id 0.

    ``lii`` and ``lxi`` are stored row-major in id order; when the edge
    server is present, slot 0 comes first and both vectors grow by one.
    """

    n: int
    lii: tuple
    lxi: tuple
    has_edge_server: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("instance needs at least one regular UE")
        size = self.n + 1 if self.has_edge_server else self.n
        if len(self.lii) != size:
            raise InstanceFormatError(
                f"lii has {len(self.lii)} entries, expected {size}", "lii")
        if len(self.lxi) != size:
            raise InstanceFormatError(
                f"lxi has {len(self.lxi)} rows, expected {size}", "lxi")
        for r, row in enumerate(self.lxi):
            if len(row) != size:
                raise InstanceFormatError(
                    f"row has {len(row)} entries, expected {size}", f"lxi[{r}]")
        _check_scores(self.lii, "lii")
        for r, row in enumerate(self.lxi):
            _check_scores(row, f"lxi[{r}]")
            if row[r] != 0:
                raise InstanceFormatError("diagonal must be zero", f"lxi[{r}][{r}]")
        if self.has_edge_server:
            if self.lii[0] <= 0:
                raise InstanceFormatError("edge server needs lii > 0", "lii[0]")
            if any(v != 0 for v in self.lxi[0]):
                raise InstanceFormatError(
                    "edge server never follows anyone; row 0 must be zero", "lxi[0]")

    # -- id <-> storage index ------------------------------------------------

    def _idx(self, node_id: int) -> int:
        lo = 0 if self.has_edge_server else 1
        if not (lo <= node_id <= self.n):
            raise ModelError(f"node id {node_id} outside instance")
        return node_id if self.has_edge_server else node_id - 1

    @property
    def node_ids(self) -> range:
        """All node ids, including the edge server when present."""
        return range(0 if self.has_edge_server else 1, self.n + 1)

    @property
    def ue_ids(self) -> range:
        """Regular UE ids only."""
        return range(1, self.n + 1)

    @property
    def node_count(self) -> int:
        return self.n + 1 if self.has_edge_server else self.n

    def lii_of(self, node_id: int):
        return self.lii[self._idx(node_id)]

    def lxi_of(self, m: int, n: int):
        """Willingness of m to follow n."""
        return self.lxi[self._idx(m)][self._idx(n)]

    def lxi_row(self, m: int) -> dict:
        row = self.lxi[self._idx(m)]
        off = 0 if self.has_edge_server else 1
        return {j + off: v for j, v in enumerate(row) if j + off != m}

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edge_server": self.has_edge_server,
            "lii": list(self.lii),
            "lxi": [list(row) for row in self.lxi],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise InstanceFormatError("top-level value must be an object")
        for key in ("n", "lii", "lxi"):
            if key not in data:
                raise InstanceFormatError("missing required field", key)
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InstanceFormatError(f"must be a positive integer, got {n!r}", "n")
        lii, lxi = data["lii"], data["lxi"]
        if not isinstance(lii, list):
            raise InstanceFormatError("must be a list of scores", "lii")
        if not isinstance(lxi, list):
            raise InstanceFormatError("must be a list of rows", "lxi")
        for r, row in enumerate(lxi):
            if not isinstance(row, list):
                raise InstanceFormatError("row must be a list of scores",
                                          f"lxi[{r}]")
        return cls(
            n=n,
            lii=tuple(lii),
            lxi=tuple(tuple(row) for row in lxi),
            has_edge_server=bool(data.get("edge_server", False)),
        )


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON (line {exc.lineno})") from exc
    return Instance.from_json_dict(data)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(inst.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def generate_instance(n: int, seed: int,
                      edge_server: Optional[tuple] = None) -> Instance:
    """Uniform integer scores in {0..10}, zero diagonal, fixed by seed.

    Draw order is lii[1..n] then lxi row by row, so the same (n, seed)
    always yields bit-identical instances. ``edge_server`` is an optional
    (lii0, lxi_to_edge) pair appended via :func:`attach_edge_server`.
    """
    if n < 1:
        raise ModelError("n must be >= 1")
    draws = _uniform_scores(random.Random(seed), n * n)
    rows = []
    for r in range(n):
        p = n + r * (n - 1)  # row r's off-diagonal draws start here
        rows.append(tuple(draws[p:p + r]) + (0,) + tuple(draws[p + r:p + n - 1]))
    inst = Instance(n=n, lii=tuple(draws[:n]), lxi=tuple(rows))
    if edge_server is not None:
        lii0, lxi_to_edge = edge_server
        inst = attach_edge_server(inst, lii0, lxi_to_edge)
    return inst


# randint(0, 10) is the top 4 bits of one 32-bit Mersenne Twister output,
# drawn again while above 10 (Random._randbelow). getrandbits(32 * k) returns
# k such outputs, the first in the lowest bits, so the same scores can be
# read off in bulk: the top byte of each little-endian word, shifted.
_TOP_NIBBLE = bytes(b >> 4 for b in range(256))
_REJECTED = bytes(range((SCORE_MAX + 1) << 4, 256))


def _uniform_scores(rng: random.Random, count: int) -> bytes:
    """The next ``count`` values of ``rng.randint(0, 10)``, in order."""
    out = b""
    while len(out) < count:
        words = (count - len(out)) * 16 // 11 + 64
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += raw[3::4].translate(_TOP_NIBBLE, _REJECTED)
    return out[:count]


def attach_edge_server(inst: Instance, lii0,
                       lxi_to_edge: Sequence) -> Instance:
    """Extend with node 0: it may lead (lii0 > 0) but never follows."""
    if inst.has_edge_server:
        raise ModelError("instance already has an edge server")
    if lii0 <= 0:
        raise ModelError("edge server lii must be > 0")
    if len(lxi_to_edge) != inst.n:
        raise ModelError("lxi_to_edge needs one entry per regular UE")
    lii = (lii0,) + inst.lii
    lxi = [(0,) * (inst.n + 1)]
    for m in inst.ue_ids:
        row = (lxi_to_edge[m - 1],) + tuple(inst.lxi[m - 1])
        lxi.append(row)
    return Instance(n=inst.n, lii=lii, lxi=tuple(lxi), has_edge_server=True)


@dataclass(frozen=True)
class Assignment:
    """Roles for every node: leaders, follower -> leader map, isolated rest."""

    leaders: frozenset
    follows: Mapping  # follower id -> leader id
    isolated: frozenset

    @classmethod
    def build(cls, leaders: Iterable[int], follows: Mapping,
              isolated: Iterable[int]) -> "Assignment":
        return cls(frozenset(leaders), dict(follows), frozenset(isolated))

    @classmethod
    def all_isolated(cls, inst: Instance) -> "Assignment":
        return cls(frozenset(), {}, frozenset(inst.node_ids))

    def validate_structure(self, inst: Instance) -> None:
        known = set(inst.node_ids)
        referenced = (set(self.leaders) | set(self.follows) |
                      set(self.follows.values()) | set(self.isolated))
        bad = referenced - known
        if bad:
            raise ModelError(f"assignment references unknown nodes {sorted(bad)}")
        if self.leaders & set(self.follows):
            raise ModelError("a node cannot be both leader and follower")
        for m, n in self.follows.items():
            if m == n:
                raise ModelError(f"node {m} cannot follow itself")
        roles = list(self.leaders) + list(self.follows) + list(self.isolated)
        if len(roles) != len(set(roles)) or set(roles) != known:
            raise ModelError("leaders, followers and isolated must partition the nodes")

    def sort_key(self):
        """Deterministic tie-break key: leaders first, then the follower map."""
        return (tuple(sorted(self.leaders)), tuple(sorted(self.follows.items())))

    def to_json_dict(self) -> dict:
        return {
            "leaders": sorted(self.leaders),
            "follows": {str(m): n for m, n in sorted(self.follows.items())},
            "isolated": sorted(self.isolated),
        }


def utility(inst: Instance, a: Assignment):
    """Sum of leader willingness plus follower->leader preference scores."""
    a.validate_structure(inst)
    total = sum(inst.lii_of(n) for n in a.leaders)
    total += sum(inst.lxi_of(m, n) for m, n in a.follows.items())
    return total


def li_score(inst: Instance, m: int, n: int):
    """Ranking score a prospective follower m gives to candidate leader n."""
    if m == n:
        raise ModelError("li_score is undefined for m == n")
    return inst.lii_of(n) + inst.lxi_of(m, n)


@dataclass(frozen=True)
class ConstraintReport:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    capacity_ok: bool
    violators: tuple = ()

    @property
    def all_ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok and self.capacity_ok


def check_constraints(inst: Instance, a: Assignment, rho,
                      caps: Optional[Mapping] = None,
                      strict: bool = False) -> ConstraintReport:
    """Report on the three structural constraints plus the capacity variant.

    C1: every UE is leader, follower of exactly one other UE, or isolated;
    in strict mode isolation itself is a C1 violation. C2: every leader has
    at least one follower and non-leaders have none. C3: leaders strictly
    exceed the threshold. The edge server (id 0) is exempt from C1: it is
    infrastructure and may sit unused.
    """
    a.validate_structure(inst)
    violators = []

    if strict:
        for m in sorted(a.isolated):
            if m != EDGE_SERVER_ID:
                violators.append(("C1", m))
    c1_ok = not any(c == "C1" for c, _ in violators)

    follower_counts = {n: 0 for n in inst.node_ids}
    for m, n in a.follows.items():
        follower_counts[n] += 1
    for n in sorted(inst.node_ids):
        if n in a.leaders and follower_counts[n] == 0:
            violators.append(("C2", n))
        elif n not in a.leaders and follower_counts[n] > 0:
            violators.append(("C2", n))
    c2_ok = not any(c == "C2" for c, _ in violators)

    for n in sorted(a.leaders):
        if inst.lii_of(n) <= rho:
            violators.append(("C3", n))
    c3_ok = not any(c == "C3" for c, _ in violators)

    capacity_ok = True
    if caps is not None:
        for n in sorted(a.leaders):
            limit = caps.get(n)
            if limit is not None and follower_counts[n] > limit:
                violators.append(("C2Lim", n))
                capacity_ok = False

    return ConstraintReport(c1_ok, c2_ok, c3_ok, capacity_ok, tuple(violators))


@dataclass(frozen=True)
class FeasibilityReport:
    case1: bool
    case2_isolated: frozenset


def feasibility_scan(inst: Instance, rho) -> FeasibilityReport:
    """Detect the two infeasible regimes of the joint problem.

    Case 1: nobody is willing to lead at all. Case 2: a UE below the
    threshold whose every potential leader is either unwilling to lead or
    refused by the UE, so it can neither lead nor follow.
    """
    ue_liis = [inst.lii_of(n) for n in inst.ue_ids]
    case1 = all(v == 0 for v in ue_liis)
    isolated = set()
    for m in inst.node_ids:
        if m == EDGE_SERVER_ID:
            continue
        if inst.lii_of(m) > rho:
            continue
        reachable = sum(inst.lxi_of(m, n) * inst.lii_of(n)
                        for n in inst.node_ids if n != m)
        if reachable == 0:
            isolated.add(m)
    return FeasibilityReport(case1=case1, case2_isolated=frozenset(isolated))
