"""Domain model: instances, assignments, utility and constraint checks.

Scores are kept as exact small integers whenever the input is integral, so
utility comparisons and argmax tie-breaks never touch floating point.
Real-valued scores are accepted everywhere but the generators only produce
integers in {0..10}.
"""
from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, Mapping, Optional, Sequence

SCORE_MIN = 0
SCORE_MAX = 10

EDGE_SERVER_ID = 0
DEFAULT_EDGE_LII = 10
DEFAULT_EDGE_LXI = 1
# The input-file budget. The largest file `leadsel gen` writes (N = 3000,
# cli.GEN_MAX_N, with node 0) holds 3001² scores of at most 7 bytes each
# ("   10,\n") and a frame of a few bytes a row, about 63 MB.
_INPUT_MAX_BYTES = 64 << 20


class ModelError(ValueError):
    """Invalid instance or assignment structure."""


class InstanceFormatError(ModelError):
    """Input file rejected by a loader; carries a field diagnostic."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


def _check_score(value, field_path: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InstanceFormatError(f"score must be a number, got {value!r}", field_path)
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise InstanceFormatError(f"score {value!r} outside [0,10]", field_path)


_INT_SCORES = bytes(range(SCORE_MIN, SCORE_MAX + 1))


def _score_row(row, field_path: str):
    """The checked ``row`` as stored: ``bytes`` when every score is a plain
    int, else a tuple. A ``bytes`` row is checked with one ``translate``
    and any other row of plain ints in one pass; the rest, and a row those
    checks refuse, entry by entry, so a diagnostic names the entry."""
    if type(row) is bytes:
        if not row.translate(None, _INT_SCORES):
            return row
    elif (set(map(type, row)) == {int}
            and SCORE_MIN <= min(row) and max(row) <= SCORE_MAX):
        return bytes(row)
    for i, v in enumerate(row):
        _check_score(v, f"{field_path}[{i}]")
    return tuple(row)


@dataclass(frozen=True)
class Instance:
    """N regular devices (ids 1..n) plus an optional edge server at id 0.

    ``lii`` and ``lxi`` are stored row-major in id order; when the edge
    server is present, slot 0 comes first and both vectors grow by one.
    ``lxi`` is a tuple of rows, each ``bytes`` when all its scores are
    plain ints and a tuple otherwise, so equal scores make equal instances
    however the rows were given.
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
        _score_row(self.lii, "lii")
        rows = []
        for r, row in enumerate(self.lxi):
            rows.append(row := _score_row(row, f"lxi[{r}]"))
            if row[r] != 0:
                raise InstanceFormatError("diagonal must be zero", f"lxi[{r}][{r}]")
        object.__setattr__(self, "lxi", tuple(rows))
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
        edge_server = data.get("edge_server", False)
        if not isinstance(edge_server, bool):
            raise InstanceFormatError(
                f"must be true or false, got {edge_server!r}", "edge_server")
        return cls(n=n, lii=tuple(lii), lxi=lxi, has_edge_server=edge_server)


def read_json(path):
    """The JSON value of the UTF-8 file at ``path``. ``OSError`` passes
    through. A file over ``_INPUT_MAX_BYTES`` raises ``InstanceFormatError``,
    before it is opened when its size says so and otherwise (a device or a
    FIFO reports none) once a byte past the budget has been read; so does
    one that does not parse."""
    if (size := os.stat(path).st_size) > _INPUT_MAX_BYTES:
        raise InstanceFormatError(
            f"file has {size} bytes, over the budget of {_INPUT_MAX_BYTES}")
    with open(path, "rb") as fh:
        data = fh.read(_INPUT_MAX_BYTES + 1)
    if len(data) > _INPUT_MAX_BYTES:
        raise InstanceFormatError(
            f"file runs past the budget of {_INPUT_MAX_BYTES} bytes")
    try:
        # decoded as a UTF-8 text-mode read decodes (universal newlines);
        # the bytes are let go before the parse
        data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON (line {exc.lineno})") from exc
    except ValueError as exc:  # not UTF-8, or an over-long integer literal
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError("JSON nested too deeply") from exc


def load_instance(path) -> Instance:
    return Instance.from_json_dict(read_json(path))


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` as ``json.dump(inst.to_json_dict(), fh, indent=1,
    sort_keys=True)`` and a newline would, byte for byte.

    The layout is formatted directly, one row at a time: ``json.dump`` with
    an indent always runs the pure-Python encoder, which is slow over N * N
    scores, and neither a list copy of the matrix nor the whole text is
    built.
    """
    with open(path, "w") as fh:
        fh.write('{\n "edge_server": %s,\n "lii": [\n  %s\n ],\n "lxi": [' % (
            json.dumps(inst.has_edge_server), _json_items(inst.lii, ",\n  ")))
        sep = "\n  [\n   "
        for row in inst.lxi:
            fh.write(sep + _json_items(row, ",\n   "))
            sep = "\n  ],\n  [\n   "
        fh.write('\n  ]\n ],\n "n": %s\n}\n' % json.dumps(inst.n))


# The text of every int score; ``Instance`` keeps scores in this range.
_INT_SCORE_TEXT = {v: str(v) for v in range(SCORE_MIN, SCORE_MAX + 1)}


def _json_items(values, sep: str) -> str:
    """The JSON texts of the scores ``values`` joined by ``sep``; a
    ``bytes`` row, or any other row of plain ints, skips the encoder."""
    if type(values) is bytes or set(map(type, values)) == {int}:
        return sep.join(map(_INT_SCORE_TEXT.__getitem__, values))
    return sep.join(map(json.dumps, values))


def generate_instance(n: int, seed: int,
                      edge_server: Optional[tuple] = None) -> Instance:
    """Uniform integer scores in {0..10}, zero diagonal, fixed by seed.

    Draw order is lii[1..n] then lxi row by row, so the same (n, seed)
    always yields bit-identical instances. ``edge_server`` is an optional
    (lii0, lxi_to_edge) pair attached as :func:`attach_edge_server` does,
    each row extended as it is drawn.
    """
    if n < 1:
        raise ModelError("n must be >= 1")
    take = _uniform_scores(random.Random(seed), n * n)
    lii = tuple(take(n))
    rows = (take(r) + b"\0" + take(n - 1 - r) for r in range(n))
    if edge_server is None:
        return Instance(n=n, lii=lii, lxi=tuple(rows))
    return _with_edge_server(n, lii, rows, *edge_server)


# randint(0, 10) is the top 4 bits of one 32-bit Mersenne Twister output,
# drawn again while above 10 (Random._randbelow). getrandbits(32 * k) returns
# k such outputs, the first in the lowest bits, so the same scores can be
# read off in bulk: the top byte of each little-endian word, shifted. The
# words are drawn in chunks sized by what is left to draw, at most
# _CHUNK_WORDS, and the scores are handed out as they are asked for, so
# only one chunk and the part of it not yet taken are held at a time; the
# stream is the same however it is split.
_TOP_NIBBLE = bytes(b >> 4 for b in range(256))
_REJECTED = bytes(range((SCORE_MAX + 1) << 4, 256))
_CHUNK_WORDS = 1 << 16


def _uniform_scores(rng: random.Random, count: int):
    """A ``take(k)`` that returns the next ``k`` values of
    ``rng.randint(0, 10)`` as ``bytes``, ``count`` values in all."""
    buf, pos, made = b"", 0, 0

    def take(k: int) -> bytes:
        nonlocal buf, pos, made
        while pos + k > len(buf):
            words = min((count - made) * 16 // 11 + 64, _CHUNK_WORDS)
            chunk = rng.getrandbits(32 * words).to_bytes(
                4 * words, "little")[3::4].translate(_TOP_NIBBLE, _REJECTED)
            made += len(chunk)
            buf, pos = buf[pos:] + chunk, 0
        pos += k
        return buf[pos - k:pos]

    return take


def attach_edge_server(inst: Instance, lii0,
                       lxi_to_edge: Sequence) -> Instance:
    """Extend with node 0: it may lead (lii0 > 0) but never follows."""
    if inst.has_edge_server:
        raise ModelError("instance already has an edge server")
    return _with_edge_server(inst.n, inst.lii, inst.lxi, lii0, lxi_to_edge)


def _with_edge_server(n: int, lii: tuple, rows: Iterable, lii0,
                      lxi_to_edge: Sequence) -> Instance:
    """The instance of UEs 1..n with scores ``lii`` and lxi ``rows``, taken
    one at a time, plus node 0."""
    if lii0 <= 0:
        raise ModelError("edge server lii must be > 0")
    if len(lxi_to_edge) != n:
        raise ModelError("lxi_to_edge needs one entry per regular UE")
    lxi = [bytes(n + 1)]
    for m, row in enumerate(rows, 1):
        # the edge score is checked alone; joined to a stored row of the same
        # type it keeps a bytes row bytes, without an int tuple in between
        head = _score_row((lxi_to_edge[m - 1],), f"lxi[{m}]")
        lxi.append(head + row if type(head) is type(row) else (*head, *row))
    return Instance(n=n, lii=(lii0,) + lii, lxi=tuple(lxi),
                    has_edge_server=True)


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
    a.validate_structure(inst)  # every id indexes a stored row from here
    return _utility(inst, a)


def _utility(inst: Instance, a: Assignment):
    """``utility`` of an assignment already known to partition the nodes of
    ``inst``, such as one the protocol simulator built."""
    off, lii, lxi = inst.node_ids.start, inst.lii, inst.lxi
    total = sum(lii[n - off] for n in a.leaders)
    total += sum(lxi[m - off][n - off] for m, n in a.follows.items())
    return total


def leader_candidates(inst: Instance, rho,
                      ids: Optional[Iterable[int]] = None) -> list:
    """The ids that may lead at ``rho`` (C3: lii > rho), in the order given.

    ``ids`` defaults to every node, the edge server included. An id outside
    the instance raises ``ModelError``.
    """
    nodes = inst.node_ids
    ids = nodes if ids is None else tuple(ids)
    bad = next(filterfalse(nodes.__contains__, ids), None)
    if bad is not None:
        raise ModelError(f"node id {bad} outside instance")
    off, lii = nodes.start, inst.lii
    return [n for n in ids if lii[n - off] > rho]


def check_caps(caps: Mapping, name=repr) -> None:
    """Raise ``ValueError`` naming the first key of ``caps`` that is not an
    int node id, or whose follower limit is not a non-negative int; a bool
    is neither. The key is named as ``name(key)`` gives it."""
    for key, limit in caps.items():
        if not isinstance(key, int) or isinstance(key, bool):
            raise ValueError(f"key {name(key)}: caps must be keyed by int "
                             f"node ids")
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise ValueError(f"key {name(key)}: limit must be a non-negative "
                             f"integer, got {limit!r}")


def nobody_willing(inst: Instance) -> bool:
    """Case 1: no regular UE has lii > 0 (the protocol's Scenario 3 when,
    in addition, no regular UE clears rho)."""
    return max(inst.lii[1 - inst.node_ids.start:]) <= 0


@dataclass(frozen=True)
class ConstraintReport:
    """The ``(code, node)`` violations in check order: C1, C2, C3, C2Lim."""
    violators: tuple = ()

    def _ok(self, code: str) -> bool:
        return all(c != code for c, _ in self.violators)

    c1_ok = property(lambda self: self._ok("C1"))
    c2_ok = property(lambda self: self._ok("C2"))
    c3_ok = property(lambda self: self._ok("C3"))
    capacity_ok = property(lambda self: self._ok("C2Lim"))

    @property
    def all_ok(self) -> bool:
        return not self.violators


def check_constraints(inst: Instance, a: Assignment, rho,
                      caps: Optional[Mapping] = None,
                      strict: bool = False) -> ConstraintReport:
    """Report on the three structural constraints plus the capacity variant.

    C1: every UE is leader, follower of exactly one other UE, or isolated;
    in strict mode isolation itself is a C1 violation. C2: every leader has
    at least one follower and non-leaders have none. C3: leaders strictly
    exceed the threshold. The edge server (id 0) is exempt from C1: it is
    infrastructure and may sit unused. Caps are checked by ``check_caps``.
    """
    a.validate_structure(inst)
    violators = []
    if strict:
        violators += [("C1", m) for m in sorted(a.isolated)
                      if m != EDGE_SERVER_ID]
    counts = Counter(a.follows.values())
    violators += [("C2", n) for n in inst.node_ids
                  if (n in a.leaders) != (n in counts)]
    may_lead = set(leader_candidates(inst, rho, a.leaders))
    violators += [("C3", n) for n in sorted(a.leaders) if n not in may_lead]
    if caps is not None:
        check_caps(caps)
        violators += [("C2Lim", n) for n in sorted(a.leaders)
                      if caps.get(n) is not None and counts[n] > caps[n]]
    return ConstraintReport(tuple(violators))


@dataclass(frozen=True)
class FeasibilityReport:
    case1: bool
    case2_isolated: frozenset


def feasibility_scan(inst: Instance, rho) -> FeasibilityReport:
    """Detect the two infeasible regimes of the joint problem.

    Case 1: nobody is willing to lead at all. Case 2: a UE below the
    threshold that scores every node that may lead at ``rho`` zero, so it
    can neither lead nor follow.
    """
    may_lead = leader_candidates(inst, rho)
    lead = set(may_lead)
    isolated = frozenset(
        m for m in inst.ue_ids if m not in lead
        and not any(inst.lxi_of(m, n) > 0 for n in may_lead))
    return FeasibilityReport(case1=nobody_willing(inst),
                             case2_isolated=isolated)
