"""Span recording around the public functions of the leadsel layers.

The tracer patches every binding of each target function inside the
``leadsel`` package (a function imported by name into another module has a
second binding there) and restores them on ``end``. Spans live in memory
as ``[name, start, end, parent, op, attrs]`` lists and are written out
once, when the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from leadsel import cli, exhaustive, harness, model, protocol  # noqa: F401
from leadsel.protocol import FOLLOW_REQUEST, NACK

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _solve_attrs(args, kwargs, result):
    inst = args[0]
    return {"caps": kwargs.get("caps") is not None,
            "nodes": inst.node_count,
            "visited": result.configs_visited}


def _episode_attrs(args, kwargs, result):
    cfg = args[1]
    attrs = {"transport": cfg.transport, "caps": cfg.caps is not None,
             "n": args[0].n, "l": len(result.leader_set_phase1),
             "protocol_messages": result.protocol_messages,
             "messages": result.total_messages}
    if cfg.caps is not None:
        attrs["nacks"] = sum(1 for m in result.messages if m.kind == NACK)
        attrs["requests"] = sum(1 for m in result.messages
                                if m.kind == FOLLOW_REQUEST)
    return attrs


# (span name, owner, attribute, annotator). The owner is a module or a
# class; for a module every binding of the function in leadsel is patched.
TARGETS = (
    ("model.generate_instance", model, "generate_instance", None),
    ("model.save_instance", model, "save_instance", None),
    ("model.load_instance", model, "load_instance", None),
    ("model.check_constraints", model, "check_constraints", None),
    ("model.feasibility_scan", model, "feasibility_scan", None),
    ("model.lxi_row", model.Instance, "lxi_row", None),
    ("exhaustive.solve_exhaustive", exhaustive, "solve_exhaustive",
     _solve_attrs),
    ("protocol.run_episode", protocol, "run_episode", _episode_attrs),
    ("protocol.simulate_protocol", protocol, "simulate_protocol", None),
    ("protocol.run_fallback_process", protocol, "run_fallback_process", None),
    ("protocol.write_log", protocol.EpisodeOutcome, "write_log", None),
    ("harness.run_benchmark", harness, "run_benchmark", None),
    ("harness.report_write", harness.BenchmarkReport, "write", None),
)

# Bindings the layers are known to look up under a second name. If one of
# them is not patched the run would under-report, so ``begin`` fails.
REQUIRED_ALIASES = (
    ("leadsel.harness", "solve_exhaustive"),
    ("leadsel.harness", "run_episode"),
    ("leadsel.harness", "generate_instance"),
    ("leadsel.cli", "solve_exhaustive"),
    ("leadsel.cli", "check_constraints"),
    ("leadsel.cli", "feasibility_scan"),
)


class TraceError(Exception):
    """The tracer could not cover every binding of a target."""


def _leadsel_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "leadsel" or name.startswith("leadsel."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.op = None
        self._originals = {}
        for name, owner, attr, annotate in TARGETS:
            fn = owner.__dict__[attr]
            self._originals[name] = (owner, attr, fn, annotate)

    # -- patching ------------------------------------------------------------

    def begin(self, op) -> None:
        """Patch every binding of every target; spans get ``op`` as op id."""
        if self._patches:
            raise TraceError("tracer already installed")
        self.op = op
        by_id = {id(fn): (name, fn, annotate)
                 for name, (_, _, fn, annotate) in self._originals.items()}
        for name, (owner, attr, fn, annotate) in self._originals.items():
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, fn, annotate))
        for mod in _leadsel_modules():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    name, fn, annotate = hit
                    self._patch(mod, attr, self._wrap(name, fn, annotate))
        patched = {(getattr(o, "__name__", ""), a) for o, a, _ in self._patches}
        missing = [f"{m}.{a}" for m, a in REQUIRED_ALIASES
                   if (m, a) not in patched]
        if missing:
            self.end()
            raise TraceError("unpatched bindings: " + ", ".join(missing))

    def end(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.op = None

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if annotate is not None:
                rec[ATTRS] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into a layer."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "op": rec[OP],
                    "attrs": rec[ATTRS]}, sort_keys=True) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def nearest_ancestor(spans, name) -> list:
    """Index of the closest enclosing span called ``name`` (or itself)."""
    anc: list = []
    for i, rec in enumerate(spans):
        if rec[NAME] == name:
            anc.append(i)
        elif rec[PARENT] is not None:
            anc.append(anc[rec[PARENT]])
        else:
            anc.append(None)
    return anc
