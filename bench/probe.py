"""Timing hooks and span tracing, installed from outside the package.

Nothing under src/ knows about the benchmark.  Hooks replace public entry
points by attribute assignment on their modules and classes; the program
looks those names up at call time, so every call goes through the hook.

Two levels:

* ``Probe`` is always installed.  It records, per run, the entry call, the
  first unit of work, every round boundary (``training.accuracy``) with the
  simulator clock, and the return.  That is all the end-to-end metrics need.
* ``Tracer`` is installed only for a traced pass.  It wraps every function in
  ``TARGETS`` with a span (name, start, end, parent, run id, outcome) kept in
  flat in-memory arrays, counts simulated messages and bytes by kind, and
  computes self time per function after the pass.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from bftvss import attack, consensus, crypto, dpml, field, netsim, scenarios, training, vss

perf = time.perf_counter


@dataclass
class RunRecord:
    """What one ``dpml.run`` or ``run_consensus`` call did, as seen by hooks."""

    run_id: int
    entry: float = 0.0
    first_work: Optional[float] = None
    exit: float = 0.0
    # (round end, next round start, simulator clock) at each
    # training.accuracy call; the gap is Probe.between_rounds
    marks: list = dc_field(default_factory=list)
    sim: object = None  # the run's Simulator, released by Probe.end
    replicas: list = dc_field(default_factory=list)  # traced runs; released too
    used_sim: bool = False
    events: int = 0
    dropped: int = 0
    view_changes: int = 0
    msgs: Counter = dc_field(default_factory=Counter)
    bytes: Counter = dc_field(default_factory=Counter)


def _patch(owner, attr, make):
    """Replace owner.attr with make(current value)."""
    setattr(owner, attr, make(getattr(owner, attr)))


class Probe:
    """End-to-end timing hooks.  Records into ``cur`` while a run is open;
    calls made with no run open (reference runs for checks) are ignored."""

    def __init__(self):
        self.cur: Optional[RunRecord] = None
        self.runs = 0
        # called at each round boundary, outside the timed rounds
        self.between_rounds: Optional[Callable[[], None]] = None
        entry_exit = self._entry_exit
        _patch(dpml, "run", entry_exit)
        _patch(scenarios, "run_consensus", entry_exit)
        _patch(training, "local_train", self._first_work)
        _patch(netsim.Simulator, "run", self._sim_run)
        _patch(training, "accuracy", self._mark)

    def begin(self) -> RunRecord:
        self.runs += 1
        self.cur = RunRecord(self.runs)
        return self.cur

    def end(self) -> RunRecord:
        """Close the run and keep only numbers, so that records do not hold
        the program's objects alive (and slow the garbage collector)."""
        rec, self.cur = self.cur, None
        if rec.sim is not None:
            rec.used_sim = True
            # every event the loop popped; pushes not yet popped stay queued
            rec.events = rec.sim._counter - len(rec.sim._heap)
        rec.dropped = sum(r.dropped_count for r in rec.replicas)
        rec.sim, rec.replicas = None, []
        return rec

    def _entry_exit(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            rec = self.cur
            if rec is None:
                return fn(*args, **kwargs)
            rec.entry = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit = perf()
        return hook

    def _first_work(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            rec = self.cur
            if rec is not None and rec.first_work is None:
                rec.first_work = perf()
            return fn(*args, **kwargs)
        return hook

    def _sim_run(self, fn):
        @functools.wraps(fn)
        def hook(sim, *args, **kwargs):
            rec = self.cur
            if rec is not None:
                rec.sim = sim
                if rec.first_work is None:
                    rec.first_work = perf()
            return fn(sim, *args, **kwargs)
        return hook

    def _mark(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            rec = self.cur
            if rec is not None:
                t_end = perf()
                if self.between_rounds is not None:
                    self.between_rounds()
                rec.marks.append((t_end, perf(), rec.sim.clock if rec.sim is not None else 0))
            return fn(*args, **kwargs)
        return hook


def _engaged(result) -> bool:
    return bool(result[1])


# (span name, owner, attribute, outcome).  The span name is
# <layer>.<function>; outcome maps a return value to success, and a call
# that raises is a failure.  Names imported by value into another module
# are patched there too (see ALIASES).
TARGETS = (
    ("field.generate_group", field, "generate_group", None),
    ("field.encode_vector", field.FixedPointCodec, "encode_vector", None),
    ("field.decode_vector", field.FixedPointCodec, "decode_vector", None),
    ("vss.share", vss, "share", None),
    ("vss.verify", vss, "verify", bool),
    ("vss.reconstruct", vss, "reconstruct", None),
    ("vss.sum_shares", vss, "sum_shares", None),
    ("crypto.encrypt", crypto.HybridScheme, "encrypt", None),
    ("crypto.decrypt", crypto.HybridScheme, "decrypt", None),
    ("crypto.KeyRing.tag", crypto.KeyRing, "tag", None),
    ("crypto.KeyRing.check", crypto.KeyRing, "check", None),
    ("wire.encode_share_request", dpml, "encode_share_request", None),
    ("wire.decode_share_request", dpml, "decode_share_request", None),
    ("wire.encode_vote_request", dpml, "encode_vote_request", None),
    ("wire.decode_vote_request", dpml, "decode_vote_request", None),
    ("wire.encode_agg_request", dpml, "encode_agg_request", None),
    ("wire.decode_agg_request", dpml, "decode_agg_request", None),
    ("wire.parse_bundle", vss, "parse_bundle", None),
    ("wire.parse_commitments", vss, "parse_commitments", None),
    ("wire.Message.body_bytes", consensus.Message, "body_bytes", None),
    ("consensus.Replica.on_message", consensus.Replica, "on_message", None),
    ("consensus.Replica.on_timer", consensus.Replica, "on_timer", None),
    ("netsim.Simulator.run", netsim.Simulator, "run", None),
    ("attack.craft_submission", attack.AcumpaAttacker, "craft_submission", _engaged),
    ("attack.observed_target", attack.AcumpaAttacker, "observed_target", None),
    ("training.local_train", training, "local_train", None),
    ("training.accuracy", training, "accuracy", None),
    ("training.loss", training, "loss", None),
    ("dpml.run", dpml, "run", None),
    ("dpml.receiving_update", dpml.WorkflowParticipant, "receiving_update", None),
    ("dpml.on_slot_committed", dpml.WorkflowParticipant, "on_slot_committed", None),
    ("scenarios.run_consensus", scenarios, "run_consensus", None),
)
ALIASES = {"field.generate_group": ((dpml, "generate_group"),)}

# the tracer's own message counting, kept out of the netsim span it runs in
COUNT_SPAN = "bench.count_messages"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + (COUNT_SPAN,)


class Tracer:
    """Span recorder.  Spans live in parallel flat arrays (about 30 bytes a
    span) and are turned into per-function self times by ``self_times``."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.names = list(SPAN_NAMES)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.ok = array("b")
        self.stack = [-1]
        for nid, (name, owner, attr, outcome) in enumerate(TARGETS):
            wrapped = self._wrap(nid, getattr(owner, attr), outcome)
            setattr(owner, attr, wrapped)
            for alias_owner, alias_attr in ALIASES.get(name, ()):
                setattr(alias_owner, alias_attr, wrapped)
        self._count_id = self.names.index(COUNT_SPAN)
        # counters hook three private names; if one is renamed, building the
        # tracer raises AttributeError instead of reporting wrong counts
        _patch(netsim.Simulator, "_dispatch_sends", self._count_sends)
        _patch(consensus.Replica, "__init__", self._register_replica)
        _patch(consensus.Replica, "_enter_view", self._count_view_change)

    def __len__(self):
        return len(self.start)

    def open(self, nid: int) -> int:
        i = len(self.start)
        rec = self.probe.cur
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(rec.run_id if rec is not None else 0)
        self.ok.append(1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf())
        return i

    def close(self, i: int):
        self.end[i] = perf()
        self.stack.pop()

    def _wrap(self, nid, fn, outcome):
        open_, close, ok = self.open, self.close, self.ok

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ok[i] = 0
                raise
            finally:
                close(i)
            if outcome is not None and not outcome(result):
                ok[i] = 0
            return result
        return traced

    def _count_sends(self, fn):
        body_bytes = consensus.Message.body_bytes.__wrapped__

        def dispatch(sim, src, sends):
            rec = self.probe.cur
            if rec is not None and sends:
                i = self.open(self._count_id)
                sizes = {}  # a broadcast sends one message object n times
                for _dst, m in sends:
                    size = sizes.get(id(m))
                    if size is None:
                        size = sizes[id(m)] = len(body_bytes(m)) + len(m.tag)
                    rec.msgs[m.kind.name] += 1
                    rec.bytes[m.kind.name] += size
                self.close(i)
            return fn(sim, src, sends)
        return dispatch

    def _register_replica(self, fn):
        def init(replica, *args, **kwargs):
            fn(replica, *args, **kwargs)
            if self.probe.cur is not None:
                self.probe.cur.replicas.append(replica)
        return init

    def _count_view_change(self, fn):
        def enter_view(replica, target):
            if self.probe.cur is not None:
                self.probe.cur.view_changes += 1
            return fn(replica, target)
        return enter_view

    def self_times(self, windows: dict[int, tuple[float, float]]):
        """Per span name: (calls, self seconds, successful calls), counted
        inside each run's window only; a call counts if its span overlaps
        the window.

        A span's self time is its duration minus the time its child spans
        cover, with every span first clipped to its run's window.  Over a
        window covered by a root span the self times add up to the window.
        """
        start = np.array(self.start)
        end = np.array(self.end)
        run = np.array(self.run, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        ok = np.array(self.ok, dtype=np.float64)
        w0 = np.zeros(max(run.max(initial=0), max(windows, default=0)) + 1)
        w1 = np.zeros_like(w0)
        for rid, (a, b) in windows.items():
            w0[rid], w1[rid] = a, b
        lo, hi = w0[run], w1[run]
        clipped = np.clip(np.minimum(end, hi) - np.maximum(start, lo), 0.0, None)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=clipped[has_parent],
                              minlength=len(start))
        own = clipped - covered
        inside = (end > lo) & (start < hi)
        k = len(self.names)
        calls = np.bincount(name[inside], minlength=k)
        good = np.bincount(name[inside], weights=ok[inside], minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(good[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), start=np.array(self.start),
                 end=np.array(self.end), name=np.array(self.name),
                 parent=np.array(self.parent), run=np.array(self.run),
                 ok=np.array(self.ok))
