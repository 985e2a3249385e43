"""Deterministic discrete-event network simulator.

Virtual time is integer ticks.  An adversary policy decides, per message,
the delivery delay (or drop) subject to partial synchrony: after the global
stabilization time, traffic between honest participants must arrive within
the bound delta.  Everything is a pure function of (seed, config, scripts),
so two runs with the same inputs produce byte-identical traces.

Its nodes are replicas or Byzantine behaviors: ``SilentNode``, and the
Replica subclasses below that rewrite outgoing messages per destination.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from .consensus import Message, MsgKind, Replica, aggregate, request_tag, signed


class LivelockError(Exception):
    """Event budget exhausted: the run is not making progress."""


# the most participants a config may ask for: ten times the most a test
# validates (300,001), so a size like 10**30 is refused before anything runs
MAX_N = 10**7


@dataclass(frozen=True)
class SimConfig:
    n: int
    f: int
    gst: int = 0
    delta: int = 1
    seed: int = 0
    max_events: int = 2_000_000

    def __post_init__(self):
        if self.f < 1 or self.n != 3 * self.f + 1 or self.n > MAX_N:
            raise ValueError(f"requires n = 3f + 1 with f >= 1 and n <= {MAX_N}")
        if self.gst < 0 or self.delta < 1:
            raise ValueError("gst must be >= 0 and delta >= 1")
        # random.Random seeds from |seed|, so seed -s would replay seed s
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class AdversaryPolicy:
    """Delay control.  Before GST the adversary stretches every delivery up
    to 4 * delta; after GST honest-to-honest delivery is bounded by delta.
    A subclass may drop a message by returning None from schedule, which
    the simulator records as a drop.  Payloads are never mutated in transit:
    receivers authenticate, so mutation would only waste the message."""

    corrupt: frozenset = frozenset()

    def validate(self, config: SimConfig):
        if len(self.corrupt) > config.f:
            raise ValueError(f"at most f={config.f} participants may be corrupted")

    def schedule(self, src: int, dst: int, now: int, config: SimConfig,
                 rng: random.Random) -> Optional[int]:
        """Return the delivery delay in ticks, or None to drop."""
        width = config.delta if now >= config.gst else 4 * config.delta
        # rng.randint(1, width), drawn as CPython draws it: the same value,
        # and the same rng state after, in four fewer calls
        bits = width.bit_length()
        r = rng.getrandbits(bits)
        while r >= width:
            r = rng.getrandbits(bits)
        return 1 + r


@dataclass
class Trace:
    records: list = dc_field(default_factory=list)

    def add(self, time: int, kind: str, src, dst, summary: str):
        self.records.append(
            {"time": time, "kind": kind, "src": src, "dst": dst, "summary": summary}
        )

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _summarize(m: Message) -> str:
    return f"{m.kind.name} v={m.view} sq={m.sq}"


class Simulator:
    """Single-threaded event loop owning all replica states and the clock."""

    def __init__(self, config: SimConfig, nodes: dict, adversary: AdversaryPolicy,
                 trace_messages: bool = False):
        adversary.validate(config)
        self.config = config
        self.nodes = nodes
        self.adversary = adversary
        self.rng = random.Random(config.seed)
        self.trace = Trace()
        self.trace_messages = trace_messages
        self.clock = 0
        self._heap: list = []
        self._counter = 0
        self._live_timers: dict = {}  # (node_id, name) -> token

    # -- scheduling -------------------------------------------------------

    def _push(self, time: int, item):
        heapq.heappush(self._heap, (time, self._counter, item))
        self._counter += 1

    def _dispatch_sends(self, src: int, sends):
        schedule, config, rng, clock = self.adversary.schedule, self.config, self.rng, self.clock
        corrupt = self.adversary.corrupt
        bounded = clock >= config.gst and src not in corrupt  # to honest receivers
        for dst, msg in sends:
            delay = schedule(src, dst, clock, config, rng)
            if delay is None:
                self.trace.add(clock, "drop", src, dst, _summarize(msg))
                continue
            if bounded and dst not in corrupt:
                assert delay <= config.delta, "post-GST delay bound violated"
            self._push(clock + delay, ("deliver", dst, src, msg))
            if self.trace_messages:
                self.trace.add(clock, "send", src, dst, _summarize(msg))

    def _apply_timer_ops(self, node_id: int, ops):
        for op in ops:
            if op[0] == "set":
                _, name, delay = op
                token = self._counter
                self._live_timers[(node_id, name)] = token
                self._push(self.clock + max(1, delay), ("timer", node_id, name, token))
            else:
                self._live_timers.pop((node_id, op[1]), None)

    def collect(self, node_id: int):
        """Drain a node's outputs into the event queue (also used to pick up
        sends produced before the loop starts)."""
        sends, timer_ops = self.nodes[node_id].drain()
        if sends:
            self._dispatch_sends(node_id, sends)
        if timer_ops:
            self._apply_timer_ops(node_id, timer_ops)

    def collect_all(self):
        for node_id in self.nodes:
            self.collect(node_id)

    def schedule_call(self, time: int, fn: Callable):
        """Run an external stimulus (e.g. a client submitting a request) at
        the given virtual time."""
        self._push(max(time, self.clock), ("call", fn))

    # -- main loop ----------------------------------------------------------

    def run(self, until: Optional[Callable] = None) -> Trace:
        self.collect_all()
        heap, nodes, live_timers = self._heap, self.nodes, self._live_timers
        max_events = self.config.max_events
        events = 0
        while heap:
            if until is not None and until():
                break
            self.clock, _, item = heapq.heappop(heap)
            events += 1
            if events > max_events:
                # the clock can outgrow str(int)'s 4300-digit limit
                raise LivelockError(
                    f"exceeded {max_events} events with the clock "
                    f"at {self.clock.bit_length()} bits")
            if item[0] == "deliver":
                _, dst, src, msg = item
                if self.trace_messages:
                    self.trace.add(self.clock, "deliver", src, dst, _summarize(msg))
                nodes[dst].on_message(msg)
                self.collect(dst)
            elif item[0] == "timer":
                _, node_id, name, token = item
                if live_timers.get((node_id, name)) != token:
                    continue  # cancelled or superseded
                del live_timers[node_id, name]
                nodes[node_id].on_timer(name)
                self.collect(node_id)
            else:
                item[1]()
                self.collect_all()
        return self.trace

    def record_commit(self, rid: int, sq: int, view: int, digest: bytes):
        self.trace.add(self.clock, "commit", rid, rid,
                       f"sq={sq} v={view} d={digest.hex()[:16]}")


# -- Byzantine behaviors -----------------------------------------------------


class SilentNode:
    """Crashes-at-birth behavior: receives everything, says nothing.  Takes
    (and ignores) a replica's constructor arguments."""

    def __init__(self, *_args, **_kwargs):
        pass

    def on_message(self, m):
        pass

    def on_timer(self, name):
        pass

    def drain(self):
        return [], []


class EquivocatingPrimary(Replica):
    """A replica whose PRE_PREPAREs reach half the destinations as a
    conflicting one whose proposals all omit the request that sorts last.
    There is always one: each proposal comes from a replica holding at least
    2f+1 requests."""

    def _fork(self, m: Message, dst: int):
        if m.kind != MsgKind.PRE_PREPARE or dst % 2 == 0:
            return m
        raw = dict(m.payload[0])
        victim = max(t for prop in raw.values() for t in prop)
        alt_raw = {
            proposer: tuple(t for t in prop if t != victim)
            for proposer, prop in raw.items()
        }
        if aggregate(alt_raw, self.f) == aggregate(raw, self.f):
            return m
        return signed(self.keyring, m.kind, m.view, m.sq, m.sender,
                      (tuple(sorted(alt_raw.items())),))

    def drain(self):
        sends, timers = super().drain()
        return [(dst, self._fork(msg, dst)) for dst, msg in sends], timers


class InconsistentSender(Replica):
    """A replica whose REQUEST broadcasts reach odd-numbered destinations
    with b"/alt" appended to the request (the classic inconsistent dealer)."""

    def _mutate(self, m: Message, dst: int):
        if m.kind != MsgKind.REQUEST or dst % 2 == 0:
            return m
        req, _ = m.payload
        alt = req + b"/alt"
        rtag = request_tag(self.keyring, self.rid, m.sq, alt)
        return signed(self.keyring, m.kind, m.view, m.sq, m.sender, (alt, rtag))

    def drain(self):
        sends, timers = super().drain()
        return [(dst, self._mutate(msg, dst)) for dst, msg in sends], timers
