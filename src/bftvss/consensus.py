"""Event-driven BFT replica with a proposal-batching phase before PBFT.

Participants submit requests for a slot; every replica batches the requests
it has seen into an initial proposal for the primary, which merges proposals
from more than 2f replicas into one batch (keeping requests that appear in
more than f proposals) and drives the usual pre-prepare / prepare / commit
phases.  A PBFT-style view change with prepared-certificate carryover handles
faulty primaries.  Messages carry nothing a receiver can derive: a
PRE_PREPARE holds only the proposals its batch aggregates, a prepared
certificate only its batch and PREPAREs, and a NEW_VIEW only the 2f+1
VIEW_CHANGEs that justify it, from which every replica entering the view
takes the highest prepared certificate of each slot they name.

Each replica runs one progress timer, only while requests wait at its
execution watermark; its timeouts double per view change, up to 2^_MAX_BACKOFF
times the first.  A 2f+1 COMMIT quorum in any view commits its digest,
whatever view of the slot the batch is accepted in; any other normal-case
message of a view that is not the replica's own is dropped, as in PBFT.  A
committed slot is decided: it takes no more input, as an executed one takes
none, and VIEW_CHANGEs carry its prepared certificate until it executes.

Each replica is a pure state machine: one event in (message or timer fire),
outbound messages and timer operations out.  The simulator owns time and
transport; replicas never block or sleep.  A send hands one Message object
to all its receivers, and what they derive from it alike (its body bytes,
its tag checks, a PRE_PREPARE's batch and digest) is memoised on it; what
depends on the receiver's own state is not.

An application is a Replica subclass: it submits with broadcast_update and
overrides the two hooks that committed slots drive, in slot order:
receiving_update once per origin of the batch, then on_slot_committed.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from typing import Optional

from . import wire
from .crypto import KeyRing


class MsgKind(IntEnum):
    REQUEST = 1
    PRE_PROPOSE = 2
    PRE_PREPARE = 3
    PREPARE = 4
    COMMIT = 5
    VIEW_CHANGE = 6
    NEW_VIEW = 7


# A request inside proposals/batches travels as (origin, req, rtag) where
# rtag authenticates (origin, sq, req) independently of the enclosing
# message, so batched requests cannot be forged or replayed across slots.
ReqTriple = tuple[int, bytes, bytes]

# Largest exponent of a timer's backoff: peers that keep views changing
# cannot stretch a timeout past 6 * delta * 2^_MAX_BACKOFF.
_MAX_BACKOFF = 10


def request_tag(keyring: KeyRing, origin: int, sq: int, req: bytes) -> bytes:
    return keyring.tag(origin, b"REQ" + wire.u64(sq) + wire.lp(req))


def check_request_tag(keyring: KeyRing, sq: int, triple: ReqTriple) -> bool:
    origin, req, rtag = triple
    return keyring.check(origin, b"REQ" + wire.u64(sq) + wire.lp(req), rtag)


_U32, _U32_PAIR = struct.Struct(">I"), struct.Struct(">II")
# a message body: u8 kind, u64 view, u64 sq, u32 sender, then lp(payload)
_HEADER = struct.Struct(">BQQII")


def _pack_triples(triples) -> bytes:
    """u32 count, then per triple u32 origin, lp(req), lp(rtag).  Only a
    tuple (int, bytes, bytes) is a triple, which receivers hash and execute:
    nothing else has an encoding, so no tag matches a message carrying it."""
    parts = [_U32.pack(len(triples))]
    for t in triples:
        origin, req, rtag = t
        if type(t) is not tuple or (type(origin), type(req), type(rtag)) != (int, bytes, bytes):
            raise TypeError("a request triple is a tuple (int, bytes, bytes)")
        parts += (_U32_PAIR.pack(origin, len(req)), req, _U32.pack(len(rtag)), rtag)
    return b"".join(parts)


def batch_digest(batch: tuple[ReqTriple, ...]) -> bytes:
    return hashlib.sha256(_pack_triples(batch)).digest()


def aggregate(proposals: dict[int, tuple[ReqTriple, ...]], f: int) -> tuple[ReqTriple, ...]:
    """Merge initial proposals: keep requests appearing in more than f of
    them, in canonical order (origin id, then request bytes)."""
    counts: dict[ReqTriple, int] = defaultdict(int)
    for prop in proposals.values():
        for triple in set(prop):
            counts[triple] += 1
    kept = [t for t, c in counts.items() if c > f]
    kept.sort(key=lambda t: (t[0], t[1]))
    return tuple(kept)


@dataclass(frozen=True)
class Message:
    kind: MsgKind
    view: int
    sq: int
    sender: int
    payload: tuple
    tag: bytes = b""
    # what memo worked out: eq, hash and repr ignore it; dataclasses.replace starts afresh
    _memos: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def memo(self, key, compute, *args):
        """compute(*args), worked out once per message object and key.  A
        send hands one object to all its receivers, so what they derive from
        it alike is derived once; a key names whatever else the result
        depends on, the KeyRing object itself for a tag check.  The payload
        holds only bytes, ints and Messages, so no result can go stale."""
        memos = self._memos
        if key in memos:
            return memos[key]
        value = memos[key] = compute(*args)
        return value

    def body_bytes(self) -> bytes:
        return self.memo("body", _encode_body, self.kind, self.view, self.sq,
                         self.sender, self.payload)

    def to_bytes(self) -> bytes:
        return self.body_bytes() + self.tag


def signed(keyring: KeyRing, kind: MsgKind, view: int, sq: int, sender: int,
           payload: tuple) -> Message:
    """A message tagged with its sender's key over its body bytes."""
    body = _encode_body(kind, view, sq, sender, payload)
    m = Message(kind, view, sq, sender, payload, keyring.tag(sender, body))
    m._memos["body"] = body  # the tag is not part of the body
    return m


def _tag_ok(keyring: KeyRing, m: Message) -> bool:
    # a body that cannot be encoded has no tag to match; the sender needs no
    # key to send one, so it is dropped, never raised
    try:
        body = m.body_bytes()
    except (AttributeError, OverflowError, TypeError, ValueError, struct.error):
        return False
    return keyring.check(m.sender, body, m.tag)


def _encode_body(kind: MsgKind, view: int, sq: int, sender: int, payload: tuple) -> bytes:
    data = encode_payload(kind, payload)
    return _HEADER.pack(kind, view, sq, sender, len(data)) + data


def _pack_messages(ms) -> bytes:
    """pack_blobs of each message's bytes.  Only a Message has an encoding
    here: an int's to_bytes() would encode one on Python 3.11 and raise on
    3.10, so anything else raises TypeError on every interpreter."""
    if any(type(m) is not Message for m in ms):
        raise TypeError("a certificate or NEW_VIEW entry is a Message")
    return wire.pack_blobs([m.to_bytes() for m in ms])


def encode_payload(kind: MsgKind, payload: tuple) -> bytes:
    if kind == MsgKind.REQUEST:
        # the encoding of the triple (origin, req, rtag) past its count and origin
        return _pack_triples(((0, *payload),))[8:]
    if kind == MsgKind.PRE_PROPOSE:
        return _pack_triples(payload)
    if kind == MsgKind.PRE_PREPARE:
        (raw,) = payload
        parts = [_U32.pack(len(raw))]
        for proposer, prop in raw:
            parts += (_U32.pack(proposer), _pack_triples(prop))
        return b"".join(parts)
    if kind in (MsgKind.PREPARE, MsgKind.COMMIT):
        (digest,) = payload
        if type(digest) is not bytes:  # receivers hash it
            raise TypeError("a digest is bytes")
        return wire.lp(digest)
    if kind == MsgKind.VIEW_CHANGE:
        target, certs = payload
        parts = [wire.u64(target), wire.u32(len(certs))]
        for sq, view, batch, prepares in certs:
            parts.append(wire.u64(sq) + wire.u64(view) + _pack_triples(batch))
            parts.append(_pack_messages(prepares))
        return b"".join(parts)
    if kind == MsgKind.NEW_VIEW:
        (vcs,) = payload
        return _pack_messages(vcs)
    raise ValueError(f"unknown kind {kind}")


@dataclass
class SlotViewState:
    accepted_digest: Optional[bytes] = None
    batch: Optional[tuple[ReqTriple, ...]] = None
    prepares: dict = dc_field(default_factory=lambda: defaultdict(dict))
    commits: dict = dc_field(default_factory=lambda: defaultdict(dict))
    prepare_cert: tuple = ()  # non-empty once prepared
    commit_sent: bool = False


@dataclass
class SlotState:
    """Everything a replica keeps about a live slot; deleted once executed."""

    views: dict = dc_field(default_factory=dict)  # view -> SlotViewState
    pending: dict = dc_field(default_factory=dict)  # origin -> latest request, kept across views
    verified: dict = dc_field(default_factory=dict)  # origin -> last triple whose tag checked
    proposals: dict = dc_field(default_factory=dict)  # proposer -> initial proposal
    own_request: Optional[bytes] = None  # what we submitted here
    committed_batch: Optional[tuple[ReqTriple, ...]] = None  # None until the slot commits
    deferred: Optional[bytes] = None  # digest whose commit quorum came before its batch
    proposal_view: Optional[int] = None  # view in which we sent our pre-propose
    emitted_view: Optional[int] = None  # view in which we (as primary) pre-prepared

    def at(self, view: int) -> SlotViewState:
        if view not in self.views:
            self.views[view] = SlotViewState()
        return self.views[view]


class Replica:
    """One consensus participant.  Drive it with on_message / on_timer and
    collect outputs with drain()."""

    def __init__(
        self,
        rid: int,
        n: int,
        f: int,
        keyring: KeyRing,
        delta: int = 1,
    ):
        if n != 3 * f + 1:
            raise ValueError("requires n = 3f + 1")
        self.rid = rid
        self.n = n
        self.f = f
        self.keyring = keyring
        self.delta = max(1, delta)

        self.view = 0
        self.slots: dict[int, SlotState] = {}  # live slots, all at or above next_exec
        self.view_changes: dict[int, dict[int, Message]] = defaultdict(dict)
        self.vc_voted = 0  # highest view we have voted to change into
        self.next_exec = 0  # execution watermark: every slot below it is done
        self.vc_round = 0  # progress timeouts since next_exec last moved
        self.timer_running = False  # the one progress timer
        self.dropped_count = 0

        self._out: list[tuple[int, Message]] = []
        self._timer_ops: list[tuple] = []
        self.commit_listener = None  # fn(rid, sq, view, digest)

    # -- plumbing ---------------------------------------------------------

    def drain(self):
        out, self._out = self._out, []
        timers, self._timer_ops = self._timer_ops, []
        return out, timers

    def _make(self, kind: MsgKind, sq: int, payload: tuple, view: Optional[int] = None) -> Message:
        v = self.view if view is None else view
        return signed(self.keyring, kind, v, sq, self.rid, payload)

    def _broadcast(self, m: Message):
        for dst in range(self.n):
            self._out.append((dst, m))

    def _send(self, dst: int, m: Message):
        self._out.append((dst, m))

    def _set_timer(self, name, delay: int):
        self._timer_ops.append(("set", name, delay))

    def _cancel_timer(self, name):
        self._timer_ops.append(("cancel", name))

    def _slot(self, sq: int) -> SlotState:
        if sq not in self.slots:
            self.slots[sq] = SlotState()
        return self.slots[sq]

    def _decided(self, sq: int) -> bool:
        slot = self.slots.get(sq)
        return sq < self.next_exec or (slot is not None and slot.committed_batch is not None)

    def _authentic(self, m: Message) -> bool:
        return m.memo(self.keyring, _tag_ok, self.keyring, m)

    def _requests_ok(self, m: Message, slot: SlotState, triples) -> bool:
        """Check each request tag in m that differs from the one this replica
        last verified for its origin in the slot; a check is memoised on m,
        so a send's receivers share it."""
        for t in triples:
            if slot.verified.get(t[0]) != t:
                if not m.memo(("request", self.keyring, t), check_request_tag,
                              self.keyring, m.sq, t):
                    return False
                slot.verified[t[0]] = t
        return True

    def _quorum(self, msgs, kind: MsgKind, ok) -> bool:
        """2f+1 distinct senders' authentic messages of kind, each passing ok,
        which is checked before the tag; an entry that is not a Message fails
        the quorum."""
        senders = set()
        for x in msgs:
            if (not isinstance(x, Message) or x.kind != kind or not ok(x)
                    or not self._authentic(x)):
                return False
            senders.add(x.sender)
        return len(senders) >= 2 * self.f + 1

    def primary(self, view: Optional[int] = None) -> int:
        return (self.view if view is None else view) % self.n

    # -- client surface -----------------------------------------------------

    def broadcast_update(self, sq: int, req: bytes):
        """Submit a request into a slot; fan out to every participant."""
        if sq < self.next_exec:
            raise ValueError("sequence number must be non-negative and not executed")
        self._slot(sq).own_request = req
        self._send_request(sq, req)
        self._start_progress_timer()

    def _send_request(self, sq: int, req: bytes):
        rtag = request_tag(self.keyring, self.rid, sq, req)
        self._broadcast(self._make(MsgKind.REQUEST, sq, (req, rtag)))

    # -- application hooks: a subclass that runs an application overrides these

    def receiving_update(self, sq: int, origin: int, req: bytes):
        """Execute origin's request (its first in the batch) of committed slot sq."""

    def on_slot_committed(self, sq: int, batch):
        """Called after every request of committed slot sq was executed."""

    # -- event entry points --------------------------------------------------

    def on_message(self, m: Message):
        if not self._authentic(m):
            self.dropped_count += 1
            return
        if m.kind in _NORMAL_CASE:
            # a decided slot takes no more input, silently (_decided, inlined for speed)
            slot = self.slots.get(m.sq)
            if m.sq < self.next_exec or (slot is not None and slot.committed_batch is not None):
                return
            # stale COMMITs still count: a commit quorum in any view proves the
            # slot committed; a later view's message is dropped, as in PBFT
            if m.view != self.view and (m.view > self.view or m.kind != MsgKind.COMMIT):
                self.dropped_count += 1
                return
        _HANDLERS[m.kind](self, m)

    def on_timer(self, name):
        kind, arg = name  # arg: the target view of "vc", the slot of "batch" and "prop"
        if kind == "progress":
            self.timer_running = False
            self.vc_round += 1
            self._start_view_change(self.view + 1)
        elif kind == "vc":
            if self.view < arg and self._waiting():
                self._start_view_change(arg + 1)
        elif not self._decided(arg):
            (self._form_proposal if kind == "batch" else self._emit_pre_prepare)(arg)

    # -- request batching ------------------------------------------------

    def _on_request(self, m: Message):
        sq = m.sq
        slot = self._slot(sq)
        req, rtag = m.payload
        triple = (m.sender, req, rtag)
        if not self._requests_ok(m, slot, (triple,)):
            self.dropped_count += 1
            return
        slot.pending[m.sender] = triple  # latest request per sender wins
        self._start_progress_timer()
        if slot.proposal_view == self.view:
            return  # already pre-proposed this slot in this view
        if len(slot.pending) >= 2 * self.f + 1:
            if len(slot.pending) >= self.n:
                self._form_proposal(sq)
            else:
                # brief grace period so near-simultaneous requests all make it
                self._set_timer(("batch", sq), 2 * self.delta)

    def _form_proposal(self, sq: int):
        slot = self._slot(sq)
        self._cancel_timer(("batch", sq))
        if sq == self.next_exec:
            self._restart_progress_timer()
        self._propose(sq, slot)

    def _propose(self, sq: int, slot: SlotState):
        """Pre-propose the latest request of each origin to this view's primary."""
        proposal = tuple(sorted(slot.pending.values(), key=lambda t: (t[0], t[1])))
        slot.proposal_view = self.view
        self._send(self.primary(), self._make(MsgKind.PRE_PROPOSE, sq, proposal))

    # -- primary aggregation ------------------------------------------------

    def _on_pre_propose(self, m: Message):
        sq = m.sq
        if self.primary() != self.rid:
            self.dropped_count += 1  # only a Byzantine sender pre-proposes to a backup
            return
        slot = self._slot(sq)
        if slot.emitted_view == self.view:
            return
        proposal = tuple(m.payload)
        if not self._requests_ok(m, slot, proposal):
            self.dropped_count += 1
            return
        slot.proposals[m.sender] = proposal
        if len(slot.proposals) > 2 * self.f:
            if len(slot.proposals) >= self.n:
                self._emit_pre_prepare(sq)
            else:
                self._set_timer(("prop", sq), 2 * self.delta)

    def _emit_pre_prepare(self, sq: int):
        slot = self._slot(sq)
        if slot.at(self.view).accepted_digest is not None:
            return  # a certificate-backed digest already occupies this slot
        if len(slot.proposals) <= 2 * self.f:
            return
        raw = tuple(sorted(slot.proposals.items()))
        slot.emitted_view = self.view
        slot.proposals = {}
        self._cancel_timer(("prop", sq))
        self._broadcast(self._make(MsgKind.PRE_PREPARE, sq, (raw,)))

    # -- three-phase agreement ---------------------------------------------

    def _on_pre_prepare(self, m: Message):
        if m.sender != self.primary(m.view):
            self.dropped_count += 1
            return
        slot = self._slot(m.sq)
        if slot.at(m.view).accepted_digest is not None:
            return  # single acceptance per (view, sq)
        raw = dict(m.payload[0])
        if (not self._requests_ok(m, slot, dict.fromkeys(t for p in raw.values() for t in p))
                or len(raw) <= 2 * self.f):
            self.dropped_count += 1
            return
        batch = m.memo(("batch", self.f), aggregate, raw, self.f)
        self._accept(m.sq, m.view, batch, m.memo(("digest", self.f), batch_digest, batch))

    def _accept(self, sq: int, view: int, batch, digest: bytes):
        """Accept batch, whose digest is digest, as the one proposal of
        (view, sq) and prepare it."""
        slot = self._slot(sq)
        sv = slot.at(view)
        sv.accepted_digest = digest
        sv.batch = batch
        if sq == self.next_exec:
            self._restart_progress_timer()
        self._broadcast(self._make(MsgKind.PREPARE, sq, (digest,), view=view))
        self._check_prepared(sq, view, sv)
        if slot.deferred == digest:
            self._commit_local(sq, view, digest, batch)

    def _on_prepare(self, m: Message):
        (digest,) = m.payload
        sv = self._slot(m.sq).at(m.view)
        sv.prepares[digest][m.sender] = m
        self._check_prepared(m.sq, m.view, sv)

    def _check_prepared(self, sq: int, view: int, sv: SlotViewState):
        """Prepared means 2f+1 PREPAREs of the digest accepted in (view, sq),
        whose state is sv: a quorum that arrives before the batch waits for
        it, so no prepared certificate lacks its batch.  Once prepared, send
        COMMIT."""
        votes = sv.prepares.get(sv.accepted_digest, {})
        if sv.prepare_cert or len(votes) < 2 * self.f + 1:
            return
        sv.prepare_cert = tuple(sorted(votes.values(), key=lambda x: x.sender))
        if not sv.commit_sent:
            sv.commit_sent = True
            self._broadcast(self._make(MsgKind.COMMIT, sq, (sv.accepted_digest,), view=view))

    def _on_commit(self, m: Message):
        (digest,) = m.payload
        slot = self._slot(m.sq)
        sv = slot.at(m.view)
        sv.commits[digest][m.sender] = m
        count = len(sv.commits[digest])
        # amplification: join the commit wave even before prepared, but only
        # in the current view; an old-view COMMIT sent after a VIEW_CHANGE
        # has no prepared certificate behind it
        if count >= self.f + 1 and not sv.commit_sent and m.view == self.view:
            sv.commit_sent = True
            self._broadcast(self._make(MsgKind.COMMIT, m.sq, (digest,), view=m.view))
        if count >= 2 * self.f + 1:
            # the batch may be accepted in any view of the slot: the quorum's own first
            for view in (m.view, *slot.views):
                if slot.views[view].accepted_digest == digest:
                    self._commit_local(m.sq, view, digest, slot.views[view].batch)
                    break
            else:
                # quorum reached before we saw the batch; commit it on arrival, in any view
                slot.deferred = digest

    def _commit_local(self, sq: int, view: int, digest: bytes, batch):
        self._slot(sq).committed_batch = batch
        if self.commit_listener is not None:
            self.commit_listener(self.rid, sq, view, digest)
        self._drain_executions()

    def _drain_executions(self):
        start = self.next_exec
        while (slot := self.slots.get(self.next_exec)) is not None and slot.committed_batch is not None:
            batch = slot.committed_batch
            sq = self.next_exec
            self.next_exec += 1
            seen = set()  # one request per origin and slot is executed
            for origin, req, _rtag in batch:
                if origin in seen:
                    continue
                seen.add(origin)
                self.receiving_update(sq, origin, req)
            self.on_slot_committed(sq, batch)
            del self.slots[sq]
        if self.next_exec != start:
            self.vc_round = 0
            self._restart_progress_timer()

    # -- timers and view change ----------------------------------------------

    def _waiting(self) -> bool:
        """Requests wait at the execution watermark."""
        slot = self.slots.get(self.next_exec)
        return slot is not None and (bool(slot.pending) or slot.own_request is not None)

    def _start_progress_timer(self):
        if self.timer_running or not self._waiting():
            return
        self.timer_running = True
        self._set_timer(("progress", None),
                        6 * self.delta * (1 << min(self.vc_round, _MAX_BACKOFF)))

    def _restart_progress_timer(self):
        """Progress at the watermark: push the timeout out, or stop it if nothing waits."""
        if self.timer_running:
            self._cancel_timer(("progress", None))
            self.timer_running = False
        self._start_progress_timer()

    def _prepared_certs(self):
        certs = []
        for sq, slot in sorted(self.slots.items()):
            prepared = [view for view, sv in slot.views.items() if sv.prepare_cert]
            if prepared:
                view = max(prepared)
                sv = slot.views[view]
                certs.append((sq, view, sv.batch, sv.prepare_cert))
        return tuple(certs)

    def _start_view_change(self, target: int):
        if target <= self.view or target <= self.vc_voted:
            return
        self.vc_voted = target
        m = self._make(MsgKind.VIEW_CHANGE, 0, (target, self._prepared_certs()), view=self.view)
        self._broadcast(m)
        self._set_timer(("vc", target),
                        6 * self.delta * (1 << min(target - self.view, _MAX_BACKOFF)))

    def _check_cert(self, cert) -> bool:
        """A quorum of PREPAREs of the batch's digest in the cert's view and slot."""
        sq, view, batch, prepares = cert
        payload = (batch_digest(tuple(batch)),)
        return self._quorum(prepares, MsgKind.PREPARE, lambda pm: (
            pm.view == view and pm.sq == sq and pm.payload == payload))

    def _on_view_change(self, m: Message):
        target, certs = m.payload
        if target <= self.view:
            return
        if not all(self._check_cert(c) for c in certs):
            self.dropped_count += 1
            return
        self.view_changes[target][m.sender] = m
        votes = self.view_changes[target]
        if len(votes) >= self.f + 1 and target > self.vc_voted:
            self._start_view_change(target)  # join: enough suspicion around
        if self.primary(target) == self.rid and len(votes) >= 2 * self.f + 1 and self.view < target:
            self._emit_new_view(target)

    def _emit_new_view(self, target: int):
        votes = self.view_changes[target]
        vcs = tuple(votes[s] for s in sorted(votes))[: 2 * self.f + 1]
        self._broadcast(self._make(MsgKind.NEW_VIEW, 0, (vcs,), view=target))
        self._install_view(target, vcs)

    def _check_new_view(self, m: Message) -> bool:
        """A quorum of VIEW_CHANGEs into the NEW_VIEW's view, each carrying
        only valid certificates."""
        (vcs,) = m.payload
        return (self._quorum(vcs, MsgKind.VIEW_CHANGE, lambda vc: vc.payload[0] == m.view)
                and all(self._check_cert(c) for vc in vcs for c in vc.payload[1]))

    def _on_new_view(self, m: Message):
        target = m.view
        if target <= self.view or m.sender != self.primary(target):
            return
        if not self._check_new_view(m):
            # anything off about this NEW_VIEW: push for the next view instead
            self._start_view_change(target + 1)
            return
        self._install_view(target, m.payload[0])

    def _install_view(self, target: int, vcs):
        """Enter the view the VIEW_CHANGEs justify; then, for each slot they
        name that is not decided here, accept the batch of the highest
        prepared certificate among them."""
        best: dict[int, tuple] = {}  # sq -> (view, batch)
        for vc in vcs:
            for sq, view, batch, _ in vc.payload[1]:
                if sq not in best or view > best[sq][0]:
                    best[sq] = (view, tuple(batch))
        self._enter_view(target)
        for sq, (_, batch) in sorted(best.items()):
            if not self._decided(sq):
                self._accept(sq, target, batch, batch_digest(batch))

    def _enter_view(self, target: int):
        self.view = target
        self.vc_voted = max(self.vc_voted, target)
        self._cancel_timer(("vc", target))
        for old in [t for t in self.view_changes if t <= target]:
            del self.view_changes[old]
        live = [(sq, s) for sq, s in sorted(self.slots.items()) if s.committed_batch is None]
        for sq, slot in live:
            slot.proposals = {}
            self._cancel_timer(("batch", sq))
            self._cancel_timer(("prop", sq))
        self._restart_progress_timer()
        # re-propose what we already batched, so the new primary does not
        # have to wait out a full round of request rebroadcasts
        for sq, slot in live:
            if slot.proposal_view is not None:
                self._propose(sq, slot)
        # our own uncommitted requests go out again under the new view
        for sq, slot in live:
            if slot.own_request is not None:
                self._send_request(sq, slot.own_request)


# on_message's dispatch, built once (so a subclass that wants another handler
# overrides on_message): Replica._on_request handles REQUEST, and so on; the
# normal-case kinds have their view and slot checked first
_HANDLERS = {kind: getattr(Replica, "_on_" + kind.name.lower()) for kind in MsgKind}
_NORMAL_CASE = frozenset(MsgKind) - {MsgKind.VIEW_CHANGE, MsgKind.NEW_VIEW}
