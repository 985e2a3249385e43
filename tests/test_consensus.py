import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import consensus, scenarios, wire
from bftvss.consensus import (
    Message,
    MsgKind,
    Replica,
    aggregate,
    batch_digest,
    check_request_tag,
    request_tag,
    signed,
)
from bftvss.crypto import KeyRing
from bftvss.netsim import AdversaryPolicy, SimConfig, Simulator
from bftvss.scenarios import CONSENSUS_SCRIPTS, run_consensus


@pytest.fixture()
def keyring():
    return KeyRing(range(4), random.Random(0))


def triple(keyring, origin, sq, req):
    return (origin, req, request_tag(keyring, origin, sq, req))


# A reference encoder, built from the wire helpers alone.  It takes anything
# that iterates and has a length where the canonical encoding wants a tuple
# of bytes, and an int where it wants a Message, as a lax encoder would.


def ref_triples(triples) -> bytes:
    return wire.u32(len(triples)) + b"".join(
        wire.u32(origin) + wire.lp(req) + wire.lp(rtag) for origin, req, rtag in triples)


def ref_payload(kind, payload) -> bytes:
    if kind == MsgKind.REQUEST:
        return b"".join(wire.lp(x) for x in payload)
    if kind == MsgKind.PRE_PROPOSE:
        return ref_triples(payload)
    if kind == MsgKind.PRE_PREPARE:
        (raw,) = payload
        return wire.u32(len(raw)) + b"".join(wire.u32(p) + ref_triples(prop) for p, prop in raw)
    if kind in (MsgKind.PREPARE, MsgKind.COMMIT):
        return wire.lp(payload[0])
    if kind == MsgKind.VIEW_CHANGE:
        target, certs = payload
        return wire.u64(target) + wire.u32(len(certs)) + b"".join(
            wire.u64(sq) + wire.u64(view) + ref_triples(batch)
            + wire.pack_blobs([ref_entry(m) for m in prepares])
            for sq, view, batch, prepares in certs)
    (vcs,) = payload
    return wire.pack_blobs([ref_entry(m) for m in vcs])


def ref_entry(m) -> bytes:
    # an int as the one byte its to_bytes() gives from Python 3.11 on
    return m.to_bytes(1, "big") if type(m) is int else ref_body(m) + m.tag


def ref_body(m) -> bytes:
    return (bytes([m.kind]) + wire.u64(m.view) + wire.u64(m.sq) + wire.u32(m.sender)
            + wire.lp(ref_payload(m.kind, m.payload)))


def lax_signed(keyring, kind, view, sq, sender, payload):
    """A message tagged over the bytes the reference encoder gives it, so
    that a payload with no canonical encoding still carries its sender's tag."""
    m = Message(kind, view, sq, sender, payload)
    return dataclasses.replace(m, tag=keyring.tag(sender, ref_body(m)))


U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
SENDERS = (0, 1, 2**32 - 1)
RING = KeyRing(SENDERS, random.Random(5))
TRIPLES = st.lists(st.tuples(U32, st.binary(max_size=12), st.binary(max_size=33)),
                   max_size=4).map(tuple)


def signed_messages(kind, payloads):
    return st.builds(functools.partial(signed, RING, kind), U64, U64,
                     st.sampled_from(SENDERS), payloads)


PAYLOADS = {
    MsgKind.REQUEST: st.tuples(st.binary(max_size=12), st.binary(max_size=33)),
    MsgKind.PRE_PROPOSE: TRIPLES,
    MsgKind.PRE_PREPARE: st.tuples(st.lists(st.tuples(U32, TRIPLES), max_size=4).map(tuple)),
    MsgKind.PREPARE: st.tuples(st.binary(max_size=33)),
    MsgKind.COMMIT: st.tuples(st.binary(max_size=33)),
}
PAYLOADS[MsgKind.VIEW_CHANGE] = st.tuples(U64, st.lists(st.tuples(
    U64, U64, TRIPLES,
    st.lists(signed_messages(MsgKind.PREPARE, PAYLOADS[MsgKind.PREPARE]), max_size=3).map(tuple),
), max_size=3).map(tuple))
PAYLOADS[MsgKind.NEW_VIEW] = st.tuples(st.lists(
    signed_messages(MsgKind.VIEW_CHANGE, PAYLOADS[MsgKind.VIEW_CHANGE]), max_size=3).map(tuple))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MsgKind).flatmap(lambda kind: signed_messages(kind, PAYLOADS[kind])))
def test_signed_encodes_as_the_reference_encoder(m):
    body = ref_body(m)
    assert m.body_bytes() == body
    assert m.tag == RING.tag(m.sender, body)
    # encoded afresh, not from what signed memoised
    assert dataclasses.replace(m).to_bytes() == body + m.tag


class TestAggregate:
    def test_keeps_requests_in_more_than_f_proposals(self, keyring):
        a = triple(keyring, 0, 0, b"a")
        b = triple(keyring, 1, 0, b"b")
        c = triple(keyring, 2, 0, b"c")
        proposals = {0: (a, b), 1: (a,), 2: (b, c)}
        # f = 1: a and b appear twice, c once
        assert aggregate(proposals, 1) == (a, b)

    def test_canonical_order(self, keyring):
        a = triple(keyring, 2, 0, b"z")
        b = triple(keyring, 0, 0, b"y")
        proposals = {0: (a, b), 1: (b, a)}
        assert aggregate(proposals, 1) == (b, a)  # sorted by (origin, req)

    def test_duplicates_within_proposal_count_once(self, keyring):
        a = triple(keyring, 0, 0, b"a")
        proposals = {0: (a, a), 1: ()}
        assert aggregate(proposals, 1) == ()


class TestDigestsAndTags:
    def test_batch_digest_depends_on_content_and_order(self, keyring):
        a = triple(keyring, 0, 0, b"a")
        b = triple(keyring, 1, 0, b"b")
        assert batch_digest((a, b)) != batch_digest((b, a))
        assert batch_digest((a,)) != batch_digest((b,))
        assert batch_digest((a, b)) == batch_digest((a, b))

    def test_request_tag_binds_slot(self, keyring):
        t = triple(keyring, 1, 5, b"req")
        assert check_request_tag(keyring, 5, t)
        assert not check_request_tag(keyring, 6, t)

    def test_request_tag_binds_origin(self, keyring):
        origin, req, rtag = triple(keyring, 1, 5, b"req")
        assert not check_request_tag(keyring, 5, (2, req, rtag))


class TestReplicaUnit:
    def test_rejects_unauthenticated_message(self, keyring):
        rep = Replica(0, 4, 1, keyring)
        m = Message(kind=MsgKind.PREPARE, view=0, sq=0, sender=1,
                    payload=(b"x" * 32,), tag=b"\x00" * 32)
        rep.on_message(m)
        assert rep.dropped_count == 1

    def test_negative_slot_rejected(self, keyring):
        rep = Replica(0, 4, 1, keyring)
        with pytest.raises(ValueError):
            rep.broadcast_update(-1, b"req")

    def test_requires_n_3f_plus_1(self, keyring):
        with pytest.raises(ValueError):
            Replica(0, 5, 1, keyring)


class TestRequestTagsStillChecked:
    """A replica skips only the tag check of a triple equal to its origin's
    pending request in the slot, whose REQUEST it checked: a triple that
    differs, even under a genuine tag, is checked, and one bad tag drops the
    whole message."""

    def primed(self, keyring, rid):
        rep = Replica(rid, 4, 1, keyring)
        genuine = [triple(keyring, o, 0, b"req%d" % o) for o in range(4)]
        for o, req, rtag in genuine:
            rep.on_message(signed(keyring, MsgKind.REQUEST, 0, 0, o, (req, rtag)))
        forged = (2, b"evil", genuine[2][2])  # origin 2's tag on other bytes
        return rep, tuple(genuine), forged

    def test_pre_propose_with_a_forged_request_is_dropped(self, keyring):
        rep, genuine, forged = self.primed(keyring, 0)
        bad = genuine[:2] + (forged,)
        rep.on_message(signed(keyring, MsgKind.PRE_PROPOSE, 0, 0, 1, bad))
        assert rep.dropped_count == 1 and 1 not in rep.slots[0].proposals
        rep.on_message(signed(keyring, MsgKind.PRE_PROPOSE, 0, 0, 1, genuine))
        assert rep.dropped_count == 1 and rep.slots[0].proposals[1] == genuine

    def test_pre_prepare_with_a_forged_request_is_dropped(self, keyring):
        rep, genuine, forged = self.primed(keyring, 1)
        for last in (forged, genuine[2]):  # the forgery, then the control
            raw = ((0, genuine), (2, genuine), (3, genuine[:2] + (last,)))
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (raw,)))
        assert rep.dropped_count == 1
        assert rep.slots[0].at(0).accepted_digest == batch_digest(genuine)


def test_scripted_agreements_recheck_no_pending_request(monkeypatch):
    """Over every script at n = 7, gst 100, delta 2 and seeds 1,000,000 to
    1,000,039, where an inconsistent dealer sends two variants of its
    request, the replicas make at most 1,360 request-tag checks."""
    calls = []
    check = consensus.check_request_tag

    def counting_check(keyring, sq, triple):
        calls.append(triple[0])
        return check(keyring, sq, triple)

    monkeypatch.setattr(consensus, "check_request_tag", counting_check)
    for seed in range(1_000_000, 1_000_040):
        for script in CONSENSUS_SCRIPTS:
            assert run_consensus(7, script, seed, gst=100, delta=2)["safety_ok"]
    assert len(calls) <= 1_360


class TestEncodedOnce:
    """A message's body bytes are memoised on the object, and a copy with
    another payload is a new object: it is encoded afresh and its old tag
    fails."""

    def test_payload_swapped_after_tagging_is_dropped(self, keyring):
        m = signed(keyring, MsgKind.PREPARE, 0, 0, 1, (b"x" * 32,))
        m.body_bytes()
        forged = dataclasses.replace(m, payload=(b"y" * 32,))
        rep = Replica(0, 4, 1, keyring)
        rep.on_message(m)
        assert rep.dropped_count == 0
        rep.on_message(forged)
        assert rep.dropped_count == 1

    def test_certificate_with_swapped_prepare_fails(self, keyring):
        batch = (triple(keyring, 0, 0, b"a"),)
        digest = batch_digest(batch)
        prepares = [signed(keyring, MsgKind.PREPARE, 0, 0, s, (digest,)) for s in (1, 2, 3)]
        rep = Replica(0, 4, 1, keyring)
        good = (0, 0, batch, tuple(prepares))
        assert rep._check_cert(good)
        # replica 3 prepared another digest; its payload is swapped for this one
        other = signed(keyring, MsgKind.PREPARE, 0, 0, 3, (b"z" * 32,))
        other.body_bytes()
        prepares[2] = dataclasses.replace(other, payload=(digest,))
        bad = (0, 0, batch, tuple(prepares))
        assert not rep._check_cert(bad)
        rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 2, (1, (bad,))))
        assert rep.dropped_count == 1 and 1 not in rep.view_changes
        rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 2, (1, (good,))))
        assert rep.dropped_count == 1 and 2 in rep.view_changes[1]

    def test_equality_ignores_encoding(self, keyring):
        a = signed(keyring, MsgKind.COMMIT, 0, 3, 1, (b"d" * 32,))
        b = Message(a.kind, a.view, a.sq, a.sender, a.payload, a.tag)
        c = Message(a.kind, a.view, a.sq, a.sender, a.payload, a.tag)
        for _ in range(2):
            assert a == b == c
            assert hash(a) == hash(b) == hash(c)
            assert repr(a) == repr(b) == repr(c)
            b.body_bytes()  # second pass: a and b encoded, c not


class TestCheckedOncePerSend:
    """A send hands one Message to all its receivers, and each tag check on
    it runs once per key ring: a forgery is still dropped at every receiver,
    and a message checked under one ring is checked afresh under another."""

    @pytest.mark.parametrize("kind, payload, tag, dropped, checks", [
        (MsgKind.REQUEST, (b"r", b"t" * 32), b"x" * 32, 1, 1),
        (MsgKind.PREPARE, (b"d" * 32,), b"x" * 32, 1, 1),
        (MsgKind.REQUEST, (b"r", b"t" * 32), None, 1, 2),  # only the request tag is bad
        (MsgKind.PREPARE, (b"d" * 32,), None, 0, 1),       # control: genuine
    ], ids=["request-tag", "prepare-tag", "request-request-tag", "genuine"])
    def test_every_receiver_drops_a_forgery_after_one_check(
            self, keyring, monkeypatch, kind, payload, tag, dropped, checks):
        calls = []
        check = KeyRing.check
        monkeypatch.setattr(KeyRing, "check",
                            lambda ring, *args: calls.append(args) or check(ring, *args))
        m = signed(keyring, kind, 0, 0, 1, payload)
        if tag is not None:
            m = dataclasses.replace(m, tag=tag)
        reps = [Replica(rid, 4, 1, keyring) for rid in range(4)]
        for rep in reps:
            rep.on_message(m)
        assert [rep.dropped_count for rep in reps] == [dropped] * 4
        assert len(calls) == checks

    @pytest.mark.parametrize("first", [0, 1])
    def test_checked_again_under_another_key_ring(self, keyring, first):
        rings = (keyring, KeyRing(range(4), random.Random(1)))
        m = signed(rings[0], MsgKind.PREPARE, 0, 0, 1, (b"d" * 32,))
        reps = [Replica(0, 4, 1, ring) for ring in rings]
        for rep in (reps[first], reps[1 - first]):
            rep.on_message(m)
        assert [rep.dropped_count for rep in reps] == [0, 1]


class TestRejectionRules:
    """Each check a receiver applies to what it cannot derive: every test
    sends one message that breaks exactly one rule, next to a control that
    keeps it."""

    def proposals(self, keyring, proposers):
        batch = tuple(triple(keyring, o, 0, b"req%d" % o) for o in range(4))
        return tuple((p, batch) for p in proposers), batch

    def test_pre_prepare_needs_more_than_2f_proposals(self, keyring):
        for proposers, accepted in (((0, 2), False), ((0, 2, 3), True)):
            rep = Replica(1, 4, 1, keyring)
            raw, batch = self.proposals(keyring, proposers)
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (raw,)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert rep._slot(0).at(0).accepted_digest == (
                batch_digest(batch) if accepted else None)

    def test_pre_prepare_only_from_the_primary(self, keyring):
        for sender, accepted in ((2, False), (0, True)):
            rep = Replica(1, 4, 1, keyring)
            raw, batch = self.proposals(keyring, (0, 2, 3))
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, sender, (raw,)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert rep._slot(0).at(0).accepted_digest == (
                batch_digest(batch) if accepted else None)

    def test_primary_pre_prepares_only_on_more_than_2f_proposals(self, keyring):
        _, batch = self.proposals(keyring, ())
        for proposers, emits in (((1, 2), False), ((1, 2, 3), True)):
            rep = Replica(0, 4, 1, keyring)
            for proposer in proposers:
                rep.on_message(signed(keyring, MsgKind.PRE_PROPOSE, 0, 0, proposer, batch))
            sends, timers = rep.drain()
            assert (("set", ("prop", 0), 2) in timers) == emits
            rep.on_timer(("prop", 0))  # the timer fires, or would have
            sends += rep.drain()[0]
            assert any(m.kind == MsgKind.PRE_PREPARE for _, m in sends) == emits

    def test_pre_propose_only_to_the_primary(self, keyring):
        # an honest replica pre-proposes only to its view's primary, so only
        # a Byzantine sender reaches a backup; nothing of it is kept there
        _, batch = self.proposals(keyring, ())
        for rid, accepted in ((1, False), (0, True)):
            rep = Replica(rid, 4, 1, keyring)
            rep.on_message(signed(keyring, MsgKind.PRE_PROPOSE, 0, 0, 2, batch))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (0 in rep.slots) == accepted

    def test_one_request_per_origin_executes(self, keyring):
        executed = []

        class Executor(Replica):
            def receiving_update(self, sq, origin, req):
                executed.append((origin, req))

        batch = tuple(triple(keyring, o, 0, req)
                      for o, req in ((0, b"a"), (1, b"b"), (1, b"c"), (2, b"d")))
        rep = Executor(1, 4, 1, keyring)
        raw = tuple((p, batch) for p in (0, 2, 3))
        rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (raw,)))
        for sender in (0, 2, 3):
            rep.on_message(signed(keyring, MsgKind.COMMIT, 0, 0, sender,
                                  (batch_digest(batch),)))
        assert rep.next_exec == 1
        assert executed == [(0, b"a"), (1, b"b"), (2, b"d")]

    def test_certificate_counts_distinct_senders(self, keyring):
        batch = (triple(keyring, 0, 0, b"a"),)
        prepares = [signed(keyring, MsgKind.PREPARE, 0, 0, s, (batch_digest(batch),))
                    for s in (1, 2, 3)]
        rep = Replica(0, 4, 1, keyring)
        assert rep._check_cert((0, 0, batch, tuple(prepares)))
        assert not rep._check_cert((0, 0, batch, (prepares[0], prepares[1], prepares[1])))

    def test_certificate_prepares_name_the_batch_digest(self, keyring):
        batch = (triple(keyring, 0, 0, b"a"),)
        other = (triple(keyring, 0, 0, b"b"),)
        prepares = tuple(signed(keyring, MsgKind.PREPARE, 0, 0, s, (batch_digest(batch),))
                         for s in (1, 2, 3))
        rep = Replica(0, 4, 1, keyring)
        assert rep._check_cert((0, 0, batch, prepares))
        assert not rep._check_cert((0, 0, other, prepares))

    def test_certificate_prepares_name_its_view(self, keyring):
        batch = (triple(keyring, 0, 0, b"a"),)
        prepares = tuple(signed(keyring, MsgKind.PREPARE, 0, 0, s, (batch_digest(batch),))
                         for s in (1, 2, 3))
        for view, accepted in ((1, False), (0, True)):
            rep = Replica(0, 4, 1, keyring)
            rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 1,
                                  (2, ((0, view, batch, prepares),))))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (1 in rep.view_changes[2]) == accepted

    def test_pre_prepare_accepted_once_per_view_and_slot(self, keyring):
        raw, batch = self.proposals(keyring, (0, 2, 3))
        second = tuple((p, batch[:3]) for p in (0, 2, 3))
        rep = Replica(1, 4, 1, keyring)
        for proposals in (raw, second):
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (proposals,)))
        assert rep._slot(0).at(0).accepted_digest == batch_digest(batch)
        sends = [m for _, m in rep.drain()[0]]
        assert {m.payload for m in sends if m.kind == MsgKind.PREPARE} == {
            (batch_digest(batch),)}

    def test_new_view_installs_the_highest_certificate(self, keyring):
        batches = {view: (triple(keyring, 0, 0, b"v%d" % view),) for view in (0, 1)}
        certs = {view: (0, view, batch, tuple(
            signed(keyring, MsgKind.PREPARE, view, 0, s, (batch_digest(batch),))
            for s in (0, 1, 3))) for view, batch in batches.items()}
        for order in ((0, 1), (1, 0)):
            vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (2, (certs[v],)))
                        for s, v in zip((0, 1), order))
            vcs += (signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 3, (2, ())),)
            rep = Replica(3, 4, 1, keyring)
            rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 2, 0, 2, (vcs,)))
            assert rep.view == 2
            assert rep._slot(0).at(2).accepted_digest == batch_digest(batches[1])

    def test_new_view_leaves_executed_slots_alone(self, keyring):
        # slot 0 executes in view 0; a NEW_VIEW into view 2 then certifies
        # both it and the undecided slot 1, and only slot 1 is prepared again
        raw, batch = self.proposals(keyring, (0, 2, 3))
        rep = Replica(3, 4, 1, keyring)
        rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (raw,)))
        for sender in (0, 1, 2):
            rep.on_message(signed(keyring, MsgKind.COMMIT, 0, 0, sender,
                                  (batch_digest(batch),)))
        assert rep.next_exec == 1 and not rep.slots
        rep.drain()
        later = (triple(keyring, 0, 1, b"later"),)
        certs = tuple((sq, 0, b, tuple(
            signed(keyring, MsgKind.PREPARE, 0, sq, s, (batch_digest(b),))
            for s in (0, 1, 2))) for sq, b in ((0, batch), (1, later)))
        vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s,
                           (2, certs if s == 0 else ())) for s in (0, 1, 2))
        rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 2, 0, 2, (vcs,)))
        assert rep.view == 2
        prepares = [m for _, m in rep.drain()[0] if m.kind == MsgKind.PREPARE]
        assert {(m.sq, m.payload) for m in prepares} == {(1, (batch_digest(later),))}
        assert all(sq >= rep.next_exec for sq in rep.slots)

    def test_stale_view_pre_prepare_is_dropped(self, keyring):
        raw, _ = self.proposals(keyring, (0, 2, 3))
        for view, sender, accepted in ((0, 0, False), (1, 1, True)):
            rep = self.new_view(keyring, (0, 1, 3))
            assert rep.view == 1
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, view, 0, sender, (raw,)))
            assert rep.dropped_count == (0 if accepted else 1)
            sends = [m for _, m in rep.drain()[0] if m.kind == MsgKind.PREPARE]
            assert bool(sends) == accepted

    def test_later_view_pre_prepare_is_dropped(self, keyring):
        # a replica in view 0 drops view 1's PRE_PREPARE and keeps nothing of
        # it to take in once it enters view 1; the control arrives after
        raw, batch = self.proposals(keyring, (0, 2, 3))
        pre_prepare = signed(keyring, MsgKind.PRE_PREPARE, 1, 0, 1, (raw,))
        vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (1, ())) for s in (0, 1, 3))
        new_view = signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, (vcs,))
        for order, accepted in (((pre_prepare, new_view), False),
                                ((new_view, pre_prepare), True)):
            rep = Replica(2, 4, 1, keyring)
            for m in order:
                rep.on_message(m)
            assert rep.view == 1
            assert rep.dropped_count == (0 if accepted else 1)
            assert rep._slot(0).at(1).accepted_digest == (
                batch_digest(batch) if accepted else None)
            sends = [m for _, m in rep.drain()[0] if m.kind == MsgKind.PREPARE]
            assert bool(sends) == accepted

    def test_primary_keeps_a_certificate_backed_digest(self, keyring):
        # replica 1 becomes view 1's primary; when a VIEW_CHANGE certifies a
        # batch for slot 0 it holds that digest, and pre-prepares nothing new
        # for the slot on n proposals
        _, batch = self.proposals(keyring, ())
        cert = (0, 0, batch, tuple(
            signed(keyring, MsgKind.PREPARE, 0, 0, s, (batch_digest(batch),))
            for s in (0, 2, 3)))
        for certs, emits in (((cert,), False), ((), True)):
            rep = Replica(1, 4, 1, keyring)
            for sender in (0, 2, 3):
                rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, sender,
                                      (1, certs if sender == 0 else ())))
            assert rep.view == 1
            rep.drain()
            for proposer in range(4):
                rep.on_message(signed(keyring, MsgKind.PRE_PROPOSE, 1, 0, proposer, batch))
            sends = [m for _, m in rep.drain()[0]]
            assert any(m.kind == MsgKind.PRE_PREPARE for m in sends) == emits

    def new_view(self, keyring, senders, targets=(1, 1, 1)):
        vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (t, ()))
                    for s, t in zip(senders, targets))
        rep = Replica(2, 4, 1, keyring)
        rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, (vcs,)))
        return rep

    def test_new_view_counts_distinct_senders(self, keyring):
        assert self.new_view(keyring, (0, 1, 3)).view == 1
        rep = self.new_view(keyring, (0, 1, 1))
        assert rep.view == 0 and rep.vc_voted == 2  # pushes for the next view

    def test_new_view_takes_view_changes_into_its_own_view_only(self, keyring):
        rep = self.new_view(keyring, (0, 1, 3), targets=(1, 1, 2))
        assert rep.view == 0 and rep.vc_voted == 2

    def test_new_view_only_from_the_new_primary(self, keyring):
        vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (1, ())) for s in (0, 1, 3))
        for sender, view in ((3, 0), (1, 1)):  # replica 1 is view 1's primary
            rep = Replica(2, 4, 1, keyring)
            rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 1, 0, sender, (vcs,)))
            assert (rep.view, rep.vc_voted) == (view, view)

    def test_stale_commits_are_not_amplified(self, keyring):
        # f + 1 COMMITs of an old view still count towards its quorum, but
        # have no prepared certificate behind them to join; in the current
        # view f + 1 make one COMMIT broadcast, and one COMMIT, which a
        # single faulty replica can send, makes none
        for view, senders, broadcasts in ((0, (0, 1), 0), (1, (0,), 0), (1, (0, 1), 1)):
            rep = self.new_view(keyring, (0, 1, 3))
            assert rep.view == 1
            rep.drain()
            for sender in senders:
                rep.on_message(signed(keyring, MsgKind.COMMIT, view, 0, sender,
                                      (b"d" * 32,)))
            sends = {m for _, m in rep.drain()[0] if m.kind == MsgKind.COMMIT}
            assert len(sends) == broadcasts, (view, senders)
            assert len(rep._slot(0).at(view).commits[b"d" * 32]) == len(senders)

    def test_one_view_change_vote_per_target(self, keyring):
        rep = Replica(0, 4, 1, keyring)
        rep.broadcast_update(0, b"req")  # a waiting request arms the timer
        rep.drain()
        rep.on_timer(("progress", None))
        first = {m for _, m in rep.drain()[0] if m.kind == MsgKind.VIEW_CHANGE}
        # a later request re-arms the timer, which fires before the view changes
        rep.on_message(signed(keyring, MsgKind.REQUEST, 0, 0, 1,
                              (b"r", request_tag(keyring, 1, 0, b"r"))))
        sends, timers = rep.drain()
        assert ("set", ("progress", None), 12) in timers
        rep.on_timer(("progress", None))
        sends += rep.drain()[0]
        assert [m.payload[0] for m in first] == [1]
        assert not any(m.kind == MsgKind.VIEW_CHANGE for _, m in sends)

    # A certificate PREPARE or NEW_VIEW entry that is not a Message has no
    # encoding; each message below carries one under its sender's tag over
    # the reference encoding, next to a control of authentic Messages.

    def test_certificate_of_non_messages_is_dropped(self, keyring):
        digest = batch_digest(())
        prepares = tuple(signed(keyring, MsgKind.PREPARE, 0, 0, s, (digest,))
                         for s in (0, 2, 3))
        for entries, accepted in (((1, 2, 3), False), (prepares, True)):
            rep = Replica(0, 4, 1, keyring)
            rep.on_message(lax_signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 1,
                                      (1, ((0, 0, (), entries),))))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (1 in rep.view_changes) == accepted

    def test_new_view_of_non_messages_is_dropped(self, keyring):
        vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (1, ()))
                    for s in (0, 1, 3))
        for entries, accepted in (((0, 1, 3), False), (vcs, True)):
            rep = Replica(2, 4, 1, keyring)
            rep.on_message(lax_signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, (entries,)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (rep.view, rep.vc_voted) == ((1, 1) if accepted else (0, 0))

    def test_new_view_of_the_wrong_kind_pushes_for_the_next_view(self, keyring):
        # authentic Messages, but PREPAREs where the VIEW_CHANGEs belong
        for kind, payload, accepted in ((MsgKind.PREPARE, (b"d" * 32,), False),
                                        (MsgKind.VIEW_CHANGE, (1, ()), True)):
            entries = tuple(signed(keyring, kind, 0, 0, s, payload) for s in (0, 1, 3))
            rep = Replica(2, 4, 1, keyring)
            rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, (entries,)))
            assert rep.dropped_count == 0
            assert (rep.view, rep.vc_voted) == ((1, 1) if accepted else (0, 2))

    @pytest.mark.parametrize("kind, view, sq, sender, payload", [
        (MsgKind.VIEW_CHANGE, 0, 0, 1, (1, (5,))),
        (MsgKind.PREPARE, -1, 0, 1, (b"d" * 32,)),
        (MsgKind.PREPARE, 0, 0, 1, (7,)),
        (MsgKind.REQUEST, 0, 0, 1, (b"r",)),
        (MsgKind.PRE_PREPARE, 0, 0, 1, ((1,),)),
        (MsgKind.NEW_VIEW, 0, 0, 1, (("a",),)),
        (MsgKind.PREPARE, 0, -1, 1, (b"d" * 32,)),
        (MsgKind.PREPARE, 2**64, 0, 1, (b"d" * 32,)),
        (MsgKind.PREPARE, 0, 2**64, 1, (b"d" * 32,)),
        (MsgKind.PREPARE, 0, 0, 2**32, (b"d" * 32,)),
    ], ids=["view-change-int-certificate", "prepare-negative-view",
            "prepare-int-digest", "request-without-tag", "pre-prepare-int-proposal",
            "new-view-str-entry", "prepare-negative-sq", "prepare-view-2^64",
            "prepare-sq-2^64", "prepare-sender-2^32"])
    def test_unencodable_body_is_dropped(self, keyring, kind, view, sq, sender, payload):
        # the body cannot be encoded, so no key could have tagged it
        rep = Replica(0, 4, 1, keyring)
        rep.on_message(Message(kind, view, sq, sender, payload, b"x" * 32))
        assert rep.dropped_count == 1

    # A request triple that is not a tuple (int, bytes, bytes) cannot be
    # hashed or executed; each message below carries one under its sender's
    # tag over the reference encoding, next to a control of tuples of bytes.

    def test_pre_propose_of_a_list_triple_is_dropped(self, keyring):
        t = triple(keyring, 1, 0, b"r")
        for entry, accepted in ((list(t), False), (t, True)):
            rep = Replica(0, 4, 1, keyring)  # the primary
            rep.on_message(lax_signed(keyring, MsgKind.PRE_PROPOSE, 0, 0, 1, (entry,)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (1 in rep._slot(0).proposals) == accepted

    def test_pre_prepare_of_list_triples_is_dropped(self, keyring):
        raw, batch = self.proposals(keyring, (0, 2, 3))
        lists = tuple((p, tuple(list(t) for t in prop)) for p, prop in raw)
        for proposals, accepted in ((lists, False), (raw, True)):
            rep = Replica(1, 4, 1, keyring)
            rep.on_message(lax_signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (proposals,)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert rep._slot(0).at(0).accepted_digest == (
                batch_digest(batch) if accepted else None)

    def test_request_of_a_bytearray_is_dropped(self, keyring):
        rtag = request_tag(keyring, 1, 0, b"r")
        for req, accepted in ((bytearray(b"r"), False), (b"r", True)):
            rep = Replica(0, 4, 1, keyring)
            rep.on_message(lax_signed(keyring, MsgKind.REQUEST, 0, 0, 1, (req, rtag)))
            assert rep.dropped_count == (0 if accepted else 1)
            assert (1 in rep._slot(0).pending) == accepted

    @pytest.mark.parametrize("kind", [MsgKind.PREPARE, MsgKind.COMMIT])
    def test_vote_of_a_bytearray_digest_is_dropped(self, keyring, kind):
        # a bytearray digest encodes as the bytes digest does, so it carries
        # the sender's genuine tag, but a replica could not hash it
        m = signed(keyring, kind, 0, 0, 1, (b"d" * 32,))
        rep = Replica(0, 4, 1, keyring)
        rep.on_message(dataclasses.replace(m, payload=(bytearray(b"d" * 32),)))
        assert rep.dropped_count == 1


class TestPreparedOnAcceptedBatch:
    """A replica is prepared only on the batch it accepted: a PREPARE quorum
    that arrives before the PRE_PREPARE waits for it."""

    def test_early_prepare_quorum_waits_for_its_batch(self, keyring):
        batch = tuple(triple(keyring, o, 0, b"req%d" % o) for o in range(4))
        digest = batch_digest(batch)
        rep = Replica(1, 4, 1, keyring)
        rep.broadcast_update(0, b"req1")
        for sender in (0, 2, 3):
            rep.on_message(signed(keyring, MsgKind.PREPARE, 0, 0, sender, (digest,)))
        rep.on_timer(("progress", None))
        sends = [m for _, m in rep.drain()[0]]
        assert not any(m.kind == MsgKind.COMMIT for m in sends)
        (vc,) = {m for m in sends if m.kind == MsgKind.VIEW_CHANGE}
        assert vc.payload == (1, ())
        # control: once the batch arrives, the waiting quorum prepares it
        raw = tuple((p, batch) for p in (0, 2, 3))
        rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, 0, 0, (raw,)))
        rep.on_timer(("vc", 1))
        sends = [m for _, m in rep.drain()[0]]
        assert {m.payload for m in sends if m.kind == MsgKind.COMMIT} == {(digest,)}
        (vc,) = {m for m in sends if m.kind == MsgKind.VIEW_CHANGE}
        ((sq, view, certified, prepares),) = vc.payload[1]
        assert (sq, view, certified) == (0, 0, batch)
        assert [m.sender for m in prepares] == [0, 2, 3]


class TestAgreementRuns:
    def test_fault_free_commit(self):
        out = run_consensus(n=4, script="none", seed=0)
        assert out["safety_ok"] and out["all_committed"]
        assert out["max_view"] == 0

    @pytest.mark.parametrize("script", CONSENSUS_SCRIPTS)
    @pytest.mark.parametrize("n", [4, 7])
    def test_all_scripts_safe_and_live(self, n, script):
        out = run_consensus(n=n, script=script, seed=1, gst=50, delta=2)
        assert out["safety_ok"], f"{script}: conflicting commits"
        assert out["all_committed"], f"{script}: honest replica never committed"

    def test_silent_primary_forces_view_change(self):
        out = run_consensus(n=4, script="silent-primary", seed=0, gst=100, delta=2)
        assert out["max_view"] >= 1
        assert out["all_committed"]

    def test_equivocating_primary_cannot_split_honest_replicas(self):
        for seed in range(5):
            out = run_consensus(n=4, script="equivocating-primary", seed=seed)
            digests = {c["digest"] for c in out["commits"].values()}
            assert len(digests) == 1

    def test_deterministic_outcomes(self):
        a = run_consensus(n=4, script="inconsistent-dealer", seed=3)
        b = run_consensus(n=4, script="inconsistent-dealer", seed=3)
        assert a == b

    def test_unknown_script_rejected(self):
        with pytest.raises(ValueError):
            run_consensus(n=4, script="bogus", seed=0)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            run_consensus(n=5, script="none", seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_consensus(4, "none", -1)


class TestFaultsFire:
    """Each Byzantine script really injects its fault into the run."""

    @pytest.mark.parametrize("script, method, kind", [
        ("equivocating-primary", "_fork", MsgKind.PRE_PREPARE),
        ("inconsistent-dealer", "_mutate", MsgKind.REQUEST),
    ])
    @pytest.mark.parametrize("n", [4, 7])
    def test_fault_is_injected(self, monkeypatch, n, script, method, kind):
        behaviour = scenarios._BEHAVIOURS[script][1]
        original = getattr(behaviour, method)
        rewritten = []

        def counting(self, m, dst):
            out = original(self, m, dst)
            if out is not m:
                rewritten.append(out.kind)
            return out

        monkeypatch.setattr(behaviour, method, counting)
        out = run_consensus(n, script, seed=0)
        assert out["safety_ok"] and out["all_committed"]
        assert rewritten and set(rewritten) == {kind}


class TestPreGstRequests:
    """Requests submitted at 0, long before GST (100): replicas that enter
    a new view must still commit on the previous view's COMMIT quorum."""

    @pytest.fixture(autouse=True)
    def event_budget(self, monkeypatch):
        monkeypatch.setattr(scenarios, "SimConfig",
                            functools.partial(SimConfig, max_events=60_000))

    def test_stale_commits_complete_the_quorum(self):
        out = run_consensus(7, "none", 1000000, gst=100, delta=2, request_time=0)
        assert out["safety_ok"] and out["all_committed"]
        assert out["commit_span"] <= 10 * 2 * (out["f"] + 1)

    @pytest.mark.parametrize("n", [4, 7])
    def test_sweep_safe_and_live(self, n):
        for script in CONSENSUS_SCRIPTS:
            for seed in range(1000000, 1000040):
                out = run_consensus(n, script, seed, gst=100, delta=2,
                                    request_time=0)
                assert out["safety_ok"], (script, seed)
                assert out["all_committed"], (script, seed)


def run_two_slots(seed=0):
    """Four plain replicas each submit into slots 0 and 1; run to quiescence."""
    keyring = KeyRing(range(4), random.Random(seed))
    nodes = {i: Replica(i, 4, 1, keyring) for i in range(4)}
    sim = Simulator(SimConfig(n=4, f=1, seed=seed), nodes, AdversaryPolicy())
    for node in nodes.values():
        for sq in (0, 1):
            node.broadcast_update(sq, b"req-%d-%d" % (sq, node.rid))
    sim.run()
    return nodes


class TestExecutionWatermark:
    """A slot's state lives until the slot executes; a decided slot, below
    next_exec or committed here, takes no more input."""

    def test_executed_slots_leave_the_replica(self):
        for node in run_two_slots().values():
            assert node.next_exec == 2
            assert node.slots == {}
            assert not hasattr(node, "pending")
            assert not hasattr(node, "initial_proposals")
            assert not hasattr(node, "own_requests")

    def test_late_prepares_for_an_executed_slot_are_ignored(self, keyring):
        # slot 0 executes as it commits; slot 1 commits while slot 0 is empty,
        # so it stays decided but not executed
        for sq, next_exec in ((0, 1), (1, 0)):
            rep = Replica(3, 4, 1, keyring)
            batch = (triple(keyring, 0, sq, b"req"),)
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 0, sq, 0,
                                  (tuple((p, batch) for p in (0, 1, 2)),)))
            for sender in (0, 1, 2):
                rep.on_message(signed(keyring, MsgKind.COMMIT, 0, sq, sender,
                                      (batch_digest(batch),)))
            assert rep.next_exec == next_exec
            vcs = tuple(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, s, (1, ())) for s in (0, 1, 2))
            rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, (vcs,)))
            assert rep.view == 1
            rep.drain()
            slots, dropped = repr(rep.slots), rep.dropped_count
            # a full quorum of validly tagged PREPAREs, view 1's PRE_PREPARE
            # of another batch for the slot, and its batching timers, late
            for sender in range(3):
                rep.on_message(signed(keyring, MsgKind.PREPARE, 1, sq, sender, (b"\x11" * 32,)))
            other = (triple(keyring, 1, sq, b"other"),)
            rep.on_message(signed(keyring, MsgKind.PRE_PREPARE, 1, sq, 1,
                                  (tuple((p, other) for p in (0, 1, 2)),)))
            rep.on_timer(("batch", sq))
            rep.on_timer(("prop", sq))
            assert repr(rep.slots) == slots
            assert rep.drain() == ([], [])
            assert rep.dropped_count == dropped  # a decided slot's late input is no fault

    def test_submitting_below_the_watermark_rejected(self):
        node = run_two_slots()[0]
        with pytest.raises(ValueError):
            node.broadcast_update(1, b"late")


class TestIdleReplica:
    def test_lone_view_change_dies_out(self):
        """A replica with nothing waiting to execute stops voting once its
        vote gathers no support."""
        keyring = KeyRing(range(4), random.Random(0))
        nodes = {i: Replica(i, 4, 1, keyring) for i in range(4)}
        sim = Simulator(SimConfig(n=4, f=1, max_events=10_000), nodes, AdversaryPolicy())
        for node in nodes.values():
            node.broadcast_update(0, b"req-%d" % node.rid)
        sim.run()
        assert all(node.next_exec == 1 for node in nodes.values())
        nodes[3]._start_view_change(1)
        sim.run()  # drains, where escalation would raise LivelockError
        assert nodes[3].vc_voted == 1
        assert all(node.view == 0 for node in nodes.values())


class TestBackoffCap:
    """A timeout doubles per view change only up to 2^10 times the first, so
    peers that keep views changing cannot stretch a timer without bound."""

    delta = 2
    bound = 6 * delta * 2**10

    def test_progress_timer(self, keyring):
        rep = Replica(0, 4, 1, keyring, delta=self.delta)
        rep.vc_round = 10**6
        rep.broadcast_update(0, b"req")  # a waiting request arms the timer
        _, timers = rep.drain()
        assert timers == [("set", ("progress", None), self.bound)]

    def test_joined_view_change_timer(self, keyring):
        rep = Replica(0, 4, 1, keyring, delta=self.delta)
        target = rep.view + 10**6
        for sender in (1, 2):  # f + 1 votes: the replica joins
            rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, sender,
                                  (target, ())))
        _, timers = rep.drain()
        assert rep.vc_voted == target
        assert timers == [("set", ("vc", target), self.bound)]


class DropsViewZeroCommits(Replica):
    """Ignores every view-0 COMMIT, so each replica prepares in view 0 and
    none commits there; the prepared digest must survive the view change."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prepared_in_view_0: set[bytes] = set()
        self.new_views: list[Message] = []
        self.views_entered: list[int] = []

    def on_message(self, m):
        if m.kind == MsgKind.COMMIT and m.view == 0:
            (digest,) = m.payload
            self.prepared_in_view_0.add(digest)
            return
        if m.kind == MsgKind.NEW_VIEW:
            self.new_views.append(m)
        super().on_message(m)

    def _enter_view(self, target):
        self.views_entered.append(target)
        super()._enter_view(target)


class StripsCertificates(DropsViewZeroCommits):
    """A view-1 primary that cuts the prepared certificates out of the
    VIEW_CHANGEs in its NEW_VIEW and re-signs the NEW_VIEW; it cannot
    re-sign the VIEW_CHANGEs."""

    def drain(self):
        sends, timers = super().drain()
        out = []
        for dst, m in sends:
            if m.kind == MsgKind.NEW_VIEW and m.view == 1:
                (vcs,) = m.payload
                cut = tuple(dataclasses.replace(vc, payload=(vc.payload[0], ()))
                            for vc in vcs)
                m = signed(self.keyring, m.kind, m.view, m.sq, m.sender, (cut,))
            out.append((dst, m))
        return out, timers


def run_carryover(view_1_primary=DropsViewZeroCommits, seed=0):
    keyring = KeyRing(range(4), random.Random(seed))
    nodes = {i: (view_1_primary if i == 1 else DropsViewZeroCommits)(
        i, 4, 1, keyring, delta=1) for i in range(4)}
    sim = Simulator(SimConfig(n=4, f=1, seed=seed), nodes, AdversaryPolicy())
    commits = {}
    for node in nodes.values():
        node.commit_listener = (
            lambda rid, sq, view, digest: commits.setdefault(rid, (view, digest)))
    for node in nodes.values():
        node.broadcast_update(0, b"req-%d" % node.rid)
    sim.run(until=lambda: len(commits) == 4)
    return nodes, commits


class TestCertificateCarryover:
    def test_prepared_digest_commits_in_next_view(self):
        nodes, commits = run_carryover()
        prepared = set().union(*(n.prepared_in_view_0 for n in nodes.values()))
        assert len(prepared) == 1
        digest = prepared.pop()
        assert set(commits.values()) == {(1, digest)}
        assert all(n.views_entered == [1] for n in nodes.values())
        # the NEW_VIEW's VIEW_CHANGEs carry the one prepared certificate
        for node in nodes.values():
            if node.rid != 1:
                (nv,) = node.new_views
                (vcs,) = nv.payload
                certs = [c for vc in vcs for c in vc.payload[1]]
                assert certs and {batch_digest(c[2]) for c in certs} == {digest}

    def test_new_view_with_cut_certificates_is_rejected(self):
        nodes, commits = run_carryover(view_1_primary=StripsCertificates)
        prepared = set().union(*(n.prepared_in_view_0 for n in nodes.values()))
        assert len(prepared) == 1
        digest = prepared.pop()
        for rid in (0, 2, 3):
            assert nodes[rid].views_entered == [2]  # view 1 never entered
            assert commits[rid] == (2, digest)


class TestCommittedSlotStaysDecided:
    """Replicas 0 and 1 commit slot 1 in view 0 while slot 0 is empty, so
    neither executes it; replica 2 sees nothing of view 0, and replica 3 is
    Byzantine.  Every message is delivered by hand.  Replica 3, primary of
    view 3, then pre-prepares slot 1 again without replica 0's request."""

    honest = (0, 1, 2)

    def deliver(self, msgs, to=honest):
        for m in msgs:
            for rid in to:
                self.reps[rid].on_message(m)

    def sent(self, kind, rids=honest):
        """Each message of kind that replicas rids sent, once; the rest of
        their outboxes is dropped, since every delivery here is by hand."""
        out = []
        for rid in rids:
            out += dict.fromkeys(m for _, m in self.reps[rid].drain()[0] if m.kind == kind)
        return out

    def run(self, keyring):
        self.reps = {rid: Replica(rid, 4, 1, keyring) for rid in self.honest}
        self.commits = []
        for rep in self.reps.values():
            rep.commit_listener = (
                lambda rid, sq, view, digest: self.commits.append((rid, sq, digest)))
        byzantine = functools.partial(signed, keyring)
        for rep in self.reps.values():
            rep.broadcast_update(1, b"req%d" % rep.rid)
        self.deliver(self.sent(MsgKind.REQUEST) + [byzantine(
            MsgKind.REQUEST, 0, 1, 3, (b"req3", request_tag(keyring, 3, 1, b"req3")))])
        everything = tuple(triple(keyring, o, 1, b"req%d" % o) for o in range(4))
        self.deliver(self.sent(MsgKind.PRE_PROPOSE)
                     + [byzantine(MsgKind.PRE_PROPOSE, 0, 1, 3, everything)], to=(0,))
        self.deliver(self.sent(MsgKind.PRE_PREPARE, (0,)), to=(0, 1))
        self.digest = batch_digest(everything)
        self.deliver(self.sent(MsgKind.PREPARE)
                     + [byzantine(MsgKind.PREPARE, 0, 1, 3, (self.digest,))], to=(0, 1))
        self.view_0_commits = (self.sent(MsgKind.COMMIT)
                               + [byzantine(MsgKind.COMMIT, 0, 1, 3, (self.digest,))])
        self.deliver(self.view_0_commits, to=(0, 1))
        assert self.commits == [(0, 1, self.digest), (1, 1, self.digest)]
        assert all(rep.next_exec == 0 for rep in self.reps.values())
        # every honest replica votes for view 3, whose primary is replica 3
        for rep in self.reps.values():
            rep._start_view_change(3)
        vcs = tuple(self.sent(MsgKind.VIEW_CHANGE))
        self.deliver([byzantine(MsgKind.NEW_VIEW, 3, 0, 3, (vcs,))])
        assert all(rep.view == 3 for rep in self.reps.values())
        others = everything[1:]
        self.deliver([byzantine(MsgKind.PRE_PREPARE, 3, 1, 3,
                                (tuple((p, others) for p in (1, 2, 3)),))])
        self.view_3_prepares = self.sent(MsgKind.PREPARE)
        self.deliver(self.view_3_prepares
                     + [byzantine(MsgKind.PREPARE, 3, 1, 3, (batch_digest(others),))])
        self.deliver(self.sent(MsgKind.COMMIT)
                     + [byzantine(MsgKind.COMMIT, 3, 1, 3, (batch_digest(others),))])

    def test_a_later_view_cannot_decide_it_again(self, keyring):
        self.run(keyring)
        assert {digest for _, _, digest in self.commits} == {self.digest}
        assert [m.sender for m in self.view_3_prepares] == [2]

    def test_view_zero_commits_decide_the_third_replica(self, keyring):
        self.run(keyring)
        self.deliver(self.view_0_commits, to=(2,))
        assert self.commits[2:] == [(2, 1, self.digest)]
