import dataclasses
import functools
import random

import pytest

from bftvss import scenarios
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
    """A replica skips only the tag check of a triple it already verified in
    the slot: a triple that differs, even under a genuine tag, is checked,
    and one bad tag drops the whole message."""

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

    def test_certificate_counts_distinct_senders(self, keyring):
        batch = (triple(keyring, 0, 0, b"a"),)
        prepares = [signed(keyring, MsgKind.PREPARE, 0, 0, s, (batch_digest(batch),))
                    for s in (1, 2, 3)]
        rep = Replica(0, 4, 1, keyring)
        assert rep._check_cert((0, 0, batch, tuple(prepares)))
        assert not rep._check_cert((0, 0, batch, (prepares[0], prepares[1], prepares[1])))

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

    def test_certificate_of_non_messages_is_dropped(self, keyring):
        rep = Replica(0, 4, 1, keyring)
        rep.on_message(signed(keyring, MsgKind.VIEW_CHANGE, 0, 0, 1,
                              (1, ((0, 0, (), (1, 2, 3)),))))
        assert rep.dropped_count == 1 and 1 not in rep.view_changes

    def test_new_view_of_non_messages_pushes_for_the_next_view(self, keyring):
        rep = Replica(2, 4, 1, keyring)
        rep.on_message(signed(keyring, MsgKind.NEW_VIEW, 1, 0, 1, ((0, 1, 3),)))
        assert rep.view == 0 and rep.vc_voted == 2


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
            for seed in range(1000000, 1000010):
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
    """A slot's state lives until the slot executes; below next_exec nothing
    happens."""

    def test_executed_slots_leave_the_replica(self):
        for node in run_two_slots().values():
            assert node.next_exec == 2
            assert node.slots == {}
            assert not hasattr(node, "pending")
            assert not hasattr(node, "initial_proposals")
            assert not hasattr(node, "own_requests")

    def test_late_prepares_for_an_executed_slot_are_ignored(self):
        node = run_two_slots()[0]
        node.drain()
        dropped = node.dropped_count
        # a full quorum of validly tagged PREPAREs for executed slot 0
        for sender in range(3):
            node.on_message(signed(node.keyring, MsgKind.PREPARE, node.view, 0,
                                   sender, (b"\x11" * 32,)))
        assert node.slots == {}
        assert node.drain() == ([], [])
        assert node.dropped_count == dropped  # below the watermark is no fault

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

    def on_message(self, m, now=0):
        if m.kind == MsgKind.COMMIT and m.view == 0:
            (digest,) = m.payload
            self.prepared_in_view_0.add(digest)
            return
        if m.kind == MsgKind.NEW_VIEW:
            self.new_views.append(m)
        super().on_message(m, now)

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
