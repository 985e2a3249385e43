import collections
import dataclasses
import functools
import math
import random
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import consensus, crypto, dpml, vss, wire
from bftvss.consensus import MsgKind
from bftvss.dpml import (
    MODES,
    TrainingConfig,
    WorkflowError,
    compute_inference_time,
    decode_agg_request,
    decode_share_request,
    decode_vote_request,
    encode_agg_request,
    encode_share_request,
    encode_vote_request,
    run,
)
from bftvss.field import FixedPointCodec, generate_group
from bftvss.netsim import MAX_N, SimConfig

FAST = dict(rounds=4, dim=8)


class TestConfig:
    def test_defaults_valid(self):
        TrainingConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(n=5),
        dict(th=0),
        dict(th=5),
        dict(mode="bogus"),
        dict(mode="ebyftves+acumpa"),                    # attackers missing
        dict(mode="fedavg-plain", attackers=(1,)),       # attackers forbidden
        dict(mode="ebyftves+acumpa", attackers=(9,)),    # not a participant
        dict(mode="ebyftves+acumpa", attackers=(-1,)),
        dict(mode="ebyftves+acumpa", attackers=(1, 2)),  # more than f
        dict(rounds=0),
        dict(dim=0),
        dict(delta=0),                                   # simulator's own check
        dict(gst=-1),
        dict(dim="16"),                                  # not an integer
        dict(rounds=2.0),
        dict(th=1),                                      # f colluders reconstruct
        dict(th=4),                                      # above n - f
        dict(n=7, f=2, th=3, mode="baseline-vss+acumpa",
             attackers=(3, 3)),                          # repeated id
        dict(attacker_reads="commitments"),              # not a knowledge level
        dict(attacker_reads="every-share"),              # no attacker reads it
        dict(mode="ebyftves", attacker_reads="every-share"),
        dict(mode="baseline-vss+acumpa", attackers=(3,),
             attacker_reads="every-share"),              # sees every share anyway
        dict(n=1, f=0, th=1),                            # n = 3f + 1 needs f >= 1
        dict(attackers="1"),                             # not a list of ids
        dict(mode="ebyftves+acumpa", attackers=(True,)),  # a bool is no id
        dict(dim=dpml.MAX_DIM + 1),
        dict(rounds=dpml.MAX_ROUNDS + 1),
        dict(n=MAX_N + 3, f=MAX_N // 3 + 1, th=MAX_N // 3 + 2),  # MAX_N is 3f + 1
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad).validate()

    def test_attacker_ids_checked_without_a_set_of_n(self):
        # one bound check per attacker id: nothing of size n is built
        config = TrainingConfig(n=300_001, f=100_000, th=100_001)
        tracemalloc.start()
        try:
            config.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sizes_at_their_caps_pass(self):
        TrainingConfig(dim=dpml.MAX_DIM, rounds=dpml.MAX_ROUNDS).validate()
        f = MAX_N // 3
        assert 3 * f + 1 == MAX_N
        TrainingConfig(n=MAX_N, f=f, th=f + 1).validate()

    def test_threshold_between_f_and_n_minus_f(self):
        TrainingConfig(n=10, f=3, th=4).validate()
        TrainingConfig(n=10, f=3, th=7).validate()
        for th in (3, 8):
            with pytest.raises(ValueError, match="f < th <= n - f"):
                TrainingConfig(n=10, f=3, th=th).validate()


    @pytest.mark.parametrize("value, annotation, ok", [
        (3, int, True), (True, int, False), (True, bool, True), (3, bool, False),
        (3, float, True), (2.5, float, True), (False, float, False),
        ("x", str, True), ({}, dict, True), ([], dict, False),
        ((), tuple[int, ...], True), ([1, 2], tuple[int, ...], True),
        ((1, True), tuple[int, ...], False), ("12", tuple[int, ...], False),
        (None, Optional[int], True), (4, Optional[int], True),
        (False, Optional[int], False), (2.5, Optional[int], False),
    ])
    def test_of_type(self, value, annotation, ok):
        assert dpml.of_type(value, annotation) is ok


class TestInferenceTime:
    def test_first_crossing_one_indexed(self):
        assert compute_inference_time([0.5, 0.91, 0.95], 0.9) == 2.0

    def test_never_reached_is_inf(self):
        assert math.isinf(compute_inference_time([0.5, 0.6], 0.9))

    def test_empty_series(self):
        assert math.isinf(compute_inference_time([], 0.9))


class TestRequestCodecs:
    def test_share_request_roundtrip(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -1.0], 3, 4, group, codec, rng)
        cts = [b.to_bytes() for b in bundles]
        req = encode_share_request(cts, commits)
        dim = codec.packed_length(2)
        out_cts, out_commits = decode_share_request(req, 4, 3, dim)
        assert out_cts == tuple(cts) and out_commits == commits
        with pytest.raises(vss.MalformedInputError):
            decode_share_request(req + b"\x00", 4, 3, dim)

    @pytest.mark.parametrize("n, th, dim", [(3, 3, 2), (5, 3, 2), (4, 2, 2), (4, 4, 2),
                                            (4, 3, 1), (4, 3, 3)])
    def test_share_request_of_another_shape_rejected(self, group, codec, rng, n, th, dim):
        # 4 ciphertexts and 3 columns of 2: any other count, th or dimension
        bundles, commits = vss.share([1.0, -1.0], 3, 4, group, codec, rng)
        req = encode_share_request([b.to_bytes() for b in bundles], commits)
        with pytest.raises(vss.MalformedInputError):
            decode_share_request(req, n, th, dim)

    def test_vote_request_roundtrip(self):
        req = encode_vote_request([3, 0, 2])
        assert decode_vote_request(req) == (0, 2, 3)

    def test_agg_request_roundtrip(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        summed = vss.sum_shares([bundles[0]], group)
        req = encode_agg_request(summed)
        assert decode_agg_request(req, 1, summed.dimension) == summed
        for dim in (0, 2):
            with pytest.raises(vss.MalformedInputError):
                decode_agg_request(req, 1, dim)

    def test_agg_request_trailing_byte_rejected(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        with pytest.raises(vss.MalformedInputError):
            decode_agg_request(encode_agg_request(bundles[0]) + b"\x00", 1, 1)


class TestPlainEngine:
    def test_deterministic(self):
        a = run(TrainingConfig(seed=3, **FAST))
        b = run(TrainingConfig(seed=3, **FAST))
        assert a.accuracy_series == b.accuracy_series
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.weights_history, b.weights_history))

    def test_metrics_shape(self):
        result = run(TrainingConfig(**FAST))
        assert len(result.metrics) == 4
        assert result.metrics[0].t == 1
        assert result.metrics[-1].dealer_count == 4
        assert result.adaptive_rounds == []

    def test_to_dict_serializable(self):
        import json
        payload = run(TrainingConfig(**FAST)).to_dict()
        json.dumps(payload)
        assert payload["schema_version"] == dpml.RESULT_SCHEMA_VERSION


class TestBaselineEngine:
    def test_honest_matches_plain_within_fixed_point(self):
        plain = run(TrainingConfig(mode="fedavg-plain", **FAST))
        shared = run(TrainingConfig(mode="baseline-vss", **FAST))
        tol = 4 * 2.0 ** -16
        for wp, ws in zip(plain.weights_history, shared.weights_history):
            assert np.max(np.abs(wp - ws)) < tol

    def test_attacker_is_adaptive_every_round(self):
        result = run(TrainingConfig(mode="baseline-vss+acumpa", attackers=(3,),
                                    **FAST))
        assert result.adaptive_rounds == [1, 2, 3, 4]
        assert result.fallback_rounds == []
        # the attacker's crafted share still clears Feldman verification,
        # so all four dealers stay in the batch
        assert all(m.dealer_count == 4 for m in result.metrics)


class TestDefendedEngine:
    def test_honest_matches_plain_within_fixed_point(self):
        plain = run(TrainingConfig(mode="fedavg-plain", **FAST))
        defended = run(TrainingConfig(mode="ebyftves", **FAST))
        tol = 4 * 2.0 ** -16
        assert len(defended.weights_history) == len(plain.weights_history)
        for wp, wd in zip(plain.weights_history, defended.weights_history):
            assert np.max(np.abs(wp - wd)) < tol

    def test_attacker_never_adaptive_and_excluded(self):
        result = run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,),
                                    **FAST), collect_trace=True)
        assert result.adaptive_rounds == []
        assert result.fallback_rounds == [1, 2, 3, 4]
        # the delayed dealer misses every share-slot batch
        assert all(m.dealer_count == 3 for m in result.metrics)

    def test_deterministic(self):
        a = run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), **FAST))
        b = run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), **FAST))
        assert a.to_dict() == b.to_dict()


def decode_own_share_request(node, req):
    return decode_share_request(req, node.config.n, node.config.th, node.packed_dim)


class ShortCommitments(dpml.WorkflowParticipant):
    """Participant 0 submits commitments one element short."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_own_share_request(self, req)
            req = encode_share_request(cts, tuple(c[:-1] for c in commits))
        super().broadcast_update(sq, req)


class ShortDealer(dpml.WorkflowParticipant):
    """Participant 0 deals a vector one coordinate short: its shares and
    commitments are one element short."""

    def submit_shares(self, vector):
        super().submit_shares(vector[:-1] if self.rid == 0 else vector)


class ShortAggShare(dpml.WorkflowParticipant):
    """Participant 0 submits an aggregated share one element short."""

    short = (0,)

    def broadcast_update(self, sq, req):
        if self.rid in self.short and sq % 3 == 2:
            bundle = decode_agg_request(req, self.eval_point, self.packed_dim)
            req = encode_agg_request(dataclasses.replace(bundle, values=bundle.values[:-1]))
        super().broadcast_update(sq, req)


class TestMalformedPeerInput:
    """A wrongly sized submission is dropped on receipt: the run ends with
    honest participants agreeing on weights (the coordinator raises
    WorkflowError on any divergence), never with an uncaught exception."""

    def run_with(self, monkeypatch, participant):
        monkeypatch.setattr(dpml, "WorkflowParticipant", participant)
        return run(TrainingConfig(mode="ebyftves", seed=0, **FAST))

    def test_short_commitments_exclude_the_dealer(self, monkeypatch):
        result = self.run_with(monkeypatch, ShortCommitments)
        assert len(result.metrics) == FAST["rounds"]
        assert all(m.dealer_count == 3 for m in result.metrics)

    def test_eavesdropper_drops_a_short_dealer(self, monkeypatch):
        # the delaying dealer opens every share with the participants' own
        # check of the packed dimension: it crafts against the five full
        # dealers, and the short one is left out like at every participant
        monkeypatch.setattr(dpml, "WorkflowParticipant", ShortDealer)
        result = run(TrainingConfig(mode="ebyftves+acumpa", n=7, f=2, th=3,
                                    attackers=(6,), attacker_reads="every-share",
                                    rounds=3))
        assert [m.dealer_count for m in result.metrics] == [6, 6, 6]
        assert result.adaptive_rounds == [1, 2, 3]

    def test_short_aggregated_share_is_dropped(self, monkeypatch):
        honest = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        result = self.run_with(monkeypatch, ShortAggShare)
        assert all(m.dealer_count == 4 for m in result.metrics)
        # the other three aggregated shares reconstruct the same sum
        assert all(np.array_equal(a, b) for a, b in
                   zip(honest.weights_history, result.weights_history, strict=True))


class NoVotes(dpml.WorkflowParticipant):
    """Every vote request names no dealer."""

    def broadcast_update(self, sq, req):
        super().broadcast_update(sq, encode_vote_request([]) if sq % 3 == 1 else req)


class TwoShortAggShares(ShortAggShare):
    """Participants 0 and 1 submit aggregated shares one element short."""

    short = (0, 1)


class SpoilsShareAndWithholds(dpml.WorkflowParticipant):
    """Participant 3 seals participant 0's share with its last plaintext byte
    flipped, so that the share fails vss.verify at 0, and submits no
    aggregated share; 1, 2 and 3 still vote dealer 3 in."""

    def submit_shares(self, vector):
        if self.rid != 3:
            return super().submit_shares(vector)
        encrypt = self.scheme.encrypt

        def spoiled(secret, public, plaintext, rng):
            if public == self.publics[0]:
                plaintext = plaintext[:-1] + bytes([plaintext[-1] ^ 1])
            return encrypt(secret, public, plaintext, rng)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(self.scheme, "encrypt", spoiled)
            super().submit_shares(vector)

    def broadcast_update(self, sq, req):
        if self.rid != 3 or sq % 3 != 2:
            super().broadcast_update(sq, req)


class StopsAfterRoundOne(dpml.WorkflowParticipant):
    """Participant 1 trains no round after the first; its replica keeps
    voting."""

    def start_round(self, t):
        if self.rid != 1 or t == 1:
            super().start_round(t)


class AltersAggShare(dpml.WorkflowParticipant):
    """Participant 1 alters one value of origin 0's aggregated share in its
    own copy before it reconstructs."""

    def _agg_slot_done(self):
        if self.rid == 1:
            b = self._agg[0]
            self._agg[0] = dataclasses.replace(
                b, values=((b.values[0] + 1) % self.group.q,) + b.values[1:])
        super()._agg_slot_done()


class TestWorkflowFailure:
    """A run either finishes every round at every honest participant, or it
    raises WorkflowError where the fault is found."""

    @pytest.mark.parametrize("participant, message, raised_in", [
        (NoVotes, "round 1: no dealer reached 3 votes", "_vote_slot_done"),
        (TwoShortAggShares, "round 1: only 2 aggregated shares committed, need 3",
         "_agg_slot_done"),
        (StopsAfterRoundOne, r"training stalled: participants \[1\] did not finish "
         r"round 4", "run_defended"),
        (AltersAggShare, r"round 1: participant \d+ reconstructed divergent weights",
         "round_complete"),
    ], ids=["no-votes", "short-agg-shares", "stall", "divergent-weights"])
    def test_raises_where_found(self, monkeypatch, participant, message, raised_in):
        monkeypatch.setattr(dpml, "WorkflowParticipant", participant)
        with pytest.raises(WorkflowError, match=message) as excinfo:
            run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        assert excinfo.traceback[-1].name == raised_in

    def test_complaint_names_the_unverified_dealer(self, monkeypatch):
        # participant 0 complains of dealer 3 in the aggregate slot, which
        # then batches on 2f + 1 requests; were it to submit nothing, the
        # slot would never batch and the run would end at the event budget
        monkeypatch.setattr(dpml, "WorkflowParticipant", SpoilsShareAndWithholds)
        monkeypatch.setattr(dpml, "SimConfig", functools.partial(SimConfig, max_events=60_000))
        for seed in range(5):
            with pytest.raises(WorkflowError) as excinfo:
                run(TrainingConfig(mode="ebyftves", seed=seed, **FAST))
            assert str(excinfo.value) == (
                "round 1: only 2 aggregated shares committed, need 3; "
                "complaints (sender: dealers): {0: [3]}")
            assert excinfo.traceback[-1].name == "_agg_slot_done"


class RecordsVerified(dpml.WorkflowParticipant):
    """Every participant records which dealers it verified when the share
    slot commits."""

    verified: dict = {}

    def _share_slot_done(self, sq):
        super()._share_slot_done(sq)
        self.verified[self.rid, self.t] = set(self._verified)


class Reflector(RecordsVerified):
    """Participant 0 waits for dealer 1's share request, then submits its own
    with dealer 1's ciphertext for 0 in the place meant for 1.  The pair key
    of (0, 1) is the same both ways, so participant 1 decrypts it."""

    def submit_shares(self, vector):
        if self.rid != 0:
            return super().submit_shares(vector)
        self._pending = vector

    def on_message(self, m):
        if (self.rid == 0 and m.kind == MsgKind.REQUEST and m.sq % 3 == 0
                and m.sender == 1 and self._pending is not None):
            self._theirs = decode_own_share_request(self, m.payload[0])[0][0]
            vector, self._pending = self._pending, None
            super().submit_shares(vector)
        super().on_message(m)

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_own_share_request(self, req)
            req = encode_share_request(cts[:1] + (self._theirs,) + cts[2:], commits)
        super().broadcast_update(sq, req)


class FlipsCiphertext(RecordsVerified):
    """Dealer 0 flips one byte of its ciphertext for participant 1."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_own_share_request(self, req)
            flipped = cts[1][:-1] + bytes([cts[1][-1] ^ 1])
            req = encode_share_request(cts[:1] + (flipped,) + cts[2:], commits)
        super().broadcast_update(sq, req)


def assert_share_for_1_dropped(monkeypatch, participant):
    """Participant 1 does not verify dealer 0, every other participant does;
    dealer 0 still has th votes, and the three other aggregated shares
    reconstruct the fault-free sum."""
    honest = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
    monkeypatch.setattr(participant, "verified", {})
    monkeypatch.setattr(dpml, "WorkflowParticipant", participant)
    result = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
    rounds = range(1, FAST["rounds"] + 1)
    assert all(0 not in participant.verified[1, t] for t in rounds)
    assert all(0 in participant.verified[j, t] for j in (2, 3) for t in rounds)
    assert all(m.dealer_count == 4 for m in result.metrics)
    assert all(np.array_equal(a, b) for a, b in
               zip(honest.weights_history, result.weights_history, strict=True))


class TestReflectedCiphertext:
    def test_reflected_share_is_dropped(self, monkeypatch):
        # the reflected ciphertext opens under K_01 to dealer 1's share for
        # participant 0, a share of another polynomial at another point: it
        # fails verification at participant 1's point against 0's commitments
        assert_share_for_1_dropped(monkeypatch, Reflector)

    def test_undecryptable_share_is_dropped(self, monkeypatch):
        # the flipped byte fails the ciphertext's integrity check
        assert_share_for_1_dropped(monkeypatch, FlipsCiphertext)


@functools.cache
def round_one():
    """A factory of participants in round 1, each origin's valid request in
    each slot (indexed by slot), and how a Byzantine origin seals a plaintext
    for participant 1 under its own key."""
    config = TrainingConfig(mode="ebyftves", seed=0, **FAST)
    group = generate_group(config.bits_p, config.bits_q)
    codec = FixedPointCodec(config.fraction_bits, group.q, config.n)
    scheme = crypto.HybridScheme(group)
    keys = [scheme.keygen(random.Random(i), 1)[0] for i in range(config.n)]
    datasets, test, w0 = dpml._task(config)
    coordinator = dpml._Coordinator(datasets, test)
    keyring = crypto.KeyRing(range(config.n), random.Random(0))

    def participant(rid, node_class=dpml.WorkflowParticipant):
        node = node_class(
            rid, config, keyring, group, codec, scheme, keys[rid].secret,
            [k.public for k in keys], datasets[rid], coordinator, w0)
        node.start_round(1)
        return node

    def seal(origin, plaintext):
        return scheme.encrypt(keys[origin].secret, keys[1].public, plaintext,
                              random.Random(0))

    shares = [participant(i).drain()[0][0][1].payload[0] for i in range(config.n)]
    votes = [encode_vote_request(range(config.n))] * config.n
    bundles, _ = vss.share([0.5] * config.dim, config.th, config.n, group, codec,
                           random.Random(0))
    aggs = [encode_agg_request(b) for b in bundles]
    return participant, (shares, votes, aggs), seal


def peer_request(slot, valid, seal):
    """Arbitrary bytes, a truncation or one-byte mutation of a valid request,
    or a well-formed request one size off: n ciphertexts, th = 3 commitment
    columns, the packed dimension 8 in every column, in the share the
    ciphertext opens to, or in an aggregated share."""
    def elements(k):
        return st.lists(st.integers(0, 2**100), min_size=k, max_size=k)

    off = st.sampled_from([0, 7, 9])
    if slot == 0:
        def share_request(count, columns, values):
            return encode_share_request([seal(wire.pack_fixed(values))] * count, columns)

        def commitments(dim, th=3):
            return st.lists(elements(dim).map(tuple), min_size=th, max_size=th)

        resized = st.one_of(
            st.builds(share_request, st.sampled_from([0, 1, 3, 5]), commitments(8),
                      elements(8)),
            st.builds(share_request, st.just(4), off.flatmap(commitments), elements(8)),
            st.builds(share_request, st.just(4),
                      st.sampled_from([1, 2, 4]).flatmap(lambda th: commitments(8, th)),
                      elements(8)),
            st.builds(share_request, st.just(4), commitments(8), off.flatmap(elements)))
    else:
        resized = off.flatmap(elements).map(wire.pack_fixed)
    k = st.integers(0, len(valid) - 1)
    return st.one_of(
        st.binary(max_size=2 * len(valid)),
        k.map(lambda k: valid[:k]),
        st.tuples(k, st.integers(1, 255)).map(
            lambda kb: valid[:kb[0]] + bytes([valid[kb[0]] ^ kb[1]]) + valid[kb[0] + 1:]),
        resized)


class TestPeerBytes:
    """Whatever one origin's request in a slot holds, receiving_update raises
    nothing and stores only th commitment columns and shares of the packed
    dimension, so the slot's own step raises nothing either."""

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_nothing_raises(self, slot, data):
        participant, requests, seal = round_one()
        receiver = participant(1)
        origin = data.draw(st.integers(0, 3), label="origin")
        valid = requests[slot][origin]
        req = data.draw(peer_request(slot, valid, functools.partial(seal, origin)),
                        label="req")
        for sq in range(slot + 1):
            for o in range(4):
                receiver.receiving_update(
                    sq, o, req if (sq, o) == (slot, origin) else requests[sq][o])
            if sq < 2:  # the aggregate slot's step needs every participant
                receiver.on_slot_committed(sq, ())
        dim, th = receiver.codec.packed_length(receiver.config.dim), receiver.config.th
        assert all(len(c) == th and {len(col) for col in c} == {dim}
                   for c in receiver._commits.values())
        assert all(b.dimension == dim for b in receiver._own_shares.values())
        assert all(b.dimension == dim for b in receiver._agg.values())


def resized_share_requests(node, req):
    """req with one ciphertext more or fewer, or every commitment column one
    element longer or shorter."""
    cts, commits = decode_own_share_request(node, req)
    return {"n+1": encode_share_request(cts + cts[-1:], commits),
            "n-1": encode_share_request(cts[:-1], commits),
            "dim+1": encode_share_request(cts, tuple(c + c[-1:] for c in commits)),
            "dim-1": encode_share_request(cts, tuple(c[:-1] for c in commits))}


def test_share_request_of_another_shape_is_neither_stored_nor_eavesdropped():
    """A share request of the wrong shape decodes to nothing: no receiver
    stores its commitments or opens its share, and the delaying dealer opens
    none of it either, though its own ciphertext is intact."""
    participant, (shares, _, _), _ = round_one()
    receiver, node = participant(1), participant(3, dpml.DelayedDealerNode)
    for name, req in resized_share_requests(receiver, shares[0]).items():
        receiver.receiving_update(0, 0, req)
        node._eavesdrop(0, 0, req)
        assert 0 not in receiver._commits and 0 not in receiver._own_shares, name
        assert node.observed == {}, name
    node._eavesdrop(0, 0, shares[0])  # the valid request opens
    assert [b.eval_point for b in node.observed[0][0]] == [4]


@pytest.mark.parametrize("voters, admitted", [((0, 1), [0, 1, 2]),
                                               ((0, 1, 2), [0, 1, 2, 3])])
def test_dealer_needs_th_votes(voters, admitted):
    """Dealer 3 joins the round's dealer set only once th = 3 vote requests
    name it."""
    participant, (shares, _, _), _ = round_one()
    receiver = participant(1)
    for origin in range(4):
        receiver.receiving_update(0, origin, shares[origin])
    receiver.on_slot_committed(0, ())
    for origin in range(4):
        receiver.receiving_update(1, origin, encode_vote_request(
            range(4) if origin in voters else range(3)))
    receiver.on_slot_committed(1, ())
    assert receiver._dealer_set == admitted


@pytest.mark.parametrize("rounds", [1, 3])
def test_pair_keys_cost_one_pow_per_pair(comb_counts, rounds):
    """The KEM computes each of the n(n-1)/2 keys between two participants
    with one power, once per run, whichever end asks first, on at most one
    comb per public key: neither count grows with the number of rounds.
    Each participant's own public key comes from the fixed-base table.  A
    run builds its own combs, so a second identical run counts the same."""
    built, evaluated = comb_counts
    counts = []
    for _ in range(2):
        result = run(TrainingConfig(mode="ebyftves", seed=0, **dict(FAST, rounds=rounds)))
        assert len(result.metrics) == rounds
        assert sum(evaluated.values()) == 4 * 3 // 2
        assert len(built) <= 4 and set(built.values()) == {1}
        counts.append((dict(built), dict(evaluated)))
        built.clear()
        evaluated.clear()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ["baseline-vss", "ebyftves"])
def test_no_participant_checks_its_own_share(monkeypatch, mode):
    """Each participant verifies the shares of the n - 1 other dealers only,
    and seals and decrypts no ciphertext for itself."""
    verified, opened, sealed = (collections.Counter() for _ in range(3))
    verify = vss.verify
    encrypt, decrypt = crypto.HybridScheme.encrypt, crypto.HybridScheme.decrypt

    def counting_verify(bundle, commitments, params):
        verified[bundle.eval_point] += 1
        return verify(bundle, commitments, params)

    def counting_encrypt(self, secret, public, plaintext, rng):
        sealed[secret, public] += 1
        return encrypt(self, secret, public, plaintext, rng)

    def counting_decrypt(self, secret, public, ciphertext):
        opened[secret, public] += 1
        return decrypt(self, secret, public, ciphertext)

    monkeypatch.setattr(vss, "verify", counting_verify)
    monkeypatch.setattr(crypto.HybridScheme, "encrypt", counting_encrypt)
    monkeypatch.setattr(crypto.HybridScheme, "decrypt", counting_decrypt)
    result = run(TrainingConfig(mode=mode, seed=0, **FAST))
    assert [m.dealer_count for m in result.metrics] == [4] * FAST["rounds"]
    assert verified == {j: 3 * FAST["rounds"] for j in range(1, 5)}
    if mode == "ebyftves":
        group = generate_group(96, 48)
        for counts in (sealed, opened):
            assert sum(counts.values()) == 4 * 3 * FAST["rounds"]
            assert all([public] != group.exps([secret]) for secret, public in counts)


def test_baseline_round_without_a_verified_dealer_raises(monkeypatch):
    """A baseline-vss round in which no share verifies admits no dealer,
    and raises rather than averaging nothing."""
    monkeypatch.setattr(vss, "verify", lambda bundle, commitments, params: False)
    with pytest.raises(WorkflowError, match="round 1: no dealer cleared verification"):
        run(TrainingConfig(mode="baseline-vss", seed=0, **FAST))


@pytest.mark.parametrize("attacker_reads", dpml.ATTACKER_READS)
def test_attacker_forgets_committed_slots(monkeypatch, attacker_reads):
    """The delaying dealer drops what it eavesdropped for a share slot once
    that slot commits, and keeps nothing that arrives later: after a full
    run it holds no observations, even once an authentic share request for
    slot 0 reaches it again."""
    nodes, seen, slot_zero = [], [], []

    class Recording(dpml.DelayedDealerNode):
        def __init__(self, *args):
            super().__init__(*args)
            nodes.append(self)

        def on_message(self, m):
            if m.kind == MsgKind.REQUEST and m.sq == 0 and m.sender != self.rid:
                slot_zero.append(m)
            super().on_message(m)

        def _share_slot_done(self, sq):
            seen.append(sum(map(len, self.observed.get(sq, {}).values())))
            super()._share_slot_done(sq)

    monkeypatch.setattr(dpml, "DelayedDealerNode", Recording)
    result = run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,),
                                attacker_reads=attacker_reads))
    assert len(result.metrics) == len(seen) == 30
    (node,) = nodes
    assert node.observed == {}
    assert node._decided(0) and node._authentic(slot_zero[0])
    node.on_message(slot_zero[0])  # past the deadline: nothing is stored
    assert node.observed == {}
    if attacker_reads == "own-shares":  # its key opens one share per honest dealer
        assert seen == [3] * 30
    else:
        assert min(seen) > 3


@pytest.mark.parametrize("payload", [(), (5,)], ids=["empty", "int"])
def test_attacker_drops_share_request_without_request_bytes(payload):
    """A share-slot REQUEST that carries no (request, tag) pair cannot be
    authentic: the delaying dealer drops it without eavesdropping on it."""
    participant, _, _ = round_one()
    node = participant(3, dpml.DelayedDealerNode)
    node.on_message(consensus.Message(MsgKind.REQUEST, 0, 0, 1, payload, b"x" * 32))
    assert node.dropped_count == 1
    assert node.observed == {}


def test_each_request_tag_checked_once_per_send(monkeypatch):
    """A request's tag is checked once per run in a fault-free run: its
    REQUEST's receivers share one check, and a replica that verified it in
    the slot skips it in a PRE_PROPOSE or a PRE_PREPARE."""
    calls = collections.Counter()
    check = consensus.check_request_tag

    def counting_check(keyring, sq, triple):
        calls[sq, triple[0]] += 1
        return check(keyring, sq, triple)

    monkeypatch.setattr(consensus, "check_request_tag", counting_check)
    result = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
    assert len(result.metrics) == FAST["rounds"]
    assert len(calls) == 4 * 3 * FAST["rounds"]  # origin, 3 slots a round
    assert max(calls.values()) == 1


def test_no_shared_result_outlives_its_run(monkeypatch):
    """Two identical runs check as many tags and parse as many commitments:
    what a send's receivers share dies with the run.  A committed share
    request is parsed once per run, not once per participant, and the run's
    table of decoded requests keeps two rounds of them."""
    calls = collections.Counter()
    coordinators = []

    class Recorded(dpml._Coordinator):
        def __init__(self, *args):
            super().__init__(*args)
            coordinators.append(self)

    monkeypatch.setattr(dpml, "_Coordinator", Recorded)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(crypto.KeyRing, "check", counting("check", crypto.KeyRing.check))
    monkeypatch.setattr(vss, "parse_commitments", counting("parse", vss.parse_commitments))
    per_run = []
    for _ in range(2):
        calls.clear()
        run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        per_run.append(dict(calls))
    assert per_run[0] == per_run[1]
    assert per_run[0]["parse"] == 4 * FAST["rounds"]
    assert [len(c.decoded) for c in coordinators] == [2 * 3 * 4] * 2


def test_identical_aggregated_shares_keep_their_origins_points():
    """Two receivers, sharing their run's decoded requests, each read every
    origin's aggregated share at that origin's point, though all four
    origins committed the same bytes."""
    participant, (_, _, aggs), _ = round_one()
    for receiver in (participant(1), participant(2)):
        for origin in range(4):
            receiver.receiving_update(2, origin, aggs[0])
        assert {o: b.eval_point for o, b in receiver._agg.items()} == {
            o: o + 1 for o in range(4)}
        assert {b.values for b in receiver._agg.values()} == {
            decode_agg_request(aggs[0], 1, receiver.packed_dim).values}


class TestPreGstTraining:
    """Defended training with every slot's requests submitted before GST."""

    @pytest.mark.parametrize("mode, seed", [
        ("ebyftves", 4),
        ("ebyftves", 5),
        # a replica with nothing left to execute escalated its view changes
        ("ebyftves", 2),
        ("ebyftves", 8),
        # a commit quorum of one view, its batch accepted in a later one
        ("ebyftves+acumpa", 26),
        # a PREPARE quorum that came before its batch
        ("ebyftves", 115),
    ])
    def test_finishes_within_budget(self, monkeypatch, mode, seed):
        monkeypatch.setattr(dpml, "SimConfig",
                            functools.partial(SimConfig, max_events=60_000))
        attackers = (3,) if mode.endswith("+acumpa") else ()
        result = run(TrainingConfig(mode=mode, attackers=attackers, seed=seed,
                                    gst=100, delta=2))
        assert len(result.metrics) == 30
        assert result.adaptive_rounds == []


class StrayRequest(dpml.WorkflowParticipant):
    """Participant 0 also submits into a slot that no round ever reaches."""

    def start_round(self, t):
        super().start_round(t)
        if self.rid == 0 and t == 1:
            self.broadcast_update(10**6, b"stray")


def test_stray_request_cannot_stall_a_run(monkeypatch):
    config = TrainingConfig(mode="ebyftves", seed=0, rounds=3)
    honest = run(config)
    monkeypatch.setattr(dpml, "WorkflowParticipant", StrayRequest)
    monkeypatch.setattr(dpml, "SimConfig", functools.partial(SimConfig, max_events=60_000))
    result = run(config)
    assert all(np.array_equal(a, b) for a, b in
               zip(honest.weights_history, result.weights_history, strict=True))


class TestWhatDefends:
    """Keeping the shares from the delaying dealer, not the commit deadline,
    stops it (default config, seed 0, 30 rounds)."""

    def run_attacked(self, attacker_reads):
        return run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), seed=0,
                                  attacker_reads=attacker_reads))

    def test_reading_every_share_the_attack_fires_every_round(self):
        result = self.run_attacked("every-share")
        assert result.adaptive_rounds == list(range(1, 31))
        assert math.isinf(result.it)
        assert result.final_accuracy < 0.9

    def test_reading_its_own_shares_it_never_fires(self):
        result = self.run_attacked("own-shares")
        assert len(result.metrics) == 30
        assert result.adaptive_rounds == []
        # the attacker never submits in time, so every round leaves it out
        assert all(m.dealer_count == 3 for m in result.metrics)
        assert result.final_accuracy > 0.9 and result.it <= 5


PACKED = dict(bits_p=2048, bits_q=256, rounds=3, seed=0)
VSS_MODES = ("ebyftves", "ebyftves+acumpa", "baseline-vss", "baseline-vss+acumpa")


@functools.cache
def packed_and_unpacked(mode: str):
    """mode at the committed 2048/256 group (nine coordinates to an element)
    and at the 96/48 default (one), same seed."""
    attackers = (3,) if mode.endswith("+acumpa") else ()
    return tuple(run(TrainingConfig(mode=mode, attackers=attackers, **config))
                 for config in (PACKED, dict(PACKED, bits_p=96, bits_q=48)))


class TestPackedWorkflows:
    @pytest.mark.parametrize("mode", VSS_MODES)
    def test_packing_changes_no_weight(self, mode):
        packed, unpacked = packed_and_unpacked(mode)
        assert packed.adaptive_rounds == unpacked.adaptive_rounds
        assert all(np.array_equal(a, b) for a, b in
                   zip(packed.weights_history, unpacked.weights_history, strict=True))

    @pytest.mark.parametrize("mode", ["ebyftves", "baseline-vss"])
    def test_honest_matches_plain_within_fixed_point(self, mode):
        plain = run(TrainingConfig(mode="fedavg-plain", **PACKED))
        packed, _ = packed_and_unpacked(mode)
        tol = 4 * 2.0 ** -16
        for wp, ws in zip(plain.weights_history, packed.weights_history, strict=True):
            assert np.max(np.abs(wp - ws)) < tol

    def test_attack_engagement_as_unpacked(self):
        defended, _ = packed_and_unpacked("ebyftves+acumpa")
        baseline, _ = packed_and_unpacked("baseline-vss+acumpa")
        assert defended.adaptive_rounds == []
        assert all(m.dealer_count == 3 for m in defended.metrics)
        assert baseline.adaptive_rounds == [1, 2, 3]


@dataclasses.dataclass(frozen=True)
class TopLanes(FixedPointCodec):
    """Encodes any vector as elements whose every lane holds 2^(width-1) - 1,
    the top of its signed range: summed with any positive coordinate, a lane
    carries into the next."""

    def encode_vector(self, xs):
        lane = (1 << (self.width - 1)) - 1
        e = sum(lane << (self.width * k) for k in range(self.lanes))
        return (e % self.q,) * self.packed_length(len(xs))


class CarryDealer(dpml.WorkflowParticipant):
    """Participant 0 deals TopLanes elements, which verify against their
    commitments like any others."""

    def __init__(self, rid, config, keyring, group, codec, *args):
        if rid == 0:
            codec = TopLanes(codec.fraction_bits, codec.q, codec.summands)
        super().__init__(rid, config, keyring, group, codec, *args)


class TestLaneCarry:
    """A Byzantine dealer controls every lane of its own elements, so a carry
    it induces into a neighbouring lane gives it no power it lacks: honest
    participants reconstruct identical weights, or the run ends in a
    WorkflowError; no other exception escapes.  Here every participant
    reconstructs the same round-1 weights, carried out of range, and the
    first round-2 update over max_abs ends the run."""

    def test_carry_dealer(self, monkeypatch):
        monkeypatch.setattr(dpml, "WorkflowParticipant", CarryDealer)
        with pytest.raises(WorkflowError, match="max_abs"):
            run(TrainingConfig(mode="ebyftves", **PACKED))


class TestSumAverageOracle:
    def test_two_dealers_share_sum_then_average(self, group, codec, rng):
        """End-to-end miniature of the aggregation path: secrets 1.0 and 2.0
        dealt separately, shares summed per recipient, reconstructed total
        3.0, averaged to 1.5 after leaving the field."""
        a, _ = vss.share([1.0], 3, 4, group, codec, rng)
        b, _ = vss.share([2.0], 3, 4, group, codec, rng)
        summed = [vss.sum_shares([a[j], b[j]], group) for j in range(4)]
        total = vss.reconstruct(summed, 3, group, codec, 1)
        assert total == (3.0,)
        assert total[0] / 2 == 1.5


def test_dispatcher_covers_all_modes():
    for mode in MODES:
        attackers = (3,) if mode.endswith("+acumpa") else ()
        result = run(TrainingConfig(mode=mode, attackers=attackers, rounds=2, dim=4))
        assert len(result.metrics) == 2
