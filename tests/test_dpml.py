import collections
import dataclasses
import functools
import math
import random

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
from bftvss.netsim import SimConfig

FAST = dict(rounds=4, samples=100, test_samples=200, dim=8)


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
        dict(mode="ebyftves+acumpa", attackers=(1, 2)),  # more than f
        dict(rounds=0),
        dict(tau=0.0),
        dict(delta=0),                                   # simulator's own check
        dict(gst=-1),
        dict(dim="16"),                                  # not an integer
        dict(rounds=2.0),
        dict(th=1),                                      # f colluders reconstruct
        dict(th=4),                                      # above n - f
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad).validate()

    def test_threshold_between_f_and_n_minus_f(self):
        TrainingConfig(n=10, f=3, th=4).validate()
        TrainingConfig(n=10, f=3, th=7).validate()
        for th in (3, 8):
            with pytest.raises(ValueError, match="f < th <= n - f"):
                TrainingConfig(n=10, f=3, th=th).validate()


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
        out_cts, out_commits = decode_share_request(req, 3)
        assert out_cts == cts and out_commits == commits
        with pytest.raises(vss.MalformedInputError):
            decode_share_request(req + b"\x00", 3)

    def test_vote_request_roundtrip(self):
        req = encode_vote_request([3, 0, 2])
        assert decode_vote_request(req) == (0, 2, 3)

    def test_agg_request_roundtrip(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        summed = vss.sum_shares([bundles[0]], group)
        req = encode_agg_request(summed)
        assert decode_agg_request(req, 1) == summed

    def test_agg_request_trailing_byte_rejected(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        with pytest.raises(vss.MalformedInputError):
            decode_agg_request(encode_agg_request(bundles[0]) + b"\x00", 1)


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

    def test_early_stop_consistency(self):
        # generous threshold: every engine should stop after round 1
        cfg = dict(FAST, rounds=6, error_threshold=10.0)
        for mode in ("fedavg-plain", "baseline-vss", "ebyftves"):
            result = run(TrainingConfig(mode=mode, **cfg))
            assert result.stopped_early
            assert len(result.metrics) == 1


class ShortCommitments(dpml.WorkflowParticipant):
    """Participant 0 submits commitments one element short."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_share_request(req, self.config.th)
            req = encode_share_request(cts, commits[:-1])
        super().broadcast_update(sq, req)


class ShortAggShare(dpml.WorkflowParticipant):
    """Participant 0 submits an aggregated share one element short."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 2:
            bundle = decode_agg_request(req, self.eval_point)
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

    def test_short_aggregated_share_is_dropped(self, monkeypatch):
        honest = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        result = self.run_with(monkeypatch, ShortAggShare)
        assert all(m.dealer_count == 4 for m in result.metrics)
        # the other three aggregated shares reconstruct the same sum
        assert all(np.array_equal(a, b) for a, b in
                   zip(honest.weights_history, result.weights_history, strict=True))


class Reflector(dpml.WorkflowParticipant):
    """Participant 0 waits for dealer 1's share request, then submits its own
    with dealer 1's ciphertext for 0 in the place meant for 1.  The pair key
    of (0, 1) is the same both ways, so participant 1 decrypts it.  Every
    participant records which dealers it verified when the share slot
    commits."""

    verified: dict = {}

    def submit_shares(self, vector):
        if self.rid != 0:
            return super().submit_shares(vector)
        self._pending = vector

    def on_message(self, m, now=0):
        if (self.rid == 0 and m.kind == MsgKind.REQUEST and m.sq % 3 == 0
                and m.sender == 1 and self._pending is not None):
            self._theirs = decode_share_request(m.payload[0], self.config.th)[0][0]
            vector, self._pending = self._pending, None
            super().submit_shares(vector)
        super().on_message(m, now)

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_share_request(req, self.config.th)
            cts[1] = self._theirs
            req = encode_share_request(cts, commits)
        super().broadcast_update(sq, req)

    def _share_slot_done(self, sq):
        super()._share_slot_done(sq)
        self.verified[self.rid, self.t] = set(self._verified)


class TestReflectedCiphertext:
    def test_reflected_share_is_dropped(self, monkeypatch):
        honest = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        monkeypatch.setattr(Reflector, "verified", {})
        monkeypatch.setattr(dpml, "WorkflowParticipant", Reflector)
        result = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
        rounds = range(1, FAST["rounds"] + 1)
        # the reflected ciphertext opens under K_01 to dealer 1's share for
        # participant 0, a share of another polynomial at another point: it
        # fails verification at participant 1's point against 0's commitments
        assert all(0 not in Reflector.verified[1, t] for t in rounds)
        assert all(0 in Reflector.verified[j, t] for j in (2, 3) for t in rounds)
        # dealer 0 still has th votes; the three other aggregated shares
        # reconstruct the fault-free sum
        assert all(m.dealer_count == 4 for m in result.metrics)
        assert all(np.array_equal(a, b) for a, b in
                   zip(honest.weights_history, result.weights_history, strict=True))


@functools.cache
def round_one():
    """A factory of participants in round 1, each origin's valid request in
    each slot (indexed by slot), and how a Byzantine origin seals a plaintext
    for participant 1 under its own key."""
    config = TrainingConfig(mode="ebyftves", seed=0, **FAST)
    group = generate_group(config.bits_p, config.bits_q)
    codec = FixedPointCodec(config.fraction_bits, group.q, config.n)
    scheme = crypto.HybridScheme(group)
    keys = [scheme.keygen(random.Random(i)) for i in range(config.n)]
    datasets, test, w0 = dpml._task(config)
    coordinator = dpml._Coordinator(config, datasets, test)
    keyring = crypto.KeyRing(range(config.n), random.Random(0))

    def participant(rid):
        node = dpml.WorkflowParticipant(
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
    or a well-formed request one size off: n ciphertexts, the packed
    dimension 8 in the commitments, in the share the ciphertext opens to, or
    in an aggregated share."""
    def elements(k):
        return st.lists(st.integers(0, 2**100), min_size=k, max_size=k)

    off = st.sampled_from([0, 7, 9])
    if slot == 0:
        def share_request(count, rows, values):
            return encode_share_request([seal(wire.pack_fixed(values))] * count, rows)

        def commitments(k):
            return st.lists(st.tuples(*[st.integers(0, 2**100)] * 3),
                            min_size=k, max_size=k)

        resized = st.one_of(
            st.builds(share_request, st.sampled_from([0, 1, 3, 5]), commitments(8),
                      elements(8)),
            st.builds(share_request, st.just(4), off.flatmap(commitments), elements(8)),
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
    nothing and stores only commitments and shares of the packed dimension,
    so the slot's own step raises nothing either."""

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
        dim = receiver.codec.packed_length(receiver.config.dim)
        assert all(len(c) == dim for c in receiver._commits.values())
        assert all(b.dimension == dim for b in receiver._own_shares.values())
        assert all(b.dimension == dim for b in receiver._agg.values())


@pytest.mark.parametrize("rounds", [1, 3])
def test_pair_keys_cost_n_squared_exponentiations(monkeypatch, rounds):
    """The KEM computes each of the n(n-1) keys between two participants
    with one variable-base pow, once per run: the count of crypto's pow does
    not grow with the number of rounds.  Each participant's key with itself
    comes from the fixed-base table."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
    result = run(TrainingConfig(mode="ebyftves", seed=0, **dict(FAST, rounds=rounds)))
    assert len(result.metrics) == rounds
    assert len(calls) == 4 * 3


@pytest.mark.parametrize("mode", ["baseline-vss", "ebyftves"])
def test_no_participant_checks_its_own_share(monkeypatch, mode):
    """Each participant verifies the shares of the n - 1 other dealers only,
    and decrypts no ciphertext it sealed for itself."""
    verified, opened = collections.Counter(), collections.Counter()
    verify, decrypt = vss.verify, crypto.HybridScheme.decrypt

    def counting_verify(bundle, commitments, params):
        verified[bundle.eval_point] += 1
        return verify(bundle, commitments, params)

    def counting_decrypt(self, secret, public, ciphertext):
        opened[secret, public] += 1
        return decrypt(self, secret, public, ciphertext)

    monkeypatch.setattr(vss, "verify", counting_verify)
    monkeypatch.setattr(crypto.HybridScheme, "decrypt", counting_decrypt)
    result = run(TrainingConfig(mode=mode, seed=0, **FAST))
    assert [m.dealer_count for m in result.metrics] == [4] * FAST["rounds"]
    assert verified == {j: 3 * FAST["rounds"] for j in range(1, 5)}
    if mode == "ebyftves":
        group = generate_group(96, 48)
        assert sum(opened.values()) == 4 * 3 * FAST["rounds"]
        assert all(public != group.exp(secret) for secret, public in opened)


def test_each_request_tag_checked_once_per_replica(monkeypatch):
    """A replica checks a request's tag once per slot, whether the request
    reaches it in a REQUEST, a PRE_PROPOSE or a PRE_PREPARE: at most n^2
    checks per slot in a fault-free run."""
    receiver = []
    calls = collections.Counter()
    on_message, check = consensus.Replica.on_message, consensus.check_request_tag

    def tracking_on_message(self, m, now=0):
        receiver.append(self.rid)
        try:
            return on_message(self, m, now)
        finally:
            receiver.pop()

    def counting_check(keyring, sq, triple):
        calls[receiver[-1], sq, triple[0]] += 1
        return check(keyring, sq, triple)

    monkeypatch.setattr(consensus.Replica, "on_message", tracking_on_message)
    monkeypatch.setattr(consensus, "check_request_tag", counting_check)
    result = run(TrainingConfig(mode="ebyftves", seed=0, **FAST))
    assert len(result.metrics) == FAST["rounds"]
    assert len(calls) == 4 * 4 * 3 * FAST["rounds"]  # replica, origin, 3 slots a round
    assert max(calls.values()) == 1


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
    """Share encryption, not the commit deadline, stops the delaying dealer
    (default config, seed 0, 30 rounds)."""

    def run_attacked(self, encryption):
        return run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), seed=0,
                                  encryption=encryption))

    def test_without_encryption_the_attack_fires_every_round(self):
        result = self.run_attacked("identity")
        assert result.adaptive_rounds == list(range(1, 31))
        assert math.isinf(result.it)
        assert result.final_accuracy < 0.9

    def test_with_encryption_it_never_fires(self):
        result = self.run_attacked("hybrid")
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
        result = run(TrainingConfig(mode=mode, attackers=attackers, rounds=2,
                                    samples=50, test_samples=100, dim=4))
        assert len(result.metrics) == 2
