import dataclasses
import math

import numpy as np
import pytest

from bftvss import dpml, vss
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
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad).validate()


class TestInferenceTime:
    def test_first_crossing_one_indexed(self):
        assert compute_inference_time([0.5, 0.91, 0.95], 0.9) == 2.0

    def test_never_reached_is_inf(self):
        assert math.isinf(compute_inference_time([0.5, 0.6], 0.9))

    def test_empty_series(self):
        assert math.isinf(compute_inference_time([], 0.9))


class TestRequestCodecs:
    def test_share_request_roundtrip(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -1.0], 3, 4, group, codec, rng, dealer=2)
        cts = [b.to_bytes() for b in bundles]
        req = encode_share_request(cts, commits)
        out_cts, out_commits = decode_share_request(req)
        assert out_cts == cts and out_commits == commits

    def test_vote_request_roundtrip(self):
        req = encode_vote_request([3, 0, 2])
        assert decode_vote_request(req) == [0, 2, 3]

    def test_agg_request_roundtrip(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng, dealer=1)
        summed = vss.sum_shares([bundles[0]], group)
        req = encode_agg_request(summed)
        assert decode_agg_request(req) == summed

    def test_agg_request_trailing_byte_rejected(self, group, codec, rng):
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng, dealer=1)
        with pytest.raises(vss.MalformedInputError):
            decode_agg_request(encode_agg_request(bundles[0]) + b"\x00")

    def test_wrong_marker_rejected(self):
        with pytest.raises(ValueError):
            decode_vote_request(encode_agg_request(vss.ShareBundle(
                dealer=vss.AGGREGATE_DEALER, eval_point=1, values=(1,))))


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
        assert result.trace.flags["adaptive_rounds"] == []

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
    """Participant 0 submits commitments one coordinate short."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 0:
            cts, commits = decode_share_request(req)
            req = encode_share_request(cts, vss.CommitmentVector(
                commits.dealer, commits.per_coordinate[:-1]))
        super().broadcast_update(sq, req)


class ShortAggShare(dpml.WorkflowParticipant):
    """Participant 0 submits an aggregated share one coordinate short."""

    def broadcast_update(self, sq, req):
        if self.rid == 0 and sq % 3 == 2:
            bundle = decode_agg_request(req)
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


class TestSumAverageOracle:
    def test_two_dealers_share_sum_then_average(self, group, codec, rng):
        """End-to-end miniature of the aggregation path: secrets 1.0 and 2.0
        dealt separately, shares summed per recipient, reconstructed total
        3.0, averaged to 1.5 after leaving the field."""
        a, _ = vss.share([1.0], 3, 4, group, codec, rng, dealer=0)
        b, _ = vss.share([2.0], 3, 4, group, codec, rng, dealer=1)
        summed = [vss.sum_shares([a[j], b[j]], group) for j in range(4)]
        total = vss.reconstruct(summed, 3, group, codec)
        assert total == (3.0,)
        assert total[0] / 2 == 1.5


def test_dispatcher_covers_all_modes():
    for mode in MODES:
        attackers = (3,) if mode.endswith("+acumpa") else ()
        result = run(TrainingConfig(mode=mode, attackers=attackers, rounds=2,
                                    samples=50, test_samples=100, dim=4))
        assert len(result.metrics) == 2
