import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import vss, wire
from bftvss.vss import (
    InsufficientSharesError,
    MalformedInputError,
    ShareBundle,
    eval_poly,
)


class TestHandOracle:
    """Everything here is checkable by hand over q = 23."""

    def test_eval_poly(self):
        # f(x) = 5 + 3x
        assert eval_poly([5, 3], 1, 23) == 8
        assert eval_poly([5, 3], 2, 23) == 11
        assert eval_poly([5, 3], 3, 23) == 14

    def test_reconstruct_linear(self, tiny_group):
        # shares of f(x) = 5 + 3x at x = 1, 2 interpolate back to f(0) = 5
        bundles = [
            ShareBundle(eval_point=1, values=(8,)),
            ShareBundle(eval_point=2, values=(11,)),
        ]
        assert vss.reconstruct_encoded(bundles, 2, tiny_group) == (5,)

    def test_extra_shares_use_lowest_points(self, tiny_group):
        bundles = [
            ShareBundle(eval_point=3, values=(14,)),
            ShareBundle(eval_point=1, values=(8,)),
            ShareBundle(eval_point=2, values=(11,)),
        ]
        assert vss.reconstruct_encoded(bundles, 2, tiny_group) == (5,)

    def test_commitments_verify(self, tiny_group):
        # commitments for f(x) = 5 + 3x: (g^5, g^3) = (32, 8) mod 47
        assert pow(2, 5, 47) == 32 and pow(2, 3, 47) == 8
        commits = ((32, 8),)
        good = ShareBundle(eval_point=2, values=(11,))
        assert vss.verify(good, commits, tiny_group)
        bad = ShareBundle(eval_point=2, values=(12,))
        assert not vss.verify(bad, commits, tiny_group)


class TestShareReconstruct:
    def test_roundtrip_every_subset(self, group, codec, rng):
        secret = [1.25, -0.5, 3.0]
        bundles, commits = vss.share(secret, 3, 4, group, codec, rng)
        assert all(vss.verify(b, commits, group) for b in bundles)
        for subset in itertools.combinations(bundles, 3):
            assert vss.reconstruct(subset, 3, group, codec, 3) == tuple(secret)

    def test_insufficient_shares(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 3, 4, group, codec, rng)
        with pytest.raises(InsufficientSharesError):
            vss.reconstruct(bundles[:2], 3, group, codec, 1)

    def test_duplicate_points_rejected(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 2, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.reconstruct([bundles[0], bundles[0]], 2, group, codec, 1)

    def test_threshold_bounds(self, group, codec, rng):
        with pytest.raises(ValueError):
            vss.share([1.0], 0, 4, group, codec, rng)
        with pytest.raises(ValueError):
            vss.share([1.0], 5, 4, group, codec, rng)

    @given(st.lists(st.integers(-1 << 20, 1 << 20), min_size=1, max_size=8),
           st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, group, codec, raw, seed):
        secret = [v / codec.scale for v in raw]
        rng = random.Random(seed)
        bundles, commits = vss.share(secret, 3, 4, group, codec, rng)
        assert all(vss.verify(b, commits, group) for b in bundles)
        assert vss.reconstruct(bundles, 3, group, codec, len(secret)) == tuple(secret)


class TestSoundness:
    def test_tampered_share_fails_verify(self, group, codec, rng):
        bundles, commits = vss.share([0.5, -0.5], 3, 4, group, codec, rng)
        b = bundles[1]
        tampered = ShareBundle(
            eval_point=b.eval_point,
            values=(b.values[0], (b.values[1] + 1) % group.q))
        assert not vss.verify(tampered, commits, group)

    def test_swapped_recipients_fail_verify(self, group, codec, rng):
        bundles, commits = vss.share([0.5], 3, 4, group, codec, rng)
        swapped = ShareBundle(eval_point=1, values=bundles[1].values)
        assert not vss.verify(swapped, commits, group)

    def test_other_dealers_share_fails_verify(self, group, codec, rng):
        # what a reflected ciphertext opens to: a share of another polynomial
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        _, commits = vss.share([0.5], 3, 4, group, codec, rng)
        assert not vss.verify(bundles[0], commits, group)

    def test_dimension_mismatch_raises(self, group, codec, rng):
        bundles, commits = vss.share([0.5], 3, 4, group, codec, rng)
        longer = dataclasses.replace(bundles[0], values=bundles[0].values * 2)
        with pytest.raises(MalformedInputError):
            vss.verify(longer, commits, group)


class TestHiding:
    def test_below_threshold_shares_are_consistent_with_any_secret(self):
        """Surrogate for the hiding property, checked by exhaustive
        enumeration over a tiny field: given th-1 = 2 shares, every candidate
        secret admits exactly one degree-2 polynomial, so the shares reveal
        nothing."""
        q = 23
        for secret in range(q):
            count = 0
            for a1 in range(q):
                for a2 in range(q):
                    coeffs = [secret, a1, a2]
                    if eval_poly(coeffs, 1, q) == 8 and eval_poly(coeffs, 2, q) == 11:
                        count += 1
            assert count == 1


class TestHomomorphism:
    def test_sum_shares_reconstructs_sum(self, group, codec, rng):
        secrets = [[1.0, 2.0], [0.25, -1.0], [-0.5, 0.5]]
        dealt = [vss.share(s, 3, 4, group, codec, rng)[0] for s in secrets]
        summed = [vss.sum_shares([dealt[d][j] for d in range(3)], group)
                  for j in range(4)]
        assert [b.eval_point for b in summed] == [1, 2, 3, 4]
        total = vss.reconstruct(summed, 3, group, codec, 2)
        assert total == (0.75, 1.5)

    def test_sum_rejects_mismatched_points(self, group, codec, rng):
        a, _ = vss.share([1.0], 2, 4, group, codec, rng)
        b, _ = vss.share([1.0], 2, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.sum_shares([a[0], b[1]], group)


class TestSerialization:
    def test_bundle_roundtrip(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -2.0], 3, 4, group, codec, rng)
        for b in bundles:
            assert vss.parse_bundle(b.to_bytes(), b.eval_point) == b
        assert vss.parse_commitments(vss.commitments_to_bytes(commits), 3) == commits

    def test_truncated_bundle_rejected(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 3, 4, group, codec, rng)
        data = bundles[0].to_bytes()
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(data[:-1], 1)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(data + b"\x00", 1)

    def test_truncated_commitments_rejected(self, group, codec, rng):
        _, commits = vss.share([1.0], 3, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(vss.commitments_to_bytes(commits)[:-2], 3)

    def test_coordinates_without_commitments_rejected(self):
        # 3 commitments of width 1: rows of th 3 or 1, not of 2
        commitments = wire.pack_fixed([5, 6, 7])
        assert vss.parse_commitments(commitments, 3) == ((5, 6, 7),)
        assert vss.parse_commitments(commitments, 1) == ((5,), (6,), (7,))
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(commitments, 2)  # 3 is not a multiple of 2

    def test_empty_commitments_roundtrip(self):
        assert vss.parse_commitments(vss.commitments_to_bytes(()), 3) == ()

    def test_zero_width_rejected_before_allocating(self):
        # count 2^32 - 1 at width 0: raises on the header alone
        header = wire.u32(2**32 - 1) + wire.u32(0)
        tracemalloc.start()
        try:
            for parse in (vss.parse_bundle, vss.parse_commitments):
                with pytest.raises(MalformedInputError):
                    parse(header, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_values_past_the_end_rejected(self):
        # count 2 at width 3 needs 6 bytes; 5 are there
        short = wire.u32(2) + wire.u32(3) + bytes(5)
        assert vss.parse_bundle(short + b"\x00", 1).values == (0, 0)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(short, 1)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(short, 1)
        # a count whose values could not fit in any real input
        huge = wire.u32(2**32 - 1) + wire.u32(2**32 - 1)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(huge, 1)

    def test_trailing_byte_rejected(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -2.0], 3, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(bundles[0].to_bytes() + b"\x00", 1)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(vss.commitments_to_bytes(commits) + b"\x00", 3)
