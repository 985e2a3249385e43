import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import vss
from bftvss.field import (
    GROUPS,
    EncodingRangeError,
    FixedPointCodec,
    GroupParams,
    generate_group,
)


def sizes_id(sizes):
    return "%d-%d" % sizes


class TestGroupGeneration:
    @pytest.mark.parametrize("sizes", sorted(GROUPS), ids=sizes_id)
    def test_committed_group(self, sizes):
        params = generate_group(*sizes)
        params.validate()
        assert (params.p.bit_length(), params.q.bit_length()) == sizes
        assert params is GROUPS[sizes] is generate_group(*sizes)

    @pytest.mark.parametrize("sizes", [(64, 32), (512, 128)], ids=sizes_id)
    def test_rejects_uncommitted_sizes(self, sizes):
        with pytest.raises(ValueError, match="supported"):
            generate_group(*sizes)

    def test_validate_rejects_composite_p(self):
        with pytest.raises(ValueError):
            GroupParams(p=48, q=23, g=2).validate()

    def test_validate_rejects_wrong_order(self):
        # 5 is a non-residue mod 47, so 5^23 = -1: not in the q=23 subgroup
        with pytest.raises(ValueError):
            GroupParams(p=47, q=23, g=5).validate()

    def test_rejects_tiny_q(self):
        with pytest.raises(ValueError):
            generate_group(16, 3)

    def test_rejects_q_not_below_p(self):
        with pytest.raises(ValueError):
            generate_group(32, 32)


def exponents(params: GroupParams):
    """Below q, from q up past 2^bits_q, and negative."""
    top = 1 << (params.q.bit_length() + 64)
    return st.one_of(st.integers(0, params.q - 1), st.integers(params.q, top),
                     st.integers(-top, -1))


class TestFixedBaseExp:
    @pytest.mark.parametrize("name", ["tiny_group", "group", "group_2048"])
    def test_edges(self, request, name):
        params = request.getfixturevalue(name)
        q = params.q
        for e in (0, 1, q - 1, q, q + 1, 2 * q, 1 << q.bit_length(),
                  (1 << (q.bit_length() + 70)) + 3, -1):
            assert params.exp(e) == pow(params.g, e, params.p), e

    @pytest.mark.parametrize("name", ["group", "group_2048"])
    def test_window_edges(self, request, name):
        params = request.getfixturevalue(name)
        q, w = params.q, params._window
        for e in (0, 1, (1 << w) - 1, 1 << w, q - 1, q, q + 1, 1 << q.bit_length()):
            assert params.exp(e) == pow(params.g, e, params.p), e

    @pytest.mark.parametrize("sizes, window, rows", [((96, 48), 12, 4),
                                                     ((2048, 256), 9, 29)])
    def test_widest_window_within_the_table_budget(self, sizes, window, rows):
        params = generate_group(*sizes)
        assert (params._window, len(params._g_table)) == (window, rows)
        assert rows << window <= 1 << 14 < -(-sizes[1] // (window + 1)) << (window + 1)

    def test_window_no_wider_than_q(self, tiny_group):
        assert tiny_group._window == tiny_group.q.bit_length() == 5
        assert len(tiny_group._g_table) == 1

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_pow(self, tiny_group, group, group_2048, data):
        for params in (tiny_group, group, group_2048):
            e = data.draw(exponents(params))
            assert params.exp(e) == pow(params.g, e, params.p)

    def test_table_stays_out_of_value_semantics(self, group):
        group.exp(5)
        clone = GroupParams(p=group.p, q=group.q, g=group.g)
        assert clone == group and hash(clone) == hash(group)
        assert repr(clone) == repr(group)
        assert dataclasses.asdict(group) == {"p": group.p, "q": group.q, "g": group.g}

    def test_order_check_does_not_use_the_table(self):
        # g = 5 has order 46, not 23, mod 47: reducing e mod q would hide
        # that, so validate() must keep computing g^q with pow
        bad = GroupParams(p=47, q=23, g=5)
        assert bad.exp(bad.q) == 1 != pow(5, 23, 47)
        with pytest.raises(ValueError):
            bad.validate()


class TestFixedPointCodec:
    def test_exact_values(self, codec):
        xs = (1.5, -2.25, 0.0)
        assert codec.decode_vector(codec.encode_vector(xs), 3) == xs

    def test_negative_wraps_to_top_half(self, group, codec):
        (e,) = codec.encode_vector([-1.0])
        assert e > group.q // 2
        assert codec.decode_vector([e], 1) == (-1.0,)

    def test_range_error(self, codec):
        with pytest.raises(EncodingRangeError):
            codec.encode_vector([codec.max_abs])
        with pytest.raises(EncodingRangeError):
            codec.encode_vector([-codec.max_abs * 2])

    def test_encode_is_additive(self, group, codec):
        rng = random.Random(0)
        for _ in range(200):
            # representable multiples of 2^-16 add without rounding error
            a = rng.randrange(-1 << 20, 1 << 20) / codec.scale
            b = rng.randrange(-1 << 20, 1 << 20) / codec.scale
            (ea,), (eb,) = codec.encode_vector([a]), codec.encode_vector([b])
            assert codec.decode_vector([(ea + eb) % group.q], 1) == (a + b,)

    @given(st.floats(-100.0, 100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_roundtrip_within_half_ulp(self, codec, x):
        (y,) = codec.decode_vector(codec.encode_vector([x]), 1)
        assert abs(y - x) <= 0.5 / codec.scale

    def test_vector_helpers(self, codec):
        xs = (0.5, -0.5, 3.0)
        assert codec.decode_vector(codec.encode_vector(xs), 3) == xs

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_one_lane_at_the_default_group(self, group, n):
        # so every 96/48 encoding is the unpacked one: v mod q
        codec = FixedPointCodec(16, group.q, n)
        assert codec.lanes == 1
        assert codec.encode_vector([-1.0, 2.5]) == (group.q - codec.scale,
                                                     5 * codec.scale // 2)

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_summands_at_the_bound_sum_exactly(self, group, n, sign):
        codec = FixedPointCodec(16, group.q, n)
        x = sign * (codec.max_abs - 1 / codec.scale)
        (e,) = codec.encode_vector([x])
        assert codec.decode_vector([e * n % group.q], 1) == (n * x,)

    def test_decode_rejects_a_wrong_element_count(self, codec):
        with pytest.raises(ValueError):
            codec.decode_vector((1, 2), 1)


@pytest.fixture(scope="module")
def packed(group_2048) -> FixedPointCodec:
    return FixedPointCodec(16, group_2048.q, 4)


def in_range(codec: FixedPointCodec):
    return st.floats(-codec.max_abs, codec.max_abs, exclude_min=True, exclude_max=True)


class TestPackedCodec:
    """Nine 28-bit lanes to an element of the committed 2048/256 group."""

    def test_shape(self, packed):
        assert (packed.lanes, packed.width, packed.max_abs) == (9, 28, 256.0)
        assert packed.packed_length(16) == 2

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_within_half_ulp(self, packed, data):
        dim = data.draw(st.integers(1, 3 * packed.lanes + 1))
        xs = data.draw(st.lists(in_range(packed), min_size=dim, max_size=dim))
        es = packed.encode_vector(xs)
        assert len(es) == packed.packed_length(dim)
        ys = packed.decode_vector(es, dim)
        assert all(abs(y - x) <= 0.5 / packed.scale for x, y in zip(xs, ys, strict=True))

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_summands_sum_exactly_through_shares(self, group_2048, packed, data):
        dim = data.draw(st.integers(1, 2 * packed.lanes + 1))
        vectors = data.draw(st.lists(
            st.lists(in_range(packed), min_size=dim, max_size=dim),
            min_size=packed.summands, max_size=packed.summands))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        dealt = [vss.share(v, 3, 4, group_2048, packed, rng)[0] for v in vectors]
        summed = [vss.sum_shares([bundles[j] for bundles in dealt], group_2048)
                  for j in range(4)]
        decoded = [packed.decode_vector(packed.encode_vector(v), dim) for v in vectors]
        expected = tuple(sum(column) for column in zip(*decoded))
        assert vss.reconstruct(summed, 3, group_2048, packed, dim) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_elements_decode_to_finite_values(self, packed, data):
        # what a Byzantine dealer's elements reconstruct to
        dim = data.draw(st.integers(1, 3 * packed.lanes + 1))
        es = data.draw(st.lists(st.integers(0, packed.q - 1),
                                min_size=packed.packed_length(dim),
                                max_size=packed.packed_length(dim)))
        ys = packed.decode_vector(es, dim)
        bound = 2.0 ** (packed.width - 1) / packed.scale
        assert len(ys) == dim and all(math.isfinite(y) and abs(y) <= bound for y in ys)

    @given(st.floats(allow_nan=False).filter(lambda x: abs(x) >= 256.0),  # max_abs
           st.integers(0, 8))
    def test_out_of_range_raises(self, packed, x, k):
        xs = [0.0] * 9
        xs[k] = x
        with pytest.raises(EncodingRangeError):
            packed.encode_vector(xs)

    def test_nan_raises(self, packed):
        with pytest.raises(EncodingRangeError):
            packed.encode_vector([math.nan])
