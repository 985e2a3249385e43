import dataclasses
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss.field import (
    EncodingRangeError,
    FixedPointCodec,
    GroupParams,
    generate_group,
)


class TestGroupGeneration:
    def test_deterministic(self):
        a = generate_group(64, 32, 7)
        b = generate_group(64, 32, 7)
        assert (a.p, a.q, a.g) == (b.p, b.q, b.g)

    def test_different_seeds_differ(self):
        assert generate_group(64, 32, 1) != generate_group(64, 32, 2)

    def test_structure(self):
        params = generate_group(64, 32, 3)
        assert sympy.isprime(params.p) and sympy.isprime(params.q)
        assert params.p.bit_length() == 64
        assert params.q.bit_length() == 32
        assert (params.p - 1) % params.q == 0
        assert pow(params.g, params.q, params.p) == 1
        assert params.g != 1

    def test_validate_rejects_composite_p(self):
        with pytest.raises(ValueError):
            GroupParams(p=48, q=23, g=2).validate()

    def test_validate_rejects_wrong_order(self):
        # 5 is a non-residue mod 47, so 5^23 = -1: not in the q=23 subgroup
        with pytest.raises(ValueError):
            GroupParams(p=47, q=23, g=5).validate()

    def test_rejects_tiny_q(self):
        with pytest.raises(ValueError):
            generate_group(16, 3, 0)

    def test_rejects_q_not_below_p(self):
        with pytest.raises(ValueError):
            generate_group(32, 32, 0)


@pytest.fixture(scope="module")
def mid_group() -> GroupParams:
    return generate_group(512, 128, 5)


def exponents(params: GroupParams):
    """Below q, from q up past 2^bits_q, and negative."""
    top = 1 << (params.q.bit_length() + 64)
    return st.one_of(st.integers(0, params.q - 1), st.integers(params.q, top),
                     st.integers(-top, -1))


class TestFixedBaseExp:
    @pytest.mark.parametrize("name", ["tiny_group", "group", "mid_group"])
    def test_edges(self, request, name):
        params = request.getfixturevalue(name)
        q = params.q
        for e in (0, 1, q - 1, q, q + 1, 2 * q, 1 << q.bit_length(),
                  (1 << (q.bit_length() + 70)) + 3, -1):
            assert params.exp(e) == pow(params.g, e, params.p), e

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_pow(self, tiny_group, group, mid_group, data):
        for params in (tiny_group, group, mid_group):
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
    def test_exact_values(self, group):
        codec = FixedPointCodec(16, group.q)
        assert codec.decode(codec.encode(1.5)) == 1.5
        assert codec.decode(codec.encode(-2.25)) == -2.25
        assert codec.decode(codec.encode(0.0)) == 0.0

    def test_negative_wraps_to_top_half(self, group):
        codec = FixedPointCodec(16, group.q)
        e = codec.encode(-1.0)
        assert e > group.q // 2
        assert codec.decode(e) == -1.0

    def test_range_error(self, group):
        codec = FixedPointCodec(16, group.q)
        with pytest.raises(EncodingRangeError):
            codec.encode(codec.max_abs)
        with pytest.raises(EncodingRangeError):
            codec.encode(-codec.max_abs * 2)

    def test_encode_is_additive(self, group):
        codec = FixedPointCodec(16, group.q)
        rng = random.Random(0)
        for _ in range(200):
            # representable multiples of 2^-16 add without rounding error
            a = rng.randrange(-1 << 20, 1 << 20) / codec.scale
            b = rng.randrange(-1 << 20, 1 << 20) / codec.scale
            summed = (codec.encode(a) + codec.encode(b)) % group.q
            assert codec.decode(summed) == a + b

    @given(st.floats(-100.0, 100.0, allow_nan=False))
    @settings(max_examples=300)
    def test_roundtrip_within_half_ulp(self, group, x):
        codec = FixedPointCodec(16, group.q)
        assert abs(codec.decode(codec.encode(x)) - x) <= 0.5 / codec.scale

    def test_vector_helpers(self, group):
        codec = FixedPointCodec(16, group.q)
        xs = (0.5, -0.5, 3.0)
        assert codec.decode_vector(codec.encode_vector(xs)) == xs
