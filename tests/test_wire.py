import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bftvss import wire


class TestPrimitives:
    def test_u32_layout(self):
        assert wire.u32(1) == b"\x00\x00\x00\x01"

    def test_lp_layout(self):
        assert wire.lp(b"ab") == b"\x00\x00\x00\x02ab"

    @given(st.integers(0, 2**256))
    def test_big_roundtrip(self, x):
        r = wire.Reader(wire.big(x))
        assert int.from_bytes(r.lp(), "big") == x
        r.expect_end()

    @given(st.lists(st.one_of(
        st.integers(0, 2**128),
        st.integers(1, 16).flatmap(lambda k: st.sampled_from([2**(8 * k) - 1, 2**(8 * k)])),
    ), max_size=8))
    @example([])
    @example([0])
    @example([0, 2**64 - 1])
    @example([2**64, 1])
    def test_fixed_roundtrip(self, xs):
        data = wire.pack_fixed(xs)
        width = int.from_bytes(data[4:8], "big")
        assert len(data) == 8 + len(xs) * width
        assert width == 1 or max(xs) >= 256 ** (width - 1)  # the narrowest that fits
        r = wire.Reader(data)
        assert list(r.fixed()) == xs
        r.expect_end()

    def test_fixed_width_boundary(self):
        # 2^(8k) - 1 fits in k bytes; 2^(8k) needs k + 1
        assert wire.pack_fixed([255]) == wire.u32(1) + wire.u32(1) + b"\xff"
        assert wire.pack_fixed([256]) == wire.u32(1) + wire.u32(2) + b"\x01\x00"
        assert wire.pack_fixed([0, 256]) == wire.u32(2) + wire.u32(2) + b"\x00\x00\x01\x00"

    @given(st.lists(st.binary(max_size=32), max_size=8))
    def test_blobs_roundtrip(self, bs):
        r = wire.Reader(wire.pack_blobs(bs))
        assert r.blobs(len(bs)) == bs
        r.expect_end()
        for count in (len(bs) - 1, len(bs) + 1):
            with pytest.raises(wire.MalformedInputError):
                wire.Reader(wire.pack_blobs(bs)).blobs(count)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=64))
    def test_mixed_roundtrip(self, b, c, blob):
        data = wire.u32(b) + wire.u64(c) + wire.lp(blob)
        r = wire.Reader(data)
        assert (r.u32(), int.from_bytes(r.take(8), "big"), r.lp()) == (b, c, blob)
        r.expect_end()


class TestReaderErrors:
    def test_truncated_u32(self):
        with pytest.raises(ValueError):
            wire.Reader(b"\x00\x00").u32()

    def test_truncated_blob(self):
        with pytest.raises(ValueError):
            wire.Reader(b"\x00\x00\x00\x05ab").lp()

    def test_trailing_bytes_rejected(self):
        r = wire.Reader(b"\x01\x02")
        r.take(1)
        with pytest.raises(ValueError):
            r.expect_end()
