import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss.crypto import (
    DecryptionError,
    HybridScheme,
    IdentityScheme,
    KeyRing,
    make_scheme,
)


class TestKeyRing:
    def test_tag_check_roundtrip(self):
        ring = KeyRing(range(4), random.Random(0))
        tag = ring.tag(2, b"hello")
        assert ring.check(2, b"hello", tag)

    def test_wrong_sender_rejected(self):
        ring = KeyRing(range(4), random.Random(0))
        tag = ring.tag(2, b"hello")
        assert not ring.check(1, b"hello", tag)

    def test_tampered_body_rejected(self):
        ring = KeyRing(range(4), random.Random(0))
        tag = ring.tag(2, b"hello")
        assert not ring.check(2, b"hellp", tag)

    def test_deterministic_keys(self):
        a = KeyRing(range(4), random.Random(9))
        b = KeyRing(range(4), random.Random(9))
        assert a.tag(0, b"x") == b.tag(0, b"x")


class TestHybridScheme:
    def test_roundtrip(self, group, rng):
        scheme = HybridScheme(group)
        kp = scheme.keygen(rng)
        ct = scheme.encrypt(kp.public, b"secret payload", rng)
        assert scheme.decrypt(kp.secret, ct) == b"secret payload"

    def test_wrong_key_fails(self, group, rng):
        scheme = HybridScheme(group)
        kp1 = scheme.keygen(rng)
        kp2 = scheme.keygen(rng)
        ct = scheme.encrypt(kp1.public, b"secret payload", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(kp2.secret, ct)

    def test_tampered_ciphertext_fails(self, group, rng):
        scheme = HybridScheme(group)
        kp = scheme.keygen(rng)
        ct = bytearray(scheme.encrypt(kp.public, b"secret payload", rng))
        ct[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            scheme.decrypt(kp.secret, bytes(ct))

    def test_truncated_ciphertext_fails(self, group, rng):
        scheme = HybridScheme(group)
        kp = scheme.keygen(rng)
        ct = scheme.encrypt(kp.public, b"secret payload", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(kp.secret, ct[: len(ct) // 2])

    def test_malformed_framing_fails(self, group, rng):
        scheme = HybridScheme(group)
        kp = scheme.keygen(rng)
        ct = scheme.encrypt(kp.public, b"secret payload", rng)
        off = 4 + int.from_bytes(ct[:4], "big")  # the body's length prefix
        overrun = ct[:off] + len(ct).to_bytes(4, "big") + ct[off + 4:]
        for bad in (ct + b"\x00", overrun):
            with pytest.raises(DecryptionError):
                scheme.decrypt(kp.secret, bad)

    @given(st.binary(max_size=256), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, group, plaintext, seed):
        scheme = HybridScheme(group)
        r = random.Random(seed)
        kp = scheme.keygen(r)
        assert scheme.decrypt(kp.secret, scheme.encrypt(kp.public, plaintext, r)) \
            == plaintext


class TestIdentityScheme:
    def test_passthrough(self, rng):
        scheme = IdentityScheme()
        kp = scheme.keygen(rng)
        assert scheme.decrypt(kp.secret, scheme.encrypt(kp.public, b"x", rng)) == b"x"


def test_make_scheme(group):
    assert isinstance(make_scheme("hybrid", group), HybridScheme)
    assert isinstance(make_scheme("identity", group), IdentityScheme)
    with pytest.raises(ValueError):
        make_scheme("bogus", group)
