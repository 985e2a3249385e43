import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import crypto
from bftvss.crypto import (
    NONCE_LEN,
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
    @pytest.fixture()
    def parties(self, group, rng):
        """A scheme and the key pairs of a sender and a recipient."""
        scheme = HybridScheme(group)
        return scheme, scheme.keygen(rng), scheme.keygen(rng)

    def test_roundtrip(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        assert scheme.decrypt(b.secret, a.public, ct) == b"secret payload"

    def test_wrong_key_fails(self, parties, rng):
        scheme, a, b = parties
        c = scheme.keygen(rng)  # c's secret in place of the recipient's
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(c.secret, a.public, ct)

    def test_wrong_sender_public_fails(self, parties, rng):
        scheme, a, b = parties
        c = scheme.keygen(rng)  # c's public key in place of the sender's
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(b.secret, c.public, ct)

    def test_pair_key_is_symmetric(self, parties, rng):
        # what makes reflection possible: b's ciphertext for a opens as if a
        # had sent it to b (such a share fails verification at b's point)
        scheme, a, b = parties
        ct = scheme.encrypt(b.secret, a.public, b"secret payload", rng)
        fresh = HybridScheme(scheme.params)  # no memoised pair key
        assert fresh.decrypt(b.secret, a.public, ct) == b"secret payload"

    def test_encryptions_differ(self, parties, rng):
        scheme, a, b = parties
        one = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        two = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        assert one != two
        assert one[NONCE_LEN:] != two[NONCE_LEN:]

    def test_tampered_ciphertext_fails(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        for pos in (0, len(ct) - 1):  # the nonce, then the tag
            bad = bytearray(ct)
            bad[pos] ^= 0x01
            with pytest.raises(DecryptionError):
                scheme.decrypt(b.secret, a.public, bytes(bad))

    def test_truncated_ciphertext_fails(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        for cut in (NONCE_LEN - 1, len(ct) // 2, len(ct) - 1):
            with pytest.raises(DecryptionError):
                scheme.decrypt(b.secret, a.public, ct[:cut])

    def test_malformed_framing_fails(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        off = NONCE_LEN  # the body's length prefix follows the nonce
        overrun = ct[:off] + len(ct).to_bytes(4, "big") + ct[off + 4:]
        for bad in (ct + b"\x00", overrun):
            with pytest.raises(DecryptionError):
                scheme.decrypt(b.secret, a.public, bad)

    @given(st.binary(max_size=256), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, group, plaintext, seed):
        scheme = HybridScheme(group)
        r = random.Random(seed)
        a, b = scheme.keygen(r), scheme.keygen(r)
        ct = scheme.encrypt(a.secret, b.public, plaintext, r)
        assert scheme.decrypt(b.secret, a.public, ct) == plaintext


class TestSelfPairKey:
    """A participant's key with itself, pk^sk = g^(sk*sk), comes from the
    fixed-base table of the scheme that generated the key pair."""

    @pytest.mark.parametrize("name", ["group", "group_2048"])
    def test_equals_pow(self, request, monkeypatch, rng, name):
        params = request.getfixturevalue(name)
        scheme = HybridScheme(params)
        kp = scheme.keygen(rng)
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
        ct = scheme.encrypt(kp.secret, kp.public, b"own share", rng)
        assert calls == []
        # a scheme that never generated the pair computes pow(pk, sk, p)
        fresh = HybridScheme(params)
        assert fresh.decrypt(kp.secret, kp.public, ct) == b"own share"
        assert calls == [(kp.public, kp.secret, params.p)]


@given(st.binary(max_size=300), st.integers(0, 2**32))
@settings(max_examples=100)
def test_xor_matches_bytewise(data, seed):
    stream = random.Random(seed).randbytes(len(data))
    assert crypto._xor(data, stream) == bytes(a ^ b for a, b in zip(data, stream))


class TestIdentityScheme:
    def test_passthrough(self, rng):
        scheme = IdentityScheme()
        kp = scheme.keygen(rng)
        ct = scheme.encrypt(kp.secret, kp.public, b"x", rng)
        assert scheme.decrypt(kp.secret, kp.public, ct) == b"x"


def test_make_scheme(group):
    assert isinstance(make_scheme("hybrid", group), HybridScheme)
    assert isinstance(make_scheme("identity", group), IdentityScheme)
    with pytest.raises(ValueError):
        make_scheme("bogus", group)
