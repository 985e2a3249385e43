import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import crypto, field
from bftvss.crypto import (
    NONCE_LEN,
    DecryptionError,
    HybridScheme,
    KeyPair,
    KeyRing,
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
        return (scheme, *scheme.keygen(rng, 2))

    def test_keygen_draws_each_secret_in_turn(self, group):
        # the secrets of count keys are count draws of randrange(1, q), and
        # each public key is g to its secret
        rng, ref = random.Random(3), random.Random(3)
        pairs = HybridScheme(group).keygen(rng, 5)
        secrets = [ref.randrange(1, group.q) for _ in range(5)]
        assert pairs == [KeyPair(public=pow(group.g, s, group.p), secret=s) for s in secrets]
        assert rng.getstate() == ref.getstate()
        assert HybridScheme(group).keygen(rng, 0) == []

    def test_roundtrip(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        assert scheme.decrypt(b.secret, a.public, ct) == b"secret payload"

    def test_wrong_key_fails(self, parties, rng):
        scheme, a, b = parties
        (c,) = scheme.keygen(rng, 1)  # c's secret in place of the recipient's
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(c.secret, a.public, ct)

    def test_wrong_sender_public_fails(self, parties, rng):
        scheme, a, b = parties
        (c,) = scheme.keygen(rng, 1)  # c's public key in place of the sender's
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

    @pytest.mark.parametrize("first", ["a encrypts", "b decrypts"])
    def test_other_end_costs_no_pow(self, parties, rng, comb_counts, first):
        # whichever end of the pair asks first pays the pair's one power, on
        # a comb of the other end's public key
        scheme, a, b = parties
        to_b = HybridScheme(scheme.params).encrypt(a.secret, b.public, b"to b", rng)
        built, evaluated = comb_counts
        built.clear()
        evaluated.clear()
        if first == "a encrypts":
            scheme.encrypt(a.secret, b.public, b"to b", rng)
        else:
            scheme.decrypt(b.secret, a.public, to_b)
        base = b.public if first == "a encrypts" else a.public
        assert built == evaluated == {base: 1}
        to_a = scheme.encrypt(b.secret, a.public, b"to a", rng)
        assert scheme.decrypt(a.secret, b.public, to_a) == b"to a"
        assert scheme.decrypt(b.secret, a.public, to_b) == b"to b"
        assert built == evaluated == {base: 1}

    def test_fresh_scheme_builds_its_own_combs(self, parties, rng, comb_counts):
        scheme, a, b = parties
        (c,) = scheme.keygen(rng, 1)
        built, evaluated = comb_counts
        for s in (scheme, HybridScheme(scheme.params)):
            s.encrypt(a.secret, c.public, b"to c", rng)
            s.encrypt(b.secret, c.public, b"to c", rng)
        # one comb of c's key per scheme, each serving both of its pairs
        assert built == {c.public: 2} and evaluated == {c.public: 4}

    def test_secret_the_comb_cannot_hold_raises(self, parties, rng):
        scheme, a, _ = parties
        wide = 1 << (field._COMB_TEETH * field.Comb(scheme.params, a.public).span)
        for secret in (-1, wide, wide + scheme.params.q):
            with pytest.raises(ValueError):
                scheme.encrypt(secret, a.public, b"secret payload", rng)

    def test_memoised_pair_key_needs_a_pair_secret(self, parties, rng):
        scheme, a, b = parties
        ct = scheme.encrypt(a.secret, b.public, b"secret payload", rng)
        assert scheme.decrypt(b.secret, a.public, ct) == b"secret payload"
        (c,) = scheme.keygen(rng, 1)  # the memo holds (a, b); c holds neither secret
        for public in (a.public, b.public):
            with pytest.raises(DecryptionError):
                scheme.decrypt(c.secret, public, ct)

    def test_secret_not_from_keygen_roundtrips(self, parties, rng):
        scheme, a, _ = parties
        secret = rng.randrange(1, scheme.params.q)
        (public,) = scheme.params.exps([secret])
        ct = scheme.encrypt(secret, a.public, b"secret payload", rng)
        assert scheme.decrypt(a.secret, public, ct) == b"secret payload"
        ct = scheme.encrypt(a.secret, public, b"reply", rng)
        assert HybridScheme(scheme.params).decrypt(secret, a.public, ct) == b"reply"

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
        a, b = scheme.keygen(r, 2)
        ct = scheme.encrypt(a.secret, b.public, plaintext, r)
        assert scheme.decrypt(b.secret, a.public, ct) == plaintext


@given(st.binary(max_size=300), st.integers(0, 2**32))
@settings(max_examples=100)
def test_xor_matches_bytewise(data, seed):
    stream = random.Random(seed).randbytes(len(data))
    assert crypto._xor(data, stream) == bytes(a ^ b for a, b in zip(data, stream))
