"""Simulator-grade authentication and the share transport.

Message authentication uses per-sender secret tags managed by a registry the
simulator owns: inside a simulation nobody can forge another sender's tag,
which models authenticated point-to-point channels.  Shares travel under one
scheme, HybridScheme: static Diffie-Hellman pair keys over the same
discrete-log group as the commitments, with a fresh nonce per message (the
design of NaCl's crypto_box).  A ciphertext opens only under the secret key
of one of the two participants it was made between, so it also authenticates
its sender to its recipient; what an attacker reads depends only on the
secret keys it holds.  None of this is meant to resist side channels or
real-world adversaries, and forward secrecy is not modelled: the pair keys
are static.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import wire
from .field import Comb, GroupParams

TAG_LEN = 32
NONCE_LEN = 16


class KeyRing:
    """Per-sender authentication keys plus tag computation/verification."""

    def __init__(self, ids, rng: random.Random):
        self._keys = {i: rng.getrandbits(256).to_bytes(32, "big") for i in ids}

    def tag(self, sender: int, body: bytes) -> bytes:
        key = self._keys[sender]
        return hashlib.sha256(key + body).digest()

    def check(self, sender: int, body: bytes, tag: bytes) -> bool:
        key = self._keys.get(sender)
        return key is not None and hashlib.sha256(key + body).digest() == tag


class DecryptionError(wire.MalformedInputError):
    """A ciphertext that does not parse or fails its integrity check."""


@dataclass(frozen=True)
class KeyPair:
    public: int
    secret: int


def _xor(data: bytes, stream: bytes) -> bytes:
    """data XOR stream, for a stream of data's length."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big")


class HybridScheme:
    """Static Diffie-Hellman pair keys plus SHAKE-256 keystream plus keyed
    BLAKE2b tag.

    The pair (i, j) shares K = sha256(pk_j^sk_i) = sha256(pk_i^sk_j), the
    power written big-endian at p's byte width.  It is computed on first use
    and is then memoised on this instance under the unordered pair of public
    keys, so a run computes n(n-1)/2 pair keys, one per pair, whichever end
    asks first, all in its first round: no participant seals a ciphertext to
    itself.  The power of the other end's public key is evaluated on a
    field.Comb of that key, built the first time the key is a base and
    memoised here under the key alone, so each pair key costs bits(q)/4
    squarings and as many multiplications where pow pays about bits(q)
    squarings; a secret the comb cannot hold raises ValueError.  The
    pair-key memo is reached only through a secret whose public key the
    scheme derives itself, so only the two ends of a pair can use that
    pair's key.  Each message draws a nonce and keys both its keystream,
    shake_256(k), and its tag, blake2b keyed with k (TAG_LEN bytes), with
    k = sha256(K || nonce).  A ciphertext is nonce || body || tag with no
    length prefix of its own, since it travels as a length-prefixed blob of
    its share request; one shorter than NONCE_LEN + TAG_LEN is malformed.

    Because K_ij = K_ji, j can reflect i's ciphertext for j back to i as
    its own.  It opens to i's share for j, which fails verification at i's
    own point against j's commitments, so it earns j no vote from i.  Good
    enough to make eavesdropped ciphertexts opaque and tampered ciphertexts
    detectable inside the simulator.
    """

    def __init__(self, params: GroupParams):
        self.params = params
        self._publics: dict[int, int] = {}
        self._pair_keys: dict[tuple[int, int], bytes] = {}
        self._combs: dict[int, Comb] = {}

    def keygen(self, rng: random.Random, count: int) -> list[KeyPair]:
        """count key pairs: the secrets drawn one after another, as count
        calls of rng.randrange(1, q) draw them, and the public keys in one
        exps call."""
        secrets = [rng.randrange(1, self.params.q) for _ in range(count)]
        publics = self.params.exps(secrets)
        self._publics.update(zip(secrets, publics))
        return [KeyPair(public=pk, secret=sk) for sk, pk in zip(secrets, publics)]

    def _message_key(self, secret: int, public: int, nonce: bytes) -> bytes:
        own = self._publics.get(secret)
        if own is None:
            own = self._publics[secret] = self.params.exps((secret,))[0]
        ends = (own, public) if own <= public else (public, own)
        pair = self._pair_keys.get(ends)
        if pair is None:
            comb = self._combs.get(public)
            if comb is None:
                comb = self._combs[public] = Comb(self.params, public)
            shared = comb.pow(secret).to_bytes((self.params.p.bit_length() + 7) // 8, "big")
            pair = self._pair_keys[ends] = hashlib.sha256(shared).digest()
        return hashlib.sha256(pair + nonce).digest()

    def encrypt(self, secret: int, public: int, plaintext: bytes,
                rng: random.Random) -> bytes:
        nonce = rng.randbytes(NONCE_LEN)
        key = self._message_key(secret, public, nonce)
        body = _xor(plaintext, hashlib.shake_256(key).digest(len(plaintext)))
        return nonce + body + hashlib.blake2b(body, key=key, digest_size=TAG_LEN).digest()

    def decrypt(self, secret: int, public: int, ciphertext: bytes) -> bytes:
        if len(ciphertext) < NONCE_LEN + TAG_LEN:
            raise DecryptionError("malformed ciphertext")
        nonce, body, mac = (ciphertext[:NONCE_LEN], ciphertext[NONCE_LEN:-TAG_LEN],
                            ciphertext[-TAG_LEN:])
        key = self._message_key(secret, public, nonce)
        if hashlib.blake2b(body, key=key, digest_size=TAG_LEN).digest() != mac:
            raise DecryptionError("integrity check failed")
        return _xor(body, hashlib.shake_256(key).digest(len(body)))
