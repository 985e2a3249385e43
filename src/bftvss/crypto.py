"""Simulator-grade authentication and encryption.

Message authentication uses per-sender secret tags managed by a registry the
simulator owns: inside a simulation nobody can forge another sender's tag,
which models authenticated point-to-point channels.  Share transport uses a
pluggable public-key scheme; the default is a test-grade hybrid construction
over the same discrete-log group as the commitments.  None of this is meant
to resist side channels or real-world adversaries.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import wire
from .field import GroupParams

TAG_LEN = 32


class KeyRing:
    """Per-sender authentication keys plus tag computation/verification."""

    def __init__(self, ids, rng: random.Random):
        self._keys = {i: rng.getrandbits(256).to_bytes(32, "big") for i in ids}

    def tag(self, sender: int, body: bytes) -> bytes:
        key = self._keys[sender]
        return hashlib.sha256(key + body).digest()

    def check(self, sender: int, body: bytes, tag: bytes) -> bool:
        if sender not in self._keys:
            return False
        return self.tag(sender, body) == tag


class DecryptionError(Exception):
    pass


@dataclass(frozen=True)
class KeyPair:
    public: int
    secret: int


def _stream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(key + wire.u64(counter)).digest())
        counter += 1
    return bytes(out[:length])


class HybridScheme:
    """ElGamal-style KEM plus hash keystream plus integrity tag.

    Good enough to make eavesdropped ciphertexts opaque and tampered
    ciphertexts detectable inside the simulator.
    """

    name = "hybrid"

    def __init__(self, params: GroupParams):
        self.params = params

    def keygen(self, rng: random.Random) -> KeyPair:
        sk = rng.randrange(1, self.params.q)
        return KeyPair(public=self.params.exp(sk), secret=sk)

    def encrypt(self, public: int, plaintext: bytes, rng: random.Random) -> bytes:
        y = rng.randrange(1, self.params.q)
        c1 = self.params.exp(y)
        shared = pow(public, y, self.params.p)
        key = hashlib.sha256(wire.big(shared)).digest()
        body = bytes(a ^ b for a, b in zip(plaintext, _stream(key, len(plaintext))))
        mac = hashlib.sha256(key + body).digest()
        return wire.big(c1) + wire.lp(body) + mac

    def decrypt(self, secret: int, ciphertext: bytes) -> bytes:
        try:
            r = wire.Reader(ciphertext)
            c1, body, mac = r.big(), r.lp(), r.take(TAG_LEN)
            r.expect_end()
        except ValueError as exc:
            raise DecryptionError("malformed ciphertext") from exc
        shared = pow(c1, secret, self.params.p)
        key = hashlib.sha256(wire.big(shared)).digest()
        if hashlib.sha256(key + body).digest() != mac:
            raise DecryptionError("integrity check failed")
        return bytes(a ^ b for a, b in zip(body, _stream(key, len(body))))


class IdentityScheme:
    """No-op scheme for fast scenarios that do not exercise privacy."""

    name = "identity"

    def __init__(self, params: GroupParams | None = None):
        self.params = params

    def keygen(self, rng: random.Random) -> KeyPair:
        return KeyPair(public=0, secret=0)

    def encrypt(self, public: int, plaintext: bytes, rng: random.Random) -> bytes:
        return plaintext

    def decrypt(self, secret: int, ciphertext: bytes) -> bytes:
        return ciphertext


SCHEMES = {"hybrid": HybridScheme, "identity": IdentityScheme}


def make_scheme(name: str, params: GroupParams):
    if name not in SCHEMES:
        raise ValueError(f"unknown encryption scheme {name!r}")
    return SCHEMES[name](params)
