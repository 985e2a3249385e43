"""Simulator-grade authentication and encryption.

Message authentication uses per-sender secret tags managed by a registry the
simulator owns: inside a simulation nobody can forge another sender's tag,
which models authenticated point-to-point channels.  Share transport uses a
pluggable scheme; the default encrypts under static Diffie-Hellman pair keys
over the same discrete-log group as the commitments, with a fresh nonce per
message (the design of NaCl's crypto_box).  A ciphertext opens only for the
two participants it was made between, so it also authenticates its sender to
its recipient.  None of this is meant to resist side channels or real-world
adversaries, and forward secrecy is not modelled: the pair keys are static.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import wire
from .field import GroupParams

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


def _xor(data: bytes, stream: bytes) -> bytes:
    """data XOR stream, for a stream of data's length."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big")


class HybridScheme:
    """Static Diffie-Hellman pair keys plus hash keystream plus integrity tag.

    The pair (i, j) shares K = sha256(pk_j^sk_i) = sha256(pk_i^sk_j).  It
    costs one pow on first use and is then memoised on this instance, so a
    run pays n - 1 pows per participant, all in its first round.  A
    participant's key with itself, pk^sk = g^(sk*sk), comes from the
    fixed-base table instead, since keygen records each key pair.  Each
    message draws a nonce, keys the keystream and the tag with
    sha256(K || nonce), and is framed nonce || lp(body) || mac.

    Because K_ij = K_ji, j can reflect i's ciphertext for j back to i as
    its own.  It opens to i's share for j, which fails verification at i's
    own point against j's commitments, so it earns j no vote from i.  Good
    enough to make eavesdropped ciphertexts opaque and tampered ciphertexts
    detectable inside the simulator.
    """

    name = "hybrid"

    def __init__(self, params: GroupParams):
        self.params = params
        self._pair_keys: dict[tuple[int, int], bytes] = {}
        self._publics: dict[int, int] = {}  # secret -> public, per keygen

    def keygen(self, rng: random.Random) -> KeyPair:
        sk = rng.randrange(1, self.params.q)
        pk = self._publics[sk] = self.params.exp(sk)
        return KeyPair(public=pk, secret=sk)

    def _message_key(self, secret: int, public: int, nonce: bytes) -> bytes:
        pair = self._pair_keys.get((secret, public))
        if pair is None:
            if self._publics.get(secret) == public:  # a key pair with itself
                shared = self.params.exp(secret * secret)
            else:
                shared = pow(public, secret, self.params.p)
            pair = self._pair_keys[(secret, public)] = hashlib.sha256(
                wire.big(shared)).digest()
        return hashlib.sha256(pair + nonce).digest()

    def encrypt(self, secret: int, public: int, plaintext: bytes,
                rng: random.Random) -> bytes:
        nonce = rng.randbytes(NONCE_LEN)
        key = self._message_key(secret, public, nonce)
        body = _xor(plaintext, _stream(key, len(plaintext)))
        mac = hashlib.sha256(key + body).digest()
        return nonce + wire.lp(body) + mac

    def decrypt(self, secret: int, public: int, ciphertext: bytes) -> bytes:
        try:
            r = wire.Reader(ciphertext)
            nonce, body, mac = r.take(NONCE_LEN), r.lp(), r.take(TAG_LEN)
            r.expect_end()
        except ValueError as exc:
            raise DecryptionError("malformed ciphertext") from exc
        key = self._message_key(secret, public, nonce)
        if hashlib.sha256(key + body).digest() != mac:
            raise DecryptionError("integrity check failed")
        return _xor(body, _stream(key, len(body)))


class IdentityScheme:
    """No-op scheme for fast scenarios that do not exercise privacy."""

    name = "identity"

    def __init__(self, params: GroupParams | None = None):
        self.params = params

    def keygen(self, rng: random.Random) -> KeyPair:
        return KeyPair(public=0, secret=0)

    def encrypt(self, secret: int, public: int, plaintext: bytes,
                rng: random.Random) -> bytes:
        return plaintext

    def decrypt(self, secret: int, public: int, ciphertext: bytes) -> bytes:
        return ciphertext


SCHEMES = {"hybrid": HybridScheme, "identity": IdentityScheme}


def make_scheme(name: str, params: GroupParams):
    if name not in SCHEMES:
        raise ValueError(f"unknown encryption scheme {name!r}")
    return SCHEMES[name](params)
