"""Modular arithmetic over a prime-order subgroup, plus the fixed-point codec.

The sharing layer works over Z_q (exponents / share values) and the
multiplicative subgroup of order q inside Z_p* (commitments).  Gradients are
real-valued, so a fixed-point codec maps them into Z_q with a two's-complement
style wraparound for negatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import sympy


class GroupGenerationError(Exception):
    """Parameter search exhausted without finding a valid (p, q, g)."""


class EncodingRangeError(Exception):
    """Real value too large for the fixed-point representation."""


# Search budgets for generate_group.  Generous: a random bits_q-bit prime q
# admits a prime p = q*m + 1 quickly by the prime number theorem.
_MAX_Q_CANDIDATES = 50_000
_MAX_P_CANDIDATES = 200_000

# Window width of the fixed-base table for g.  At 2048/256 on a 2-core x86-64
# VM (CPython 3.11), 6 bits builds the table in 40-50 ms and makes exp 6-7x
# faster than pow; 4 bits is 4-5x, and 8 bits 8-9x but three times as slow
# to build.
_WINDOW = 6


@dataclass(frozen=True)
class GroupParams:
    """A prime p, prime subgroup order q with q | p-1, and a generator g of
    the order-q subgroup of Z_p*."""

    p: int
    q: int
    g: int

    def validate(self) -> None:
        if not sympy.isprime(self.p):
            raise ValueError("p is not prime")
        if not sympy.isprime(self.q):
            raise ValueError("q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ValueError("q does not divide p - 1")
        if not (2 <= self.g <= self.p - 1):
            raise ValueError("g out of range")
        if self.g == 1 or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not generate an order-q subgroup")

    @cached_property
    def _g_table(self) -> tuple[tuple[int, ...], ...]:
        """rows[i][v] = g^(v * 2^(_WINDOW*i)) mod p, one row per window of
        an exponent below q.  Built on first use, once per group; a cached
        property stays out of eq, hash, repr and asdict."""
        p, base, rows = self.p, self.g, []
        for _ in range(-(-self.q.bit_length() // _WINDOW)):
            row = [1]
            for _ in range((1 << _WINDOW) - 1):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p
        return tuple(rows)

    def exp(self, e: int) -> int:
        """g^(e mod q) mod p from the fixed-base table: one multiplication
        per non-zero window instead of a square-and-multiply chain.  Equal to
        pow(g, e, p) for any group that passes validate(), since g^q = 1."""
        e %= self.q
        p, mask, acc = self.p, (1 << _WINDOW) - 1, 1
        for row in self._g_table:
            if not e:
                break
            v = e & mask
            if v:
                acc = acc * row[v] % p
            e >>= _WINDOW
        return acc


def check_group_sizes(bits_p: int, bits_q: int) -> None:
    """Raise ValueError unless generate_group accepts these sizes."""
    if bits_q >= bits_p:
        raise ValueError("bits_q must be smaller than bits_p")
    if bits_q < 4:
        raise ValueError("bits_q too small")


def generate_group(bits_p: int, bits_q: int, seed: int) -> GroupParams:
    """Deterministically generate group parameters from a seed.

    Picks a random bits_q-bit prime q, searches for p = q*m + 1 prime with
    exactly bits_p bits, then derives a generator g = h^((p-1)/q) mod p.
    Small test-scale sizes (down to 4-bit q) are permitted so properties can
    be checked exhaustively.
    """
    check_group_sizes(bits_p, bits_q)
    rng = random.Random(seed)

    q = None
    for _ in range(_MAX_Q_CANDIDATES):
        cand = rng.getrandbits(bits_q) | (1 << (bits_q - 1)) | 1
        if sympy.isprime(cand):
            q = cand
            break
    if q is None:
        raise GroupGenerationError("no prime q found within budget")

    bits_m = bits_p - bits_q
    p = None
    for _ in range(_MAX_P_CANDIDATES):
        m = rng.getrandbits(bits_m) | (1 << (bits_m - 1))
        cand = q * m + 1
        if cand.bit_length() == bits_p and sympy.isprime(cand):
            p = cand
            break
    if p is None:
        raise GroupGenerationError("no prime p = q*m + 1 found within budget")

    cofactor = (p - 1) // q
    for _ in range(_MAX_Q_CANDIDATES):
        h = rng.randrange(2, p - 1)
        g = pow(h, cofactor, p)
        if g != 1:
            params = GroupParams(p=p, q=q, g=g)
            params.validate()
            return params
    raise GroupGenerationError("no generator found within budget")


# --- Fixed-point codec ----------------------------------------------------

@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals into Z_q with scaling 2^fraction_bits.

    Negative values wrap to the top half of the field, so field addition of
    encodings is real addition up to rounding, which is what share
    aggregation relies on.
    """

    fraction_bits: int
    q: int

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def max_abs(self) -> float:
        # |x| must stay below q / 2^(F+1) so sign disambiguation works
        return self.q / (2 * self.scale)

    def encode(self, x: float) -> int:
        if abs(x) >= self.max_abs:
            raise EncodingRangeError(f"{x!r} outside representable range")
        v = round(x * self.scale)
        return v % self.q

    def decode(self, e: int) -> float:
        e %= self.q
        if e > self.q // 2:
            e -= self.q
        return e / self.scale

    def encode_vector(self, xs) -> tuple[int, ...]:
        return tuple(self.encode(float(x)) for x in xs)

    def decode_vector(self, es) -> tuple[float, ...]:
        return tuple(self.decode(e) for e in es)
