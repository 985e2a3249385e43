"""Modular arithmetic over a prime-order subgroup, plus the fixed-point codec.

The sharing layer works over Z_q (exponents / share values) and the
multiplicative subgroup of order q inside Z_p* (commitments), in one of the
committed groups of GROUPS.  Gradients are real-valued, so a fixed-point codec
maps them into Z_q, several signed coordinates to an element when q is wide
enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import sympy


class EncodingRangeError(Exception):
    """Real value too large for the fixed-point representation."""


# Entries of a fixed-base table.  Each group takes the widest window whose
# table stays within this, so exp costs one multiplication per window of q:
# 12-bit windows (4 rows) at 96/48 and 9-bit windows (29 rows) at 2048/256.
# On a 2-core x86-64 VM (CPython 3.11) the 2048/256 table builds in about
# 0.24 s, once per process, and exp takes about 0.42-0.47 ms, against
# 0.57-0.63 ms with 6-bit windows; the 96/48 table builds in about 6 ms.
_TABLE_ENTRIES = 1 << 14


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
    def _window(self) -> int:
        """Bits per row of the fixed-base table: the widest window whose rows
        for an exponent below q hold at most _TABLE_ENTRIES entries, and no
        wider than q."""
        bits = self.q.bit_length()
        return max(w for w in range(1, bits + 1)
                   if (-(-bits // w) << w) <= _TABLE_ENTRIES)

    @cached_property
    def _g_table(self) -> tuple[tuple[int, ...], ...]:
        """rows[i][v] = g^(v * 2^(window*i)) mod p, one row per window of an
        exponent below q.  Built on first use, once per group; a cached
        property stays out of eq, hash, repr and asdict."""
        p, base, w, rows = self.p, self.g, self._window, []
        for _ in range(-(-self.q.bit_length() // w)):
            row = [1]
            for _ in range((1 << w) - 1):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p
        return tuple(rows)

    def exp(self, e: int) -> int:
        """g^(e mod q) mod p from the fixed-base table: one multiplication
        per non-zero window instead of a square-and-multiply chain.  Equal to
        pow(g, e, p) for any group that passes validate(), since g^q = 1."""
        e %= self.q
        p, w, acc = self.p, self._window, 1
        mask = (1 << w) - 1
        for row in self._g_table:
            if not e:
                break
            v = e & mask
            if v:
                acc = acc * row[v] % p
            e >>= w
        return acc


# The committed groups, by (bits_p, bits_q); 96/48 is the test default.  The
# VSS arithmetic does not depend on which group of a size it runs in, and a
# 2048/256 search takes seconds, so each size has one fixed group, as RFC 5114
# section 2.3 publishes fixed groups.
GROUPS = {
    (96, 48): GroupParams(p=0xf3693a785e13f899db059f51, q=0xf7c14da5e709,
                          g=0x2d7e4966c126fb2794d06789),
    (2048, 256): GroupParams(
        p=int(
            "80e81c2c49829190c246075d545a76b5060a60b925ce5605c0574f5a6990d9bc"
            "dcd83d59064332723cdb7cbcc97a86e6e6bf79ecbdd3299ab3d1ea958bf4e934"
            "9cf3452af7a577d1df491d11bcb1a41d105afca41343d2ca1a9eb6660d2fe984"
            "3742c7858783507f0834b08ea1d9869ef622b6c31bd9e88fca7678cfb103ca80"
            "930038a9ea83427a7d09bc756e542bc012ad03efc07ad290bc7e86c89fd3853b"
            "22e8987d50c9df3211bd3a448a194f1852fb1f61492c9cc6ccc6a4b36e8c4759"
            "ff3dfbdd3f7eed84890b93a9ff5e50765081a557fd3d8bc7d788f068ae6dcf8a"
            "7ad601559118ee5d487c1fea91198ebac09611718b2df9e326fe0e2e506f74f1", 16),
        q=int(
            "9a9e8547147a08acc65d8e4ed01e488b00a1402e57e7ef7b848610cfd21276c3", 16),
        g=int(
            "28c69aed8974ee43815710812ed9a504cfaf648433b4061d6be4276fb0a8cbb7"
            "64cc497f9471aa8d7cc775cff3284aee49d9cb136ecc5b7917099f6ddef4b5c8"
            "b28fbbd302d789d1760966a991284d2a18a657ba8cc80b525cf6e27d73b0b8de"
            "affc072f269934347c31b7f20f00de3fa313186269e5673d3096481d59dece0f"
            "ad66acd77e0b5ba83e6c6724d22d61b9fbed51c55f04cc85aeb44d9875f9174d"
            "d9b2f532b2c6dc701c882d6a3881a1e286c22cee01a04864cdde8e106a8bf966"
            "6821995267278a474de8546db79fc22418957b50cb6170b96ea38eae634a895e"
            "3676700b39adc0a3f23d02bc1d405a185d43bc3da6bfb256959edc3966ff4a2a", 16),
    ),
}


@cache
def generate_group(bits_p: int, bits_q: int) -> GroupParams:
    """The committed group with a bits_p-bit p and a bits_q-bit q, validated
    once per process.  Every call returns the same object, so its fixed-base
    table is built once too.  Raises ValueError for a size not in GROUPS."""
    params = GROUPS.get((bits_p, bits_q))
    if params is None:
        raise ValueError(f"no committed group of {bits_p}/{bits_q} bits; "
                         f"supported (bits_p, bits_q): {sorted(GROUPS)}")
    params.validate()
    return params


# --- Fixed-point codec ----------------------------------------------------

# Integer bits a lane holds above the binary point, besides the carry bits of
# a sum and the sign bit.  At fraction_bits 16, n = 4 and a 256-bit q that
# makes nine 28-bit lanes, which hold values below 256 in magnitude.
_LANE_INT_BITS = 8


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps real vectors into Z_q, scaled by 2^fraction_bits and packed
    `lanes` coordinates to an element.

    An element is (sum_k v_k * 2^(width*k)) mod q for the signed scaled
    coordinates v_k of its lanes.  The width leaves each lane carry bits for
    `summands`, the most encodings ever added up, so field addition of the
    encodings of in-range vectors is lane-wise real addition: no lane leaves
    its signed range and the element stays below q/2 in magnitude.  That is
    what share aggregation relies on.  Lanes are as many as fit in q below
    its top bit; at a 48-bit q and fraction_bits 16 that is one.
    """

    fraction_bits: int
    q: int
    summands: int

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @cached_property
    def lanes(self) -> int:
        carry = self.summands.bit_length()
        narrowest = self.fraction_bits + _LANE_INT_BITS + carry + 1
        return max(1, (self.q.bit_length() - 1) // narrowest)

    @cached_property
    def width(self) -> int:
        return (self.q.bit_length() - 1) // self.lanes

    @cached_property
    def max_abs(self) -> float:
        """Bound on |x|: `summands` scaled values below it sum to below
        2^(width-1) in magnitude."""
        return 2.0 ** (self.width - 1 - self.summands.bit_length()) / self.scale

    def packed_length(self, dim: int) -> int:
        """Field elements that carry a vector of dim coordinates."""
        return -(-dim // self.lanes)

    def encode_vector(self, xs) -> tuple[int, ...]:
        """Coordinate i goes to lane i % lanes of element i // lanes; the
        last element's unused lanes are zero."""
        scale, bound, lanes, width = self.scale, self.max_abs, self.lanes, self.width
        vs = []
        for x in xs:
            x = float(x)
            if not abs(x) < bound:
                raise EncodingRangeError(f"{x!r} outside the representable range: "
                                         f"|x| must stay below max_abs = {bound!r}")
            vs.append(round(x * scale))
        out = []
        for i in range(0, len(vs), lanes):
            e = 0
            for v in reversed(vs[i : i + lanes]):
                e = (e << width) + v
            out.append(e % self.q)
        return tuple(out)

    def decode_vector(self, es, dim: int) -> tuple[float, ...]:
        """Inverse of encode_vector for a vector of dim coordinates.  Each
        element is centred into (-q/2, q/2] and its lanes peeled off from the
        bottom as signed width-bit values; the padding lanes are dropped.
        Any elements decode, to finite values."""
        if len(es) != self.packed_length(dim):
            raise ValueError(f"{len(es)} elements do not carry {dim} coordinates")
        q, half, scale, lanes, width = self.q, self.q // 2, self.scale, self.lanes, self.width
        top, mask = 1 << (width - 1), (1 << width) - 1
        out = []
        for e in es:
            e %= q
            if e > half:
                e -= q
            for _ in range(lanes):
                lane = ((e + top) & mask) - top
                out.append(lane / scale)
                e = (e - lane) >> width
        return tuple(out[:dim])
