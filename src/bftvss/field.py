"""Modular arithmetic over a prime-order subgroup, plus the fixed-point codec.

The sharing layer works over Z_q (exponents / share values) and the
multiplicative subgroup of order q inside Z_p* (commitments), in one of the
committed groups of GROUPS.  Gradients are real-valued, so a fixed-point codec
maps them into Z_q, several signed coordinates to an element when q is wide
enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class EncodingRangeError(Exception):
    """Real value too large for the fixed-point representation."""


# Entries of a fixed-base table.  Each group takes the widest window whose
# table stays within this, so exps costs one multiplication per window of q:
# 12-bit windows (4 rows) at 96/48 and 9-bit windows (29 rows) at 2048/256.
# On a 2-core x86-64 VM (CPython 3.11.7) the tables build in about 4 ms and
# 0.2 s, once per process.  A wider table misses the cache: at 96/48, on
# fresh exponents (768 a call, median of 30 calls), the row-by-row walk took
# 1.06 / 0.84 / 0.68 / 0.84 us per exponent at 8 / 10 / 12 / 16-bit windows
# (1,536 / 5,120 / 16,384 / 196,608 entries), so 12 bits stays.
_TABLE_ENTRIES = 1 << 14

# Teeth of a Comb: the rows an exponent is cut into.  On the same VM, the six
# pair keys of an n = 4 run at 2048/256 (three combs, built on first use) take
# a median 20.2 ms on 4-tooth combs, against 27.3 ms for pow; 2, 3, 5 and 6
# teeth take 26.8, 22.4, 19.6 and 20.3 ms.  The 45 pair keys of an n = 10 run
# at 96/48 (nine combs) take 0.85 ms on 4 teeth, against 0.89 ms for pow and
# 0.88-1.08 ms on 2, 3, 5 or 6 teeth.
_COMB_TEETH = 4


@dataclass(frozen=True)
class GroupParams:
    """A prime p, prime subgroup order q with q | p-1, and a generator g of
    the order-q subgroup of Z_p*.  Nothing here checks that: the committed
    GROUPS are checked by the test suite, not on every run."""

    p: int
    q: int
    g: int

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

    def exps(self, es: Iterable[int]) -> list[int]:
        """[g^(e mod q) mod p for e in es] from the fixed-base table: one
        multiplication per row, a window of 0 picking row[0] = 1.  A table of
        at most four rows (96/48's) takes one expression per exponent, its
        product taken mod p once, so the exponents are walked once; rows past
        the table read (1,), as an exponent below q has no digit there.  Any
        other table (2048/256's) is walked row by row over every exponent at
        once, reducing mod p at every row.  Equal to pow(g, e, p) whenever g
        has order q, as in every committed group."""
        p, q, w, rows = self.p, self.q, self._window, self._g_table
        mask = (1 << w) - 1
        # Measured on the VM of _TABLE_ENTRIES, on fresh exponents: at 96/48
        # one product per exponent takes 0.63 us per exponent at 768 a call,
        # against 0.68 us for the row walk; at 2048/256 a product of two rows
        # (4,096 bits) costs more than the reduction it saves, 0.44 against
        # 0.37-0.39 ms, so the row walk reduces at every row.
        if len(rows) <= 4:
            r0, r1, r2, r3 = rows + ((1,),) * (4 - len(rows))
            w2, w3 = 2 * w, 3 * w
            return [r0[e & mask] * r1[e >> w & mask] * r2[e >> w2 & mask]
                    * r3[e >> w3 & mask] % p for x in es for e in [x % q]]
        es = [e % q for e in es]
        out = [rows[0][e & mask] for e in es]
        for i in range(1, len(rows)):
            row, s = rows[i], w * i
            out = [a * row[e >> s & mask] % p for a, e in zip(out, es)]
        return out


class Comb:
    """The fixed-base comb of Lim and Lee (CRYPTO 1994) for one base of Z_p*:
    base^e mod p for any 0 <= e < 2^(_COMB_TEETH * span), where span is
    bits(q) / _COMB_TEETH rounded up, so every exponent below q fits.

    An exponent is cut into _COMB_TEETH rows of span bits, row t holding
    bits span*t up to span*(t+1).  The table maps each column of binary
    digits, the top row's first, to the product of base^(2^(span*t)) over
    the rows t whose digit is 1.  Building it costs
    (_COMB_TEETH - 1) * span squarings; each exponent then costs span
    squarings and span multiplications, one per column, where pow pays about
    bits(e) squarings.  Built once per base and reused, as the pair keys of
    crypto.HybridScheme reuse each public key."""

    def __init__(self, params: GroupParams, base: int):
        p = self.p = params.p
        span = self.span = -(-params.q.bit_length() // _COMB_TEETH)
        table = [1]
        for tooth in range(_COMB_TEETH):
            if tooth:
                for _ in range(span):
                    base = base * base % p
            table += [t * base % p for t in table]
        # entry i holds the rows of the set bits of i; product yields the
        # digits of each i in turn, the top bit first
        self.table = dict(zip(itertools.product("01", repeat=_COMB_TEETH), table))

    def pow(self, e: int) -> int:
        """base^e mod p, equal to pow(base, e, p).  Raises ValueError for an
        e the rows cannot hold: negative, or of more than _COMB_TEETH * span
        bits."""
        p, span, table = self.p, self.span, self.table
        width = _COMB_TEETH * span
        if e < 0 or e >> width:
            raise ValueError(f"exponent outside [0, 2^{width}) of this comb")
        digits = format(e, f"0{width}b")
        rows = [digits[i : i + span] for i in range(0, width, span)]
        acc = 1
        for column in zip(*rows):
            acc = acc * acc % p * table[column] % p
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


def generate_group(bits_p: int, bits_q: int) -> GroupParams:
    """The committed group with a bits_p-bit p and a bits_q-bit q.  Every call
    returns the same object, so its fixed-base table is built once per
    process.  Raises ValueError for a size not in GROUPS."""
    params = GROUPS.get((bits_p, bits_q))
    if params is None:
        raise ValueError(f"no committed group of {bits_p}/{bits_q} bits; "
                         f"supported (bits_p, bits_q): {sorted(GROUPS)}")
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
        last element's unused lanes are zero.  The coordinates are converted,
        range-checked and scaled in one pass, so the first out of range
        raises, and the elements packed in one pass per lane, the top
        lane's first."""
        scale, bound, lanes, width, q = self.scale, self.max_abs, self.lanes, self.width, self.q
        vs = []
        for x in xs:
            x = float(x)
            if not abs(x) < bound:
                raise EncodingRangeError(f"{x!r} outside the representable range: "
                                         f"|x| must stay below max_abs = {bound!r}")
            vs.append(round(x * scale))
        vs += [0] * (-len(vs) % lanes)
        out = vs[lanes - 1 :: lanes]
        for k in range(lanes - 2, -1, -1):
            out = [(e << width) + v for e, v in zip(out, vs[k::lanes])]
        return tuple([e % q for e in out])

    def decode_vector(self, es, dim: int) -> tuple[float, ...]:
        """Inverse of encode_vector for a vector of dim coordinates.  Each
        element is centred into (-q/2, q/2] and its lanes read from the
        bottom as signed width-bit values, the padding lanes dropped.  Any
        elements decode, to finite values.  One pass centres every element
        and adds top to each of its lanes; lane k is then the sum's bits
        width*k up less top, the value that peeling ((e + top) & mask) - top
        lane by lane gives, wrap included, and a second pass reads them."""
        if len(es) != self.packed_length(dim):
            raise ValueError(f"{len(es)} elements do not carry {dim} coordinates")
        q, scale, lanes, width = self.q, self.scale, self.lanes, self.width
        top, mask, r = 1 << (width - 1), (1 << width) - 1, (q - 1) // 2
        shifts = range(0, width * lanes, width)
        offset = top * (((1 << width * lanes) - 1) // mask) - r  # top in every lane
        biased = [(e + r) % q + offset for e in es]
        return tuple([((a >> s & mask) - top) / scale for a in biased for s in shifts][:dim])
