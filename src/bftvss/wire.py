"""Canonical byte encodings.

Everything that gets hashed, tagged, or compared bit-for-bit goes through
these helpers so that two processes (or two runs) always produce the same
bytes for the same value.
"""

from __future__ import annotations


def u32(x: int) -> bytes:
    return x.to_bytes(4, "big")


def u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def lp(b: bytes) -> bytes:
    """Length-prefixed bytes: u32 length then the payload."""
    return u32(len(b)) + b


def pack_fixed(xs) -> bytes:
    """u32 count, u32 width, then each non-negative integer big-endian at that
    width: the byte length of the largest, and at least 1."""
    width = max(1, (max(xs, default=0).bit_length() + 7) // 8)
    return u32(len(xs)) + u32(width) + b"".join(x.to_bytes(width, "big") for x in xs)


def pack_blobs(bs) -> bytes:
    """u32 count followed by each blob length-prefixed."""
    out = [u32(len(bs))]
    out.extend(lp(b) for b in bs)
    return b"".join(out)


class MalformedInputError(ValueError):
    """Bytes that do not parse, or parts that cannot belong together
    (dimension and eval-point mismatches, duplicates): the one error a
    receiver catches for input from a faulty peer."""


class Reader:
    """Cursor over canonical bytes; raises MalformedInputError on bytes that
    do not parse."""

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.off + n > len(self.data):
            raise MalformedInputError("truncated encoding")
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def lp(self) -> bytes:
        return self.take(self.u32())

    def fixed(self) -> tuple:
        """Inverse of pack_fixed: one take for all the values, then slices."""
        count, width = self.u32(), self.u32()
        if not width:
            raise MalformedInputError("zero width")
        data = self.take(count * width)  # bounds-checked before any slicing
        return tuple([int.from_bytes(data[i : i + width], "big")
                      for i in range(0, len(data), width)])

    def blobs(self, count: int) -> list:
        """Inverse of pack_blobs, whose count must be count."""
        if self.u32() != count:
            raise MalformedInputError(f"blob count is not {count}")
        return [self.lp() for _ in range(count)]

    def expect_end(self):
        if self.off != len(self.data):
            raise MalformedInputError("trailing bytes in encoding")


def unpack_fixed(data: bytes) -> tuple:
    """Inverse of pack_fixed, which must make up the whole of data."""
    r = Reader(data)
    values = r.fixed()
    r.expect_end()
    return values
