"""Feldman-style verifiable secret sharing, applied per packed field element.

The codec packs a gradient vector into field elements, several coordinates
to an element when q is wide enough.  Each element is shared through its own
random polynomial of degree th-1; the dealer publishes g^{a_k} commitments
for every coefficient so shareholders can check their share without learning
the secret.  Shares are additively homomorphic, which the aggregation
workflow exploits: summed shares reconstruct to the sum of the dealt secrets.

A share is its evaluation point and its values, and commitments are their
rows; neither names a dealer.  Callers key both by dealer, and a receiver
knows a share's point (its own, or its sender's) and th, so only the values
cross the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import wire
from .field import FixedPointCodec, GroupParams
from .wire import MalformedInputError


class InsufficientSharesError(Exception):
    """Fewer than th usable shares were supplied to reconstruct."""


@dataclass(frozen=True)
class ShareBundle:
    """One shareholder's shares from one dealer: one per packed element, all
    evaluated at the shareholder's point (index + 1).  The dimension counts
    elements, not gradient coordinates."""

    eval_point: int
    values: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)

    def to_bytes(self) -> bytes:
        """The values only: the receiver knows the point."""
        return wire.pack_fixed(self.values)


# Feldman commitments, one row per packed element: the th group elements
# g^{a_0}, ..., g^{a_{th-1}} of its polynomial.
CommitmentVector = tuple[tuple[int, ...], ...]


def parse_bundle(data: bytes, eval_point: int) -> ShareBundle:
    """Inverse of ShareBundle.to_bytes, for the share at eval_point."""
    return ShareBundle(eval_point, wire.unpack_fixed(data))


def commitments_to_bytes(commitments: CommitmentVector) -> bytes:
    """Every commitment, row by row, as one fixed-width vector: the receiver
    knows th."""
    return wire.pack_fixed([c for row in commitments for c in row])


def parse_commitments(data: bytes, th: int) -> CommitmentVector:
    """Inverse of commitments_to_bytes: the values split into rows of th."""
    values = wire.unpack_fixed(data)
    if len(values) % th:
        raise MalformedInputError("commitments do not split into rows of th")
    return tuple(values[i : i + th] for i in range(0, len(values), th))


def eval_poly(coeffs: Sequence[int], x: int, q: int) -> int:
    """Evaluate a polynomial with the given coefficients (constant first) at x
    over Z_q, by Horner's rule: the one-point reference for share, which
    evaluates every polynomial at every point at once."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def share(
    secret: Sequence[float],
    th: int,
    n: int,
    params: GroupParams,
    codec: FixedPointCodec,
    rng: random.Random,
) -> tuple[list[ShareBundle], CommitmentVector]:
    """Encode a real-valued secret vector and share it element-wise.

    Returns n bundles (evaluation points 1..n, one per shareholder)
    and the dealer's commitment vector.
    """
    encoded = codec.encode_vector(secret)
    if not (1 <= th <= n):
        raise ValueError("threshold must satisfy 1 <= th <= n")
    q = params.q
    polys = [[s % q] + [rng.randrange(q) for _ in range(th - 1)] for s in encoded]
    flat = params.exps([a for coeffs in polys for a in coeffs])
    commitments = tuple(tuple(flat[i : i + th]) for i in range(0, len(flat), th))
    # Horner's rule at each point over every polynomial at once:
    # columns[k] holds every polynomial's coefficient of x^k
    columns = [[coeffs[k] for coeffs in polys] for k in range(th)]
    bundles = []
    for j in range(1, n + 1):
        values = columns[-1]
        for column in columns[-2::-1]:
            values = [(v * j + c) % q for v, c in zip(values, column)]
        bundles.append(ShareBundle(j, tuple(values)))
    return bundles, commitments


def verify(bundle: ShareBundle, commitments: CommitmentVector, params: GroupParams) -> bool:
    """Check g^{s_j} == c_0 * c_1^j * c_2^{j^2} * ... per element.

    The left-hand sides come from one params.exps call.  The right-hand side
    is evaluated in Horner's form,
    (...(c_{th-1}^j * c_{th-2})^j * ...)^j * c_0, so each commitment but the
    first costs one pow to the small exponent j.  It equals the product form
    with exponents j^k reduced mod q for every row inside the order-q
    subgroup, and for any row at all while j^(th-1) < q.
    """
    if bundle.dimension != len(commitments):
        raise MalformedInputError("bundle and commitments disagree on dimension")
    p, j = params.p, bundle.eval_point
    for lhs, row in zip(params.exps(bundle.values), commitments):
        rhs = row[-1]
        for c in reversed(row[:-1]):
            rhs = pow(rhs, j, p) * c % p
        if lhs != rhs:
            return False
    return True


def _select_bundles(bundles: Iterable[ShareBundle], th: int) -> list[ShareBundle]:
    chosen = sorted(bundles, key=lambda b: b.eval_point)
    points = [b.eval_point for b in chosen]
    if len(set(points)) != len(points):
        raise MalformedInputError("duplicate evaluation points")
    dims = {b.dimension for b in chosen}
    if len(dims) > 1:
        raise MalformedInputError("mixed dimensions")
    if len(chosen) < th:
        raise InsufficientSharesError(f"need {th} shares, got {len(chosen)}")
    return chosen[:th]


def reconstruct_encoded(
    bundles: Iterable[ShareBundle], th: int, params: GroupParams
) -> tuple[int, ...]:
    """Lagrange interpolation at 0 over Z_q, per element.

    If more than th bundles are given, the th with the lowest evaluation
    points are used, so the result is deterministic.
    """
    chosen = _select_bundles(bundles, th)
    q = params.q
    xs = [b.eval_point for b in chosen]
    # Lagrange basis coefficients at x = 0
    lambdas = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = (num * (-xj)) % q
            den = (den * (xi - xj)) % q
        lambdas.append((num * pow(den, -1, q)) % q)
    out = []
    for k in range(chosen[0].dimension):
        acc = 0
        for b, lam in zip(chosen, lambdas):
            acc = (acc + b.values[k] * lam) % q
        out.append(acc)
    return tuple(out)


def reconstruct(
    bundles: Iterable[ShareBundle],
    th: int,
    params: GroupParams,
    codec: FixedPointCodec,
    dim: int,
) -> tuple[float, ...]:
    """Reconstruct and decode back to a real vector of dim coordinates."""
    return codec.decode_vector(reconstruct_encoded(bundles, th, params), dim)


def sum_shares(bundles: Sequence[ShareBundle], params: GroupParams) -> ShareBundle:
    """Element-wise field sum of one shareholder's bundles, one per dealer.
    Reconstructing th such sums yields the sum of the secrets."""
    if not bundles:
        raise MalformedInputError("no bundles to sum")
    first = bundles[0]
    q = params.q
    acc = list(first.values)
    for b in bundles[1:]:
        if b.eval_point != first.eval_point:
            raise MalformedInputError("eval_point mismatch in sum")
        if b.dimension != first.dimension:
            raise MalformedInputError("dimension mismatch in sum")
        for i, v in enumerate(b.values):
            acc[i] = (acc[i] + v) % q
    return ShareBundle(first.eval_point, tuple(acc))
