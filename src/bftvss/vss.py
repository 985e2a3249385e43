"""Feldman-style verifiable secret sharing, applied per packed field element.

The codec packs a gradient vector into field elements, several coordinates
to an element when q is wide enough.  Each element is shared through its own
random polynomial of degree th-1; the dealer publishes g^{a_k} commitments
for every coefficient so shareholders can check their share without learning
the secret.  Shares are additively homomorphic, which the aggregation
workflow exploits: summed shares reconstruct to the sum of the dealt secrets.

A share is its evaluation point and its values, and commitments are th
columns, one per coefficient; neither names a dealer.  Callers key both by
dealer, and a receiver knows a share's point (its own, or its sender's), th
and the dimension, so only the values cross the wire, and the parsers reject
values of any other count.
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


# Feldman commitments, one column per coefficient: column k holds g^{a_k}
# of every packed element's polynomial, so th columns of the dimension.
CommitmentVector = tuple[tuple[int, ...], ...]


def parse_bundle(data: bytes, eval_point: int, dimension: int) -> ShareBundle:
    """Inverse of ShareBundle.to_bytes, for the share at eval_point, which
    must hold dimension values."""
    values = wire.unpack_fixed(data)
    if len(values) != dimension:
        raise MalformedInputError(f"share of {len(values)} values, not {dimension}")
    return ShareBundle(eval_point, values)


def commitments_to_bytes(commitments: CommitmentVector) -> bytes:
    """Every commitment, column by column, as one fixed-width vector: the
    receiver knows th and the dimension."""
    return wire.pack_fixed([c for column in commitments for c in column])


def parse_commitments(data: bytes, th: int, dimension: int) -> CommitmentVector:
    """Inverse of commitments_to_bytes: th columns of dimension values."""
    values = wire.unpack_fixed(data)
    if len(values) != th * dimension:
        raise MalformedInputError(f"commitments are not {th} columns of {dimension}")
    return tuple(values[k * dimension : (k + 1) * dimension] for k in range(th))


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
    and the dealer's commitment vector.  The coefficients are drawn as
    rng.randrange(q) draws them, committed to in one params.exps call, and
    every polynomial is evaluated at each point at once by Horner's rule.
    """
    encoded = codec.encode_vector(secret)
    if not (1 <= th <= n):
        raise ValueError("threshold must satisfy 1 <= th <= n")
    q, d = params.q, len(encoded)
    # rng.randrange(q) per coefficient, drawn as CPython draws it: bits(q)
    # random bits, retried while >= q, so the same values and rng state
    bits, draws, more = q.bit_length(), [], (th - 1) * d
    while more:
        draws += filter(q.__gt__, [rng.getrandbits(bits) for _ in range(more)])
        more = (th - 1) * d - len(draws)
    # columns[k] holds every polynomial's coefficient of x^k
    columns = [[s % q for s in encoded]] + [draws[k :: th - 1] for k in range(th - 1)]
    flat = params.exps([a for column in columns for a in column])
    commitments = tuple(tuple(flat[k * d : (k + 1) * d]) for k in range(th))
    # Horner's rule at each point over every polynomial at once, reduced in
    # the last step, the constant column's; at th = 1 that column is the
    # values, already reduced
    bundles = []
    for j in range(1, n + 1):
        values = columns[-1]
        for column in columns[-2:0:-1]:
            values = [v * j + c for v, c in zip(values, column)]
        if th > 1:
            values = [(v * j + c) % q for v, c in zip(values, columns[0])]
        bundles.append(ShareBundle(j, tuple(values)))
    return bundles, commitments


def verify(bundle: ShareBundle, commitments: CommitmentVector, params: GroupParams) -> bool:
    """Check g^{s_j} == c_0 * c_1^j * c_2^{j^2} * ... per element.

    The left-hand sides come from one params.exps call.  The right-hand
    sides are evaluated column by column over every element, in Horner's
    form (...(c_{th-1}^j * c_{th-2})^j * ...)^j * c_0, so each commitment
    but the first costs one pow to the small exponent j.  That equals the
    product form with exponents j^k reduced mod q for every element inside
    the order-q subgroup, and for any element at all while j^(th-1) < q.
    Raises MalformedInputError unless there is a column and every column
    has the bundle's dimension.
    """
    if not commitments or any(len(c) != bundle.dimension for c in commitments):
        raise MalformedInputError("commitments are not columns of the bundle's dimension")
    p, j = params.p, bundle.eval_point
    rhs = commitments[-1]
    for column in commitments[-2::-1]:
        rhs = [pow(r, j, p) * c % p for r, c in zip(rhs, column)]
    return params.exps(bundle.values) == list(rhs)


def _select_bundles(bundles: Iterable[ShareBundle], th: int) -> list[ShareBundle]:
    if th < 1:
        raise ValueError("threshold must be at least 1")
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


def _interpolate(chosen: Sequence[ShareBundle], x: int, q: int) -> tuple[int, ...]:
    """Lagrange interpolation at x over Z_q, per element: the sum of each
    chosen bundle's values times its Lagrange coefficient, added one bundle
    at a time and reduced once."""
    xs = [b.eval_point for b in chosen]
    lambdas = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = (num * (x - xj)) % q
            den = (den * (xi - xj)) % q
        lambdas.append((num * pow(den, -1, q)) % q)
    acc = [v * lambdas[0] for v in chosen[0].values]
    for b, lam in zip(chosen[1:], lambdas[1:]):
        acc = [a + v * lam for a, v in zip(acc, b.values)]
    return tuple([a % q for a in acc])


def reconstruct_encoded(
    bundles: Iterable[ShareBundle], th: int, params: GroupParams
) -> tuple[int, ...]:
    """Lagrange interpolation at 0 over Z_q, per element.

    If more than th bundles are given, the th with the lowest evaluation
    points are used, so the result is deterministic.
    """
    return _interpolate(_select_bundles(bundles, th), 0, params.q)


def consistent(bundles: Iterable[ShareBundle], th: int, params: GroupParams) -> bool:
    """Whether the bundles, at least th of them, all lie on one polynomial
    of degree th-1 per element: the th with the lowest points fix it, and
    each other bundle must hold its values at that bundle's point.  No
    exponentiation, one Lagrange vector per extra point."""
    chosen = sorted(bundles, key=lambda b: b.eval_point)
    basis = _select_bundles(chosen, th)
    return all(_interpolate(basis, b.eval_point, params.q) == b.values
               for b in chosen[th:])


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
    point, dimension = bundles[0].eval_point, bundles[0].dimension
    if any(b.eval_point != point for b in bundles):
        raise MalformedInputError("eval_point mismatch in sum")
    if any(b.dimension != dimension for b in bundles):
        raise MalformedInputError("dimension mismatch in sum")
    q = params.q
    return ShareBundle(point, tuple([sum(column) % q for column in
                                     zip(*(b.values for b in bundles))]))


def sum_commitments(commitment_sets: Sequence[CommitmentVector],
                    params: GroupParams) -> CommitmentVector:
    """Element-wise product mod p of several dealers' commitment columns.
    Feldman commitments are homomorphic, so the product commits to the
    summed polynomials, and verify checks a sum_shares of those dealers'
    bundles against it."""
    if not commitment_sets:
        raise MalformedInputError("no commitments to sum")
    shape = [len(column) for column in commitment_sets[0]]
    if any([len(column) for column in c] != shape for c in commitment_sets):
        raise MalformedInputError("commitment shape mismatch in sum")
    p = params.p
    product = []
    for columns in zip(*commitment_sets):
        acc = columns[0]
        for column in columns[1:]:
            acc = [a * c % p for a, c in zip(acc, column)]
        product.append(tuple(acc))
    return tuple(product)
