"""The check behind the committed groups: the library trusts GROUPS, and the
tests hold each entry, and each hand-built test group, to it."""

import sympy

from bftvss.field import GroupParams


def validate(params: GroupParams) -> None:
    """Raise ValueError unless p and q are prime, q divides p - 1 and g
    generates the order-q subgroup of Z_p*.  The order check uses pow, not
    the fixed-base table, which reduces exponents mod q."""
    if not sympy.isprime(params.p):
        raise ValueError("p is not prime")
    if not sympy.isprime(params.q):
        raise ValueError("q is not prime")
    if (params.p - 1) % params.q != 0:
        raise ValueError("q does not divide p - 1")
    if not (2 <= params.g <= params.p - 1):
        raise ValueError("g out of range")
    if params.g == 1 or pow(params.g, params.q, params.p) != 1:
        raise ValueError("g does not generate an order-q subgroup")
