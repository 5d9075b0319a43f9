"""Exact modular arithmetic on Z_n with residues represented in [1, n].

Every value here is an exact integer; the representative of x modulo n is
the unique member of [1, n] congruent to x, so n itself stands for the zero
element of the group.  All functions are pure and all value types immutable,
so everything is safe to share across threads or processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class InvalidModulus(ValueError):
    """A modulus smaller than 2 (or a malformed factorization) was supplied."""


class NotAUnit(ValueError):
    """A multiplier shares a factor with the modulus."""


@dataclass(frozen=True)
class GroupOrder:
    """The order n of a cyclic group together with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly ascending
    primes, exponents >= 1, and product exactly ``n``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidModulus(f"modulus must be >= 2, got {self.n}")
        product = 1
        previous = 1
        for prime, exponent in self.factors:
            if prime <= previous or prime < 2 or exponent < 1:
                raise InvalidModulus(f"malformed factorization {self.factors!r}")
            product *= prime**exponent
            previous = prime
        if product != self.n:
            raise InvalidModulus(
                f"factorization {self.factors!r} does not multiply to {self.n}"
            )


def factorize(n: int) -> GroupOrder:
    """Factor n by trial division.  Intended for desk-scale moduli."""
    if n < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    remaining = n
    d = 2
    while d * d <= remaining:
        if remaining % d == 0:
            exponent = 0
            while remaining % d == 0:
                remaining //= d
                exponent += 1
            factors.append((d, exponent))
        d += 1 if d == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return GroupOrder(n, tuple(factors))


def reduce_value(x: int, n: int) -> int:
    """The representative of x modulo n in the window [1, n]."""
    return (x - 1) % n + 1


def units(n: GroupOrder) -> tuple[int, ...]:
    """The units of Z_n in ascending order, cached per modulus."""
    return _units(n.n)


@functools.lru_cache(maxsize=32)
def _units(modulus: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, modulus + 1) if math.gcd(m, modulus) == 1)


@functools.lru_cache(maxsize=32)
def lift_table(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(gcds, lifts) for Z_n, built on first use and cached per modulus.

    For every nonzero t in [1, n), ``gcds[t]`` is d = gcd(t, n) and
    ``lifts[t]`` the ascending units u with u*t = d (mod n).  Every such t
    is d times a unit v, so its lifts are the units u with u*v = 1
    (mod n/d); the table is filled by walking the units u ascending and
    appending u at d * u^-1 for every proper divisor d, phi(n) inverses in
    all.  The zero element has no row of its own: row 0 only keeps the
    indices aligned with t, and no reader asks for it.
    """
    divisors = [d for d in range(1, n) if n % d == 0]
    lifts: list[list[int]] = [[] for _ in range(n)]
    for u in _units(n):
        v = pow(u, -1, n)
        for d in divisors:
            lifts[d * v % n].append(u)
    return tuple(math.gcd(t, n) for t in range(n)), tuple(map(tuple, lifts))
