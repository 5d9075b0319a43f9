"""Independent brute-force oracles the tests check the library against.

Everything here is written the dumbest correct way on purpose: plain scans,
Fraction arithmetic, and the generic subset predicate, sharing no search
logic with the package internals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement


def naive_units(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if math.gcd(m, n) == 1]


def naive_transform_sum(terms: tuple[int, ...], n: int, m: int) -> int:
    total = 0
    for t in terms:
        r = (m * t) % n
        total += r if r != 0 else n
    return total


def naive_index(terms: tuple[int, ...], n: int) -> tuple[Fraction, int]:
    """(index, smallest argmin unit) by scanning every unit."""
    best: int | None = None
    best_m = 1
    for m in naive_units(n):
        total = naive_transform_sum(terms, n, m)
        if best is None or total < best:
            best = total
            best_m = m
    assert best is not None
    return Fraction(best, n), best_m


def naive_is_minimal(terms: tuple[int, ...], n: int) -> bool:
    k = len(terms)
    if sum(terms) % n != 0:
        return False
    for mask in range(1, (1 << k) - 1):
        subtotal = sum(terms[i] for i in range(k) if mask >> i & 1)
        if subtotal % n == 0:
            return False
    return True


def naive_minimal_enumeration(n: int, k: int) -> set[tuple[int, ...]]:
    """All sorted minimal zero-sum k-tuples with terms in [1, n-1]."""
    out = set()
    for combo in combinations_with_replacement(range(1, n), k):
        if naive_is_minimal(combo, n):
            out.add(combo)
    return out


def naive_interval_members(k: int, n: int, b: int, c: int) -> list[int]:
    """Integers in [kn/c, kn/b) by cross-multiplied comparisons.

    The scan window brackets the interval; membership itself is decided only
    by the cross-multiplied inequalities.
    """
    lo_scan = max(1, k * n // c - 2)
    hi_scan = k * n // b + 2
    return [m for m in range(lo_scan, hi_scan) if k * n <= m * c and m * b < k * n]


def naive_k1(n: int, b: int, c: int) -> int | None:
    """First k <= b whose interval holds an integer; every earlier interval
    must be empty, which is the same as its two ceilings agreeing."""
    for k in range(1, b + 1):
        if naive_interval_members(k, n, b, c):
            for j in range(1, k):
                assert math.ceil(Fraction(j * n, c)) == math.ceil(Fraction(j * n, b))
            return k
    return None


def naive_l(n: int, b: int, c: int) -> int | None:
    """Smallest l whose half-open interval holds at least three integers."""
    for l in range(1, 2 * c + 1):
        if len(naive_interval_members(l, n, b, c)) >= 3:
            return l
    return None


def naive_orbit_canonical(terms: tuple[int, ...], n: int) -> tuple[int, ...]:
    best = tuple(sorted(terms))
    for m in naive_units(n):
        candidate = tuple(
            sorted((m * t) % n if (m * t) % n != 0 else n for t in terms)
        )
        if candidate < best:
            best = candidate
    return best


def naive_stabilizer_size(terms: tuple[int, ...], n: int) -> int:
    """How many units of Z_n map the sorted terms onto themselves."""
    return sum(
        1 for m in naive_units(n) if tuple(sorted((m * t) % n or n for t in terms)) == terms
    )


def naive_orbit_reps(n: int, tuples) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each tuple's naive canonical form, asking the oracle once per orbit.

    Every member of an orbit met is mapped, so the result also covers the
    unit images of the given tuples.
    """
    rep_of = {}
    for terms in tuples:
        if terms in rep_of:
            continue
        rep = naive_orbit_canonical(terms, n)
        for m in naive_units(n):
            rep_of[tuple(sorted((m * t) % n or n for t in terms))] = rep
    return rep_of
