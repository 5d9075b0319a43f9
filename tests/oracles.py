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


def naive_floor_block(n: int, k: int, d: int) -> list[tuple[int, ...]]:
    """The sorted minimal zero-sum k-tuples that lead with d and whose every
    term t has gcd(t, n) >= d, in lexicographic order.

    The tuples are those of naive_minimal_enumeration kept by that filter;
    the later terms are drawn only from the residues it admits, so the scan
    stays small.
    """
    if math.gcd(d, n) < d:
        return []
    admissible = [t for t in range(d, n) if math.gcd(t, n) >= d]
    return [
        (d,) + rest
        for rest in combinations_with_replacement(admissible, k - 1)
        if naive_is_minimal((d,) + rest, n)
    ]


# The cycle types of S_k, with the size of each class, for the lengths that
# have a closed form.
CYCLE_TYPES = {
    3: {(1, 1, 1): 1, (2, 1): 3, (3,): 2},
    4: {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6},
    5: {
        (1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 10, (2, 2, 1): 15, (3, 1, 1): 20,
        (3, 2): 20, (4, 1): 30, (5,): 24,
    },
}


def zero_sum_multisets(n: int, k: int) -> int:
    """How many k-multisets of nonzero residues of Z_n sum to zero, counted
    by Polya's theorem over S_k.

    A permutation of cycle type (l_1, ..., l_r) fixes the tuples that give
    each cycle one residue x_i, and sum l_i * x_i = 0 holds for
    (1/n) sum_j prod_i (n [n | l_i j] - 1) of them (a character sum over
    Z_n); averaging over the k! permutations counts the multisets.
    """
    order = math.factorial(k)
    assert sum(CYCLE_TYPES[k].values()) == order
    fixed = 0
    for lengths, size in CYCLE_TYPES[k].items():
        for j in range(n):
            product = 1
            for length in lengths:
                product *= n * (length * j % n == 0) - 1
            fixed += size * product
    assert fixed % (order * n) == 0
    return fixed // (order * n)


def closed_form_sequences_total(n: int, k: int = 4) -> int:
    """How many sorted minimal zero-sum k-tuples over [1, n-1] there are,
    for k = 3, 4 or 5, counted without enumerating them.

    A zero-sum multiset of nonzero residues is minimal unless it splits into
    two shorter zero-sum parts, and no part has one term.  So every triple
    is minimal.  A quadruple splits only into two pairs {a, -a}, {c, -c},
    and a quintuple only into one pair {a, -a} and a triple; the pair's
    class is the only one in the quintuple (a second pair would leave a
    zero term), so the split is unique.  There are P = floor((n - 1) / 2)
    + [2 | n] pairs {a, -a}, and the multisets come from
    ``zero_sum_multisets``.
    """
    pairs = (n - 1) // 2 + (n % 2 == 0)
    if k == 3:
        return zero_sum_multisets(n, 3)
    if k == 4:
        return zero_sum_multisets(n, 4) - pairs * (pairs + 1) // 2
    return zero_sum_multisets(n, 5) - pairs * zero_sum_multisets(n, 3)


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
