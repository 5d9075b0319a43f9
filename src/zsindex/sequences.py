"""Zero-sum predicates and the exact index of sequences over Z_n.

A sequence is an unordered multiset of residues in [1, n].  Its index is the
minimum, over all units m of Z_n, of (sum of |m*t|_n over the terms) / n; the
minimum is an integer exactly when the sequence is zero-sum.  A unit m whose
transformed sum equals n certifies index 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .residues import GroupOrder, NotAUnit, factorize, reduce_value, units


@dataclass(frozen=True, slots=True)
class Sequence:
    """A multiset of k >= 1 residues in [1, n], stored sorted ascending.

    ``__init__`` is written out so that each field is set once, through its
    slot, after the terms are sorted and range-checked.  A sweep builds its
    sequences through ``_presorted`` instead, from tuples already so.
    """

    modulus: GroupOrder
    terms: tuple[int, ...]

    def __init__(self, modulus: GroupOrder, terms: Iterable[int]) -> None:
        ordered = tuple(sorted(terms))
        if not ordered:
            raise ValueError("a sequence needs at least one term")
        n = modulus.n
        lo, hi = ordered[0], ordered[-1]  # sorted: these bound every term
        if lo < 1 or hi > n:
            raise ValueError(f"term {lo if lo < 1 else hi} outside [1, {n}]")
        _set_modulus(self, modulus)
        _set_terms(self, ordered)

    @classmethod
    def over(cls, n: int, terms: Iterable[int]) -> "Sequence":
        """Convenience constructor that factors the modulus itself."""
        return cls(factorize(n), tuple(terms))

    @property
    def n(self) -> int:
        return self.modulus.n

    def __len__(self) -> int:
        return len(self.terms)


# The slot setters, which a frozen class's own __setattr__ would refuse.
_set_modulus = Sequence.modulus.__set__  # type: ignore[attr-defined]
_set_terms = Sequence.terms.__set__  # type: ignore[attr-defined]


def _presorted(modulus: GroupOrder, terms: tuple[int, ...]) -> Sequence:
    """A Sequence of terms already sorted ascending and in [1, n], unchecked.

    For the enumeration kernel, which builds its tuples so; every other
    caller goes through ``Sequence``, which sorts and range-checks.
    """
    s = object.__new__(Sequence)
    _set_modulus(s, modulus)
    _set_terms(s, terms)
    return s


@dataclass(frozen=True)
class IndexValue:
    """The minimized transformed-term sum, as an exact fraction over n.

    ``numerator`` is the (unreduced) sum achieved by ``argmin_unit``; the
    index itself is numerator/denominator, an integer iff the sequence is
    zero-sum.  Ties between units are broken toward the smallest unit.
    """

    numerator: int
    denominator: int
    argmin_unit: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def is_zero_sum(s: Sequence) -> bool:
    """True iff the terms sum to 0 modulo n."""
    return sum(s.terms) % s.n == 0


def is_minimal_zero_sum(s: Sequence) -> bool:
    """Zero-sum with no proper nonempty sub-multiset summing to zero.

    For a zero-sum sequence a subset sums to zero exactly when its
    complement does, so only the nonempty subsets that leave out the last
    term are checked.  Four terms, the length the staged witness search
    takes, check their seven subsets in one expression.  Other lengths grow
    the set of residues that those subsets reach, one term at a time, and
    stop as soon as it holds 0.  The set is the bits of one int, at most n
    of them, and each term adds its shift by t mod n in a few whole-int
    operations: O(k n) bit steps, not 2^(k-1) sums.
    """
    terms, n = s.terms, s.modulus.n
    if len(terms) == 4:
        a, b, c, _ = terms
        return bool(not sum(terms) % n and a % n and b % n and c % n and (a + b) % n
                    and (a + c) % n and (b + c) % n and (a + b + c) % n)
    if sum(terms) % n:
        return False
    full = (1 << n) - 1
    reached = 0  # bit r: a nonempty subset of the terms so far sums to r (mod n)
    for t in terms[:-1]:
        t %= n
        moved = reached << t  # bit r to r + t, which is below 2n
        reached |= (moved | moved >> n) & full | 1 << t
        if reached & 1:
            return False
    return True


def apply_unit(s: Sequence, m: int) -> Sequence:
    """Multiply every term by the unit m and re-sort.

    Preserves zero-sum and minimality; raises NotAUnit when gcd(m, n) > 1.
    """
    n = s.n
    if math.gcd(m, n) != 1:
        raise NotAUnit(f"{m} is not a unit modulo {n}")
    return Sequence(s.modulus, tuple(reduce_value(m * t, n) for t in s.terms))


def min_transform_sum(
    terms: tuple[int, ...],
    n: int,
    units: Iterable[int],
    stop_at: int | None = None,
) -> tuple[int, int]:
    """Scan units ascending for (transformed sum, unit).

    Returns the first unit whose transformed sum equals ``stop_at``;
    without one, the exact minimum and the smallest unit achieving it.
    ``units`` must hold units only: a unit sends exactly the zero terms to
    zero, so |m*t|_n is (m*t) % n plus n for each zero term.
    """
    zeros = n * sum(1 for t in terms if t % n == 0)
    best = 0
    best_m = 0
    for m in units:
        total = zeros
        for t in terms:
            total += m * t % n
        if total == stop_at:
            return total, m
        if total < best or not best_m:
            best = total
            best_m = m
    return best, best_m


def sequence_index(s: Sequence) -> IndexValue:
    """ind(S): minimize the transformed-term sum over all units of Z_n.

    Scans units ascending, so the recorded argmin is the smallest unit
    achieving the minimum.
    """
    best_sum, best_m = min_transform_sum(s.terms, s.n, units(s.modulus))
    return IndexValue(numerator=best_sum, denominator=s.n, argmin_unit=best_m)
