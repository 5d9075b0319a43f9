"""Reduction of length-4 minimal zero-sum sequences to a two-sided shape.

The normal form stores parameters (e, a, b, c) over modulus n with

    e < a <= b < c < n/2   and   e + c = a + b,

and represents the sequence (e, c, n-b, n-a), which sums to 2n and is always
minimal zero-sum.  Normalization either reaches that shape or certifies
index 1 outright along the way.  A form reached from an input records the
unit that moves the input onto the represented sequence, so m certifies the
represented sequence exactly when m times that unit certifies the input.
Any certificate emitted here is validated by direct recomputation before it
leaves the module; no derivation is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import (
    RULE_ONE_SIDED,
    RULE_SUM_N,
    Witness,
    certify,
)
from .residues import GroupOrder, factorize, units
from .sequences import Sequence, apply_unit, is_minimal_zero_sum, min_transform_sum


class TrivialContent(ValueError):
    """reduce_by_content was called on a sequence with content 1."""


class ContentNotOne(ValueError):
    """Normalization requires the content to be divided out first."""


class NotLength4(ValueError):
    """The reduction chain is defined for length-4 sequences only."""


class NotMinimalZeroSum(ValueError):
    """The input is not a minimal zero-sum sequence."""


class UnbalancedSplit(RuntimeError):
    """No unit transform of the input splits two-and-two around n/2.

    Only possible when a term equals n/2 (even n): that term is fixed by
    every unit, so no transform can clear the fence.  Such inputs have
    neither a normal form nor (when this is raised) an index-1 witness.
    """


@dataclass(frozen=True)
class NormalForm:
    """Parameters (e, a, b, c) of the two-sided shape over a modulus.

    ``unit`` moves the normalized input onto ``represented_terms()``, and
    ``steps`` names that move for provenance; a form built directly is its
    own input.
    """

    modulus: GroupOrder
    e: int
    a: int
    b: int
    c: int
    unit: int = 1
    steps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.modulus.n
        if not (0 < self.e < self.a <= self.b < self.c and 2 * self.c < n):
            raise ValueError(
                f"parameters ({self.e}, {self.a}, {self.b}, {self.c}) violate "
                f"e < a <= b < c < {n}/2"
            )
        if self.e + self.c != self.a + self.b:
            raise ValueError(
                f"e + c = {self.e + self.c} differs from a + b = {self.a + self.b}"
            )

    def represented_terms(self) -> tuple[int, int, int, int]:
        """The sequence this form stands for, already in ascending order."""
        n = self.modulus.n
        return (self.e, self.c, n - self.b, n - self.a)


def content(s: Sequence) -> int:
    """gcd of n and all terms; 1 whenever some term is coprime to n."""
    u = s.n
    for t in s.terms:
        u = math.gcd(u, t)
    return u


def reduce_by_content(s: Sequence) -> Sequence:
    """Divide the terms and the modulus through by the content u > 1.

    Zero-sum, minimality and the index all survive the division.
    """
    u = content(s)
    if u == 1:
        raise TrivialContent("content is 1; nothing to divide out")
    return Sequence(factorize(s.n // u), tuple(t // u for t in s.terms))


def one_sided_witness(s: Sequence) -> Witness | None:
    """Certify index 1 at the least unit whose transformed sum is n.

    ind(S) = 1 exactly when some unit image of S sums to n.  Such an image
    of a quadruple is one-sided: two terms at or above n/2 would already sum
    to n, so at most one sits there.  One ascending scan therefore settles a
    lopsided input.  Returns None exactly when no unit certifies, that is
    when the index exceeds 1.
    """
    total, m = min_transform_sum(s.terms, s.n, units(s.modulus), stop_at=s.n)
    if total == s.n:
        return certify(s, m, RULE_ONE_SIDED)
    return None


def _strict_split(terms: tuple[int, ...], n: int) -> tuple[int, int]:
    below = above = 0
    for t in terms:
        if 2 * t < n:
            below += 1
        elif 2 * t > n:
            above += 1
    return below, above


def _oriented_form(
    s: Sequence, unit: int = 1, steps: tuple[str, ...] = ()
) -> NormalForm | None:
    """Build the normal form when two terms sit strictly on each side of n/2.

    Such a split forces the sum 2n.  s is the input moved by unit, which
    steps names; complementing extends the move.
    """
    n = s.n
    below, above = _strict_split(s.terms, n)
    if below != 2 or above != 2:
        return None
    n1, _, _, n4 = s.terms
    # n1 + n4 = n would be a zero-sum pair, ruled out by minimality upstream.
    assert n1 + n4 != n, "zero-sum pair survived the minimality check"
    if n1 + n4 > n:
        s = apply_unit(s, n - 1)
        unit = unit * (n - 1) % n
        steps += ("complement",)
    t1, t2, t3, t4 = s.terms
    return NormalForm(
        s.modulus, e=t1, a=n - t4, b=n - t3, c=t2, unit=unit, steps=steps
    )


def _check_quadruple(s: Sequence) -> None:
    """Raise unless s is a minimal zero-sum sequence of length 4."""
    if len(s.terms) != 4:
        raise NotLength4(f"expected 4 terms, got {len(s.terms)}")
    if not is_minimal_zero_sum(s):
        raise NotMinimalZeroSum(f"{s.terms} over {s.n} is not minimal zero-sum")


def to_normal_form(s: Sequence) -> Witness | NormalForm:
    """Reduce a content-1 minimal zero-sum quadruple to the two-sided shape.

    Returns an index-1 certificate when a cheap one turns up, else the
    normal form together with the unit that reaches it.  Sum n is a witness
    at multiplier 1.  With sum 2n the sequence is oriented so two terms sit
    strictly on each side of n/2 (complementing if the outer pair sums
    beyond n) and the normal form is read off.  When the identity
    orientation is lopsided, ``one_sided_witness`` certifies the input at
    its least certifying unit if the index is 1; otherwise the first unit
    transform with a proper split is normalized instead, its move named
    ``mul:m``.  A sum of 3n leaves at most one term at or below n/2 (two
    would cap the sum at 3n - 2), so it is always lopsided; the complement
    n - 1 sums to n, so it is always certified.  Raises UnbalancedSplit when
    no unit transform splits, which can only happen when a term equals n/2.
    """
    _check_quadruple(s)
    if content(s) != 1:
        raise ContentNotOne(f"content {content(s)} must be divided out first")
    if sum(s.terms) == s.n:
        w = certify(s, 1, RULE_SUM_N)
        assert w is not None
        return w
    found = _oriented_form(s) or one_sided_witness(s)
    if found is not None:
        return found
    # Unit 1 yields no form here: the identity orientation is lopsided.
    for m in units(s.modulus):
        nf = _oriented_form(apply_unit(s, m), m, (f"mul:{m}",))
        if nf is not None:
            return nf
    raise UnbalancedSplit(
        f"no unit transform of {s.terms} over {s.n} splits two-and-two"
    )

