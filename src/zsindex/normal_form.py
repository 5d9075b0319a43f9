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

    def represented(self) -> Sequence:
        return Sequence(self.modulus, self.represented_terms())


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


def _one_sided_at(terms: tuple[int, ...], n: int, m: int) -> bool:
    """At most one transformed term in [1, n/2], or at most one in [n/2, n]."""
    low = 0
    high = 0
    for t in terms:
        v = (m * t - 1) % n + 1
        if 2 * v <= n:
            low += 1
        if 2 * v >= n:
            high += 1
    return low <= 1 or high <= 1


def one_sided_witness(s: Sequence) -> Witness | None:
    """Search units for a transform with at most one term on one half.

    A hit only proves index 1 indirectly, so it is converted to a concrete
    certificate: first the hitting unit and its complement are tried, then
    an ascending scan.  Returns None when no unit is one-sided, or when a
    hit exists but no direct certificate does (possible outside the
    conjecture's gcd(n, 6) = 1 scope).
    """
    n = s.n
    terms = s.terms
    hit: int | None = None
    for m in units(s.modulus):
        if _one_sided_at(terms, n, m):
            hit = m
            break
    if hit is None:
        return None
    for candidate in (hit, n - hit):
        w = certify(s, candidate, RULE_ONE_SIDED)
        if w is not None:
            return w
    total, m = min_transform_sum(terms, n, units(s.modulus), stop_at=n)
    if total == n:
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
    orientation is lopsided, one-sided handling tries to convert the
    situation into a direct certificate, then any unit transform with a
    proper split is normalized instead.  A sum of 3n leaves at most one term
    at or below n/2 (two would cap the sum at 3n - 2), so it is always
    lopsided and one-sided handling certifies it at the complement n - 1.
    Raises UnbalancedSplit when no unit transform splits, which can only
    happen when a term equals n/2.
    """
    _check_quadruple(s)
    if content(s) != 1:
        raise ContentNotOne(f"content {content(s)} must be divided out first")
    return _normalize_validated(s)


def _normalize_validated(s: Sequence) -> Witness | NormalForm:
    """to_normal_form body for callers that already hold the preconditions."""
    n = s.n
    total = sum(s.terms)
    if total == n:
        w = certify(s, 1, RULE_SUM_N)
        assert w is not None
        return w
    assert total in (2 * n, 3 * n), "minimal zero-sum quadruple sums to n, 2n or 3n"

    nf = _oriented_form(s)
    if nf is not None:
        return nf

    # Lopsided identity orientation: at most one term on one strict side, or
    # a term sits exactly on n/2.  Index 1, if true, yields a direct witness.
    w = one_sided_witness(s)
    if w is not None:
        return w
    for m in units(s.modulus):
        if m == 1:
            continue
        nf = _oriented_form(apply_unit(s, m), m, (f"mul:{m}",))
        if nf is not None:
            return nf
    raise UnbalancedSplit(
        f"no unit transform of {s.terms} over {n} splits two-and-two"
    )
