"""Reduction of length-4 minimal zero-sum sequences to a two-sided shape.

The normal form stores parameters (e, a, b, c) over modulus n with

    e < a <= b < c < n/2   and   e + c = a + b,

and represents the sequence (e, c, n-b, n-a), which sums to 2n and is always
minimal zero-sum.  Normalization either reaches that shape (recording the
multipliers it applied as a trail) or certifies index 1 outright along the
way.  Replaying the trail on the input gives the represented sequence, so m
certifies the represented sequence exactly when m times the composed trail
certifies the input.  Any certificate emitted here is validated by direct
recomputation before it leaves the module; no derivation is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import (
    RULE_ONE_SIDED,
    RULE_SUM_3N,
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
    """Parameters (e, a, b, c) of the two-sided shape over a modulus."""

    modulus: GroupOrder
    e: int
    a: int
    b: int
    c: int

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


@dataclass(frozen=True)
class Trail:
    """Unit multipliers applied during normalization, in application order."""

    multipliers: tuple[int, ...] = ()
    complemented: bool = False

    def replay(self, s: Sequence) -> Sequence:
        out = s
        for m in self.multipliers:
            out = apply_unit(out, m)
        return out

    def composed(self, n: int) -> int:
        """Single unit equivalent to the whole trail, in [1, n-1]."""
        product = 1
        for m in self.multipliers:
            product = product * m % n
        return product

    def as_strings(self) -> tuple[str, ...]:
        out = []
        for m in self.multipliers:
            out.append(f"mul:{m}")
        if self.complemented:
            out = out[:-1] + ["complement"]
        return tuple(out)


@dataclass(frozen=True)
class NormalizationOutcome:
    """Either an index-1 witness or a normal form, plus the transform trail.

    Exactly one of ``witness`` / ``normal_form`` is set.  Replaying the trail
    on the input reproduces the normal form's represented sequence.
    """

    witness: Witness | None
    normal_form: NormalForm | None
    trail: Trail

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.normal_form is None):
            raise ValueError("outcome must hold exactly one of witness/normal form")


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


def _oriented_form(s: Sequence, trail: Trail) -> NormalizationOutcome | None:
    """Build the normal form from a sum-2n sequence with a strict 2-2 split."""
    n = s.n
    below, above = _strict_split(s.terms, n)
    if below != 2 or above != 2:
        return None
    n1, _, _, n4 = s.terms
    # n1 + n4 = n would be a zero-sum pair, ruled out by minimality upstream.
    assert n1 + n4 != n, "zero-sum pair survived the minimality check"
    oriented = s
    if n1 + n4 > n:
        oriented = apply_unit(s, n - 1)
        trail = Trail(trail.multipliers + (n - 1,), complemented=True)
    t1, t2, t3, t4 = oriented.terms
    form = NormalForm(s.modulus, e=t1, a=n - t4, b=n - t3, c=t2)
    return NormalizationOutcome(witness=None, normal_form=form, trail=trail)


def to_normal_form(s: Sequence) -> NormalizationOutcome:
    """Reduce a content-1 minimal zero-sum quadruple to the two-sided shape.

    Cheap certificates are taken when available: sum n is a witness at
    multiplier 1, sum 3n at the complement.  With sum 2n the sequence is
    oriented so two terms sit strictly on each side of n/2 (complementing if
    the outer pair sums beyond n) and the normal form is read off.  When the
    identity orientation is lopsided, one-sided handling tries to convert
    the situation into a direct certificate, then any unit transform with a
    proper split is normalized instead.  Raises UnbalancedSplit when no unit
    transform splits, which can only happen when a term equals n/2.
    """
    if len(s.terms) != 4:
        raise NotLength4(f"expected 4 terms, got {len(s.terms)}")
    if not is_minimal_zero_sum(s):
        raise NotMinimalZeroSum(f"{s.terms} over {s.n} is not minimal zero-sum")
    if content(s) != 1:
        raise ContentNotOne(f"content {content(s)} must be divided out first")
    return _normalize_validated(s)


def _normalize_validated(s: Sequence) -> NormalizationOutcome:
    """to_normal_form body for callers that already hold the preconditions."""
    n = s.n
    total = sum(s.terms)
    if total == n:
        w = certify(s, 1, RULE_SUM_N)
        assert w is not None
        return NormalizationOutcome(witness=w, normal_form=None, trail=Trail())
    if total == 3 * n:
        w = certify(s, n - 1, RULE_SUM_3N)
        assert w is not None  # complement of a 3n sum is exactly n
        return NormalizationOutcome(witness=w, normal_form=None, trail=Trail())
    assert total == 2 * n, "minimal zero-sum quadruple sums to n, 2n or 3n"

    outcome = _oriented_form(s, Trail())
    if outcome is not None:
        return outcome

    # Lopsided identity orientation: at most one term on one strict side, or
    # a term sits exactly on n/2.  Index 1, if true, yields a direct witness.
    w = one_sided_witness(s)
    if w is not None:
        return NormalizationOutcome(witness=w, normal_form=None, trail=Trail())
    for m in units(s.modulus):
        if m == 1:
            continue
        transformed = apply_unit(s, m)
        outcome = _oriented_form(transformed, Trail(multipliers=(m,)))
        if outcome is not None:
            return outcome
    raise UnbalancedSplit(
        f"no unit transform of {s.terms} over {n} splits two-and-two"
    )
