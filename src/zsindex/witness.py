"""Certificate search for length-4 minimal zero-sum sequences.

The pipeline mirrors the reduction order: cheap sum checks, content
division, normalization, then two interval-based sufficient conditions, a
pool of structured candidate multipliers, and finally an exhaustive
ascending scan over all units.  Every hit from every stage is validated by
direct recomputation before it is emitted; a failed validation is logged
and the search just continues, so soundness rests on the validation alone.
"""

from __future__ import annotations

import logging
import math
from typing import Iterator

from .certificates import (
    RULE_CANDIDATE,
    RULE_EXHAUSTIVE,
    RULE_INTERVAL,
    RULE_SUM_N,
    RULE_TWO_OF_THREE,
    HighIndexEvidence,
    Witness,
    certify,
)
from .normal_form import (
    NormalForm,
    NotLength4,
    NotMinimalZeroSum,
    PrimePowerParams,
    StructureViolation,
    UnbalancedSplit,
    _normalize_validated,
    content,
    min_prime_powers,
    reduce_by_content,
)
from .residues import reduce_value, units
from .sequences import Sequence, is_minimal_zero_sum, min_transform_sum

logger = logging.getLogger(__name__)

# Small multipliers that settle individual cases in the two-prime analysis;
# kept as a last pool tier before the exhaustive scan.
FIXED_CANDIDATES = (
    3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 28,
)


class DiagnosticNotFound(RuntimeError):
    """An interval diagnostic's bounded scan found no qualifying value."""


def interval_integers(k: int, nf: NormalForm) -> list[int]:
    """Integers m with k*n/c <= m < k*n/b, by exact ceiling arithmetic."""
    n = nf.modulus.n
    lo = -(-k * n // nf.c)
    hi = -(-k * n // nf.b)
    return list(range(lo, hi))


def compute_k1(nf: NormalForm) -> int:
    """Largest k whose predecessor intervals [jn/c, jn/b), j < k, are all
    empty while interval k itself contains an integer.

    An interval is empty exactly when its two ceilings agree, so this is the
    first k in [1, b] with a nonempty interval; the ceiling equality then
    holds for every j <= k - 1.  Raises DiagnosticNotFound when no k <= b
    qualifies (not expected to occur).
    """
    n = nf.modulus.n
    b, c = nf.b, nf.c
    for k in range(1, b + 1):
        lo = -(-k * n // c)
        hi = -(-k * n // b)
        if lo < hi:
            return k
    raise DiagnosticNotFound(f"no nonempty interval index up to {b}")


def compute_l(nf: NormalForm) -> int:
    """Smallest l >= 1 with at least three integers in [ln/c, ln/b).

    The interval length grows linearly in l, so the scan is bounded by 2c.
    """
    n = nf.modulus.n
    b, c = nf.b, nf.c
    for l in range(1, 2 * c + 1):
        lo = -(-l * n // c)
        hi = -(-l * n // b)
        if hi - lo >= 3:
            return l
    raise DiagnosticNotFound(f"no triple-integer interval up to l = {2 * c}")


def interval_witness(nf: NormalForm) -> Witness | None:
    """First (k, m) with kn/c <= m <= kn/b, gcd(m, n) = 1 and m*a < n that
    directly certifies the represented sequence.

    Scans k ascending, then m ascending within the closed interval; stops
    once even the interval's lower end pushes m*a past n.
    """
    n = nf.modulus.n
    a, b = nf.a, nf.b
    rep = nf.represented()
    for k in range(1, b + 1):
        lo = -(-k * n // nf.c)
        if lo * a >= n:
            break  # lower ends only grow with k
        hi = k * n // b
        for m in range(lo, hi + 1):
            if m * a >= n:
                break
            if math.gcd(m, n) != 1:
                continue
            w = certify(rep, m, RULE_INTERVAL, k=k)
            if w is not None:
                return w
            logger.debug(
                "interval hit failed validation: m=%d k=%d on %s", m, k, nf
            )
    return None


def two_of_three_witness(nf: NormalForm) -> Witness | None:
    """Search M <= n/(2e) for units satisfying two of the three half-plane
    tests |Ma|_n > n/2, |Mb|_n > n/2, |Mc|_n < n/2.

    A hit is converted to a concrete certificate by trying M and n - M on
    the represented sequence; conversions that fail validation are logged
    and skipped.
    """
    n = nf.modulus.n
    e, a, b, c = nf.e, nf.a, nf.b, nf.c
    rep = nf.represented()
    for big_m in range(1, n // (2 * e) + 1):
        if math.gcd(big_m, n) != 1:
            continue
        score = 0
        if 2 * ((big_m * a - 1) % n + 1) > n:
            score += 1
        if 2 * ((big_m * b - 1) % n + 1) > n:
            score += 1
        if 2 * ((big_m * c - 1) % n + 1) < n:
            score += 1
        if score < 2:
            continue
        for candidate in (big_m, n - big_m):
            w = certify(rep, candidate, RULE_TWO_OF_THREE)
            if w is not None:
                return w
        logger.debug("half-plane hit failed conversion: M=%d on %s", big_m, nf)
    return None


def candidate_multipliers(
    nf: NormalForm, params: PrimePowerParams | None = None
) -> list[tuple[int, str]]:
    """The structured multiplier pool, deduplicated and filtered to units.

    Order: the divisibility-based formulas in construction order, then
    interval members ascending by (k, m), then the fixed small constants.
    Each entry is reduced into [1, n-1] and tagged with its source.
    """
    return list(_iter_candidates(nf, params))


def _iter_candidates(
    nf: NormalForm, params: PrimePowerParams | None
) -> Iterator[tuple[int, str]]:
    """candidate_multipliers' entries, in order, built only as far as read."""
    n = nf.modulus.n
    seen: set[int] = set()
    for value, tag in _pool_sources(nf, params):
        m = reduce_value(value, n)
        if m not in seen and math.gcd(m, n) == 1:
            seen.add(m)
            yield m, tag


def _pool_sources(
    nf: NormalForm, params: PrimePowerParams | None
) -> Iterator[tuple[int, str]]:
    """Raw pool values with their tags, before reduction and deduplication."""
    n = nf.modulus.n
    e, a = nf.e, nf.a
    structured: list[tuple[int, int, str]] = [
        (n + a, a, "(n+a)/a"),
        (n + 2 * a, a, "(n+2a)/a"),
        (n + 3 * a, a, "(n+3a)/a"),
        (n + 4 * a, a, "(n+4a)/a"),
        (n - a, a, "(n-a)/a"),
        (n - 2 * a, a, "(n-2a)/a"),
        (n + 3 * a, 2 * a, "(n+3a)/(2a)"),
        (n + 5 * a, 2 * a, "(n+5a)/(2a)"),
        (n + a, 2 * a, "(n+a)/(2a)"),
        (n - e, e, "(n-e)/e"),
        (n - 2 * e, e, "(n-2e)/e"),
    ]
    if params is not None:
        qq = params.q_power
        structured.append((n - qq, 2 * qq, "(n-q0)/(2q0)"))
        structured.append((3 * n - qq, 2 * qq, "(3n-q0)/(2q0)"))
    for numerator, denominator, tag in structured:
        if numerator > 0 and numerator % denominator == 0:
            yield numerator // denominator, tag
    try:
        k1 = compute_k1(nf)
    except DiagnosticNotFound:
        k1 = 1
    for k in range(1, max(7, k1) + 1):
        for m in interval_integers(k, nf):
            yield m, "interval"
    for m in FIXED_CANDIDATES:
        yield m, "const"


def _prime_params(nf: NormalForm) -> PrimePowerParams | None:
    if len(nf.modulus.factors) != 2:
        return None
    p, q = nf.modulus.primes
    try:
        return min_prime_powers(nf.represented(), p, q)
    except StructureViolation:
        return None


def _exhaustive(s: Sequence, trail: tuple[str, ...]) -> Witness | HighIndexEvidence:
    """Ascending unit scan: first certificate, else the exact minimum."""
    n = s.n
    best, best_m = min_transform_sum(s.terms, n, units(s.modulus), stop_at=n)
    if best == n:
        w = certify(s, best_m, RULE_EXHAUSTIVE, trail=trail)
        assert w is not None
        return w
    assert best % n == 0
    return HighIndexEvidence(index=best // n, argmin_unit=best_m, min_sum=best)


def _lift_by_content(inner: Witness, s: Sequence, u: int) -> Witness:
    """Translate a witness for the content-reduced sequence back to s.

    Any lift of the unit that stays coprime to n transforms the original
    terms to exactly u times the reduced transforms, so the sum scales from
    n/u back to n.
    """
    n = s.n
    step = n // u
    for t in range(u):
        candidate = inner.m + t * step
        if math.gcd(candidate, n) == 1:
            w = certify(
                s,
                candidate,
                inner.rule,
                k=inner.k,
                case=inner.case,
                trail=(f"content:{u}",) + inner.trail,
            )
            assert w is not None, "content lift must preserve the certificate"
            return w
    raise AssertionError(f"no coprime lift of {inner.m} modulo {n}")


def _pipeline(s: Sequence) -> Witness | HighIndexEvidence:
    n = s.n
    if sum(s.terms) == n:
        w = certify(s, 1, RULE_SUM_N)
        assert w is not None
        return w
    u = content(s)
    if u > 1:
        inner = _pipeline(reduce_by_content(s))
        if isinstance(inner, Witness):
            return _lift_by_content(inner, s, u)
        # Recompute the evidence at the original modulus so the argmin
        # follows the smallest-unit rule there; the index itself is equal.
        return _exhaustive(s, trail=(f"content:{u}",))
    try:
        outcome = _normalize_validated(s)
    except UnbalancedSplit:
        return _exhaustive(s, trail=())
    if outcome.witness is not None:
        return outcome.witness
    nf = outcome.normal_form
    assert nf is not None
    trail_product = outcome.trail.composed(n)
    trail_strings = outcome.trail.as_strings()
    for stage in (interval_witness, two_of_three_witness):
        w = stage(nf)
        if w is not None:
            lifted = certify(
                s, w.m * trail_product, w.rule, k=w.k, case=w.case,
                trail=trail_strings,
            )
            if lifted is not None:
                return lifted
            logger.debug("trail lift failed for %s via %s", w, outcome.trail)
    rep = nf.represented()
    params = _prime_params(nf)
    for m, tag in _iter_candidates(nf, params):
        w = certify(rep, m, RULE_CANDIDATE, case=tag)
        if w is None:
            continue
        lifted = certify(
            s, m * trail_product, RULE_CANDIDATE, case=tag, trail=trail_strings
        )
        if lifted is not None:
            return lifted
        logger.debug("candidate lift failed for m=%d tag=%s", m, tag)
    return _exhaustive(s, trail=trail_strings)


def find_witness(s: Sequence) -> Witness | HighIndexEvidence:
    """Find a validated index-1 certificate, or prove the index exceeds 1.

    Stages, in order: sum = n, content division, normalization (with its
    cheap certificates), the closed-interval condition, the half-plane
    condition, the structured candidate pool, exhaustive scan.  The result
    of the exhaustive stage is exact evidence of the minimum when no
    certificate exists.  Requires a minimal zero-sum quadruple.
    """
    if len(s.terms) != 4:
        raise NotLength4(f"expected 4 terms, got {len(s.terms)}")
    if not is_minimal_zero_sum(s):
        raise NotMinimalZeroSum(f"{s.terms} over {s.n} is not minimal zero-sum")
    return _pipeline(s)
