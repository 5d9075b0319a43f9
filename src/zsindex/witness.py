"""Certificate search for minimal zero-sum sequences of any length.

A quadruple runs the staged pipeline; every other length runs the
exhaustive ascending unit scan alone.  The pipeline mirrors the reduction
order: cheap sum checks, content division, normalization, then two
interval-based sufficient conditions, a pool of candidate multipliers, and
finally an exhaustive ascending scan over all units.  A quadruple with no
2-2 split around n/2 has no normal form and is settled by one ascending
unit scan: it certifies under ONE_SIDED at the least certifying unit, or
its exact minimum proves the index above 1.  The interval stage and
the pool's interval members read the half-open intervals [kn/c, kn/b) from
one function, ``interval_integers``; the rest of the pool is a fixed list
of small constants.  Every hit from every stage is validated by direct
recomputation before it is emitted, so soundness rests on the validation
alone.  The interval stage's first unit probe always certifies (its
docstring gives the proof), so it asserts that; the half-plane stage logs a
probe that fails and goes on, and the pool skips one.  Each stage certifies
on the sequence it answers for: the two form stages take the input s with
its normal form nf and try m * nf.unit on s, with nf.steps as the trail, as
``_pipeline`` does for each pool member, so a hit is certified once.
``find_witness`` certifies the sequence it is given, or, handed the result
for another member of the sequence's unit orbit, carries that result over;
the carry is the same at every length.  A certificate found on one sequence
reaches another by a unit move (the lift out of content division, the orbit
transport), and each move certifies it again on the target's own terms by
calling ``certify`` itself.  Nothing is kept between calls.  The sweep's
recheck, ``certificates.verify_witness``, shares no code with this search,
not even residue reduction: it reduces each term inline.
"""

from __future__ import annotations

import itertools
import logging
import math

from .certificates import (
    RULE_CANDIDATE,
    RULE_EXHAUSTIVE,
    RULE_INTERVAL,
    RULE_ONE_SIDED,
    RULE_SUM_N,
    RULE_TWO_OF_THREE,
    HighIndexEvidence,
    Witness,
    certify,
)
from .normal_form import (
    NormalForm,
    NotMinimalZeroSum,
    _oriented_form,
    content,
    reduce_by_content,
)
from .residues import reduce_value, units
from .sequences import Sequence, is_minimal_zero_sum, min_transform_sum

logger = logging.getLogger(__name__)

# Small multipliers tried after the interval members, as the pool's last
# tier before the exhaustive scan.
FIXED_CANDIDATES = (
    3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 28,
)


def interval_integers(k: int, nf: NormalForm) -> range:
    """Integers m with k*n/c <= m < k*n/b, by exact ceiling arithmetic."""
    n = nf.modulus.n
    return range(-(-k * n // nf.c), -(-k * n // nf.b))


def compute_k1(nf: NormalForm) -> int:
    """Largest k whose predecessor intervals [jn/c, jn/b), j < k, are all
    empty while interval k itself contains an integer.

    An interval is empty exactly when its two ceilings agree, so this is the
    first k with a nonempty interval; the ceiling equality then holds for
    every j <= k - 1.  The scan ends by k = b: that interval starts at
    bn/c <= n - n/c < n - 2, so it holds n - 2 and n - 1.
    """
    return next(k for k in itertools.count(1) if interval_integers(k, nf))


def compute_l(nf: NormalForm) -> int:
    """Smallest l >= 1 with at least three integers in [ln/c, ln/b).

    The interval length ln(c - b)/(bc) grows linearly in l; at l = 2c it is
    at least 2n/b > 4, so the scan ends there at the latest.
    """
    return next(l for l in itertools.count(1) if len(interval_integers(l, nf)) >= 3)


def interval_witness(s: Sequence, nf: NormalForm) -> Witness | None:
    """First (k, m) with kn/c <= m < kn/b, gcd(m, n) = 1 and m*a < n, as a
    certificate m times ``nf.unit`` of the input s that nf normalizes.

    Every such m certifies the represented sequence (e, c, n-b, n-a): e < a
    gives 0 < me < ma < n, and c - b = a - e gives mc - mb < ma < n, so
    (k-1)n < mb < kn <= mc < (k+1)n, with mc != kn as m is a unit and
    0 < c < n.  The transformed sum is then me + (mc - kn) + (kn - mb) +
    (n - ma) = n + m(e + c - a - b) = n.  So the first unit probe is the
    certificate, and m certifies the represented sequence exactly when
    m * nf.unit certifies s, which is checked on s's own terms with nf.steps
    as its trail.  Scans k ascending, then m ascending within the half-open
    interval; stops once even the interval's lower end pushes m*a past n.
    """
    n = nf.modulus.n
    a = nf.a
    for k in range(1, nf.b + 1):
        members = interval_integers(k, nf)
        if members.start * a >= n:
            break  # lower ends only grow with k
        for m in members:
            if m * a >= n:
                break
            if math.gcd(m, n) != 1:
                continue
            w = certify(s, m * nf.unit, RULE_INTERVAL, k=k, trail=nf.steps)
            assert w is not None, f"interval unit {m} (k={k}) must certify {nf}"
            return w
    return None


def two_of_three_witness(s: Sequence, nf: NormalForm) -> Witness | None:
    """Search M <= n/(2e) for units satisfying two of the three half-plane
    tests |Ma|_n > n/2, |Mb|_n > n/2, |Mc|_n < n/2.

    A hit is converted to a concrete certificate by trying M and n - M on
    the represented sequence, each as that multiplier times ``nf.unit`` on
    the input s that nf normalizes (see ``interval_witness``); conversions
    that fail validation are logged and skipped.
    """
    n = nf.modulus.n
    e, a, b, c = nf.e, nf.a, nf.b, nf.c
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
            w = certify(s, candidate * nf.unit, RULE_TWO_OF_THREE, trail=nf.steps)
            if w is not None:
                return w
        logger.debug("half-plane hit failed conversion: M=%d on %s", big_m, nf)
    return None


def candidate_multipliers(nf: NormalForm) -> list[tuple[int, str]]:
    """The candidate multiplier pool, deduplicated and filtered to units.

    Order: interval members ascending by (k, m) for k up to max(7, k1), then
    the fixed small constants.  Each entry is reduced into [1, n-1] and
    tagged with its first source.
    """
    n = nf.modulus.n
    pool: dict[int, str] = {}
    sources = [
        (m, "interval")
        for k in range(1, max(7, compute_k1(nf)) + 1)
        for m in interval_integers(k, nf)
    ]
    sources += [(m, "const") for m in FIXED_CANDIDATES]
    for value, tag in sources:
        m = reduce_value(value, n)
        if m not in pool and math.gcd(m, n) == 1:
            pool[m] = tag
    return list(pool.items())


def _exhaustive(s: Sequence, rule: str = RULE_EXHAUSTIVE) -> Witness | HighIndexEvidence:
    """Ascending unit scan: first certificate, under ``rule``, else the exact minimum."""
    n = s.n
    best, best_m = min_transform_sum(s.terms, n, units(s.modulus), stop_at=n)
    if best == n:
        w = certify(s, best_m, rule)
        assert w is not None
        return w
    assert best % n == 0
    return HighIndexEvidence(index=best // n, argmin_unit=best_m, min_sum=best)


def _unit_lift(x: int, n: int, step: int) -> int:
    """Least unit of Z_n congruent to x modulo step, a divisor of n.

    Needs gcd(x, step) = 1; every unit of Z_step then lifts to Z_n.
    """
    u = x % step
    while math.gcd(u, n) != 1:
        u += step
    return u


def _pipeline(s: Sequence) -> Witness | HighIndexEvidence:
    n = s.n
    total = sum(s.terms)
    if total == n:
        w = certify(s, 1, RULE_SUM_N)
        assert w is not None
        return w
    u = content(s)
    if u > 1:
        # Any unit of Z_n lifting the reduced certificate transforms the
        # terms to u times the reduced transforms, so the sum scales from
        # n/u back to n.  The index is equal too; high-index evidence is
        # recomputed at n so its argmin follows the smallest-unit rule there.
        inner = _pipeline(reduce_by_content(s))
        if isinstance(inner, HighIndexEvidence):
            return _exhaustive(s)
        m = _unit_lift(inner.m, n, n // u)
        w = certify(s, m, inner.rule, inner.k, inner.case, (f"content:{u}",) + inner.trail)
        assert w is not None, f"content:{u} must carry the certificate {inner}"
        return w
    assert total in (2 * n, 3 * n), "minimal zero-sum quadruple sums to n, 2n or 3n"
    nf = _oriented_form(s)
    if nf is None:
        # Lopsided: a unit image summing to n is one-sided, so one scan
        # either certifies at the least such unit or proves the index above 1.
        return _exhaustive(s, RULE_ONE_SIDED)
    # nf.unit maps s onto the represented sequence, so m certifies that
    # sequence exactly when m times the unit certifies s.
    for stage in (interval_witness, two_of_three_witness):
        w = stage(s, nf)
        if w is not None:
            return w
    for m, tag in candidate_multipliers(nf):
        w = certify(s, m * nf.unit, RULE_CANDIDATE, case=tag, trail=nf.steps)
        if w is not None:
            return w
    return _exhaustive(s)


def find_witness(
    s: Sequence, found: Witness | HighIndexEvidence | None = None, u: int = 1
) -> Witness | HighIndexEvidence:
    """Find a validated index-1 certificate, or prove the index exceeds 1.

    Requires a minimal zero-sum sequence of any length, and tests minimality
    on every call.  Without ``found`` a quadruple runs the staged pipeline:
    sum = n, content division, the 2-2 split's normal form, the interval
    condition on [kn/c, kn/b), the half-plane condition, the candidate pool,
    exhaustive scan.  A quadruple with no 2-2 split is one unit scan, which
    certifies under ONE_SIDED or proves the index above 1.  Any other length
    runs the exhaustive scan alone.

    ``found`` is the result for u*s, another member of s's unit orbit, which
    the caller already holds.  The index is constant on unit orbits, and a
    certificate m of u*s gives m*u for s, which is certified on s's own
    terms with the step ``orbit:u`` in front of its trail; high-index
    evidence is recomputed on s, so its argmin is s's smallest.  For u = 1
    the sequence is u*s itself, and ``found`` is returned as is.  The carry
    does not depend on the length.
    """
    terms = s.terms
    if not is_minimal_zero_sum(s):
        raise NotMinimalZeroSum(f"{terms} over {s.n} is not minimal zero-sum")
    if found is None:
        return _pipeline(s) if len(terms) == 4 else _exhaustive(s)
    if u == 1:
        return found
    if type(found) is HighIndexEvidence:
        return _exhaustive(s)
    step = f"orbit:{u}"
    carried = certify(s, found.m * u, found.rule, found.k, found.case, (step,) + found.trail)
    assert carried is not None, f"{step} must carry the certificate {found}"
    return carried
