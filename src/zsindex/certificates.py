"""Index-1 certificates and their independent checker.

A certificate is a unit m with sum of |m*t|_n over the terms equal to n
exactly.  Certificates are only ever constructed through ``certify``, which
recomputes that sum, so a Witness in hand is already validated; callers that
distrust the producer can still recheck it with ``verify_witness``, which
shares nothing with the search machinery beyond residue reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .residues import reduce_value
from .sequences import Sequence

RULE_SUM_N = "SUM_N"  # the term sum itself equals n (multiplier 1)
RULE_ONE_SIDED = "ONE_SIDED"  # a transform left at most one term on one half
RULE_INTERVAL = "INTERVAL"  # m in [kn/c, kn/b) with m*a < n, on a normal form
RULE_TWO_OF_THREE = "TWO_OF_THREE"  # two of: |Ma|, |Mb| large, |Mc| small
RULE_CANDIDATE = "CANDIDATE"  # pool hit; the case tag is interval or const
RULE_EXHAUSTIVE = "EXHAUSTIVE"  # ascending scan over all units


@dataclass(frozen=True, slots=True)
class Witness:
    """A unit multiplier certifying index 1, with provenance.

    ``k`` is the interval index when the INTERVAL rule fired; ``case``
    carries the candidate-pool tag for CANDIDATE hits; ``trail`` lists the
    reduction steps (content division, multipliers) that led to this unit,
    purely as provenance -- ``m`` alone certifies the original sequence.
    """

    m: int
    achieved_sum: int
    rule: str
    k: int | None = None
    case: str | None = None
    trail: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """Histogram key: the rule, refined by the candidate case tag."""
        if self.case is not None:
            return f"{self.rule}:{self.case}"
        return self.rule


@dataclass(frozen=True)
class HighIndexEvidence:
    """Exhaustive-scan proof that the minimum transformed sum exceeds n.

    ``index`` is the exact integer index, ``argmin_unit`` the smallest unit
    achieving ``min_sum``.
    """

    index: int
    argmin_unit: int
    min_sum: int


def certify(
    s: Sequence,
    m: int,
    rule: str,
    k: int | None = None,
    case: str | None = None,
    trail: tuple[str, ...] = (),
) -> Witness | None:
    """Build a certificate only if m directly achieves transformed sum n.

    Returns None when m is not a unit or the sum misses n; the searches use
    that to discard near-miss candidates instead of trusting any derivation.
    """
    n = s.modulus.n
    m = (m - 1) % n + 1
    if math.gcd(m, n) != 1:
        return None
    total = 0
    for t in s.terms:
        total += (m * t - 1) % n + 1
    if total != n:
        return None
    return Witness(m=m, achieved_sum=total, rule=rule, k=k, case=case, trail=trail)


def verify_witness(s: Sequence, w: Witness) -> bool:
    """Recheck a certificate from scratch: unit test plus direct sum.

    Independent of the search pipeline; only residue reduction is shared.
    Returns False on any failure, never raises.
    """
    n = s.modulus.n
    if math.gcd(w.m, n) != 1:
        return False
    total = 0
    for t in s.terms:
        total += reduce_value(w.m * t, n)
    return total == n
