"""Index-1 certificates and their independent checker.

A certificate is a unit m with sum of |m*t|_n over the terms equal to n
exactly.  Certificates are only ever constructed through ``certify``, which
recomputes that sum, so a Witness in hand is already validated; callers that
distrust the producer can still recheck it with ``verify_witness``, which
shares nothing with the search machinery: it reduces each transformed term
into [1, n] inline, not through ``residues.reduce_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    ``certify``, which a sweep calls once per carried certificate, sets the
    fields through their slots rather than through ``__init__``.
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


# The slot setters, which a frozen class's own __setattr__ would refuse.
_set_m = Witness.m.__set__  # type: ignore[attr-defined]
_set_achieved_sum = Witness.achieved_sum.__set__  # type: ignore[attr-defined]
_set_rule = Witness.rule.__set__  # type: ignore[attr-defined]
_set_k = Witness.k.__set__  # type: ignore[attr-defined]
_set_case = Witness.case.__set__  # type: ignore[attr-defined]
_set_trail = Witness.trail.__set__  # type: ignore[attr-defined]


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
    m = m % n or n
    if math.gcd(m, n) != 1:
        return None
    total = 0
    for t in s.terms:
        total += (m * t - 1) % n + 1
    if total != n:
        return None
    w = object.__new__(Witness)  # what Witness(m, total, ...) builds, with no __init__ call
    _set_m(w, m)
    _set_achieved_sum(w, total)
    _set_rule(w, rule)
    _set_k(w, k)
    _set_case(w, case)
    _set_trail(w, trail)
    return w


def verify_witness(s: Sequence, w: Witness) -> bool:
    """Recheck a certificate from scratch: unit test plus direct sum.

    Independent of the search pipeline: it calls none of its helpers, and
    reduces each transformed term into [1, n] itself.  Returns False on any
    failure, never raises.
    """
    n = s.modulus.n
    m = w.m
    if math.gcd(m, n) != 1:
        return False
    total = 0
    for t in s.terms:
        total += (m * t - 1) % n + 1
    return total == n
