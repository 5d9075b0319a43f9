"""Exact index computation for sequences over finite cyclic groups.

The library computes the index of sequences over Z_n (minimum over units m
of the transformed-term sum divided by n), enumerates minimal zero-sum
sequences, and produces independently checkable index-1 certificates via a
chain of constructive reductions backstopped by an exhaustive scan.
"""

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
    verify_witness,
)
from .harness import (
    VerificationReport,
    VerifyOptions,
    enumerate_minimal,
    orbit_canonical,
    search_high_index,
    verify_conjecture,
    verify_moduli,
)
from .normal_form import (
    ContentNotOne,
    NormalForm,
    NotLength4,
    NotMinimalZeroSum,
    TrivialContent,
    UnbalancedSplit,
    content,
    one_sided_witness,
    reduce_by_content,
    to_normal_form,
)
from .residues import (
    GroupOrder,
    InvalidModulus,
    NotAUnit,
    factorize,
    units,
)
from .sequences import (
    IndexValue,
    Sequence,
    apply_unit,
    is_minimal_zero_sum,
    is_zero_sum,
    sequence_index,
)
from .witness import (
    candidate_multipliers,
    compute_k1,
    compute_l,
    find_witness,
    interval_integers,
    interval_witness,
    two_of_three_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ContentNotOne",
    "GroupOrder",
    "HighIndexEvidence",
    "IndexValue",
    "InvalidModulus",
    "NormalForm",
    "NotAUnit",
    "NotLength4",
    "NotMinimalZeroSum",
    "RULE_CANDIDATE",
    "RULE_EXHAUSTIVE",
    "RULE_INTERVAL",
    "RULE_ONE_SIDED",
    "RULE_SUM_N",
    "RULE_TWO_OF_THREE",
    "Sequence",
    "TrivialContent",
    "UnbalancedSplit",
    "VerificationReport",
    "VerifyOptions",
    "Witness",
    "apply_unit",
    "candidate_multipliers",
    "certify",
    "compute_k1",
    "compute_l",
    "content",
    "enumerate_minimal",
    "factorize",
    "find_witness",
    "interval_integers",
    "interval_witness",
    "is_minimal_zero_sum",
    "is_zero_sum",
    "one_sided_witness",
    "orbit_canonical",
    "reduce_by_content",
    "search_high_index",
    "sequence_index",
    "to_normal_form",
    "two_of_three_witness",
    "units",
    "verify_conjecture",
    "verify_moduli",
    "verify_witness",
]
