"""Greedy generation and exact verification of B_h[g] sequences.

A sequence of positive integers is B_h[g] when every integer has at most g
representations as a sum of h of its elements (repetition allowed, order
ignored; g = 1 gives Sidon / B_h sequences).  The package provides:

* ``sumrep``  - exact incremental multiset-sum tables and their
  brute-force oracle;
* ``greedy``  - the classic greedy generator and the strong greedy
  generator, whose extra per-level ceilings buy the proven term bound
  a_n <= 2g * n^(h+(h-1)/g), checked with integer arithmetic only;
* ``verify``  - from-scratch validation of sequences, term-size ceilings,
  and the forbidden-candidate window counting behind the strong bound;
* ``cli``     - the ``bhgreedy`` command-line interface.
"""

from .errors import (
    BhgError,
    FitError,
    GuardExceeded,
    InputFormatError,
    ScanExceededBound,
    ScanExceededConfiguredLimit,
)
from .greedy import (
    ALGORITHM_CLASSIC,
    ALGORITHM_STRONG,
    CandidateVerdict,
    Params,
    SequenceRecord,
    StepMeta,
    Threshold,
    classic_greedy,
    default_classic_ceiling,
    int_nth_root,
    is_strong_candidate,
    strong_greedy,
    theorem_bound,
)
from .sumrep import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_MAX_ENUMERATION,
    CandidateDelta,
    SumTableSet,
    brute_force_rep,
)
from .verify import (
    BhgCheck,
    BoundEntry,
    BoundReport,
    ForbiddenSetReport,
    InequalityInstance,
    PrefixCheck,
    ProofDiagnostics,
    classic_bound_check,
    forbidden_set_sizes,
    proof_diagnostics,
    strong_bound_check,
    t_count,
    verify_bhg,
    verify_strong_prefixes,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_CLASSIC",
    "ALGORITHM_STRONG",
    "BhgCheck",
    "BhgError",
    "BoundEntry",
    "BoundReport",
    "CandidateDelta",
    "CandidateVerdict",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_ENUMERATION",
    "FitError",
    "ForbiddenSetReport",
    "GuardExceeded",
    "InequalityInstance",
    "InputFormatError",
    "Params",
    "PrefixCheck",
    "ProofDiagnostics",
    "ScanExceededBound",
    "ScanExceededConfiguredLimit",
    "SequenceRecord",
    "StepMeta",
    "SumTableSet",
    "Threshold",
    "brute_force_rep",
    "classic_bound_check",
    "classic_greedy",
    "default_classic_ceiling",
    "forbidden_set_sizes",
    "int_nth_root",
    "is_strong_candidate",
    "proof_diagnostics",
    "strong_bound_check",
    "strong_greedy",
    "t_count",
    "theorem_bound",
    "verify_bhg",
    "verify_strong_prefixes",
]
