"""Primes outside a two-generator numerical semigroup.

For coprime positive a and b, every sufficiently large integer is a
nonnegative combination au + bv; the finitely many that are not are the
gaps of the semigroup, the largest being s = ab - a - b. This package
counts the primes among the gaps (pi_star), evaluates the explicit
prime-counting bounds that control that count, and reproduces, by exact
finite computation, the verification claims behind the headline results
(see verify module docstring for the claim catalog).
"""

import os

# no routine of the package calls BLAS, so OpenBLAS's start-up thread pool only burns cpu; a value
# the caller set wins, and it takes effect only if numpy is not imported yet
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import coprime_count_up_to, euler_phi, factor
from .bounds import (
    ap_fixed_range_bounds,
    case4_constant,
    delta,
    mv_upper,
    rs_pi_lower,
    rs_pi_upper,
    thm2_rhs,
)
from .errors import CheckpointCorrupt, DomainError, LimitExceeded, NotCoprime
from .pistar import (
    pi_star_bruteforce,
    pi_star_fast,
    pi_star_residue_sum,
)
from .primes import is_prime, pi, pi_ap
from .semigroup import SemigroupPair, contains, gaps, new_pair
from .verify import (
    EXPECTED_COJ1_EQUALITIES,
    EXPECTED_COJ2_EXCEPTIONS,
    check_pair,
    reproduce_thm1_cases,
    reproduce_thm3,
    scan_coj1_equalities,
    scan_coj2_exceptions,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointCorrupt",
    "DomainError",
    "EXPECTED_COJ1_EQUALITIES",
    "EXPECTED_COJ2_EXCEPTIONS",
    "LimitExceeded",
    "NotCoprime",
    "SemigroupPair",
    "ap_fixed_range_bounds",
    "case4_constant",
    "check_pair",
    "contains",
    "coprime_count_up_to",
    "delta",
    "euler_phi",
    "factor",
    "gaps",
    "is_prime",
    "mv_upper",
    "new_pair",
    "pi",
    "pi_ap",
    "pi_star_bruteforce",
    "pi_star_fast",
    "pi_star_residue_sum",
    "reproduce_thm1_cases",
    "reproduce_thm3",
    "rs_pi_lower",
    "rs_pi_upper",
    "scan_coj1_equalities",
    "scan_coj2_exceptions",
    "sweep",
    "thm2_rhs",
    "__version__",
]
