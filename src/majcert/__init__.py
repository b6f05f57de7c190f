"""Majority-certificates machinery at exactly-checkable desk scale:
Boolean and real certificate decompositions, winnowing, covers and
shattering dimensions, and toy compiled quantum-advice verification."""

__version__ = "0.1.0"

from .concepts import (BooleanFunction, Certificate, ConceptClass,
                       Distribution, InputDomain, PConceptClass, RealFunction,
                       Slots, distance, distance_expected, is_isolated,
                       pointwise_majority, restrict_class, restricted_gaps)
from .decompose import (FAIL, MajorityDecomposition, RealDecomposition,
                        RobustDecomposition, majority_certificates, occam_check,
                        real_majority_certificates,
                        robust_majority_certificates,
                        untrusted_oracle_evaluate, verify_real_decomposition)
from .games import AliceStrategy, double_oracle_solve, solve_game_full_lp
from .winnow import (CoverResult, L1WinnowResult, L2Family, SafeWinnowResult,
                     WeakCertifyResult, binary_search_winnow, epsilon_cover,
                     fat_shattering_dim, l1_winnow, safe_winnow, vc_dim,
                     weak_certify)

__all__ = [name for name in dir() if not name.startswith("_")]
