"""Exact certificates over Lipschitz-free spaces of finite metric spaces.

Values cross the API and JSON boundary as `fractions.Fraction`; the hot
kernels run on integers over each space's compiled scale.  Certificates
replay their defining inequalities before they are returned.
"""

from .errors import InvalidInput, SoundnessError
from .metric import (FiniteMetricSpace, ValidationReport, builtin_space,
                     build_example52, build_line, make_pair_set, reflect,
                     space_from_json, space_to_json, validate_metric)
from .lipschitz import (LipschitzFunction, PartialFunction, floor_round,
                        function_from_json, function_to_json, in_unit_ball,
                        lip_norm, mcshane_sup_extension, slope)
from .monotone import (CmCertificate, CmViolation, brute_force_cm_oracle,
                       check_augmented, check_gamma_cm, inf_extension,
                       prune_to_cm, replay_prune, replay_witness)
from .lpcore import LinearProgram, LpResult, solve_lp, solve_lps
from .functionals import (PairMeasure, apply_measure, dual_norm, is_optimal,
                          measure_from_json, measure_to_json, positivize,
                          slice_diameter)
from .d2p import (Ld2pCertificate, Sd2pCertificate, ld2p_certificate,
                  lip_ltp_witness, sd2p_certificate, two_lip_ltp_witness)

__version__ = "0.1.0"

__all__ = [
    "InvalidInput", "SoundnessError",
    "FiniteMetricSpace", "ValidationReport", "builtin_space",
    "build_example52", "build_line", "make_pair_set", "reflect",
    "space_from_json", "space_to_json", "validate_metric",
    "LipschitzFunction", "PartialFunction", "floor_round",
    "function_from_json", "function_to_json", "in_unit_ball", "lip_norm",
    "mcshane_sup_extension", "slope",
    "CmCertificate", "CmViolation", "brute_force_cm_oracle",
    "check_augmented", "check_gamma_cm", "inf_extension", "prune_to_cm",
    "replay_prune", "replay_witness",
    "LinearProgram", "LpResult", "solve_lp", "solve_lps",
    "PairMeasure", "apply_measure", "dual_norm", "is_optimal",
    "measure_from_json", "measure_to_json", "positivize", "slice_diameter",
    "Ld2pCertificate", "Sd2pCertificate", "ld2p_certificate",
    "lip_ltp_witness", "sd2p_certificate", "two_lip_ltp_witness",
]
