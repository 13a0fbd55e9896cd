"""rankfold: rank-metric codes with recursive fold-based decoders.

The package covers three layers:

* exact arithmetic: rationals, multiquadratic towers Q(sqrt(a_1), ...,
  sqrt(a_m)), and finite fields GF(p), GF(p^2), GF(p^m), plus a dense
  exact matrix toolkit;
* codes: binary rank Reed-Muller codes over multiquadratic towers with
  a recursive fold/erasure decoder, Gabidulin codes with a linearized
  interpolation decoder, and a Plotkin-style two-block construction over
  finite fields combining both decoders;
* experiments: Monte Carlo estimation of fold rank-drop probabilities
  and decoder round-trip campaigns, exposed through the `rankfold` CLI.
"""

from .errors import (
    DecodingFailure,
    DegreeCollapse,
    DimensionMismatch,
    FieldMismatch,
    LengthMismatch,
    NoSolution,
    NotASquare,
    NotUnique,
    ParameterMismatch,
    RankfoldError,
    SingularBasis,
    TowerHeightZero,
)
from .exactfield import QQ, MQElement, MultiquadraticField, Rational, mq_field
from .gabidulin import GabidulinCode, GabidulinMatrixCode, LinearizedPoly, annihilator
from .gf import ExtField, PrimeField, QuadExtField, expand_to_base, reconstruct_from_base
from .linalg import ExactMatrix, MatrixCode, random_rank_matrix
from .plotkin import (
    FoldStats,
    PlotkinCode,
    fold_probability_experiment,
    gabidulin_plotkin,
    non_mrd_witness,
    plotkin_dual_check,
    plotkin_encode,
    plotkin_fold,
)
from .reedmuller import DecodeReport, RMCode, ThetaPolynomial
from .rng import SplitMix64, derive_seed
from .serial import field_from_json

__version__ = "0.1.0"
