"""Complex matrix-variate Dirichlet measures, closed-form averages, and
Monte Carlo verification."""

from .averages import (
    AverageResult,
    AverageSpec,
    FunctionalSpec,
    complement_power_average,
    det_power_average,
    evaluate_average,
    exp_trace_average,
    hermitian_form_moment,
    normalizer_ln,
    phi6_average,
)
from .errors import (
    BadSupport,
    BadWeights,
    DomainError,
    MvdaError,
    NonFiniteIntegrand,
    NotPositiveDefinite,
    PochhammerPole,
    SamplerError,
)
from .linalg import HermitianMatrix
from .measures import (
    MeasureSpec,
    sample_batch,
    sample_matrix_gamma,
)
from .montecarlo import (
    McConfig,
    McReport,
    VerifyCase,
    default_suite,
    report_emit,
    verify_suite,
)
from .rng import SeedSpec
from .special import (
    Hyp1F1Result,
    Partition,
    TruncationPolicy,
    gamma_p_ln,
    hyp1f1_matrix,
    partitions_of,
    pochhammer_gen,
    power_mean,
    schur_eval,
    syt_count,
    zonal_c,
)

__version__ = "0.1.0"

__all__ = [
    "AverageResult",
    "AverageSpec",
    "BadSupport",
    "BadWeights",
    "DomainError",
    "FunctionalSpec",
    "HermitianMatrix",
    "Hyp1F1Result",
    "McConfig",
    "McReport",
    "MeasureSpec",
    "MvdaError",
    "NonFiniteIntegrand",
    "NotPositiveDefinite",
    "Partition",
    "PochhammerPole",
    "SamplerError",
    "SeedSpec",
    "TruncationPolicy",
    "VerifyCase",
    "complement_power_average",
    "default_suite",
    "det_power_average",
    "evaluate_average",
    "exp_trace_average",
    "gamma_p_ln",
    "hermitian_form_moment",
    "hyp1f1_matrix",
    "normalizer_ln",
    "partitions_of",
    "phi6_average",
    "pochhammer_gen",
    "power_mean",
    "report_emit",
    "sample_batch",
    "sample_matrix_gamma",
    "schur_eval",
    "syt_count",
    "verify_suite",
    "zonal_c",
]
