"""Monte Carlo tools for two-timescale jump-diffusion filtering.

Simulates slow/fast systems driven by Brownian motion and finite-activity
jump measures, runs particle filters on jump-contaminated observations,
builds the averaged (reduced) slow model, and measures how the reduced
filter approaches the full one as the timescale separation grows.
"""

from .averaging import (
    AveragedPoint,
    EmpiricalMeasure,
    HomogenizedModel,
    average_coefficients,
    build_homogenized,
    estimate_invariant_measure,
    factor_diffusion,
)
from .errors import (
    ConfigError,
    ExtrapolationError,
    IntegrationFailureError,
    LevyFilterError,
    ModelViolationError,
    UnsupportedMeasureError,
)
from .exprs import Expr, matrix_field, vector_field
from .filtering import (
    FilterOutput,
    ParticleEnsemble,
    PsiSpec,
    init_ensemble,
    psi_from_string,
    resample,
    run_filter,
    run_filter_batch,
)
from .models import (
    PRESETS,
    ClosedFormFacts,
    ModelPreset,
    ObservationModel,
    OuFast,
    SlowFastModel,
    ThinningLaw,
    build_example6,
    load_config,
    make_linear_gaussian,
    preset_from_config,
    preset_to_config,
    validate_assumptions,
    with_epsilon,
)
from .noise import (
    JumpRecord,
    LevyMeasureSpec,
    MarkSampler,
    NoiseSource,
    RngStream,
    brownian_increments,
    null_measure,
    poisson_steps,
)
from .sde import (
    JointPath,
    ObservationRecord,
    default_scheme,
    make_grid,
    simulate_full,
    simulate_reference_observations,
    simulate_signal_ensemble,
)
from .experiments import (
    ConvergenceReport,
    MartingaleReport,
    OracleResult,
    convergence_study,
    filter_convergence_study,
    kalman_bucy,
    kalman_oracle,
    ks_statistic,
    martingale_check,
    signal_convergence_study,
    strictly_decreasing,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedPoint", "EmpiricalMeasure", "HomogenizedModel", "average_coefficients",
    "build_homogenized", "estimate_invariant_measure", "factor_diffusion",
    "ConfigError", "ExtrapolationError", "IntegrationFailureError", "LevyFilterError",
    "ModelViolationError", "UnsupportedMeasureError",
    "Expr", "matrix_field", "vector_field",
    "FilterOutput", "ParticleEnsemble", "PsiSpec", "init_ensemble",
    "psi_from_string", "resample", "run_filter", "run_filter_batch",
    "PRESETS", "ClosedFormFacts", "ModelPreset", "ObservationModel", "OuFast",
    "SlowFastModel", "ThinningLaw", "build_example6", "load_config",
    "make_linear_gaussian", "preset_from_config", "preset_to_config",
    "validate_assumptions", "with_epsilon",
    "JumpRecord", "LevyMeasureSpec", "MarkSampler", "NoiseSource", "RngStream",
    "brownian_increments", "null_measure", "poisson_steps",
    "JointPath", "ObservationRecord", "default_scheme", "make_grid", "simulate_full",
    "simulate_reference_observations", "simulate_signal_ensemble",
    "ConvergenceReport", "MartingaleReport", "OracleResult", "convergence_study",
    "filter_convergence_study", "kalman_bucy", "kalman_oracle",
    "ks_statistic", "martingale_check", "signal_convergence_study",
    "strictly_decreasing",
    "__version__",
]
