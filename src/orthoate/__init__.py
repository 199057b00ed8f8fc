"""Higher-order orthogonal scores and debiased estimators for treatment effects."""

from .dataio import (
    RunConfig,
    VerifySettings,
    load_csv_dataset,
    load_run_config,
    read_report_csv,
    save_csv_dataset,
    write_report,
)
from .estimators import (
    Dataset,
    Diagnostics,
    EstimateReport,
    SplitPlan,
    estimate_dml,
    estimate_dr,
    estimate_higher_order,
    estimate_moments,
    make_split,
    pairwise_from_theta,
    relative_ate_error,
    single_resample_pass,
)
from .exceptions import (
    ConfigError,
    DegenerateMoment,
    EmptyFold,
    EmptyResidualSet,
    InvalidArgument,
    InvalidOrder,
    MissingClass,
    NonFinite,
    OrthoError,
    ParseError,
    SchemaError,
    ShapeMismatch,
    SingularSystem,
    ZeroDenominator,
)
from .gateaux import DerivativeEstimate, OrthogonalityReport, check_orthogonality
from .learners import (
    LearnerSpec,
    NuisanceFits,
    fit_forest_classifier,
    fit_forest_regressor,
    fit_lasso,
    fit_lasso_cv,
    fit_logistic,
    fit_nuisances,
)
from .score import (
    Moments,
    OrthoCoefficients,
    binomial,
    compute_coefficients,
    correction_values,
    dml_correction_values,
    dml_score_values,
    random_realizable_moments,
    score_values,
    solve_coefficients_oracle,
)
from .simulation import (
    EstimatorSpec,
    NoisyPropensity,
    SimConfig,
    SweepReport,
    TreatmentOutcomeModel,
    draw_default_params,
    generate_dataset,
    run_estimators,
    run_sweep,
)

__version__ = "0.1.0"
