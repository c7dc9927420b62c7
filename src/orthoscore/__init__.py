"""Locally robust estimation with orthogonal scores and cross-fitting.

The package has three layers.  ``core`` and ``learners`` supply the
data model and the from-scratch regression/classification learners.
``ortho`` builds Neyman-orthogonal scores for three estimation regimes
from user-supplied derivative callbacks and verifies the defining
insensitivity property by Monte Carlo.  On top sit three worked
estimators, namely the instrumented causal-effect estimator (``late``),
a partialled-out linear coefficient (``plr``) and a corrected quantile
of the treated arm (``qte``), plus the synthetic replication study
(``sim``), closed-form orthogonality check targets (``diagnostics``)
and the command line in ``cli``.
"""

from .core import (
    Dataset,
    EstimationResult,
    FunctionEstimate,
    derive_seed,
    make_ci,
    split_folds,
)
from .learners import (
    AffineEstimate,
    MlpArchitecture,
    MlpEstimate,
    TrainConfig,
    TrainingDiverged,
    clip_propensity,
    expit,
    fit_least_squares,
    fit_logistic,
    fit_mlp,
    gradient_check,
    pipeline_train_config,
)
from .ortho import (
    CoupledModel,
    DecoupledModel,
    RatioDirection,
    ScoreFamily,
    SequentialDirections,
    SequentialModel,
    build_coupled_score,
    build_decoupled_score,
    build_sequential_score,
    check_orthogonality,
    fit_coupled_direction,
    fit_decoupled_direction,
    fit_sequential_directions,
)
from .late import (
    LateConfig,
    estimate_h,
    estimate_log_odds,
    kappa,
    late_crossfit,
    moment_score,
    regression_score,
    robust_score,
)
from .plr import PlrConfig, partialled_beta, partialled_score, plr_crossfit
from .qte import (
    QteConfig,
    ipw_quantile_score,
    orthogonal_quantile_score,
    qte_crossfit,
    solve_monotone,
)
from .sim import (
    BETA0,
    DgpConfig,
    DgpTruth,
    MethodSummary,
    SimulationReport,
    f0_true,
    gen_covariates,
    gen_dataset,
    mu_true,
    run_replications,
    summarize_replicates,
)
from .diagnostics import CheckCase, CheckReport, TARGETS, run_check

__version__ = "0.1.0"

__all__ = [
    "Dataset", "EstimationResult", "FunctionEstimate",
    "derive_seed", "make_ci", "split_folds",
    "AffineEstimate", "MlpArchitecture", "MlpEstimate", "TrainConfig",
    "TrainingDiverged", "clip_propensity", "expit", "fit_least_squares",
    "fit_logistic", "fit_mlp", "gradient_check", "pipeline_train_config",
    "CoupledModel", "DecoupledModel", "RatioDirection", "ScoreFamily",
    "SequentialDirections", "SequentialModel", "build_coupled_score",
    "build_decoupled_score", "build_sequential_score", "check_orthogonality",
    "fit_coupled_direction", "fit_decoupled_direction",
    "fit_sequential_directions",
    "LateConfig", "estimate_h", "estimate_log_odds", "kappa", "late_crossfit",
    "moment_score", "regression_score", "robust_score",
    "PlrConfig", "partialled_beta", "partialled_score", "plr_crossfit",
    "QteConfig", "ipw_quantile_score", "orthogonal_quantile_score",
    "qte_crossfit", "solve_monotone",
    "BETA0", "DgpConfig", "DgpTruth", "MethodSummary", "SimulationReport",
    "f0_true", "gen_covariates", "gen_dataset", "mu_true",
    "run_replications", "summarize_replicates",
    "CheckCase", "CheckReport", "TARGETS", "run_check",
    "__version__",
]
