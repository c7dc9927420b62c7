"""Binary-instrument causal-effect estimation via complier reweighting.

The target is beta0 = E[(Y(1) - Y(0)) * 1{complier}], the complier
average effect scaled by the complier probability.  Identification
rests on the signed kappa weights built from the instrument propensity
g0(x) = P(Z=1 | X=x), whose log-odds f0 is the first nuisance.  For
binary d, kappa1 - kappa0 = (z - g)/(g(1-g)) =: w, as (1-z) - (1-g) = g - z:

* moment:     w * y - beta, the inverse-propensity ITT numerator (reads no d)
* robust:     w * (y + h) - beta, orthogonal unlike the moment score,
  where h0(x) = E[Y * ((e^f0 - e^-f0) Z - e^f0) | X=x] is estimated by
  regressing that pseudo-outcome (built with f-hat) on x;
* regression: w * (d ? mu1 : mu0) - beta, with the local average response
  functions mu_t fitted by kappa_t-weighted least squares (``kappa`` stays).

``late_crossfit`` hands one fold step to ``core.crossfit``: fit the
nuisances on the training half, solve the configured score on the
estimation half.  One private ``_fit`` picks the learner tier of every
nuisance (the seeded net for *_np methods, else the affine fits), and
``fit_larf`` returns both arms from one training propensity.  All three
scores are linear in beta with slope J = -1, so the solve is a fold mean.
Each score returns a fresh array and writes none of its inputs; past
``core.BLOCK_ROWS`` rows it runs its formula one block of rows at a
time (``core.in_row_blocks``), which gives every row the same bits.
Every propensity is clipped into [eps, 1 - eps], eps the fixed
``learners.CLIP_EPSILON``, before a weight divides by it.  Confidence
intervals use the robust-score variance for the moment method too (the
two estimators share one asymptotic variance); regression methods use
their own residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (SEED_LATE_H, SEED_LATE_LARF, SEED_LATE_LOG_ODDS, Dataset,
                   EstimationResult, FunctionEstimate, crossfit, derive_seed,
                   in_row_blocks, require_splittable)
from .learners import (MlpArchitecture, TrainConfig, clip_propensity, expit,
                       fit_least_squares, fit_logistic, fit_mlp,
                       pipeline_train_config)

__all__ = [
    "METHODS",
    "LateConfig",
    "kappa",
    "estimate_log_odds",
    "estimate_h",
    "robust_score",
    "moment_score",
    "regression_score",
    "fit_larf",
    "solve_beta_linear",
    "late_crossfit",
]

METHODS = ("robust_np", "robust_lr", "moment", "reg_np", "reg_lr")


@dataclass(frozen=True)
class LateConfig:
    """Method choice plus learner settings for the IV pipeline."""

    method: str = "robust_lr"
    arch: MlpArchitecture = field(default_factory=MlpArchitecture)
    train: TrainConfig = field(default_factory=pipeline_train_config)
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")


def _instrument_variance(g) -> np.ndarray:
    # Written so that a NaN g fails: NaN <= 0 and NaN >= 1 are both false.
    if not ((g > 0.0) & (g < 1.0)).all():
        raise ValueError("g must lie strictly inside (0, 1)")
    return g * (1.0 - g)


def kappa(d, z, g):
    """Signed complier weights (kappa0, kappa1).

    kappa0 = (1-d) * ((1-z) - (1-g)) / ((1-g) g)
    kappa1 = d * (z - g) / ((1-g) g)

    `d`, `z` and `g` are per-observation arrays of one length, or
    scalars.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    denom = _instrument_variance(g)
    k0 = (1.0 - d) * ((1.0 - z) - (1.0 - g)) / denom
    k1 = d * (z - g) / denom
    return k0, k1


def _propensity(f):
    return clip_propensity(expit(f))


def _weight(f, z):
    """kappa1 - kappa0 = (z - g)/(g(1-g)), g the clipped expit(f)."""
    g = _propensity(f)
    return (z - g) / _instrument_variance(g)


def _fit(config: LateConfig, x, target, loss: str, seed_path: tuple[int, ...],
         weights=None) -> FunctionEstimate:
    """Net seeded at `seed_path` for *_np methods, else the affine fit of `loss`."""
    if config.method.endswith("_np"):
        cfg = replace(config.train, seed=derive_seed(config.seed, *seed_path))
        return fit_mlp(x, target, loss, weights=weights, arch=config.arch, config=cfg)
    if loss == "cross_entropy_on_logits":
        return fit_logistic(x, target)
    return fit_least_squares(x, target, weights=weights)


def estimate_log_odds(train: Dataset, config: LateConfig,
                      seed_tag: int = 0) -> FunctionEstimate:
    """Fit the instrument log-odds f-hat on one fold."""
    if train.z is None:
        raise ValueError("instrument required")
    return _fit(config, train.x, train.z, "cross_entropy_on_logits",
                (SEED_LATE_LOG_ODDS, seed_tag))


def estimate_h(train: Dataset, f_hat: FunctionEstimate, config: LateConfig,
               seed_tag: int = 0) -> FunctionEstimate:
    """Fit the correction direction h-hat by pseudo-outcome regression.

    The pseudo-outcome is t_i = y_i * ((e^f - e^-f) z_i - e^f) with f
    the fitted log-odds at x_i; the exponentials are formed from the
    clipped propensity, which bounds them by (1-eps)/eps.
    """
    g = _propensity(f_hat(train.x))
    e_f = g / (1.0 - g)
    pseudo = train.y * ((e_f - 1.0 / e_f) * train.z - e_f)
    if not np.isfinite(pseudo).all():
        raise RuntimeError("non-finite pseudo-outcome")
    return _fit(config, train.x, pseudo, "squared_error", (SEED_LATE_H, seed_tag))


def robust_score(beta: float, f, h, data: Dataset) -> np.ndarray:
    """Orthogonal score w (y + h) - beta, w = (z - g)/(g(1-g)).

    `f` and `h` hold the log-odds and the direction at `data.x`.
    """
    def rows(f, h, z, y):
        return _weight(f, z) * (y + h) - beta

    return in_row_blocks(rows, f, h, data.z, data.y)


def moment_score(beta: float, f, data: Dataset) -> np.ndarray:
    """Plain reweighting score w y - beta; `f` at `data.x`.  Reads no d."""
    def rows(f, z, y):
        return _weight(f, z) * y - beta

    return in_row_blocks(rows, f, data.z, data.y)


def regression_score(beta: float, f, mu0, mu1, data: Dataset) -> np.ndarray:
    """Imputation score w (d ? mu1 : mu0) - beta = kappa1 mu1 - kappa0 mu0 - beta.

    `f`, `mu0` and `mu1` hold the log-odds and the fitted response
    functions at `data.x`.
    """
    def rows(f, mu0, mu1, d, z):
        return _weight(f, z) * np.where(d == 1.0, mu1, mu0) - beta

    return in_row_blocks(rows, f, mu0, mu1, data.d, data.z)


def fit_larf(train: Dataset, f_hat: FunctionEstimate, config: LateConfig,
             seed_tag: int = 0) -> tuple[FunctionEstimate, FunctionEstimate]:
    """Fit both local average response functions, (mu0, mu1).

    Arm t minimizes the kappa_t-weighted squared error; the weights are
    signed, which both learners accept as-is.  One propensity and one
    ``kappa`` call serve both arms; arm 0 is fitted first.
    """
    g = _propensity(f_hat(train.x))
    return tuple(_fit(config, train.x, train.y, "weighted_squared_error",
                      (SEED_LATE_LARF + t, seed_tag), weights=w)
                 for t, w in enumerate(kappa(train.d, train.z, g)))


def solve_beta_linear(score_fn, fold: Dataset) -> float:
    """Root of a score of the form A(w) - beta: the fold mean of A.

    `score_fn(beta, data)` must return per-observation scores with
    slope exactly -1 in beta.  A mean score that is not finite raises
    ``ValueError``.
    """
    if fold.n == 0:
        raise ValueError("empty fold")
    # Each mean is the sum and the divide that np.mean performs.
    beta_hat = float(np.add.reduce(score_fn(0.0, fold))) / fold.n
    if not math.isfinite(beta_hat):
        raise ValueError("non-finite mean score")
    residual = abs(float(np.add.reduce(score_fn(beta_hat, fold))) / fold.n)
    if residual > 1e-10 * max(1.0, abs(beta_hat)):
        raise RuntimeError("score is not linear in beta with slope -1")
    return beta_hat


def late_crossfit(data: Dataset, config: LateConfig) -> EstimationResult:
    """Two-fold cross-fitted estimate with plug-in variance (see ``crossfit``).

    A ``ValueError`` or ``RuntimeError`` in fold k is re-raised as a
    ``RuntimeError`` prefixed ``fold k:``; any other exception propagates.
    """
    if data.z is None:
        raise ValueError("instrument required")
    require_splittable(data.n)
    if (data.z == data.z[0]).all():
        raise ValueError("degenerate instrument")

    def fit_fold(train, est, k):
        try:
            f_hat = estimate_log_odds(train, config, k)
            f = f_hat(est.x)
            if config.method in ("reg_np", "reg_lr"):
                mu0, mu1 = (mu(est.x) for mu in fit_larf(train, f_hat, config, k))
                point_fn = var_fn = lambda b, ds: regression_score(b, f, mu0, mu1, ds)
            else:
                # The moment method needs h-hat only for its variance estimate.
                h = estimate_h(train, f_hat, config, k)(est.x)
                point_fn = var_fn = lambda b, ds: robust_score(b, f, h, ds)
                if config.method == "moment":
                    point_fn = lambda b, ds: moment_score(b, f, ds)
            beta_k = solve_beta_linear(point_fn, est)
            return beta_k, var_fn(beta_k, est), -1.0
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(f"fold {k}: {exc}") from exc

    return crossfit(data, config.seed, fit_fold, config.method)
