"""Partially linear regression by cross-fitted residual-on-residual fit.

Model: Y = beta0 * D + f0(X) + eps with E[eps | X, D] = 0.  The
orthogonal score with direction h0(x) = -E[D | X=x] reduces to the
partialled-out form

    psi(beta; m, l) = (d - m(x)) * (beta (d - m(x)) - (y - l(x))),

with m(x) = E[D | X=x] and l(x) = E[Y | X=x].  ``plr_crossfit`` hands
one fold step to ``core.crossfit``: fit m and l on the training half,
then on the estimation half the root is the residual-on-residual
least-squares slope

    beta = sum r_d r_y / sum r_d^2,

and the fold step returns psi at that root (``partialled_score``) with
the slope J = -mean r_d^2.  The treatment may be real-valued here;
there is no instrument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import SEED_PLR, Dataset, EstimationResult, crossfit, derive_seed
from .learners import (MlpArchitecture, TrainConfig, fit_least_squares, fit_mlp,
                       pipeline_train_config)

__all__ = ["PlrConfig", "partialled_beta", "partialled_score", "plr_crossfit"]


@dataclass(frozen=True)
class PlrConfig:
    learner: str = "linear"  # linear | mlp
    arch: MlpArchitecture = field(default_factory=MlpArchitecture)
    train: TrainConfig = field(default_factory=pipeline_train_config)
    seed: int = 0

    def __post_init__(self):
        if self.learner not in ("linear", "mlp"):
            raise ValueError("learner must be linear or mlp")


def partialled_beta(resid_d, resid_y) -> float:
    """Closed-form root of the partialled score given fold residuals."""
    resid_d = np.asarray(resid_d, dtype=float)
    resid_y = np.asarray(resid_y, dtype=float)
    denom = float(np.sum(resid_d * resid_d))
    if denom == 0.0:
        raise ValueError("no residual treatment variation")
    return float(np.sum(resid_d * resid_y) / denom)


def partialled_score(beta, r_d, r_y) -> np.ndarray:
    """Per-observation partialled-out score r_d (r_y - beta r_d)."""
    return r_d * (r_y - beta * r_d)


def _fit_regression(x, t, config: PlrConfig, seed_tag: int):
    if config.learner == "linear":
        return fit_least_squares(x, t)
    cfg = replace(config.train, seed=derive_seed(config.seed, SEED_PLR, seed_tag))
    return fit_mlp(x, t, "squared_error", arch=config.arch, config=cfg)


def plr_crossfit(data: Dataset, config: PlrConfig | None = None) -> EstimationResult:
    """Two-fold cross-fitted partially linear regression estimate."""
    config = config or PlrConfig()
    if data.z is not None:
        raise ValueError("expected no instrument")

    def fit_fold(train, est, k):
        m_hat = _fit_regression(train.x, train.d, config, 2 * k)
        l_hat = _fit_regression(train.x, train.y, config, 2 * k + 1)
        r_d = est.d - m_hat(est.x)
        r_y = est.y - l_hat(est.x)
        beta_k = partialled_beta(r_d, r_y)
        return beta_k, partialled_score(beta_k, r_d, r_y), -float(np.mean(r_d * r_d))

    return crossfit(data, config.seed, fit_fold, "plr")
