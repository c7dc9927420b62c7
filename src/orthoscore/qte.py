"""Quantile treatment effect of the treated-arm potential outcome.

The target beta0 is the tau-th quantile of Y(1) under ignorability
given X.  With the treatment propensity g0(x) = P(D=1 | X=x) and its
log-odds f0, the inverse-propensity score

    psi(beta, f; w) = d (1 + e^{-f(x)}) (I(y <= beta) - tau)

identifies beta0 but is not orthogonal to f.  The orthogonal version
adds (expit(f(x)) - d) * h(x) with the correction direction

    h0(x) = E[D (I(Y <= beta0) - tau) | X=x] / g0(x)^2,

estimated by a pilot-then-correct pass.  ``qte_crossfit`` hands one
fold step to ``core.crossfit``: on the training half, solve the plain
IPW equation for a pilot quantile and regress the pseudo-outcome
d (I(y <= pilot) - tau) / g^2 on x; on the estimation half, solve the
orthogonal equation exactly (its empirical mean is a nondecreasing step
function of beta).  The slope J of the mean score is the density of
Y(1) at beta-hat, estimated by a Gaussian kernel on the IPW-weighted
treated outcomes with Silverman bandwidth.  g is ``learners.propensity(f)``,
the clipped expit(f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (SEED_QTE_H, SEED_QTE_LOG_ODDS, Dataset, EstimationResult,
                   crossfit, derive_seed, require_splittable)
from .learners import (MlpArchitecture, TrainConfig, fit_least_squares,
                       fit_logistic, fit_mlp, pipeline_train_config, propensity)

__all__ = [
    "QteConfig",
    "ipw_quantile_score",
    "orthogonal_quantile_score",
    "solve_monotone",
    "qte_crossfit",
]


@dataclass(frozen=True)
class QteConfig:
    tau: float = 0.5
    learner: str = "linear"  # linear | mlp
    arch: MlpArchitecture = field(default_factory=MlpArchitecture)
    train: TrainConfig = field(default_factory=pipeline_train_config)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")
        if self.learner not in ("linear", "mlp"):
            raise ValueError("learner must be linear or mlp")


def ipw_quantile_score(beta, y, d, g, tau) -> np.ndarray:
    """Per-observation d/g * (I(y <= beta) - tau); d/g = d(1+e^{-f})."""
    y = np.asarray(y, dtype=float)
    ind = (y <= beta).astype(float)
    return np.asarray(d, dtype=float) / np.asarray(g, dtype=float) * (ind - tau)


def orthogonal_quantile_score(beta, y, d, g, h_values, tau) -> np.ndarray:
    """IPW score plus the correction (g - d) h(x)."""
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=float)
    return ipw_quantile_score(beta, y, d, g, tau) + (g - d) * np.asarray(h_values, dtype=float)


def solve_monotone(score_fn, y, *, guess=None) -> float:
    """Least sample value of y at which a nondecreasing mean score is >= 0.

    This is the exact root: the empirical score is a step function of
    beta that jumps only at sample outcomes.  Raises when the score is
    negative at max(y) or positive below every sample value, so that no
    root exists, and at any non-finite score.

    ``guess`` changes how many scores are evaluated, never the root: a
    nondecreasing score has one least nonnegative sample value, which
    every exact bracketing search finds.  The score at the least
    distinct value >= guess and at its predecessor confirm an exact
    guess in two evaluations; otherwise the side of the guess that holds
    the root is searched by bisection.
    """
    values = np.unique(y)

    def score(b):
        s = score_fn(b)
        if not math.isfinite(s):
            raise ValueError("non-finite mean score")
        return s

    lo, hi = 0, values.size - 1  # the root's index lies in [lo, hi]
    top_known = False  # the score at values[hi] is known to be >= 0
    if guess is not None:
        i = min(int(np.searchsorted(values, guess)), hi)
        if score(values[i]) < 0.0:
            if i == hi:
                raise ValueError("root not bracketed")
            lo = i + 1
        else:
            top_known = True
            if i > 0 and score(values[i - 1]) < 0.0:
                return float(values[i])
            hi = max(i - 1, 0)
    if not top_known and score(values[hi]) < 0.0:
        raise ValueError("root not bracketed")
    if lo == 0 and score(-np.inf) > 0.0:
        raise ValueError("root not bracketed")
    while lo < hi:
        mid = (lo + hi) // 2
        if score(values[mid]) < 0.0:
            lo = mid + 1
        else:
            hi = mid
    return float(values[lo])


def _root_guess(y, jump, offset) -> float:
    """Sample value at which sum(jump * I(y <= b)) first reaches `offset`.

    With jump >= 0 and offset = tau * sum(jump) - sum(correction), this
    is the root of the quantile score's mean up to rounding, found from
    one sort of y instead of a search over score evaluations.
    """
    order = np.argsort(y)
    k = int(np.searchsorted(np.cumsum(jump[order]), offset))
    return float(y[order[min(k, y.size - 1)]])


def _weighted_quartiles(values, weights):
    """The weighted 0.25 and 0.75 quantiles, from one sort of `values`."""
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    q1, q3 = np.interp(np.array([0.25, 0.75]) * cum[-1], cum, values[order])
    return float(q1), float(q3)


def _ipw_density(y, d, g, at: float) -> float:
    """Gaussian-kernel density of Y(1) at `at` from IPW-weighted treated."""
    treated = d == 1.0
    yt = y[treated]
    w = 1.0 / g[treated]
    n_t = yt.size
    if n_t == 0:
        raise ValueError("no treated observations in fold")
    mean = float(np.average(yt, weights=w))
    sd = float(np.sqrt(np.average((yt - mean) ** 2, weights=w)))
    q1, q3 = _weighted_quartiles(yt, w)
    iqr = q3 - q1
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    bandwidth = max(0.9 * spread * n_t ** (-0.2), 1e-6 * (1.0 + abs(at)))
    u = (at - yt) / bandwidth
    kern = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(np.sum(w * kern) / (bandwidth * np.sum(w)))


def _fit(x, target, loss: str, config: QteConfig, tag: int, seed_tag: int):
    """Net seeded at (tag, seed_tag) for mlp, else the affine fit of `loss`."""
    if config.learner == "mlp":
        cfg = replace(config.train, seed=derive_seed(config.seed, tag, seed_tag))
        return fit_mlp(x, target, loss, arch=config.arch, config=cfg)
    if loss == "cross_entropy_on_logits":
        return fit_logistic(x, target)
    return fit_least_squares(x, target)


def qte_crossfit(data: Dataset, config: QteConfig) -> EstimationResult:
    """Two-fold cross-fitted tau-quantile of Y(1) with plug-in variance."""
    if data.z is not None:
        raise ValueError("expected no instrument")
    require_splittable(data.n)
    if np.all(data.d == data.d[0]):
        raise ValueError("degenerate treatment arms")
    tau = config.tau

    def fit_fold(train, est, k):
        f_hat = _fit(train.x, train.d, "cross_entropy_on_logits", config,
                     SEED_QTE_LOG_ODDS, k)
        g_train = propensity(f_hat(train.x))
        jump = train.d / g_train
        pilot = solve_monotone(
            lambda b: float(np.mean(ipw_quantile_score(b, train.y, train.d,
                                                       g_train, tau))),
            train.y, guess=_root_guess(train.y, jump, tau * np.sum(jump)))
        pseudo = train.d * ((train.y <= pilot).astype(float) - tau) / g_train ** 2
        h_hat = _fit(train.x, pseudo, "squared_error", config, SEED_QTE_H, k)

        g_est = propensity(f_hat(est.x))
        h_est = h_hat(est.x)

        def mean_score(b):
            return float(np.mean(orthogonal_quantile_score(
                b, est.y, est.d, g_est, h_est, tau)))

        jump = est.d / g_est
        offset = tau * np.sum(jump) - np.sum((g_est - est.d) * h_est)
        beta_k = solve_monotone(mean_score, est.y,
                                guess=_root_guess(est.y, jump, offset))
        scores = orthogonal_quantile_score(beta_k, est.y, est.d, g_est, h_est, tau)
        return beta_k, scores, _ipw_density(est.y, est.d, g_est, beta_k)

    return crossfit(data, config.seed, fit_fold, "qte")
