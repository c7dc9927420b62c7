"""Generic construction of Neyman-orthogonal scores.

Three estimation regimes are covered, each described by a small record
of per-observation derivative callbacks supplied by the caller:

* Fully coupled: the target beta and the nuisance function f jointly
  minimize P m(beta, f; W).  The orthogonal score is
      psi*(beta, f, h; w) = d_beta m + d_f m * h(x),
  with direction
      h0(x) = -E[d2_{beta f} m | X=x] / E[d2_{ff} m | X=x].

* Partially decoupled: beta solves P psi(beta, f0; W) = 0 while f0
  minimizes its own criterion P m1(f; W).  The correction direction is
      h0(x) = -E[d_f psi | X=x] / E[d2_{ff} m1 | X=x],
  and psi* = psi + d_f m1 * h.

* Sequential: two nuisance stages, f0 minimizing P m1 and mu0
  minimizing P m2(mu, f0), feeding an estimating equation psi(beta,
  mu0, f0).  Three directions h10, h20, h30 are needed; h30 transports
  the sensitivity of mu0 to f0 through the curvature of m2:
      h10 = -E[d_f psi | X] / E[d2_{ff} m1 | X]
      h20 = -E[d_mu psi | X] / E[d2_{mumu} m2 | X]
      h30 = -E[d2_{muf} m2 * h20(X) | X] / E[d2_{ff} m1 | X]
  and psi* = psi + d_f m1 * (h1 + h3) + d_mu m2 * h2.

The conditional expectations in the direction ratios are estimated by
regressing the derivative pseudo-outcomes on X with a pluggable
regressor; the fitted denominator is kept away from zero by a
sign-preserving clip.  ``check_orthogonality`` verifies the defining
property by a central finite difference of the mean score along a
supplied direction under a known truth, with step ``CHECK_EPSILON``.

Callbacks are vectorized: each receives the scalar beta, the nuisance
values already evaluated at the sample's covariates, and the Dataset,
and returns one value per observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import Dataset, FunctionEstimate, derive_seed, require_count

__all__ = [
    "CoupledModel",
    "DecoupledModel",
    "SequentialModel",
    "RatioDirection",
    "ScoreFamily",
    "SequentialDirections",
    "fit_coupled_direction",
    "build_coupled_score",
    "fit_decoupled_direction",
    "build_decoupled_score",
    "fit_sequential_directions",
    "build_sequential_score",
    "check_orthogonality",
]

DENOM_CLIP = 1e-3
# Finite-difference step of check_orthogonality.
CHECK_EPSILON = 1e-3
# Draws per check shard.  Each shard draws from its own derived seed, so
# this length fixes which draws a check sees and every check value.
SHARD_ROWS = 1 << 17


@dataclass(frozen=True)
class CoupledModel:
    """Derivatives of a joint criterion m(beta, f; w).

    Each callback maps (beta, f_values, data) to per-observation reals.
    """

    d_beta_m: Callable
    d_f_m: Callable
    d2_beta_f_m: Callable
    d2_ff_m: Callable


@dataclass(frozen=True)
class DecoupledModel:
    """Estimating equation psi(beta, f; w) plus the f-criterion m1(f; w).

    psi and d_f_psi map (beta, f_values, data); the m1 derivatives map
    (f_values, data).
    """

    psi: Callable
    d_f_psi: Callable
    d_f_m1: Callable
    d2_ff_m1: Callable


@dataclass(frozen=True)
class SequentialModel:
    """Two-stage nuisances: f from m1, mu from m2(mu, f), then psi.

    psi, d_mu_psi, d_f_psi map (beta, mu_values, f_values, data); the
    m2 derivatives map (mu_values, f_values, data); the m1 derivatives
    map (f_values, data).
    """

    psi: Callable
    d_mu_psi: Callable
    d_f_psi: Callable
    d_mu_m2: Callable
    d2_mumu_m2: Callable
    d2_muf_m2: Callable
    d_f_m1: Callable
    d2_ff_m1: Callable


class RatioDirection(FunctionEstimate):
    """Direction h(x) = -num(x)/den(x) with a sign-preserving floor.

    Denominator values with magnitude below `DENOM_CLIP` are replaced by
    DENOM_CLIP * sign (zeros count as positive).  Activations are counted
    in `clip_count`; on well-behaved designs it must stay 0.
    """

    def __init__(self, numerator: FunctionEstimate, denominator: FunctionEstimate,
                 label: str = "direction"):
        self.numerator = numerator
        self.denominator = denominator
        self.clip_count = 0
        self.label = label

    def _batch(self, x):
        num = self.numerator(x)
        den = self.denominator(x)
        small = np.abs(den) < DENOM_CLIP
        self.clip_count += int(np.count_nonzero(small))
        den = np.where(den >= 0.0, np.maximum(den, DENOM_CLIP),
                       np.minimum(den, -DENOM_CLIP))
        return -num / den


def _fit_ratio(x, num_targets, den_targets, regressor, label):
    num_fit = regressor(x, np.asarray(num_targets, dtype=float))
    den_fit = regressor(x, np.asarray(den_targets, dtype=float))
    if np.max(np.abs(den_fit(x))) == 0.0:
        raise ValueError("direction undefined")
    return RatioDirection(num_fit, den_fit, label=label), den_fit


def fit_coupled_direction(model: CoupledModel, beta_pilot: float,
                          f_hat: FunctionEstimate, data: Dataset,
                          regressor) -> RatioDirection:
    """Estimate h0 for the coupled regime on one fold.

    Regresses the cross-derivative and curvature pseudo-outcomes of m,
    both evaluated at (beta_pilot, f_hat), on the fold's covariates.
    """
    fv = f_hat(data.x)
    num = model.d2_beta_f_m(beta_pilot, fv, data)
    den = model.d2_ff_m(beta_pilot, fv, data)
    direction, _ = _fit_ratio(data.x, num, den, regressor, "coupled h")
    return direction


def fit_decoupled_direction(model: DecoupledModel, beta_pilot: float,
                            f_hat: FunctionEstimate, data: Dataset,
                            regressor) -> RatioDirection:
    """Estimate h0 for the decoupled regime on one fold."""
    fv = f_hat(data.x)
    num = model.d_f_psi(beta_pilot, fv, data)
    den = model.d2_ff_m1(fv, data)
    direction, _ = _fit_ratio(data.x, num, den, regressor, "decoupled h")
    return direction


@dataclass
class SequentialDirections:
    h1: RatioDirection
    h2: RatioDirection
    h3: RatioDirection


def fit_sequential_directions(model: SequentialModel, beta_pilot: float,
                              mu_hat: FunctionEstimate, f_hat: FunctionEstimate,
                              data: Dataset, regressor) -> SequentialDirections:
    """Estimate (h10, h20, h30) on one fold.

    h10 and h20 come from ratio-of-regression recipes; h30 reuses the
    fitted m1-curvature denominator and regresses the transported
    pseudo-outcome d2_{muf} m2 * h20(x).
    """
    fv = f_hat(data.x)
    mv = mu_hat(data.x)
    m1_curv = model.d2_ff_m1(fv, data)
    h1, den1_fit = _fit_ratio(data.x, model.d_f_psi(beta_pilot, mv, fv, data),
                              m1_curv, regressor, "sequential h1")
    h2, _ = _fit_ratio(data.x, model.d_mu_psi(beta_pilot, mv, fv, data),
                       model.d2_mumu_m2(mv, fv, data), regressor, "sequential h2")
    num3 = model.d2_muf_m2(mv, fv, data) * h2(data.x)
    num3_fit = regressor(data.x, num3)
    h3 = RatioDirection(num3_fit, den1_fit, label="sequential h3")
    return SequentialDirections(h1=h1, h2=h2, h3=h3)


@dataclass(frozen=True)
class ScoreFamily:
    """Per-observation score psi(beta; w) with frozen nuisance functions.

    `score(beta, data, values)` receives `values`, a dict mapping each
    nuisance name to its values at `data.x`; `nuisances` maps the same
    names to the functions.
    """

    score: Callable[[float, Dataset, Mapping[str, np.ndarray]], np.ndarray]
    nuisances: Mapping[str, FunctionEstimate]


def build_coupled_score(model: CoupledModel, f_hat: FunctionEstimate,
                        h_hat: FunctionEstimate) -> ScoreFamily:
    """psi*(beta; w) = d_beta m + d_f m * h(x) at the fitted nuisances."""
    def score(beta, data, v):
        return (model.d_beta_m(beta, v["f"], data)
                + model.d_f_m(beta, v["f"], data) * v["h"])

    return ScoreFamily(score, {"f": f_hat, "h": h_hat})


def build_decoupled_score(model: DecoupledModel, f_hat: FunctionEstimate,
                          h_hat: FunctionEstimate) -> ScoreFamily:
    """psi*(beta; w) = psi + d_f m1 * h(x) at the fitted nuisances."""
    def score(beta, data, v):
        return model.psi(beta, v["f"], data) + model.d_f_m1(v["f"], data) * v["h"]

    return ScoreFamily(score, {"f": f_hat, "h": h_hat})


def build_sequential_score(model: SequentialModel, mu_hat: FunctionEstimate,
                           f_hat: FunctionEstimate,
                           directions) -> ScoreFamily:
    """psi* = psi + d_f m1 * (h1 + h3) + d_mu m2 * h2.

    `directions` is a SequentialDirections record or any object with
    h1/h2/h3 FunctionEstimate attributes.
    """
    def score(beta, data, v):
        fv, mv = v["f"], v["mu"]
        return (model.psi(beta, mv, fv, data)
                + model.d_f_m1(fv, data) * (v["h1"] + v["h3"])
                + model.d_mu_m2(mv, fv, data) * v["h2"])

    return ScoreFamily(score, {"mu": mu_hat, "f": f_hat,
                               "h1": directions.h1, "h2": directions.h2,
                               "h3": directions.h3})


def _shard_sums(score: ScoreFamily, data: Dataset, beta0: float,
                direction: FunctionEstimate,
                which_nuisance: str) -> tuple[float, float]:
    """Sum and sum of squares of the central difference on one shard.

    The nuisances are evaluated, and both shifted nuisances built,
    before the score runs, not on first use: stored arrays allocated
    among the score's temporaries fragment the heap and raised the
    checker's peak resident memory by about 2 MB.  The stored nuisances
    are read-only, so a score that writes into its inputs fails instead
    of corrupting the other sign.  Every array built here is released
    on return, before the next shard is drawn.
    """
    values = {name: fn(data.x) for name, fn in score.nuisances.items()}
    for arr in values.values():
        arr.setflags(write=False)
    base = values[which_nuisance]
    step = direction(data.x) * CHECK_EPSILON
    plus_nuisance, minus_nuisance = base + step, base - step
    # Without these drops a late shard exceeds LATE_SHARD_PEAK in the tests.
    del step
    plus = score.score(beta0, data, {**values, which_nuisance: plus_nuisance})
    del plus_nuisance
    minus = score.score(beta0, data, {**values, which_nuisance: minus_nuisance})
    del minus_nuisance
    diff = (plus - minus) / (2.0 * CHECK_EPSILON)
    del plus, minus
    return float(np.sum(diff)), float(np.sum(diff * diff))


def check_orthogonality(score: ScoreFamily, sampler, beta0: float,
                        direction: FunctionEstimate, which_nuisance: str, *,
                        n_mc: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Finite-difference Gateaux derivative of the mean score at truth.

    Draws n_mc observations from `sampler(n, seed)` in shards of
    ``SHARD_ROWS`` with per-shard derived seeds, evaluates the score at
    beta0 with the named nuisance shifted by +-CHECK_EPSILON * direction,
    and returns the central-difference derivative estimate with its
    Monte Carlo standard error.  The same draws feed both signs, so a
    zero direction gives exactly zero.

    Per shard, each nuisance of the family and the direction are
    evaluated once, at the shard's covariate matrix, and the score once
    per sign.

    Before anything is drawn, raises ``ValueError`` for an n_mc that
    fails ``core.require_count`` (at least 2) or an unknown nuisance
    name.
    """
    require_count("n_mc", n_mc, minimum=2)
    if which_nuisance not in score.nuisances:
        raise ValueError(f"unknown nuisance names: {[which_nuisance]}")
    total, total_sq, count = 0.0, 0.0, 0
    shard = 0
    while count < n_mc:
        m = min(SHARD_ROWS, n_mc - count)
        s, s_sq = _shard_sums(score, sampler(m, derive_seed(seed, shard)),
                              beta0, direction, which_nuisance)
        total += s
        total_sq += s_sq
        count += m
        shard += 1
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / (count - 1)
    return mean, float(np.sqrt(var / count))
