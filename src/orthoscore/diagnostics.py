"""Monte Carlo orthogonality diagnostics for the shipped estimators.

Each check target fixes a data generating process whose nuisance
truths are available in closed form, builds the score family the
shipped estimator solves (through that estimator's own score function)
at those truths, and measures the finite-difference derivative
of the mean score along a handful of fixed perturbation directions
(via ``check_orthogonality``).  For an orthogonal score every such
derivative is zero in expectation, so the estimate must land within
3 Monte Carlo standard errors of zero.

To confirm the harness has power to detect a violation, each target
also carries one deliberately non-orthogonal control score whose
derivative is bounded away from zero; its estimate must exceed 5
standard errors.

Targets:

* ``late``  - the instrumented causal-effect score on the synthetic
  study design (scenario s1).  The true correction direction is
  h0(x) = (e^f - e^-f) E[YZ|X=x] - e^f E[Y|X=x], with both conditional
  means available by averaging over the compliance strata.  Control:
  the plain reweighting score, which is sensitive to the log-odds.
* ``plr``   - the partialled-out regression score (d - m(x)) times the
  outcome residual, under y = beta0 d + b(x) + e, d = m0(x) + v.
  Control: the naive score d (y - beta d - b(x)).
* ``qte``   - the corrected quantile score for the treated arm, with
  h0(x) = (F1(beta0|x) - tau) / g0(x).  Control: the uncorrected
  inverse-propensity quantile score.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import Dataset, FunctionEstimate, derive_seed
from .late import moment_score, robust_score
from .learners import expit
from .ortho import ScoreFamily, check_orthogonality
from .plr import partialled_score
from .qte import ipw_quantile_score, orthogonal_quantile_score
from .sim import (BETA0, STRATUM_PROBS, DgpConfig, f0_true, gen_dataset,
                  mu_true, stratum_means)

__all__ = [
    "TARGETS",
    "CheckCase",
    "CheckReport",
    "run_check",
]

TARGETS = ("late", "plr", "qte")

_SQRT2 = math.sqrt(2.0)


def _normal_cdf(t):
    u = np.asarray(t, dtype=float) / _SQRT2
    erf = np.fromiter(map(math.erf, u.ravel().tolist()), float, u.size)
    return 0.5 * (1.0 + erf.reshape(u.shape))


@dataclass(frozen=True)
class CheckCase:
    """One finite-difference derivative measurement."""

    score: str        # "orthogonal" or "control"
    nuisance: str
    direction: str
    derivative: float
    std_error: float

    @property
    def ratio(self) -> float:
        if self.std_error == 0.0:
            return float("inf") if self.derivative != 0.0 else 0.0
        return abs(self.derivative) / self.std_error

    @property
    def passed(self) -> bool:
        if self.score == "control":
            return self.ratio > 5.0
        return self.ratio <= 3.0


@dataclass(frozen=True)
class CheckReport:
    target: str
    beta0: float
    n_mc: int
    seed: int
    cases: tuple[CheckCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _directions():
    return (
        ("constant", FunctionEstimate.constant(1.0, "constant")),
        ("first coordinate", FunctionEstimate(lambda x: x[:, 0], "x1")),
        ("cosine", FunctionEstimate(lambda x: np.cos(x[:, 0]), "cos(x1)")),
    )


# ---------------------------------------------------------------- late

def _late_target():
    beta0 = BETA0

    # One slot: (weak reference to the last matrix, its truths there as
    # (f0, g0, mu0)).  The slot empties when that matrix is freed, so it
    # holds no shard alive.
    last = []

    def remember(x, truths):
        last[:] = [(weakref.ref(x, lambda _: last.clear()), truths)]

    def sampler(m, seed):
        data, truth = gen_dataset(DgpConfig(scenario="s1", n=m, p=4, seed=seed))
        remember(data.x, (truth.f0, truth.g0, truth.mu0))
        return data

    def truths(x):
        """(f0, g0, mu0) at x: the shard's record, else computed afresh."""
        if not last or last[0][0]() is not x:
            f0 = f0_true(x)
            g0 = expit(f0)
            mu0 = mu_true(x, 0, "s1")
            for arr in (f0, g0, mu0):
                arr.setflags(write=False)
            remember(x, (f0, g0, mu0))
        return last[0][1]

    f_true = FunctionEstimate(lambda x: truths(x)[0], "true log-odds")

    def h_true_batch(x):
        _, g, mu0 = truths(x)
        e_f = g / (1.0 - g)
        # Never-takers have d = 0, always-takers d = 1.  Keeping only the
        # needed means holds the checker's peak memory at its former level.
        nv = stratum_means(x, mu0, 0.0)[2]
        a, mu1 = stratum_means(x, mu0, 1.0)[:2]
        p_a, p_c, p_n = STRATUM_PROBS
        e_y = p_a * a + p_c * (g * mu1 + (1.0 - g) * mu0) + p_n * nv
        e_yz = g * (p_a * a + p_c * mu1 + p_n * nv)
        return (e_f - 1.0 / e_f) * e_yz - e_f * e_y

    h_true = FunctionEstimate(h_true_batch, "true h")

    orth = ScoreFamily(lambda beta, data, v: robust_score(beta, v["f"], v["h"], data),
                       {"f": f_true, "h": h_true})
    ctrl = ScoreFamily(lambda beta, data, v: moment_score(beta, v["f"], data),
                       {"f": f_true})
    ctrl_dir = FunctionEstimate.constant(1.0, "constant")
    return beta0, sampler, orth, ctrl, "f", ("constant", ctrl_dir)


# ----------------------------------------------------------------- plr

_PLR_BETA0 = 1.0


def _plr_background(x):
    return np.cos(x[:, 1]) + 0.5 * x[:, 0]


def _plr_target():
    beta0 = _PLR_BETA0

    def sampler(m, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        d = expit(x[:, 0]) + rng.standard_normal(m)
        y = beta0 * d + _plr_background(x) + rng.standard_normal(m)
        return Dataset(x, y, d, real_treatment=True)

    m_true = FunctionEstimate(lambda x: expit(x[:, 0]), "true m")
    l_true = FunctionEstimate(
        lambda x: beta0 * expit(x[:, 0]) + _plr_background(x), "true l")
    b_true = FunctionEstimate(_plr_background, "true background")

    orth = ScoreFamily(lambda beta, data, v: partialled_score(
        beta, data.d - v["m"], data.y - v["l"]), {"m": m_true, "l": l_true})
    ctrl = ScoreFamily(lambda beta, data, v: data.d * (data.y - beta * data.d - v["b"]),
                       {"b": b_true})
    ctrl_dir = FunctionEstimate.constant(1.0, "constant")
    return beta0, sampler, orth, ctrl, "b", ("constant", ctrl_dir)


# ----------------------------------------------------------------- qte

_QTE_TAU = 0.5
_QTE_BETA0 = 0.5    # median of y(1) = 0.5 + x1 - x2 + e by symmetry


def _qte_target():
    beta0 = _QTE_BETA0
    tau = _QTE_TAU

    def sampler(m, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        d = (rng.random(m) < expit(0.8 * x[:, 0])).astype(float)
        y1 = beta0 + x[:, 0] - x[:, 1] + rng.standard_normal(m)
        y0 = rng.standard_normal(m)
        y = np.where(d == 1.0, y1, y0)
        return Dataset(x, y, d)

    f_true = FunctionEstimate(lambda x: 0.8 * x[:, 0], "true log-odds")

    def h_true_batch(x):
        # F1(beta0 | x) = P(x1 - x2 + e <= 0) = Phi(x2 - x1)
        g = expit(0.8 * x[:, 0])
        return (_normal_cdf(x[:, 1] - x[:, 0]) - tau) / g

    h_true = FunctionEstimate(h_true_batch, "true h")

    orth = ScoreFamily(lambda beta, data, v: orthogonal_quantile_score(
        beta, data.y, data.d, expit(v["f"]), v["h"], tau), {"f": f_true, "h": h_true})
    ctrl = ScoreFamily(lambda beta, data, v: ipw_quantile_score(
        beta, data.y, data.d, expit(v["f"]), tau), {"f": f_true})
    ctrl_dir = FunctionEstimate(lambda x: x[:, 0] - x[:, 1], "x1 - x2")
    return beta0, sampler, orth, ctrl, "f", ("x1 - x2", ctrl_dir)


_BUILDERS = {"late": _late_target, "plr": _plr_target, "qte": _qte_target}


def run_check(target: str, n_mc: int = 1_000_000, seed: int = 0) -> CheckReport:
    """Run every derivative case for one target and collect the report.

    The orthogonal score is perturbed in each nuisance along three
    fixed directions; the control score in its single nuisance along
    the target's control direction.  Case k draws its own sample via a
    seed derived from (seed, k), so reports are reproducible and cases
    are independent.
    """
    if target not in _BUILDERS:
        raise ValueError(f"unknown check target: {target!r}")
    beta0, sampler, orth, ctrl, ctrl_nuisance, ctrl_direction = _BUILDERS[target]()
    cases = []
    k = 0
    for nuisance in orth.nuisances:
        for dir_label, direction in _directions():
            mean, se = check_orthogonality(orth, sampler, beta0, direction,
                                           nuisance, n_mc=n_mc,
                                           seed=derive_seed(seed, k))
            cases.append(CheckCase("orthogonal", nuisance, dir_label,
                                   float(mean), float(se)))
            k += 1
    dir_label, direction = ctrl_direction
    mean, se = check_orthogonality(ctrl, sampler, beta0, direction,
                                   ctrl_nuisance, n_mc=n_mc,
                                   seed=derive_seed(seed, k))
    cases.append(CheckCase("control", ctrl_nuisance, dir_label,
                           float(mean), float(se)))
    return CheckReport(target=target, beta0=beta0, n_mc=int(n_mc),
                       seed=int(seed), cases=tuple(cases))
