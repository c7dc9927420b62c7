"""Monte Carlo orthogonality diagnostics for the shipped estimators.

Each check target fixes a data generating process whose nuisance
truths are available in closed form, builds the score family the
shipped estimator solves (through that estimator's own score function)
at those truths, and measures the finite-difference derivative
of the mean score along a handful of fixed perturbation directions
(via ``check_orthogonality``).  For an orthogonal score every such
derivative is zero in expectation, so the estimate must land within
``ORTHOGONAL_BAND`` (3) Monte Carlo standard errors of zero.

To confirm the harness has power to detect a violation, each target
also carries one deliberately non-orthogonal control score whose
derivative is bounded away from zero; its estimate must exceed
``CONTROL_BAND`` (5) standard errors.

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

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import Dataset, FunctionEstimate, derive_seed, in_row_blocks
from .late import moment_score, robust_score
from .learners import expit
from .ortho import ScoreFamily, check_orthogonality
from .plr import partialled_score
from .qte import ipw_quantile_score, orthogonal_quantile_score
from .sim import BETA0, DgpConfig, f0_true, gen_dataset, h0_true, mu_true

__all__ = [
    "TARGETS",
    "CheckCase",
    "CheckReport",
    "run_check",
]

# Pass bands of |derivative| / SE: at most ORTHOGONAL_BAND, above CONTROL_BAND.
ORTHOGONAL_BAND = 3.0
CONTROL_BAND = 5.0

# Standard normal CDF by a table of Phi and its derivatives Phi^(k)/k!,
# k = 1..7, on the grid j/64 over [-9, 9], and one Taylor step from the
# nearest grid point (|step| <= 1/128, truncation below 1e-20).  Numpy
# has no erf; this keeps every row out of Python.  The grid values come
# from math.erfc, and Phi^(k) = (-1)^(k-1) He_{k-1}(t) phi(t) with the
# probabilists' Hermite polynomials He.
_CDF_GRID = 64
_CDF_EDGE = 9
_CDF_ORDER = 7


@functools.cache
def _cdf_table():
    """Built on first use, so importing the package does not pay for it."""
    t = np.arange(-_CDF_EDGE * _CDF_GRID, _CDF_EDGE * _CDF_GRID + 1) / _CDF_GRID
    phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    rows = [[0.5 * math.erfc(-v / math.sqrt(2.0)) for v in t.tolist()]]
    he_prev, he = np.zeros_like(t), np.ones_like(t)
    for k in range(1, _CDF_ORDER + 1):
        rows.append((-1) ** (k - 1) * he * phi / math.factorial(k))
        he_prev, he = he, t * he - (k - 1) * he_prev
    table = np.array(rows)
    table.setflags(write=False)
    return table


def _normal_cdf(t):
    """Phi(t), within 2.5e-16 of 0.5 (1 + erf(t / sqrt 2)), shape kept.

    Phi(0) is exactly 0.5, NaN stays NaN, and beyond the table's span
    the value is exactly 1 or 0.
    """
    x = np.asarray(t, dtype=float)
    flat = x.ravel()
    c = np.clip(flat, -_CDF_EDGE, _CDF_EDGE)
    k = np.rint(c * _CDF_GRID)
    h = c - k / _CDF_GRID           # exact; NaN where t is NaN
    # A NaN row reads grid point 0 and keeps its NaN through h.  Every
    # index is in range, so mode="clip" never moves one; it only skips
    # the buffered bounds check of mode="raise".
    idx = np.nan_to_num(k).astype(np.intp)
    idx += _CDF_EDGE * _CDF_GRID
    table = _cdf_table()
    out = table[_CDF_ORDER].take(idx, mode="clip")
    term = np.empty_like(out)
    for j in range(_CDF_ORDER - 1, -1, -1):
        out *= h
        out += table[j].take(idx, out=term, mode="clip")
    out[flat < -_CDF_EDGE] = 0.0
    out[flat > _CDF_EDGE] = 1.0
    return out.reshape(x.shape)


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
            return self.ratio > CONTROL_BAND
        return self.ratio <= ORTHOGONAL_BAND


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


_DIRECTIONS = (
    ("constant", FunctionEstimate.constant(1.0, "constant")),
    ("first coordinate", FunctionEstimate(lambda x: x[:, 0], "x1")),
    ("cosine", FunctionEstimate(lambda x: np.cos(x[:, 0]), "cos(x1)")),
)


class _TruthRecord:
    """The truths computed at the last array seen, such as a sampler's matrix.

    ``remember(x, truths)`` fills the one slot with a weak reference to
    ``x`` and its truths there, a tuple of arrays made read-only.
    Calling the record on ``x`` returns that tuple; any other array is
    evaluated afresh by ``compute(x)`` and takes the slot.  The slot
    empties when its array is freed, so it holds no shard alive.
    """

    def __init__(self, compute):
        self._compute = compute
        self._slot = []

    def remember(self, x, truths):
        for arr in truths:
            arr.setflags(write=False)
        self._slot[:] = [(weakref.ref(x, lambda _: self._slot.clear()), truths)]

    def __call__(self, x):
        if not self._slot or self._slot[0][0]() is not x:
            self.remember(x, self._compute(x))
        return self._slot[0][1]


# ---------------------------------------------------------------- late

def _late_target():
    beta0 = BETA0

    def compute(x):
        f0 = f0_true(x)
        return f0, expit(f0), mu_true(x, 0, "s1")

    truths = _TruthRecord(compute)       # (f0, g0, mu0)

    def sampler(m, seed):
        data, truth = gen_dataset(DgpConfig(scenario="s1", n=m, p=4, seed=seed))
        truths.remember(data.x, (truth.f0, truth.g0, truth.mu0))
        return data

    f_true = FunctionEstimate(lambda x: truths(x)[0], "true log-odds")

    def h_true_batch(x):
        # One block of rows at a time, so the temporaries are block-sized.
        _, g, mu0 = truths(x)
        return in_row_blocks(h0_true, x, g, mu0)

    h_true = FunctionEstimate(h_true_batch, "true h")

    orth = ScoreFamily(lambda beta, data, v: robust_score(beta, v["f"], v["h"], data),
                       {"f": f_true, "h": h_true})
    ctrl = ScoreFamily(lambda beta, data, v: moment_score(beta, v["f"], data),
                       {"f": f_true})
    return beta0, sampler, orth, ctrl, "f", _DIRECTIONS[0]


# ----------------------------------------------------------------- plr

_PLR_BETA0 = 1.0


def _plr_background(x):
    return np.cos(x[:, 1]) + 0.5 * x[:, 0]


def _plr_target():
    beta0 = _PLR_BETA0
    truths = _TruthRecord(lambda x: (expit(x[:, 0]), _plr_background(x)))  # (m0, b0)

    def sampler(m, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        m0, b0 = truths(x)
        d = m0 + rng.standard_normal(m)
        y = beta0 * d + b0 + rng.standard_normal(m)
        return Dataset._from_checked(x, y, d, real_treatment=True)  # finite draws

    def l_true_batch(x):
        m0, b0 = truths(x)
        return beta0 * m0 + b0

    m_true = FunctionEstimate(lambda x: truths(x)[0], "true m")
    l_true = FunctionEstimate(l_true_batch, "true l")
    b_true = FunctionEstimate(lambda x: truths(x)[1], "true background")

    orth = ScoreFamily(lambda beta, data, v: partialled_score(
        beta, data.d - v["m"], data.y - v["l"]), {"m": m_true, "l": l_true})
    ctrl = ScoreFamily(lambda beta, data, v: data.d * (data.y - beta * data.d - v["b"]),
                       {"b": b_true})
    return beta0, sampler, orth, ctrl, "b", _DIRECTIONS[0]


# ----------------------------------------------------------------- qte

_QTE_TAU = 0.5
_QTE_BETA0 = 0.5    # median of y(1) = 0.5 + x1 - x2 + e by symmetry


def _qte_target():
    beta0 = _QTE_BETA0
    tau = _QTE_TAU
    f_true = FunctionEstimate(lambda x: 0.8 * x[:, 0], "true log-odds")
    truths = _TruthRecord(lambda x: (expit(f_true(x)),))  # (g0,)

    def sampler(m, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        (g0,) = truths(x)
        d = (rng.random(m) < g0).astype(float)
        y1 = beta0 + x[:, 0] - x[:, 1] + rng.standard_normal(m)
        y0 = rng.standard_normal(m)
        y = np.where(d == 1.0, y1, y0)
        return Dataset._from_checked(x, y, d)  # finite draws, d 0/1

    def h_true_batch(x):
        # F1(beta0 | x) = P(x1 - x2 + e <= 0) = Phi(x2 - x1)
        (g,) = truths(x)
        return (_normal_cdf(x[:, 1] - x[:, 0]) - tau) / g

    h_true = FunctionEstimate(h_true_batch, "true h")

    orth = ScoreFamily(lambda beta, data, v: orthogonal_quantile_score(
        beta, data.y, data.d, expit(v["f"]), v["h"], tau),
        {"f": f_true, "h": h_true})
    ctrl = ScoreFamily(lambda beta, data, v: ipw_quantile_score(
        beta, data.y, data.d, expit(v["f"]), tau), {"f": f_true})
    ctrl_dir = FunctionEstimate(lambda x: x[:, 0] - x[:, 1], "x1 - x2")
    return beta0, sampler, orth, ctrl, "f", ("x1 - x2", ctrl_dir)


_BUILDERS = {"late": _late_target, "plr": _plr_target, "qte": _qte_target}
TARGETS = tuple(_BUILDERS)


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
    plan = [("orthogonal", orth, nuisance, direction)
            for nuisance in orth.nuisances for direction in _DIRECTIONS]
    plan.append(("control", ctrl, ctrl_nuisance, ctrl_direction))
    cases = []
    for k, (score, family, nuisance, (dir_label, direction)) in enumerate(plan):
        mean, se = check_orthogonality(family, sampler, beta0, direction,
                                       nuisance, n_mc=n_mc,
                                       seed=derive_seed(seed, k))
        cases.append(CheckCase(score, nuisance, dir_label, float(mean), float(se)))
    return CheckReport(target=target, beta0=beta0, n_mc=int(n_mc),
                       seed=int(seed), cases=tuple(cases))
