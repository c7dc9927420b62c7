"""Metamorphic identities of the linear-learner estimators.

Each test transforms a sample in a way whose effect on the estimate is
known exactly in exact arithmetic, and compares the two cross-fitted
estimates.  The identities hold because every linear-tier nuisance fit
(least squares, Newton logistic) is equivariant under the transform.
Floating point leaves gaps of about 1e-15 relative, so the comparison
uses RTOL, far below any statistical difference.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoscore.core import Dataset
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.learners import expit
from orthoscore.plr import PlrConfig, plr_crossfit
from orthoscore.qte import QteConfig, qte_crossfit
from orthoscore.sim import DgpConfig, gen_dataset

RTOL = 1e-9
# fit_logistic stops once the gradient norm, taken in the covariates'
# own coordinates, is at most 1e-8.  A general affine map of x rescales
# that norm, so the two fits can stop one Newton step apart; over 400
# random cases that left gaps of up to 3.6e-7 relative.  A rotation or
# reflection keeps the norm, and the gap stays below RTOL.
AFFINE_RTOL = 1e-5
LATE_METHODS = ("robust_lr", "moment", "reg_lr")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=80, max_value=600)
scales = st.floats(min_value=-50.0, max_value=50.0)


def _close(got, want, rtol=RTOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bound = rtol * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= bound), (got, want)


def _numbers(result):
    return [result.beta_hat, *result.fold_betas]


def _late(data, method, seed):
    return _numbers(late_crossfit(data, LateConfig(method=method, seed=seed)))


def _iv_sample(n, seed):
    data, _ = gen_dataset(DgpConfig(scenario=("s1", "s2")[seed % 2], n=n,
                                    p=4, seed=seed))
    return data


def _plr_sample(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = expit(x[:, 0]) + rng.normal(size=n)
    y = 0.7 * d + np.cos(x[:, 1]) + x[:, 2] + rng.normal(size=n)
    return Dataset(x, y, d, real_treatment=True)


def _orthogonal(p, rng):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return q


@given(n=sizes, seed=seeds)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_recoding_the_instrument_negates_the_estimate(n, seed):
    data = _iv_sample(n, seed)
    flipped = Dataset(data.x, data.y, data.d, 1.0 - data.z)
    for method in LATE_METHODS:
        _close(_late(flipped, method, seed), -np.asarray(_late(data, method, seed)))


@given(n=sizes, seed=seeds, a=scales, b=scales)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_late_is_affine_equivariant_in_the_outcome(n, seed, a, b):
    data = _iv_sample(n, seed)
    moved = Dataset(data.x, a + b * data.y, data.d, data.z)
    ones = Dataset(data.x, np.ones(n), data.d, data.z)
    for method in LATE_METHODS:
        want = (a * np.asarray(_late(ones, method, seed))
                + b * np.asarray(_late(data, method, seed)))
        _close(_late(moved, method, seed), want)


@given(n=sizes, seed=seeds)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_late_is_invariant_to_orthogonal_covariate_maps(n, seed):
    data = _iv_sample(n, seed)
    q = _orthogonal(data.p, np.random.default_rng(seed))
    moved = Dataset(data.x @ q, data.y, data.d, data.z)
    for method in LATE_METHODS:
        _close(_late(moved, method, seed), _late(data, method, seed))


@given(n=sizes, seed=seeds)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_late_is_invariant_to_affine_covariate_maps(n, seed):
    data = _iv_sample(n, seed)
    rng = np.random.default_rng(seed)
    a = _orthogonal(data.p, rng) * rng.uniform(0.5, 2.0, size=data.p)
    moved = Dataset(data.x @ a + rng.normal(size=data.p), data.y, data.d, data.z)
    for method in LATE_METHODS:
        _close(_late(moved, method, seed), _late(data, method, seed),
               rtol=AFFINE_RTOL)


@given(n=sizes, seed=seeds, c=scales)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_plr_shifts_by_the_treatment_coefficient_added_to_y(n, seed, c):
    data = _plr_sample(n, seed)
    moved = Dataset(data.x, data.y + c * data.d, data.d, real_treatment=True)
    base = _numbers(plr_crossfit(data, PlrConfig(seed=seed)))
    _close(_numbers(plr_crossfit(moved, PlrConfig(seed=seed))),
           np.asarray(base) + c)


def _qte_sample(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    d = (rng.random(n) < expit(0.8 * x[:, 0])).astype(float)
    y = np.where(d == 1.0, 0.5 + x[:, 0] - x[:, 1] + rng.normal(size=n),
                 rng.normal(size=n))
    return Dataset(x, y, d)


def _qte_fold_betas(data, config):
    try:
        return np.asarray(qte_crossfit(data, config).fold_betas)
    except ValueError as exc:
        return str(exc)


@given(n=st.integers(min_value=200, max_value=800), seed=seeds,
       a=scales, log_b=st.floats(min_value=-2.0, max_value=3.0))
# Before solve_monotone returned hi, these moved a fold estimate by
# 0.29 and 2.28 (units of a + b y).
@example(n=400, seed=3, a=0.0, log_b=1.0)
@example(n=400, seed=4, a=0.0, log_b=1.0)
# The fitted correction (g - d) h keeps fold 0's orthogonal score below
# zero on all of [min y, max y], in any units: both raise.
@example(n=472, seed=182, a=1.3, log_b=0.0)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_qte_is_equivariant_under_increasing_affine_outcome_maps(n, seed, a, log_b):
    # Each fold's root is the sample value at a jump of its step-function
    # score, and I(y <= beta) depends only on the order of y, so a + b y
    # moves it exactly.  A fold without a root has none in any units,
    # and both estimates fail the same way.
    b = 10.0 ** log_b
    data = _qte_sample(n, seed)
    moved = Dataset(data.x, a + b * data.y, data.d)
    config = QteConfig(seed=seed)
    base = _qte_fold_betas(data, config)
    got = _qte_fold_betas(moved, config)
    if isinstance(base, str) or isinstance(got, str):
        assert got == base == "root not bracketed", (got, base)
        return
    assert np.array_equal(got, a + b * base), (got, a + b * base)
