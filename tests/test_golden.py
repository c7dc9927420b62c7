"""Golden numbers: fixed-seed estimates and check reports.

The values below were recorded from the package before its three
per-estimator fold loops were folded into ``core.crossfit``.  Any
refactor must reproduce them to 1e-12 relative.  Only the linear
learner tier is pinned: neural-net fits depend on the BLAS kernel of
the host, so their numbers are not portable.
"""

import numpy as np
import pytest

from orthoscore.core import Dataset
from orthoscore.diagnostics import run_check
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.learners import expit
from orthoscore.plr import PlrConfig, plr_crossfit
from orthoscore.qte import QteConfig, qte_crossfit
from orthoscore.sim import DgpConfig, gen_dataset

RTOL = 1e-12

# (beta_hat, sigma2_hat, ci_low, ci_high, fold_betas)
ESTIMATES = {
    "robust_lr": (1.7345646209388228, 23.014548837385544, 1.3507038757234187,
                  2.118425366154227, (1.497626394995678, 1.9715028468819678)),
    "moment": (1.9389272121706314, 23.142383892812806, 1.5540018597982368,
               2.323852564543026, (1.9953675586084383, 1.8824868657328246)),
    "reg_lr": (1.9473670105403382, 90.30170613380542, 1.1870049355788013,
               2.7077290855018754, (2.4070128199793324, 1.4877212011013443)),
    "plr": (1.0276932223241848, 0.848164814782123, 0.9469691210836313,
            1.1084173235647383, (0.9762767242476463, 1.0791097204007234)),
    # Re-recorded when solve_monotone began returning the exact root, the
    # least sample value with a nonnegative mean score (each fold moved
    # down by under 1e-8 to that sample value).
    "qte": (0.5626706387850756, 10.56492282499779, 0.3025914309262178,
            0.8227498466439334, (0.29926149626897747, 0.8260797813011738)),
}

# (derivative, std_error) per case of run_check(target, 50_000, seed=7)
CHECKS = {
    "late": (
        # Re-recorded when the LATE scores took the weight form
        # w = (z - g)/(g(1-g)) in place of kappa1 - kappa0, which rounds
        # differently; this derivative moved by 2.4e-12 relative.
        (0.00131341508409136, 0.010450902119236861),
        (0.00806806289129374, 0.005581426468025358),
        (0.002478583281305272, 0.009080266281035755),
        (-0.005373459528081436, 0.009015911040701862),
        (0.006453223295010297, 0.004885025188909881),
        (-0.007065779751257287, 0.007835929639762708),
        (-2.6556714364059957, 0.011600570684419451),
    ),
    "plr": (
        (-0.006125327724850016, 0.006327501634386738),
        (0.000623091940002688, 0.006360411706175008),
        (-0.0010752403016071844, 0.004734660208009234),
        (-0.0014047529994287533, 0.0044626641713878985),
        (0.0010163313695389945, 0.004438648974886702),
        (0.0019008044727567193, 0.0033476429196230444),
        (-0.49735525591170693, 0.004587842051081621),
    ),
    "qte": (
        (-0.0004718207521481843, 0.0019355482397708827),
        (-0.001201105744518807, 0.0026939870401685227),
        (0.0006923890214049008, 0.0013256405340304695),
        (-0.0013033305999773774, 0.002091976930514758),
        (0.0004967423061954201, 0.0018427909347090352),
        (-0.0020899375896422986, 0.0016318854467353042),
        (0.23738759226848608, 0.0036029956867702343),
    ),
}


def _plr_data():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(500, 2))
    d = 0.6 * x[:, 0] + rng.normal(size=500)
    y = d + np.sin(x[:, 1]) + rng.normal(size=500)
    return Dataset(x, y, d, None, real_treatment=True)


def _qte_data():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(600, 2))
    d = (rng.random(600) < expit(0.8 * x[:, 0])).astype(float)
    y = np.where(d == 1.0, 0.5 + x[:, 0] - x[:, 1] + rng.normal(size=600),
                 rng.normal(size=600))
    return Dataset(x, y, d)


def _estimate(name):
    if name == "plr":
        return plr_crossfit(_plr_data(), PlrConfig(seed=6))
    if name == "qte":
        return qte_crossfit(_qte_data(), QteConfig(seed=8))
    data, _ = gen_dataset(DgpConfig(scenario="s1", n=600, p=4, seed=3))
    return late_crossfit(data, LateConfig(method=name, seed=5))


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_estimate_matches_golden(name):
    r = _estimate(name)
    beta, sigma2, lo, hi, folds = ESTIMATES[name]
    np.testing.assert_allclose([r.beta_hat, r.sigma2_hat, r.ci_low, r.ci_high],
                               [beta, sigma2, lo, hi], rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(r.fold_betas, folds, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("target", sorted(CHECKS))
def test_check_report_matches_golden(target):
    report = run_check(target, n_mc=50_000, seed=7)
    got = [(c.derivative, c.std_error) for c in report.cases]
    np.testing.assert_allclose(got, CHECKS[target], rtol=RTOL, atol=0.0)
