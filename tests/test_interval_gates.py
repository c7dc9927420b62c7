"""Coverage gates for the PLR and QTE intervals.

Each estimator runs on 2,000 replicates at n = 1,000 drawn from its
orthogonality-check target, whose beta0 is known in closed form: PLR's
1.0 and QTE's median 0.5 (tau = 0.5).  Replicate r draws its sample at
``derive_seed(MASTER_SEED, r)`` and runs with config seed r and linear
learners.  The bounds were fixed before any run:

* coverage in [0.925, 0.975], about +-3.4 binomial SE at 2,000
* |bias| at most 3 Monte Carlo SE
* mean SE / sd of the estimates in [0.9, 1.1]
* at most 1 % of replicates raise ``ValueError`` or ``RuntimeError``

A slope J that is 25 % too large makes QTE's intervals 20 % short and its
coverage about 0.88, so this module fails on it.
"""

import numpy as np
import pytest

from orthoscore import diagnostics
from orthoscore.core import derive_seed
from orthoscore.plr import PlrConfig, plr_crossfit
from orthoscore.qte import QteConfig, qte_crossfit

MASTER_SEED = 123
REPLICATES = 2000
N = 1000

ESTIMATORS = {
    "plr": (diagnostics._plr_target, lambda data, r: plr_crossfit(data, PlrConfig(seed=r))),
    "qte": (diagnostics._qte_target, lambda data, r: qte_crossfit(data, QteConfig(seed=r))),
}


def _study(name):
    target, estimate = ESTIMATORS[name]
    beta0, sampler = target()[:2]
    betas, ses, covered, failed = [], [], 0, 0
    for r in range(REPLICATES):
        data = sampler(N, derive_seed(MASTER_SEED, r))
        try:
            res = estimate(data, r)
        except (ValueError, RuntimeError):
            failed += 1
            continue
        betas.append(res.beta_hat)
        ses.append(res.std_err)
        covered += res.ci_low <= beta0 <= res.ci_high
    betas = np.array(betas)
    sd = float(np.std(betas, ddof=1))
    return {"coverage": covered / betas.size,
            "bias": float(np.mean(betas)) - beta0,
            "mc_se": sd / betas.size ** 0.5,
            "se_over_sd": float(np.mean(ses)) / sd,
            "failed": failed}


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_interval_is_calibrated(name):
    s = _study(name)
    assert 0.925 <= s["coverage"] <= 0.975, s
    assert abs(s["bias"]) <= 3.0 * s["mc_se"], s
    assert 0.9 <= s["se_over_sd"] <= 1.1, s
    assert s["failed"] <= 0.01 * REPLICATES, s
