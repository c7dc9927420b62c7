"""
Quantiles of a potential outcome
=================================

Beyond average effects: the tau-th quantile of the treated-arm
potential outcome Y(1), identified under ignorability by reweighting
the treated observations with the inverse propensity.  The estimator
solves a monotone estimating equation exactly (its root is a sample
value of the outcome) and carries an orthogonalizing correction, so a
sloppy propensity model costs only second-order error.
"""

from statistics import NormalDist

import numpy as np

from orthoscore import Dataset, QteConfig, qte_crossfit

# ------------------------------------------------------------------
# Treatment probability depends on x; Y(1) ~ N(1, 1.5^2); Y(0) is a
# different arm entirely and never enters the target.
rng = np.random.default_rng(13)
n = 4000
x = rng.normal(size=(n, 3))
g0 = 1.0 / (1.0 + np.exp(-(0.3 * x[:, 0] - 0.5 * x[:, 1])))
d = (rng.random(n) < g0).astype(float)
y1 = 1.0 + 1.5 * rng.normal(size=n)
y0 = rng.normal(size=n) - 2.0
y = np.where(d == 1.0, y1, y0)
data = Dataset(x=x, y=y, d=d)

# ------------------------------------------------------------------
# The true tau-quantile of Y(1) is 1 + 1.5 * z_tau.
print(f"{'tau':>5} {'estimate':>9} {'truth':>7} {'95% CI':>19}")
for tau in (0.25, 0.5, 0.75):
    res = qte_crossfit(data, QteConfig(tau=tau, seed=2))
    truth = 1.0 + 1.5 * NormalDist().inv_cdf(tau)
    ci = f"({res.ci_low:.3f}, {res.ci_high:.3f})"
    print(f"{tau:>5} {res.beta_hat:>9.3f} {truth:>7.3f} {ci:>19}")
