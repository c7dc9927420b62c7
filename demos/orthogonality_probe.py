"""
Measuring orthogonality by finite differences
==============================================

An orthogonal score is flat, to first order, in every nuisance
direction at the truth.  This script builds the partialled-out
regression score by hand at a closed-form truth, nudges its nuisance
by +-epsilon along a few directions, and estimates the resulting
derivative of the mean score by Monte Carlo.  For the orthogonal
score the derivative lands within noise of zero; dropping the
correction term produces a score whose derivative is unmistakably
nonzero, which is what the shipped `check` command looks for.
"""

import numpy as np

from orthoscore import (CoupledModel, Dataset, FunctionEstimate,
                        build_coupled_score, check_orthogonality, run_check)

BETA0 = 1.0

# ------------------------------------------------------------------
# Truth: y = beta0 * d + cos(x2) + e, d = x1 + v.  For the squared
# loss m = (y - beta d - f(x))^2 the orthogonalizing direction is
# h0(x) = -E[d | x] = -x1.
model = CoupledModel(
    d_beta_m=lambda beta, fv, data: 2.0 * data.d * (beta * data.d + fv - data.y),
    d_f_m=lambda beta, fv, data: 2.0 * (beta * data.d + fv - data.y),
    d2_beta_f_m=lambda beta, fv, data: 2.0 * data.d,
    d2_ff_m=lambda beta, fv, data: np.full(data.n, 2.0),
)

f0 = FunctionEstimate(lambda x: np.cos(x[:, 1]), label="cos(x2)")
h0 = FunctionEstimate(lambda x: -x[:, 0], label="-x1")
h_off = FunctionEstimate.constant(0.0, label="no correction")


def sampler(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    d = x[:, 0] + rng.normal(size=n)
    y = BETA0 * d + np.cos(x[:, 1]) + rng.normal(size=n)
    return Dataset(x=x, y=y, d=d, real_treatment=True)


directions = [
    FunctionEstimate.constant(1.0, label="constant"),
    FunctionEstimate(lambda x: x[:, 0], label="x1"),
    FunctionEstimate(lambda x: np.sin(3.0 * x[:, 1]), label="sin(3 x2)"),
]

# ------------------------------------------------------------------
# Orthogonal score vs the same model without its correction term.
for name, score in (("orthogonal", build_coupled_score(model, f0, h0)),
                    ("uncorrected", build_coupled_score(model, f0, h_off))):
    print(f"{name} score, derivative of the mean along each direction:")
    for direction in directions:
        deriv, se = check_orthogonality(score, sampler, BETA0, direction,
                                        which_nuisance="f", n_mc=200_000,
                                        seed=5)
        flag = "flat" if abs(deriv) <= 3.0 * se else "NOT flat"
        print(f"  {direction.label:<10} {deriv:>12.5f} +- {se:.5f}   {flag}")
    print()

# ------------------------------------------------------------------
# The bundled diagnostic does the same for the shipped estimators,
# including a deliberate control violation (`orthoscore check` on the
# command line runs it at n_mc = 10^6).
report = run_check("plr", n_mc=100_000, seed=5)
print(f"bundled plr suite: {'PASS' if report.passed else 'FAIL'} "
      f"({len(report.cases)} cases)")
