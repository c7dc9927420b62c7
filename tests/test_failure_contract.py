"""The failure contract of the linear-learner estimators, fuzzed.

On any design, each estimator either returns a finite result (beta-hat,
sigma2-hat, SE and interval finite, sigma2-hat at least the least normal
float, ci_low <= beta-hat <= ci_high) or raises ``ValueError`` or
``RuntimeError``.  numpy warnings are raised as errors, so a design that
only warns fails too.  The designs are small and awkward: n from 4 to 59,
p from 1 to 4, x and y scaled by 10^k for k from -8 to 8, some with a
constant or a duplicated column, some rounded into ties, and an
instrument drawn at a random rate or, separably, as a threshold of x1.
"""

import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoscore.core import Dataset
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.plr import PlrConfig, plr_crossfit
from orthoscore.qte import QteConfig, qte_crossfit


def _late(method):
    return lambda x, y, d, z: late_crossfit(Dataset(x, y, d, z), LateConfig(method=method))


ESTIMATORS = {
    **{method: _late(method) for method in ("robust_lr", "moment", "reg_lr")},
    "plr": lambda x, y, d, z: plr_crossfit(Dataset(x, y, d), PlrConfig()),
    "qte": lambda x, y, d, z: qte_crossfit(Dataset(x, y, d), QteConfig()),
}

# Each tenth is one chance in ten.
tenths = st.integers(min_value=0, max_value=9)


@st.composite
def designs(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=4, max_value=59))
    p = draw(st.integers(min_value=1, max_value=4))
    x = rng.standard_normal((n, p))
    y = x[:, 0] + rng.standard_normal(n)
    layout = draw(tenths)
    if layout < 2:
        x[:, 0] = 1.0
    elif layout < 4:
        x[:, -1] = x[:, 0]
    if draw(tenths) < 3:
        x, y = np.round(x), np.round(y)
    if draw(tenths) < 2:
        z = (x[:, 0] > 0.0).astype(float)
    else:
        z = (rng.random(n) < draw(st.floats(min_value=0.05, max_value=0.95))).astype(float)
    d = np.where(rng.random(n) < 0.2, 1.0 - z, z)
    x = x * 10.0 ** draw(st.integers(min_value=-8, max_value=8))
    y = y * 10.0 ** draw(st.integers(min_value=-8, max_value=8))
    return draw(st.sampled_from(sorted(ESTIMATORS))), x, y, d, z


@settings(max_examples=300, derandomize=True, deadline=None)
@given(designs())
def test_result_is_finite_or_a_documented_error(design):
    method, *arrays = design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = ESTIMATORS[method](*arrays)
        except (ValueError, RuntimeError):
            return
    values = (res.beta_hat, res.sigma2_hat, res.std_err, res.ci_low, res.ci_high)
    assert all(math.isfinite(v) for v in values), (method, values)
    assert res.sigma2_hat >= sys.float_info.min, (method, values)
    assert res.ci_low <= res.beta_hat <= res.ci_high, (method, values)
