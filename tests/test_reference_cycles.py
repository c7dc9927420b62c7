"""Fitted functions are freed at their last reference.

Every public estimator path, called a second time with the cyclic
garbage collector off, must leave no cyclic garbage: an object caught
in a reference cycle outlives its last reference until the collector
happens to run, and a fitted net holds its parameters until then.  Each
path is warmed first, because numpy's first call of some functions
leaves cyclic garbage of its own.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from orthoscore.core import Dataset, FunctionEstimate
from orthoscore.diagnostics import TARGETS, run_check
from orthoscore.late import METHODS, LateConfig, late_crossfit
from orthoscore.learners import (MlpArchitecture, TrainConfig, expit,
                                 fit_least_squares, fit_logistic, fit_mlp)
from orthoscore.ortho import DecoupledModel, RatioDirection, fit_decoupled_direction
from orthoscore.plr import PlrConfig, plr_crossfit
from orthoscore.qte import QteConfig, qte_crossfit
from orthoscore.sim import DgpConfig, gen_dataset, run_replications

# Small nets: the paths, not the training, are under test.
ARCH = MlpArchitecture(depth=2, width=8)
TRAIN = TrainConfig(epochs=2, weight_decay=8.0)


def _late_data():
    return gen_dataset(DgpConfig(n=400, seed=3))[0]


def _xyd(seed=0, n=400):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    d = (rng.random(n) < expit(x[:, 0])).astype(float)
    y = x[:, 0] + d + rng.standard_normal(n)
    return x, y, d


_DECOUPLED = DecoupledModel(
    psi=lambda b, fv, data: data.y - b,
    d_f_psi=lambda b, fv, data: data.x[:, 0],
    d_f_m1=lambda fv, data: expit(fv) - data.d,
    d2_ff_m1=lambda fv, data: expit(fv) * (1.0 - expit(fv)),
)


def _paths():
    late_data = _late_data()
    x, y, d = _xyd()
    plr_data = Dataset(x, y, d, real_treatment=True)
    qte_data = Dataset(x, y, d)
    paths = {f"late_crossfit {m}": (lambda m=m: late_crossfit(
        late_data, LateConfig(method=m, arch=ARCH, train=TRAIN))) for m in METHODS}
    for learner in ("linear", "mlp"):
        paths[f"plr_crossfit {learner}"] = lambda learner=learner: plr_crossfit(
            plr_data, PlrConfig(learner=learner, arch=ARCH, train=TRAIN))
        paths[f"qte_crossfit {learner}"] = lambda learner=learner: qte_crossfit(
            qte_data, QteConfig(learner=learner, arch=ARCH, train=TRAIN))
    for target in TARGETS:
        paths[f"run_check {target}"] = lambda target=target: run_check(target, 4096, seed=1)
    paths["run_replications"] = lambda: run_replications(
        DgpConfig(n=200), ("robust_lr", "moment"), 2, 1)
    paths["fit_decoupled_direction"] = lambda: fit_decoupled_direction(
        _DECOUPLED, 0.0, FunctionEstimate.constant(0.0), plr_data, fit_least_squares)
    return paths


PATHS = _paths()


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", list(PATHS))
def test_second_call_leaves_no_cyclic_garbage(name, collector_off):
    PATHS[name]()
    gc.collect()
    PATHS[name]()
    unreachable = gc.collect()
    assert unreachable == 0, f"{name} left {unreachable} objects in reference cycles"


def _fitted():
    x, y, d = _xyd(seed=1, n=128)
    mlp = fit_mlp(x, y, arch=ARCH, config=TRAIN)
    affine = fit_least_squares(x, y)
    return {
        "mlp": mlp,
        "affine": affine,
        "logistic": fit_logistic(x, d),
        "ratio": RatioDirection(affine, mlp),
    }


@pytest.mark.parametrize("kind", ["mlp", "affine", "logistic", "ratio"])
def test_fitted_function_dies_on_del(kind, collector_off):
    est = _fitted()[kind]
    est(np.zeros((3, 2)))
    ref = weakref.ref(est)
    del est
    assert ref() is None


def test_repeated_net_fits_hold_no_memory(collector_off):
    # One step on 64 rows of the pipeline's net: 160 KB of parameters per fit.
    x, y, _ = _xyd(seed=2, n=64)
    cfg = TrainConfig(epochs=1, weight_decay=8.0)
    fit_mlp(x, y, config=cfg)
    tracemalloc.start()
    try:
        fit_mlp(x, y, config=cfg)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            fit_mlp(x, y, config=cfg)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000, f"20 discarded fits still hold {grown} bytes"
