"""Exact-equality tests of the orthogonality checker and its truths.

The reference below is the checker as it was before nuisances were
stored per shard: it rebuilds the family with shifted copies (base +
scale * direction) of the perturbed nuisance and evaluates every
nuisance afresh for each sign.  The shipped checker must return the
same floats, not merely close ones, for every case that ``run_check``
measures.  The normal CDF of the qte truth is held to its accuracy
contract against the per-row ``math.erf`` formula.
"""

import math
import tracemalloc

import numpy as np
import pytest

from orthoscore import diagnostics
from orthoscore.core import FunctionEstimate, derive_seed
from orthoscore.learners import expit
from orthoscore.ortho import ScoreFamily, check_orthogonality
from orthoscore.sim import f0_true, mu_true

N_MC = 20_000
SHARD = 4096    # five shards, the last one ragged


def _shifted_family(score, which_nuisance, scale, direction):
    """``score`` with nuisance ``which_nuisance`` set to base + scale * direction."""
    base = score.nuisances[which_nuisance]
    moved = FunctionEstimate(lambda x: base(x) + scale * direction(x))
    return ScoreFamily(score.score, {**score.nuisances, which_nuisance: moved})


def _reference_check(score, sampler, beta0, direction, which_nuisance,
                     epsilon=1e-3, n_mc=1_000_000, seed=0, shard_size=1 << 17):
    plus = _shifted_family(score, which_nuisance, epsilon, direction)
    minus = _shifted_family(score, which_nuisance, -epsilon, direction)
    total, total_sq, count = 0.0, 0.0, 0
    shard = 0
    while count < n_mc:
        m = min(shard_size, n_mc - count)
        data = sampler(m, derive_seed(seed, shard))
        diff = (plus.evaluate(beta0, data) - minus.evaluate(beta0, data)) / (2.0 * epsilon)
        total += float(np.sum(diff))
        total_sq += float(np.sum(diff * diff))
        count += m
        shard += 1
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / (count - 1)
    return mean, float(np.sqrt(var / count))


def _cases(target):
    """(family, sampler, beta0, direction, nuisance) per run_check case."""
    beta0, sampler, orth, ctrl, ctrl_nuisance, ctrl_direction = \
        diagnostics._BUILDERS[target]()
    cases = [(orth, sampler, beta0, direction, nuisance)
             for nuisance in orth.nuisances
             for _, direction in diagnostics._directions()]
    cases.append((ctrl, sampler, beta0, ctrl_direction[1], ctrl_nuisance))
    return cases


@pytest.mark.parametrize("target", diagnostics.TARGETS)
def test_checker_equals_reference_loop_on_every_case(target):
    cases = _cases(target)
    assert len(cases) == 7
    for k, (family, sampler, beta0, direction, nuisance) in enumerate(cases):
        args = (family, sampler, beta0, direction, nuisance)
        kwargs = dict(n_mc=N_MC, seed=derive_seed(3, k), shard_size=SHARD)
        assert check_orthogonality(*args, **kwargs) == \
            _reference_check(*args, **kwargs), (target, k)


def test_normal_cdf_equals_elementwise_erf():
    # The per-row math.erf formula is the reference; the table-and-Taylor
    # evaluation must stay within 2.5e-16 of it, keep the shape, and
    # give 0.5, NaN, 1 and 0 exactly at 0, NaN, +inf and -inf.
    erf = np.frompyfunc(math.erf, 1, 1)

    def want(t):
        return 0.5 * (1.0 + erf(t / math.sqrt(2.0)).astype(float))

    t = np.random.default_rng(0).normal(scale=3.0, size=(64, 3))
    got = diagnostics._normal_cdf(t)
    assert got.shape == t.shape
    assert np.max(np.abs(got - want(t))) <= 2.5e-16

    rng = np.random.default_rng(1)
    t = np.concatenate([rng.normal(scale=s, size=250_000) for s in (1.0, 2.0, 4.0)]
                       + [rng.uniform(-40.0, 40.0, size=250_000),
                          np.linspace(-40.0, 40.0, 80_001)])
    assert np.max(np.abs(diagnostics._normal_cdf(t) - want(t))) <= 2.5e-16

    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    got = diagnostics._normal_cdf(special)
    assert got[0] == got[1] == 0.5
    assert np.isnan(got[2])
    assert got[3] == 1.0 and got[4] == 0.0


def test_late_truths_follow_the_matrix_they_are_given():
    # f_true and h_true share f0_true values per matrix; alternating
    # between two live matrices must never serve the other's values.
    _, sampler, orth, *_ = diagnostics._BUILDERS["late"]()
    a, b = sampler(50, 1).x, sampler(50, 2).x
    for x in (a, b, a, b):
        _, _, fresh, *_ = diagnostics._BUILDERS["late"]()
        assert np.array_equal(orth.nuisances["f"](x), f0_true(x))
        assert np.array_equal(orth.nuisances["h"](x), fresh.nuisances["h"](x))


def test_late_sampler_hands_its_log_odds_to_the_truths(monkeypatch):
    # gen_dataset already evaluated f0_true on each shard; the late
    # truths reuse that array instead of evaluating it again.
    calls = []

    def counting(x):
        calls.append(x.shape[0])
        return f0_true(x)

    monkeypatch.setattr(diagnostics, "f0_true", counting)
    for family, sampler, beta0, direction, nuisance in _cases("late"):
        check_orthogonality(family, sampler, beta0, direction, nuisance,
                            n_mc=N_MC, seed=5, shard_size=SHARD)
    assert calls == []


def test_late_truths_evaluate_mu_true_only_inside_gen_dataset(monkeypatch):
    # gen_dataset records mu_true(x, 0) for every row of the shard; the
    # true direction reads it from the shard's truth record.
    calls = []

    def counting(x, t, scenario):
        calls.append(x.shape[0])
        return mu_true(x, t, scenario)

    monkeypatch.setattr(diagnostics, "mu_true", counting)
    for family, sampler, beta0, direction, nuisance in _cases("late"):
        check_orthogonality(family, sampler, beta0, direction, nuisance,
                            n_mc=N_MC, seed=5, shard_size=SHARD)
    assert calls == []
    # A matrix that is not the shard's is still evaluated afresh.
    _, sampler, orth, *_ = diagnostics._BUILDERS["late"]()
    x = sampler(50, 1).x.copy()
    orth.nuisances["h"](x)
    assert calls == [50]


@pytest.mark.parametrize("target, counted", [
    ("plr", ("expit", "_plr_background")),
    ("qte", ("expit",)),
])
def test_truths_read_what_the_sampler_computed(target, counted, monkeypatch):
    # Each shard's sampler evaluates these once; the truths of both score
    # families read its record.  A matrix that is not the shard's is
    # evaluated afresh, to the same values.
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in counted:
        monkeypatch.setattr(diagnostics, name, counting(name, getattr(diagnostics, name)))
    _, sampler, orth, ctrl, *_ = diagnostics._BUILDERS[target]()
    truths = [*orth.nuisances.values(), *ctrl.nuisances.values()]
    for seed in range(3):
        data = sampler(SHARD, seed)
        assert sorted(calls) == sorted(counted * (seed + 1))
        shard_values = [fn(data.x) for fn in truths]
        assert sorted(calls) == sorted(counted * (seed + 1))
    x = data.x.copy()
    for fn, recorded in zip(truths, shard_values):
        assert np.array_equal(fn(x), recorded)
    assert sorted(calls) == sorted(counted * 4)


def _late_h_reference(x, g, mu0):
    """The true late direction as it was written with whole-expression
    arrays and every stratum mean at both treatments."""
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    e_f = g / (1.0 - g)
    nv = 0.6 * x1 + 0.8 * x2 + x3 + 1.2 * x4 - 2.0 * 0.0
    a = x1 + x2 + x3 + x4 + 2.0 * 1.0
    mu1 = mu0 + 3.0 * 1.0
    p_a, p_c, p_n = 0.2, 0.6, 0.2
    e_y = p_a * a + p_c * (g * mu1 + (1.0 - g) * mu0) + p_n * nv
    e_yz = g * (p_a * a + p_c * mu1 + p_n * nv)
    return (e_f - 1.0 / e_f) * e_yz - e_f * e_y


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"{bad.size} values differ, the first at {bad[0]}: "
        f"{float(got.flat[bad[0]]).hex()} != {float(want.flat[bad[0]]).hex()}")


@pytest.mark.parametrize("m", [1, 7, SHARD + 1, 1 << 17])
def test_late_h_true_has_the_bits_of_its_formula(m):
    _, sampler, orth, *_ = diagnostics._BUILDERS["late"]()
    h_true = orth.nuisances["h"]
    for seed in (0, 1):
        x = sampler(m, seed).x
        g = expit(f0_true(x))
        _assert_same_bits(h_true(x), _late_h_reference(x, g, mu_true(x, 0, "s1")))
        # A writable matrix that is not the shard's is evaluated afresh
        # and comes back unchanged.
        foreign = x.copy()
        _assert_same_bits(h_true(foreign), _late_h_reference(x, g, mu_true(x, 0, "s1")))
        _assert_same_bits(foreign, x)


# tracemalloc peak of one 131,072-row late shard, over the seven cases,
# in 1 MiB arrays: the shard's data and truth record (10; x counts 4),
# the stored h and direction, the plus-sign score and the minus-sign
# shifted nuisance (4), and the robust score's own four, plus 64 KiB for
# Python objects.  Forming every expression in its own array peaked at
# 19 MiB.  The sampler alone peaks at 14 MiB (16.5 MiB when all three
# stratum means were formed on every row).
LATE_SHARD_PEAK = 18 * 2**20 + 64 * 2**10
LATE_SAMPLER_PEAK = 14 * 2**20 + 64 * 2**10


def test_one_late_shard_stays_within_its_memory_bound():
    m = 1 << 17
    beta0, sampler, orth, ctrl, ctrl_nuisance, ctrl_direction = \
        diagnostics._BUILDERS["late"]()
    cases = [(orth, direction, nuisance)
             for nuisance in orth.nuisances
             for _, direction in diagnostics._directions()]
    cases.append((ctrl, ctrl_direction[1], ctrl_nuisance))
    # The first call builds what later calls reuse (such as numpy's
    # lazily loaded modules); it is not part of a shard's cost.
    check_orthogonality(orth, sampler, beta0, cases[0][1], "f", n_mc=64,
                        shard_size=64)
    tracemalloc.start()
    try:
        sampler(m, 3)
        sampler_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler_peak <= LATE_SAMPLER_PEAK, sampler_peak / 2**20
    peaks = []
    for family, direction, nuisance in cases:
        tracemalloc.start()
        try:
            check_orthogonality(family, sampler, beta0, direction, nuisance,
                                n_mc=m, shard_size=m, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= LATE_SHARD_PEAK, [p / 2**20 for p in peaks]
