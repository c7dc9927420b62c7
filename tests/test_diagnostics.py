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

from orthoscore import core, diagnostics, ortho
from orthoscore.core import BLOCK_ROWS, Dataset, FunctionEstimate, derive_seed
from orthoscore.learners import expit
from orthoscore.ortho import ScoreFamily, check_orthogonality
from orthoscore.sim import (STRATUM_PROBS, always_taker_mean, complier_mean,
                            f0_true, mu_true, never_taker_mean)

N_MC = 20_000
SHARD = 4096    # five shards, the last one ragged


def _evaluate(family, beta, data):
    """The family's score at beta with every nuisance evaluated at data.x."""
    return family.score(beta, data, {name: fn(data.x)
                                     for name, fn in family.nuisances.items()})


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
        diff = (_evaluate(plus, beta0, data)
                - _evaluate(minus, beta0, data)) / (2.0 * epsilon)
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
             for _, direction in diagnostics._DIRECTIONS]
    cases.append((ctrl, sampler, beta0, ctrl_direction[1], ctrl_nuisance))
    return cases


@pytest.mark.parametrize("target", diagnostics.TARGETS)
def test_checker_equals_reference_loop_on_every_case(target, monkeypatch):
    monkeypatch.setattr(ortho, "SHARD_ROWS", SHARD)
    cases = _cases(target)
    assert len(cases) == 7
    for k, (family, sampler, beta0, direction, nuisance) in enumerate(cases):
        args = (family, sampler, beta0, direction, nuisance)
        kwargs = dict(n_mc=N_MC, seed=derive_seed(3, k))
        assert check_orthogonality(*args, **kwargs) == \
            _reference_check(*args, **kwargs, shard_size=SHARD), (target, k)


@pytest.mark.parametrize("target", diagnostics.TARGETS)
def test_checker_equals_reference_loop_across_row_blocks(target, monkeypatch):
    # A first shard of two blocks, the second ragged, then a short shard.
    monkeypatch.setattr(ortho, "SHARD_ROWS", BLOCK_ROWS + 3)
    for k, (family, sampler, beta0, direction, nuisance) in enumerate(_cases(target)):
        args = (family, sampler, beta0, direction, nuisance)
        kwargs = dict(n_mc=N_MC, seed=derive_seed(4, k))
        assert check_orthogonality(*args, **kwargs) == \
            _reference_check(*args, **kwargs, shard_size=BLOCK_ROWS + 3), (target, k)


# run_check(target, RAGGED_N_MC, seed=3) per case, (derivative, std_error)
# in hex, recorded before the checker ran in row blocks.  RAGGED_N_MC is
# one 131,072-row shard (eight full blocks) and a shard of 18,945 rows
# (a full block and a ragged one of 2,561).
RAGGED_N_MC = 150_017
RAGGED_CHECKS = {
    "late": [
        ("0x1.6f5805b9642d9p-8", "0x1.8a21f68c43890p-8"),
        ("0x1.4f325e4c01f01p-9", "0x1.a2cbec52c6f19p-9"),
        ("0x1.bf71dc484c23bp-8", "0x1.588b467a24274p-8"),
        ("-0x1.d5c7ba12fc428p-8", "0x1.5502937f12bd6p-8"),
        ("-0x1.30947f2951a93p-8", "0x1.70c9cb9507cfap-9"),
        ("-0x1.bfb42f8da3fabp-10", "0x1.28ddea9c17f3cp-8"),
        ("-0x1.548d216c7a193p+1", "0x1.b7479e211057cp-8"),
    ],
    "plr": [
        ("0x1.1e56f561fb407p-8", "0x1.dda282e2cf34ep-9"),
        ("-0x1.2aa0688164b4ep-8", "0x1.df419edc99799p-9"),
        ("0x1.6ee74d7e865f5p-10", "0x1.6882831129fefp-9"),
        ("-0x1.5c38f9dad5cccp-10", "0x1.52f0ff4808394p-9"),
        ("-0x1.5196243f65ef3p-11", "0x1.53d0457dd9686p-9"),
        ("0x1.f14a86206ce9ep-11", "0x1.fc630545329abp-10"),
        ("-0x1.fc180efb2252cp-2", "0x1.5918ba98ea3d8p-9"),
    ],
    "qte": [
        ("0x1.c2c4909c0dcb5p-12", "0x1.223dd5c04be49p-10"),
        ("0x1.574dba97b800cp-10", "0x1.9e501de118850p-10"),
        ("0x1.669caf155f75ap-10", "0x1.8cdd257faf984p-11"),
        ("-0x1.a36ddecdb4d2ap-11", "0x1.3cbd6c7f065c3p-10"),
        ("0x1.dbd4e2be8cf80p-10", "0x1.1908219f1955ep-10"),
        ("-0x1.3421e7d244539p-11", "0x1.ed540b1d09f20p-11"),
        ("0x1.dd85116a47a7fp-3", "0x1.0b71ba71c65d7p-9"),
    ],
}


@pytest.mark.parametrize("target", diagnostics.TARGETS)
def test_run_check_on_a_ragged_last_shard_and_block(target, monkeypatch):
    # Bit for bit against the same run with every input in one block,
    # which is the arithmetic the values were recorded with.  The stored
    # values were reproduced to the bit on the recording host; they are
    # held to 1e-12 relative, as in test_golden, because numpy's tanh
    # and cos may round differently on another SIMD target.
    got = [(c.derivative, c.std_error)
           for c in diagnostics.run_check(target, RAGGED_N_MC, seed=3).cases]
    monkeypatch.setattr(core, "BLOCK_ROWS", RAGGED_N_MC)
    whole = [(c.derivative, c.std_error)
             for c in diagnostics.run_check(target, RAGGED_N_MC, seed=3).cases]
    assert [tuple(map(float.hex, v)) for v in got] == \
        [tuple(map(float.hex, v)) for v in whole]
    want = [tuple(map(float.fromhex, v)) for v in RAGGED_CHECKS[target]]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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
    monkeypatch.setattr(ortho, "SHARD_ROWS", SHARD)
    for family, sampler, beta0, direction, nuisance in _cases("late"):
        check_orthogonality(family, sampler, beta0, direction, nuisance,
                            n_mc=N_MC, seed=5)
    assert calls == []


def test_late_truths_evaluate_mu_true_only_inside_gen_dataset(monkeypatch):
    # gen_dataset records mu_true(x, 0) for every row of the shard; the
    # true direction reads it from the shard's truth record.
    calls = []

    def counting(x, t, scenario):
        calls.append(x.shape[0])
        return mu_true(x, t, scenario)

    monkeypatch.setattr(diagnostics, "mu_true", counting)
    monkeypatch.setattr(ortho, "SHARD_ROWS", SHARD)
    for family, sampler, beta0, direction, nuisance in _cases("late"):
        check_orthogonality(family, sampler, beta0, direction, nuisance,
                            n_mc=N_MC, seed=5)
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


def _late_h_whole(x, g, mu0):
    """The true late direction as it was written before it ran in row
    blocks: one in-place pass over the whole arrays."""
    p_a, p_c, p_n = STRATUM_PROBS
    always = always_taker_mean(x)
    always *= p_a
    never = never_taker_mean(x)
    never *= p_n
    mu1 = complier_mean(mu0, 1.0)
    e_yz = mu1 * p_c
    e_yz += always
    e_yz += never
    e_yz *= g
    scratch = 1.0 - g
    e_f = g / scratch
    scratch *= mu0                      # (1 - g) mu0
    mu1 *= g
    mu1 += scratch
    mu1 *= p_c                          # p_c (g mu1 + (1 - g) mu0)
    e_y = always
    e_y += mu1
    e_y += never
    h = np.divide(1.0, e_f, out=scratch)
    np.subtract(e_f, h, out=h)          # e^f - e^-f
    h *= e_yz
    e_y *= e_f
    h -= e_y
    return h


@pytest.mark.parametrize("m", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               3 * BLOCK_ROWS + 17])
def test_late_h_true_in_row_blocks_keeps_the_whole_array_bits(m):
    _, sampler, orth, *_ = diagnostics._BUILDERS["late"]()
    x = sampler(m, 4).x
    g, mu0 = expit(f0_true(x)), mu_true(x, 0, "s1")
    got = orth.nuisances["h"](x)
    _assert_same_bits(got, _late_h_whole(x, g, mu0))
    _assert_same_bits(got, _late_h_reference(x, g, mu0))


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
# while the minus-sign score runs, in 1 MiB arrays: the shard's data and
# truth record (10; x counts 4), the stored h, the plus-sign score, the
# minus-sign shifted nuisance and the score's output (4), plus the
# score's block temporaries (four of 64 KiB alive at once) and Python
# objects; 14.26 MiB in all.  With 128 KiB blocks the kappa-form scores
# peaked at 15.01 MiB, shard-length score temporaries and a stored
# direction at 18 MiB.
# The sampler alone peaks at 14 MiB (16.5 MiB when all three stratum
# means were formed on every row).
LATE_SHARD_PEAK = 14 * 2**20 + 512 * 2**10
LATE_SAMPLER_PEAK = 14 * 2**20 + 64 * 2**10
# The same peak for a plr and a qte shard, which evaluate their direction
# on the whole shard: 13.00 and 13.13 MiB, each rounded up to the next
# 0.25 MiB.
SHARD_PEAKS = {"late": LATE_SHARD_PEAK,
               "plr": 13 * 2**20 + 256 * 2**10,
               "qte": 13 * 2**20 + 256 * 2**10}


@pytest.mark.parametrize("target", diagnostics.TARGETS)
def test_one_shard_stays_within_its_memory_bound(target):
    m = 1 << 17
    cases = _cases(target)
    sampler = cases[0][1]
    # The first call builds what later calls reuse (such as numpy's
    # lazily loaded modules); it is not part of a shard's cost.
    check_orthogonality(*cases[0], n_mc=64)
    if target == "late":
        tracemalloc.start()
        try:
            sampler(m, 3)
            sampler_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampler_peak <= LATE_SAMPLER_PEAK, sampler_peak / 2**20
    peaks = []
    for case in cases:
        tracemalloc.start()
        try:
            check_orthogonality(*case, n_mc=m, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= SHARD_PEAKS[target], [p / 2**20 for p in peaks]


@pytest.mark.parametrize("target", ["plr", "qte"])
def test_sampler_equals_the_checking_constructor(target):
    # The samplers skip the Dataset checks their draws pass by construction.
    sampler = diagnostics._BUILDERS[target]()[1]
    data = sampler(300, 5)
    real = target == "plr"
    want = Dataset(data.x.copy(), data.y.copy(), data.d.copy(), real_treatment=real)
    assert type(data) is Dataset and data.real_treatment == real and data.z is None
    for got_col, want_col in ((data.x, want.x), (data.y, want.y), (data.d, want.d)):
        assert got_col.dtype == want_col.dtype
        assert got_col.shape == want_col.shape
        assert got_col.tobytes() == want_col.tobytes()
        assert not got_col.flags.writeable
