"""Tests for the binary-instrument causal estimator."""

import tracemalloc

import numpy as np
import pytest

import orthoscore.late
import orthoscore.learners
from orthoscore.core import (BLOCK_ROWS, SEED_SPLIT, Dataset, FunctionEstimate,
                             derive_seed, split_folds)
from orthoscore.late import (
    METHODS,
    LateConfig,
    estimate_h,
    estimate_log_odds,
    fit_larf,
    kappa,
    late_crossfit,
    moment_score,
    regression_score,
    robust_score,
    solve_beta_linear,
)
from orthoscore.learners import (MlpArchitecture, TrainConfig, clip_propensity,
                                 expit, fit_least_squares)
from orthoscore.qte import QteConfig
from orthoscore.sim import DgpConfig, gen_dataset


def _iv_data(n, seed, p=3, beta_y=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    z = (rng.random(n) < expit(0.4 * x[:, 0])).astype(float)
    d = np.where(rng.random(n) < 0.3, 1.0, z)
    y = (x[:, 1] + 2.0 * d + rng.normal(size=n)
         if beta_y is None else beta_y(x, d, z, rng))
    return Dataset(x, y, d, z)


class TestKappa:
    def test_treated_encouraged(self):
        k0, k1 = kappa(np.array([1.0]), np.array([1.0]), np.array([0.5]))
        assert k1[0] == pytest.approx(2.0)
        assert k0[0] == pytest.approx(0.0)

    def test_untreated_unencouraged(self):
        k0, k1 = kappa(np.array([0.0]), np.array([0.0]), np.array([0.5]))
        assert k0[0] == pytest.approx(2.0)
        assert k1[0] == pytest.approx(0.0)

    def test_treated_unencouraged_negative(self):
        k0, k1 = kappa(np.array([1.0]), np.array([0.0]), np.array([0.5]))
        assert k1[0] == pytest.approx(-2.0)
        assert k0[0] == pytest.approx(0.0)

    def test_boundary_propensity_rejected(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                kappa(np.array([1.0]), np.array([1.0]), np.array([bad]))

    def test_nan_propensity_rejected(self):
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            kappa(1.0, 1.0, np.nan)
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            kappa(np.ones(3), np.ones(3), np.array([0.5, np.nan, 0.5]))

    def test_complier_reweighting_identity(self):
        # With the true instrument propensity, both kappa weights
        # average to the complier share.
        rng = np.random.default_rng(5)
        n = 400000
        x1 = rng.normal(size=n)
        g = expit(0.5 * x1)
        z = (rng.random(n) < g).astype(float)
        u = rng.choice(3, size=n, p=[0.25, 0.5, 0.25])
        d = np.where(u == 0, 1.0, np.where(u == 1, z, 0.0))
        k0, k1 = kappa(d, z, g)
        assert np.mean(k0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(k1) == pytest.approx(0.5, abs=0.01)


class TestClipPropensity:
    def test_identity_inside_band(self):
        g = np.array([0.01, 0.5, 0.99])
        np.testing.assert_array_equal(clip_propensity(g), g)

    def test_clips_outside_band(self):
        g = np.array([0.001, 0.9999])
        np.testing.assert_allclose(clip_propensity(g), [0.01, 0.99])

    @pytest.mark.parametrize("call", [
        lambda d: LateConfig(clip_epsilon=0.05),
        lambda d: QteConfig(clip_epsilon=0.05),
        lambda d: clip_propensity(np.full(4, 0.5), eps=0.05),
        lambda d: robust_score(0.0, np.zeros(4), np.zeros(4), d,
                               clip_epsilon=0.05),
        lambda d: moment_score(0.0, np.zeros(4), d, clip_epsilon=0.05),
        lambda d: regression_score(0.0, np.zeros(4), np.zeros(4), np.zeros(4),
                                   d, clip_epsilon=0.05),
    ], ids=["LateConfig", "QteConfig", "clip_propensity", "robust_score",
            "moment_score", "regression_score"])
    def test_band_is_not_a_setting(self, call):
        # The band is learners.CLIP_EPSILON alone: asking for another one is
        # an error rather than a silently ignored request.
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call(_iv_data(4, 0))


class TestEstimateLogOdds:
    def test_flat_rate_recovered(self):
        rng = np.random.default_rng(11)
        n = 4000
        x = rng.normal(size=(n, 3))
        z = (rng.random(n) < 0.6).astype(float)
        d = z.copy()
        data = Dataset(x, rng.normal(size=n), d, z)
        f_hat = estimate_log_odds(data, LateConfig(method="robust_np",
                                                   seed=0))
        probs = expit(f_hat(rng.normal(size=(2000, 3))))
        assert np.max(np.abs(probs - 0.6)) <= 0.03

    def test_balanced_symmetric_center(self):
        rng = np.random.default_rng(12)
        n = 4000
        x = rng.normal(size=(n, 2))
        z = np.tile([0.0, 1.0], n // 2)
        data = Dataset(x, rng.normal(size=n), z, z)
        f_hat = estimate_log_odds(data, LateConfig(method="robust_lr",
                                                   seed=0))
        assert expit(f_hat(np.zeros((1, 2)))[0]) == pytest.approx(0.5,
                                                                  abs=0.05)

    def test_structural_log_odds_at_origin(self):
        data, truth = gen_dataset(DgpConfig("s1", 4000, 4, seed=3))
        f_hat = estimate_log_odds(data, LateConfig(method="robust_np",
                                                   seed=0))
        target = np.log(4.0) - 1.0 - 0.5
        assert f_hat(np.zeros((1, 4)))[0] == pytest.approx(target, abs=0.1)

    def test_degenerate_instrument_rejected(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 2))
        ones = np.ones(50)
        data = Dataset(x, rng.normal(size=50), ones, ones)
        with pytest.raises(ValueError):
            estimate_log_odds(data, LateConfig(seed=0))

    def test_missing_instrument_rejected(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 2))
        d = (rng.random(50) < 0.5).astype(float)
        data = Dataset(x, rng.normal(size=50), d, None)
        with pytest.raises(ValueError, match="instrument"):
            estimate_log_odds(data, LateConfig(seed=0))


class TestEstimateH:
    def test_zero_outcome_zero_direction(self):
        data = _iv_data(200, seed=21)
        data = Dataset(data.x, np.zeros(data.n), data.d, data.z)
        cfg = LateConfig(method="robust_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        h_hat = estimate_h(data, f_hat, cfg)
        np.testing.assert_allclose(h_hat(data.x), 0.0, atol=1e-9)

    def test_flat_log_odds_all_encouraged(self):
        # f = 0 and z = 1 collapse the pseudo-outcome to -y, so the
        # fitted direction is minus the regression of y on x.
        rng = np.random.default_rng(22)
        n = 300
        x = rng.normal(size=(n, 2))
        y = 1.0 + x[:, 0] + rng.normal(size=n)
        data = Dataset(x, y, np.ones(n), np.ones(n))
        cfg = LateConfig(method="robust_lr", seed=0)
        h_hat = estimate_h(data, FunctionEstimate.constant(0.0), cfg)
        y_fit = fit_least_squares(x, y)
        np.testing.assert_allclose(h_hat(x), -y_fit(x), atol=1e-9)

    def test_constant_outcome_closed_form(self):
        rng = np.random.default_rng(23)
        n = 20000
        c, f0 = 2.0, 0.4
        x = rng.normal(size=(n, 2))
        z = (rng.random(n) < expit(f0)).astype(float)
        data = Dataset(x, np.full(n, c), z, z)
        cfg = LateConfig(method="robust_lr", seed=0)
        h_hat = estimate_h(data, FunctionEstimate.constant(f0), cfg)
        expected = (c * (np.exp(f0) - np.exp(-f0)) * expit(f0)
                    - c * np.exp(f0))
        assert h_hat(np.zeros((1, 2)))[0] == pytest.approx(expected,
                                                           abs=0.05)


class TestScores:
    def test_robust_hand_value(self):
        x = np.zeros((1, 1))
        data = Dataset(x, np.array([3.0]), np.array([1.0]), np.array([1.0]))
        val = robust_score(0.0, np.array([0.0]), np.array([1.0]), data)
        # w = (1 - 0.5)/0.25 = 2, so 2*(3 + 1) - 0 = 8.
        assert val[0] == pytest.approx(8.0)

    def test_robust_rejects_a_nan_log_odds(self):
        data = _iv_data(6, seed=44)
        f = np.array([0.1, -0.2, np.nan, 0.0, 0.3, 0.2])
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            robust_score(0.0, f, np.zeros(6), data)

    def test_moment_hand_value(self):
        x = np.zeros((1, 1))
        data = Dataset(x, np.array([3.0]), np.array([1.0]), np.array([1.0]))
        val = moment_score(0.0, np.array([0.0]), data)
        assert val[0] == pytest.approx(6.0)

    def test_moment_zero_outcome_is_minus_beta(self):
        data = _iv_data(50, seed=31)
        data = Dataset(data.x, np.zeros(50), data.d, data.z)
        val = moment_score(0.7, np.full(50, 0.2), data)
        np.testing.assert_allclose(val, -0.7, atol=1e-12)

    def test_robust_with_zero_direction_is_moment(self):
        data = _iv_data(200, seed=32)
        f = 0.3 * data.x[:, 0]
        a = robust_score(0.5, f, np.zeros(data.n), data)
        b = moment_score(0.5, f, data)
        np.testing.assert_array_equal(a, b)

    def test_regression_hand_value(self):
        x = np.zeros((1, 1))
        data = Dataset(x, np.array([9.9]), np.array([1.0]), np.array([1.0]))
        val = regression_score(0.25, np.array([0.0]), np.array([1.5]),
                               np.array([2.0]), data)
        # w = 2 and d = 1 picks mu1: 2*2.0 - 0.25 = 3.75.
        assert val[0] == pytest.approx(3.75)

    def test_regression_zero_larfs_is_minus_beta(self):
        data = _iv_data(60, seed=33)
        zero = np.zeros(data.n)
        val = regression_score(1.1, zero, zero, zero, data)
        np.testing.assert_allclose(val, -1.1, atol=1e-12)

    @pytest.mark.parametrize("n", [100, 3 * BLOCK_ROWS + 17])
    def test_regression_score_with_y_as_larf_is_moment(self, n):
        # Replacing both fitted response surfaces by the observed y
        # collapses the regression score onto the moment score: both are
        # w * y - beta.
        data = _iv_data(n, seed=34)
        f = 0.1 * data.x[:, 0]
        np.testing.assert_array_equal(
            regression_score(0.3, f, data.y, data.y, data), moment_score(0.3, f, data))

    @pytest.mark.parametrize("n", [100, 3 * BLOCK_ROWS + 17])
    def test_moment_score_reads_no_treatment(self, n):
        # The weight w = (z - g)/(g(1-g)) never reads d, so any other
        # binary treatment column gives the same bits.
        data = _iv_data(n, seed=35)
        f = 0.2 * data.x[:, 1]
        flipped = Dataset(data.x, data.y, 1.0 - data.d, data.z)
        other = Dataset(data.x, data.y, np.ones(n), data.z)
        want = moment_score(-0.4, f, data)
        for changed in (flipped, other):
            np.testing.assert_array_equal(moment_score(-0.4, f, changed), want)


def _assert_same_bits(got, want, what=""):
    """Equal shapes and float64 bit patterns; a mismatch is shown in hex."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64, what
    assert got.shape == want.shape, what
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"{what}: {bad.size} values differ, the first at {bad[0]}: "
        f"{float(got.flat[bad[0]]).hex()} != {float(want.flat[bad[0]]).hex()}")


# The weights and scores as their formulas are written.  The shipped
# versions must give the same bits.

def _kappa_reference(d, z, g):
    denom = (1.0 - g) * g
    k0 = (1.0 - d) * ((1.0 - z) - (1.0 - g)) / denom
    k1 = d * (z - g) / denom
    return k0, k1


def _clipped_reference(f, eps):
    return np.clip(np.asarray(expit(f), dtype=float), eps, 1.0 - eps)


def _weight_reference(f, z, eps):
    # kappa1 - kappa0 for binary d.
    g = _clipped_reference(f, eps)
    return (z - g) / (g * (1.0 - g))


def _score_references(beta, v, data, eps):
    w = _weight_reference(v["f"], data.z, eps)
    return {
        "robust": w * (data.y + v["h"]) - beta,
        "moment": w * data.y - beta,
        "regression": w * np.where(data.d == 1.0, v["mu1"], v["mu0"]) - beta,
    }


SCORES = {
    "robust": lambda beta, v, data: robust_score(beta, v["f"], v["h"], data),
    "moment": lambda beta, v, data: moment_score(beta, v["f"], data),
    "regression": lambda beta, v, data: regression_score(
        beta, v["f"], v["mu0"], v["mu1"], data),
}


def _grid_inputs(seed):
    """Every (d, z) pair against log-odds far enough out that the
    propensity is clipped at both bounds."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    f_grid = np.concatenate([[-40.0, -9.0, 9.0, 40.0],
                             rng.normal(scale=3.0, size=12)])
    d = np.repeat(pairs[:, 0], f_grid.size)
    z = np.repeat(pairs[:, 1], f_grid.size)
    f = np.tile(f_grid, pairs.shape[0])
    n = f.size
    data = Dataset(rng.normal(size=(n, 2)), rng.normal(scale=4.0, size=n), d, z)
    return data, dict(f=f, h=rng.normal(size=n), mu0=rng.normal(size=n),
                      mu1=rng.normal(size=n))


def _edge_inputs(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(scale=3.0, size=n)
    f[::97] = 40.0                  # clipped at 1 - eps
    f[1::97] = -40.0                # clipped at eps
    data = Dataset(rng.normal(size=(n, 1)), rng.normal(scale=4.0, size=n),
                   (rng.random(n) < 0.5).astype(float),
                   (rng.random(n) < 0.5).astype(float))
    return data, dict(f=f, h=rng.normal(size=n), mu0=rng.normal(size=n),
                      mu1=rng.normal(size=n))


B = BLOCK_ROWS
BLOCK_EDGES = [1, B - 1, B, B + 1, 3 * B + 17]


class TestKappaBits:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.01, 0.2])
    def test_on_the_grid(self, seed, eps):
        data, v = _grid_inputs(seed)
        d, z = data.d.copy(), data.z.copy()
        g = _clipped_reference(v["f"], eps)
        g_before = g.copy()
        k0, k1 = kappa(d, z, g)
        want0, want1 = _kappa_reference(d, z, g)
        _assert_same_bits(k0, want0)
        _assert_same_bits(k1, want1)
        _assert_same_bits(d, data.d)
        _assert_same_bits(z, data.z)
        _assert_same_bits(g, g_before)
        assert not np.shares_memory(k0, k1)

    def test_on_scalars(self):
        for d, z in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            for g in (0.01, 0.3, 0.99):
                got = kappa(d, z, g)
                want = _kappa_reference(np.float64(d), np.float64(z), np.float64(g))
                assert [float(k).hex() for k in got] == \
                    [float(k).hex() for k in want], (d, z, g)


class TestScoresMatchTheWeightForm:
    """Each score has the bits of its weight-form formula, in one block or
    many, returns a fresh writable array and writes none of its inputs.
    The 0.2 cases patch ``learners.CLIP_EPSILON``, so they also show that
    the scores read the clip when they run."""

    @staticmethod
    def _check(data, v, betas, eps, where):
        before = {name: arr.copy() for name, arr in v.items()}
        for beta in betas:
            got = {name: score(beta, v, data) for name, score in SCORES.items()}
            want = _score_references(beta, v, data, eps)
            for name in got:
                _assert_same_bits(got[name], want[name], f"{name} at {beta}, {where}")
                assert got[name].flags.writeable
                assert not any(np.shares_memory(got[name], arr)
                               for arr in (*v.values(), data.y, data.d, data.z))
        for name, arr in v.items():
            _assert_same_bits(arr, before[name], name)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.01, 0.2])
    def test_on_the_grid(self, seed, eps, monkeypatch):
        monkeypatch.setattr(orthoscore.learners, "CLIP_EPSILON", eps)
        data, v = _grid_inputs(seed)
        g = _clipped_reference(v["f"], eps)
        assert np.any(g == eps) and np.any(g == 1.0 - eps)
        self._check(data, v, (0.0, -1.7, 2.5), eps, f"seed {seed}")

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("eps", [0.01, 0.2])
    def test_past_a_block(self, n, eps, monkeypatch):
        monkeypatch.setattr(orthoscore.learners, "CLIP_EPSILON", eps)
        data, v = _edge_inputs(n, seed=n)
        self._check(data, v, (0.0, -1.7), eps, f"n={n}")

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_kappa_rejects_a_bad_propensity_in_the_last_block(self, n, monkeypatch):
        # With the clip taken out, a log-odds of +-inf in the last row
        # gives g = 1 or 0, which kappa rejects from whichever block
        # holds that row.
        data, v = _edge_inputs(n, seed=n)
        for edge in (np.inf, -np.inf):
            f = v["f"].copy()
            f[-1] = edge
            g = expit(f)
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                kappa(data.d, data.z, g)
            with monkeypatch.context() as m:
                m.setattr(orthoscore.learners, "clip_propensity",
                          lambda g: np.asarray(g, dtype=float))
                for call in (lambda: robust_score(0.0, f, v["h"], data),
                             lambda: moment_score(0.0, f, data),
                             lambda: regression_score(0.0, f, v["mu0"], v["mu1"],
                                                      data)):
                    with pytest.raises(ValueError,
                                       match=r"strictly inside \(0, 1\)"):
                        call()


# tracemalloc peak of one score call at 131,072 rows: its 1 MiB output
# plus the temporaries of one 8,192-row block and Python objects, about
# 1,283 KiB for each score, rounded up to the next 0.125 MiB.
SCORE_PEAK = 1 * 2**20 + 384 * 2**10


@pytest.mark.parametrize("name", sorted(SCORES))
def test_one_score_call_stays_within_its_memory_bound(name):
    data, v = _edge_inputs(1 << 17, seed=5)
    # The first call builds what later calls reuse; it is not the cost
    # of a call.
    SCORES[name](0.3, v, data)
    tracemalloc.start()
    try:
        SCORES[name](0.3, v, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SCORE_PEAK, peak / 2**10


class TestFitLarf:
    def test_constant_outcome(self):
        data = _iv_data(500, seed=41)
        data = Dataset(data.x, np.full(data.n, 3.3), data.d, data.z)
        cfg = LateConfig(method="reg_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        for mu in fit_larf(data, f_hat, cfg):
            np.testing.assert_allclose(mu(data.x), 3.3, atol=1e-8)

    def test_each_arm_is_its_kappa_weighted_least_squares_fit(self):
        data = _iv_data(400, seed=42)
        cfg = LateConfig(method="reg_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        g = clip_propensity(expit(f_hat(data.x)))
        arms = fit_larf(data, f_hat, cfg)
        assert len(arms) == 2
        for t, mu in enumerate(arms):
            oracle = fit_least_squares(data.x, data.y,
                                       weights=kappa(data.d, data.z, g)[t])
            assert mu.intercept == oracle.intercept
            assert np.array_equal(mu.coef, oracle.coef)
            assert np.array_equal(mu(data.x), oracle(data.x))

    def test_all_compliers_nonnegative_weights(self):
        rng = np.random.default_rng(43)
        n = 2000
        x = rng.normal(size=(n, 2))
        z = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + x[:, 0] + 3.0 * z + rng.normal(size=n)
        data = Dataset(x, y, z, z)  # d = z: everyone complies
        cfg = LateConfig(method="reg_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        g = clip_propensity(expit(f_hat(data.x)))
        k0, k1 = kappa(data.d, data.z, g)
        assert np.all(k0 >= 0)
        assert np.all(k1 >= 0)
        mu0, mu1 = fit_larf(data, f_hat, cfg)
        # E[Y|X, complier arm t] = 1 + x1 + 3 t.
        probe = np.zeros((1, 2))
        assert mu0(probe)[0] == pytest.approx(1.0, abs=0.2)
        assert mu1(probe)[0] == pytest.approx(4.0, abs=0.2)


class TestClipIsReadAtCallTime:
    """With ``learners.CLIP_EPSILON`` patched to 0.2, every step that clips
    a propensity clips into [0.2, 0.8]; a clip bound as a default argument
    when the module loaded would still clip at 0.01."""

    EPS = 0.2

    @pytest.fixture(autouse=True)
    def _wide_clip(self, monkeypatch):
        monkeypatch.setattr(orthoscore.learners, "CLIP_EPSILON", self.EPS)

    def test_clip_propensity(self):
        g = np.array([0.01, 0.19, 0.5, 0.81, 0.99])
        np.testing.assert_array_equal(clip_propensity(g), [0.2, 0.2, 0.5, 0.8, 0.8])

    def _fitted(self):
        # Instrument propensities well past [0.2, 0.8] at both ends.
        data = _iv_data(600, seed=44)
        x = data.x
        z = (np.random.default_rng(45).random(data.n)
             < expit(2.0 * x[:, 0])).astype(float)
        data = Dataset(x, data.y, data.d, z)
        cfg = LateConfig(method="reg_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        g = _clipped_reference(f_hat(data.x), self.EPS)
        assert np.any(g == self.EPS) and np.any(g == 1.0 - self.EPS)
        return data, cfg, f_hat, g

    def test_estimate_h(self):
        data, cfg, f_hat, g = self._fitted()
        e_f = g / (1.0 - g)
        oracle = fit_least_squares(data.x, data.y * ((e_f - 1.0 / e_f) * data.z - e_f))
        h = estimate_h(data, f_hat, cfg)
        assert h.intercept == oracle.intercept
        assert np.array_equal(h.coef, oracle.coef)

    def test_fit_larf_both_arms(self):
        data, cfg, f_hat, g = self._fitted()
        for t, mu in enumerate(fit_larf(data, f_hat, cfg)):
            oracle = fit_least_squares(data.x, data.y,
                                       weights=kappa(data.d, data.z, g)[t])
            assert mu.intercept == oracle.intercept, t
            assert np.array_equal(mu.coef, oracle.coef), t


class TestSolveAndVariance:
    def test_mean_solution(self):
        data = _iv_data(3, seed=51)
        vals = np.array([1.0, 2.0, 3.0])
        beta = solve_beta_linear(lambda b, fold: vals - b, data)
        assert beta == pytest.approx(2.0)

    def test_estimating_equation_zeroed(self):
        data = _iv_data(500, seed=52)
        f = np.full(data.n, 0.1)
        h = np.full(data.n, 0.5)

        def fn(b, fold):
            return robust_score(b, f, h, fold)

        beta = solve_beta_linear(fn, data)
        assert abs(np.mean(fn(beta, data))) < 1e-10

    def test_empty_fold_rejected(self):
        data = _iv_data(8, seed=53)
        empty = data.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            solve_beta_linear(lambda b, fold: fold.y - b, empty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_score_rejected(self, bad):
        data = _iv_data(4, seed=54)
        vals = np.array([1.0, bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="^non-finite mean score$"):
            solve_beta_linear(lambda b, fold: vals - b, data)


class TestLateCrossfit:
    def test_deterministic(self):
        data = _iv_data(400, seed=61)
        cfg = LateConfig(method="robust_lr", seed=9)
        a = late_crossfit(data, cfg)
        b = late_crossfit(data, cfg)
        assert a == b

    def test_moment_equals_robust_when_outcome_zero(self):
        data = _iv_data(300, seed=62)
        data = Dataset(data.x, np.zeros(data.n), data.d, data.z)
        a = late_crossfit(data, LateConfig(method="robust_lr", seed=3))
        b = late_crossfit(data, LateConfig(method="moment", seed=3))
        assert a.beta_hat == pytest.approx(b.beta_hat, abs=1e-12)

    def test_recovers_structural_target(self):
        data, truth = gen_dataset(DgpConfig("s1", 2000, 4, seed=8))
        res = late_crossfit(data, LateConfig(method="robust_lr", seed=1))
        assert abs(res.beta_hat - truth.beta0) <= 3.0 * res.std_err
        assert res.ci_low < res.ci_high
        assert res.n == 2000

    @pytest.mark.parametrize("method", ["robust_lr", "moment", "reg_lr"])
    def test_checks_no_dataset_again(self, method, monkeypatch):
        # The fold subsets are rows of a checked Dataset: building them
        # runs none of the construction checks.
        data = _iv_data(200, seed=64)
        checks = Dataset.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            checks(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        late_crossfit(data, LateConfig(method=method, seed=1))
        assert calls == []
        Dataset(data.x, data.y, data.d, data.z)
        assert len(calls) == 1

    def test_result_invariants(self):
        data = _iv_data(600, seed=63)
        res = late_crossfit(data, LateConfig(method="robust_lr", seed=2))
        assert res.beta_hat == pytest.approx(np.mean(res.fold_betas))
        assert res.std_err == pytest.approx(
            np.sqrt(res.sigma2_hat / res.n))
        assert res.method == "robust_lr"

    def test_all_five_methods_run(self):
        data, _ = gen_dataset(DgpConfig("s1", 300, 4, seed=9))
        for method in ("robust_np", "robust_lr", "moment", "reg_np",
                       "reg_lr"):
            res = late_crossfit(data, LateConfig(method=method, seed=0))
            assert np.isfinite(res.beta_hat), method
            assert res.sigma2_hat >= 0.0, method

    @pytest.mark.parametrize("method", METHODS)
    def test_each_fold_evaluates_its_log_odds_once_per_half(self, method,
                                                            monkeypatch):
        # One training propensity serves every training-half fit (h-hat,
        # or both LARF arms); the estimation half needs f-hat once more.
        fit = orthoscore.late.estimate_log_odds
        rows = {}

        def counting(train, config, seed_tag=0):
            f_hat = fit(train, config, seed_tag)
            calls = rows.setdefault(seed_tag, [])

            def evaluate(x):
                calls.append(len(x))
                return f_hat(x)

            return FunctionEstimate(evaluate)

        monkeypatch.setattr(orthoscore.late, "estimate_log_odds", counting)
        data = _iv_data(301, seed=68)
        late_crossfit(data, LateConfig(method=method, seed=4,
                                       arch=MlpArchitecture(depth=1, width=4),
                                       train=TrainConfig(epochs=2, weight_decay=1.0)))
        split = split_folds(data.n, derive_seed(4, SEED_SPLIT))
        for k in (0, 1):
            halves = [len(split[1 - k]), len(split[k])]
            assert sorted(rows[k]) == sorted(halves)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            LateConfig(method="banana")

    def test_missing_instrument_rejected(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(100, 2))
        d = (rng.random(100) < 0.5).astype(float)
        data = Dataset(x, rng.normal(size=100), d, None)
        with pytest.raises(ValueError):
            late_crossfit(data, LateConfig(seed=0))

    def test_degenerate_instrument_propagates(self):
        rng = np.random.default_rng(65)
        x = rng.normal(size=(100, 2))
        ones = np.ones(100)
        data = Dataset(x, rng.normal(size=100), ones, ones)
        with pytest.raises((ValueError, RuntimeError)):
            late_crossfit(data, LateConfig(seed=0))

    def test_no_covariate_columns_fails_as_a_fold_error_in_the_net(self):
        # The linear tier fits the intercept-only model; the net used to
        # escape with a ZeroDivisionError from its initialization.
        rng = np.random.default_rng(66)
        z = np.tile([0.0, 1.0], 100)
        data = Dataset(np.empty((200, 0)), rng.normal(size=200), z, z)
        assert np.isfinite(late_crossfit(data, LateConfig(seed=0)).beta_hat)
        with pytest.raises(RuntimeError, match=r"^fold 0: no covariate columns$"):
            late_crossfit(data, LateConfig(method="robust_np", seed=0))

    @pytest.mark.parametrize("method", ["robust_lr", "moment", "reg_lr"])
    def test_constant_instrument_in_a_training_fold(self, method):
        # z varies over the sample, which passes the degenerate-instrument
        # check, but it is 0 on all of fold 0's training half.
        data = _iv_data(300, seed=67)
        split = split_folds(data.n, derive_seed(4, SEED_SPLIT))
        z = np.zeros(data.n)
        z[split[0]] = 1.0
        data = Dataset(data.x, data.y, data.d, z)
        with pytest.raises(RuntimeError, match="fold 0: degenerate labels"):
            late_crossfit(data, LateConfig(method=method, seed=4))

    @pytest.mark.parametrize("method", ["robust_lr", "moment", "reg_lr"])
    def test_constant_treatment_in_a_training_fold(self, method):
        # d is 0 on all of fold 0's training half.  The log-odds and h
        # fits need no variation in d; the arm-1 LARF fit has all-zero
        # kappa weights there.
        data, _ = gen_dataset(DgpConfig(n=400, seed=3))
        split = split_folds(data.n, derive_seed(5, SEED_SPLIT))
        d = data.d.copy()
        d[split[1]] = 0.0
        data = Dataset(data.x, data.y, d, data.z)
        config = LateConfig(method=method, seed=5)
        if method == "reg_lr":
            with pytest.raises(RuntimeError,
                               match="fold 0: degenerate weighted design"):
                late_crossfit(data, config)
        else:
            res = late_crossfit(data, config)
            assert np.all(np.isfinite([res.beta_hat, res.sigma2_hat]))

    def test_programming_error_escapes_the_fold_wrapper(self, monkeypatch):
        # Only estimation failures become "fold k:" RuntimeErrors; a
        # TypeError from a bug must reach the caller as itself.
        def broken(*args, **kwargs):
            raise TypeError("bug in a learner")

        monkeypatch.setattr(orthoscore.late, "fit_least_squares", broken)
        data = _iv_data(200, seed=66)
        with pytest.raises(TypeError, match="bug in a learner"):
            late_crossfit(data, LateConfig(method="robust_lr", seed=0))
