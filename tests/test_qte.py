"""Tests for the treated-arm quantile estimator and its monotone solver."""

import numpy as np
import pytest

from orthoscore import learners
from orthoscore.core import Q95, SEED_SPLIT, Dataset, derive_seed, split_folds
from orthoscore.learners import (MlpArchitecture, expit, fit_least_squares,
                                 fit_logistic)
from orthoscore.qte import (QteConfig, _ipw_density, _weighted_quartiles,
                            ipw_quantile_score, orthogonal_quantile_score,
                            qte_crossfit, solve_monotone)
from orthoscore.sim import DgpConfig, gen_dataset


def _sample_quantile(y, tau):
    """Smallest sample value v with mean(I(y <= v) - tau) >= 0.

    The defining inequality is evaluated with the same floating-point
    mean as the estimating equation, so exact ties (n * tau integer)
    break on the same side as the solver instead of by rounding dust.
    """
    for v in np.sort(y):
        if np.mean((y <= v).astype(float) - tau) >= 0.0:
            return float(v)
    return float(np.max(y))


class TestSolveMonotone:
    def test_step_function_jump_location(self):
        # Pure sign step: the root is the sample value at the jump.
        y = np.array([2.0, -5.0, 0.0, 5.0, -1.0])
        root = solve_monotone(lambda b: 1.0 if b >= 0.0 else -1.0, y)
        assert root == 0.0

    def test_five_point_median(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ones = np.ones(5)

        def mean_score(b):
            return float(np.mean(ipw_quantile_score(b, y, ones, ones, 0.5)))

        # Empirical CDF crosses 1/2 at the third order statistic.
        assert solve_monotone(mean_score, y) == 3.0

    def test_unbracketable_score_raises(self):
        y = np.array([0.0, 1.0])
        # Positive below every sample value, and negative at max(y).
        with pytest.raises(ValueError, match="root not bracketed"):
            solve_monotone(lambda b: 1.0, y)
        with pytest.raises(ValueError, match="root not bracketed"):
            solve_monotone(lambda b: -1.0, y)


class TestScores:
    def test_ipw_hand_values(self):
        y = np.array([0.0, 2.0])
        d = np.ones(2)
        g = np.full(2, 0.5)
        # Row 1: (1/0.5)(1 - 0.25) = 1.5; row 2: (1/0.5)(0 - 0.25) = -0.5.
        got = ipw_quantile_score(1.0, y, d, g, 0.25)
        assert np.allclose(got, [1.5, -0.5], atol=1e-12)

    def test_untreated_rows_vanish(self):
        y = np.array([-3.0, 0.0, 11.0])
        d = np.zeros(3)
        g = np.full(3, 0.4)
        assert np.all(ipw_quantile_score(0.5, y, d, g, 0.7) == 0.0)

    def test_orthogonal_reduces_to_ipw_with_zero_h(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=20)
        d = rng.integers(0, 2, size=20).astype(float)
        g = rng.uniform(0.1, 0.9, size=20)
        ipw = ipw_quantile_score(0.3, y, d, g, 0.5)
        orth = orthogonal_quantile_score(0.3, y, d, g, np.zeros(20), 0.5)
        assert np.array_equal(ipw, orth)

    def test_orthogonal_correction_value(self):
        # Untreated row: IPW part is zero, correction is (g - 0) * h.
        got = orthogonal_quantile_score(0.0, np.array([9.0]), np.array([0.0]),
                                        np.array([0.5]), np.array([2.0]), 0.5)
        assert got == pytest.approx([1.0], abs=1e-12)

    def test_correction_does_not_depend_on_beta(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=30)
        d = rng.integers(0, 2, size=30).astype(float)
        g = rng.uniform(0.2, 0.8, size=30)
        h = rng.normal(size=30)
        for beta in (-1.0, 0.0, 2.5):
            diff = (orthogonal_quantile_score(beta, y, d, g, h, 0.3)
                    - ipw_quantile_score(beta, y, d, g, 0.3))
            assert np.allclose(diff, (g - d) * h, atol=1e-12)

    def test_mean_orthogonal_score_nondecreasing_in_beta(self):
        # d/g >= 0, so each IPW term is a nondecreasing step in beta and
        # the correction is beta-free; the empirical mean inherits both.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 40
            y = rng.normal(size=n)
            d = rng.integers(0, 2, size=n).astype(float)
            g = rng.uniform(0.05, 0.95, size=n)
            h = rng.normal(size=n)
            tau = rng.uniform(0.1, 0.9)
            grid = np.linspace(y.min() - 1.0, y.max() + 1.0, 23)
            means = [float(np.mean(orthogonal_quantile_score(b, y, d, g, h, tau)))
                     for b in grid]
            assert np.all(np.diff(means) >= -1e-12)


class TestQuantileReduction:
    def test_unit_propensity_zero_h_gives_sample_quantile(self):
        taus = (0.1, 0.25, 0.5, 0.75, 0.9)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = 31 + seed
            y = rng.normal(size=n) * (1.0 + seed % 3) + rng.normal()
            d = np.ones(n)
            g = np.ones(n)
            h = np.zeros(n)
            tau = taus[seed % len(taus)]

            def mean_score(b):
                return float(np.mean(orthogonal_quantile_score(b, y, d, g, h, tau)))

            assert solve_monotone(mean_score, y) == _sample_quantile(y, tau)


def _two_sort_quartiles(values, weights):
    """The weighted quartiles as ``_ipw_density`` took them before, with
    one sort of ``values`` for each quartile."""
    def quantile(q):
        order = np.argsort(values)
        v, w = values[order], weights[order]
        cum = np.cumsum(w)
        return float(np.interp(q * cum[-1], cum, v))
    return quantile(0.25), quantile(0.75)


class TestWeightedQuartiles:
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_sort_is_hex_equal_to_two(self, seed, ties):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        values = rng.normal(size=n)
        if ties:
            values = np.round(values, 1)
        weights = 1.0 / rng.uniform(0.01, 0.99, size=n)
        got = _weighted_quartiles(values, weights)
        assert [v.hex() for v in got] == [v.hex() for v in _two_sort_quartiles(values, weights)]

    @pytest.mark.parametrize("values", [[1.5], [2.0, -1.0], [3.0] * 7,
                                        [0.0, 1.0, 1.0, 1.0, 0.0, 2.0, -0.0]])
    def test_small_and_point_mass_inputs(self, values):
        values = np.array(values)
        weights = np.linspace(1.0, 3.0, values.size)
        got = _weighted_quartiles(values, weights)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in _two_sort_quartiles(values, weights)]


def _randomized_data(n, seed, median1=0.0):
    """Randomized binary treatment, Y(1) ~ N(median1, 1), Y(0) ~ N(2, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = rng.integers(0, 2, size=n).astype(float)
    y1 = rng.normal(median1, 1.0, size=n)
    y0 = rng.normal(2.0, 1.0, size=n)
    y = np.where(d == 1.0, y1, y0)
    return Dataset(x=x, y=y, d=d)


class TestQteCrossfit:
    def test_recovers_treated_median(self):
        data = _randomized_data(4000, seed=7)
        res = qte_crossfit(data, QteConfig(seed=3))
        assert abs(res.beta_hat - 0.0) <= 3.0 * res.std_err
        assert res.ci_low < 0.0 < res.ci_high

    def test_deterministic(self):
        data = _randomized_data(600, seed=11)
        cfg = QteConfig(seed=5)
        assert qte_crossfit(data, cfg) == qte_crossfit(data, cfg)

    def test_sign_flip_antisymmetry_at_median(self):
        data = _randomized_data(4000, seed=19)
        flipped = Dataset(x=data.x, y=-data.y, d=data.d)
        cfg = QteConfig(seed=2)
        res = qte_crossfit(data, cfg)
        res_neg = qte_crossfit(flipped, cfg)
        # The median of -Y(1) is minus the median of Y(1); the two runs
        # share folds and propensities, so only tie handling differs.
        assert res.beta_hat + res_neg.beta_hat == pytest.approx(0.0, abs=0.05)

    def test_location_equivariance(self):
        data = _randomized_data(1200, seed=23)
        shifted = Dataset(x=data.x, y=data.y + 5.0, d=data.d)
        cfg = QteConfig(seed=4)
        res = qte_crossfit(data, cfg)
        res_shift = qte_crossfit(shifted, cfg)
        assert res_shift.beta_hat == pytest.approx(res.beta_hat + 5.0, abs=1e-6)

    def test_result_invariants(self):
        data = _randomized_data(800, seed=31)
        res = qte_crossfit(data, QteConfig(tau=0.25, seed=9))
        assert res.beta_hat == pytest.approx(np.mean(res.fold_betas), abs=1e-12)
        assert res.std_err == pytest.approx(np.sqrt(res.sigma2_hat / res.n),
                                            abs=1e-12)
        assert res.ci_high - res.beta_hat == pytest.approx(
            res.beta_hat - res.ci_low, abs=1e-9)
        assert res.method == "qte"
        assert res.n == 800
        assert res.seed == 9
        assert res.ci_high - res.beta_hat == pytest.approx(Q95 * res.std_err,
                                                           rel=1e-12)

    def test_fold_estimates_follow_the_clip_at_call_time(self, monkeypatch):
        # Treatment propensities reach well past [0.2, 0.8], so the clip
        # moves the fold estimates; each is recomputed by hand with the
        # band that learners.CLIP_EPSILON holds when qte_crossfit runs.
        rng = np.random.default_rng(8)
        n, tau = 600, 0.5
        x = rng.normal(size=(n, 2))
        d = (rng.random(n) < expit(2.0 * x[:, 0])).astype(float)
        data = Dataset(x, x[:, 1] + d + rng.normal(size=n), d)
        split = split_folds(n, derive_seed(3, SEED_SPLIT))
        got = {}
        for eps in (0.01, 0.2):
            monkeypatch.setattr(learners, "CLIP_EPSILON", eps)
            got[eps] = qte_crossfit(data, QteConfig(tau=tau, seed=3)).fold_betas
            want = []
            for k in (0, 1):
                train = data.subset(split.indices(1 - k))
                est = data.subset(split.indices(k))
                f_hat = fit_logistic(train.x, train.d)
                g = np.clip(expit(f_hat(train.x)), eps, 1.0 - eps)
                pilot = solve_monotone(lambda b: float(np.mean(
                    ipw_quantile_score(b, train.y, train.d, g, tau))), train.y)
                pseudo = train.d * ((train.y <= pilot).astype(float) - tau) / g ** 2
                h = fit_least_squares(train.x, pseudo)(est.x)
                g = np.clip(expit(f_hat(est.x)), eps, 1.0 - eps)
                want.append(solve_monotone(lambda b: float(np.mean(
                    orthogonal_quantile_score(b, est.y, est.d, g, h, tau))), est.y))
            assert got[eps] == tuple(want), eps
        assert got[0.01] != got[0.2]

    def test_constant_treated_outcome_hits_the_bandwidth_floor(self):
        # Every treated y is 2.0, so the IPW spread is zero and the
        # kernel density falls back to its floor bandwidth.
        rng = np.random.default_rng(5)
        n = 400
        x = rng.normal(size=(n, 2))
        d = (rng.random(n) < expit(0.8 * x[:, 0])).astype(float)
        y = np.where(d == 1.0, 2.0, rng.normal(size=n))
        res = qte_crossfit(Dataset(x, y, d), QteConfig(seed=1))
        assert res.fold_betas == (2.0, 2.0)
        assert np.isfinite(res.sigma2_hat) and res.sigma2_hat > 0.0

    @pytest.mark.parametrize("c", [2.0, 1000.0, -3.7, 0.1])
    def test_point_mass_density_uses_the_floor_bandwidth(self, c):
        # Unequal IPW weights leave rounding dust in the spread of a
        # point mass; the floor must apply whatever the dust is.
        expected = 1.0 / (1e-6 * (1.0 + abs(c)) * np.sqrt(2.0 * np.pi))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = 400
            g = expit(0.8 * rng.normal(size=n))
            d = (rng.random(n) < g).astype(float)
            got = _ipw_density(np.full(n, c), d, g, c)
            assert got == pytest.approx(expected, rel=1e-12), seed

    def test_mlp_learner_runs(self):
        data = _randomized_data(400, seed=41)
        cfg = QteConfig(learner="mlp", arch=MlpArchitecture(depth=2, width=8),
                        seed=6)
        res = qte_crossfit(data, cfg)
        assert np.isfinite(res.beta_hat)
        assert abs(res.beta_hat) <= 0.5

    def test_rejects_instrument(self):
        rng = np.random.default_rng(0)
        n = 100
        data = Dataset(x=rng.normal(size=(n, 2)), y=rng.normal(size=n),
                       d=rng.integers(0, 2, size=n).astype(float),
                       z=rng.integers(0, 2, size=n).astype(float))
        with pytest.raises(ValueError, match="instrument"):
            qte_crossfit(data, QteConfig())

    def test_rejects_degenerate_treatment(self):
        rng = np.random.default_rng(0)
        n = 100
        data = Dataset(x=rng.normal(size=(n, 2)), y=rng.normal(size=n),
                       d=np.ones(n))
        with pytest.raises(ValueError, match="degenerate"):
            qte_crossfit(data, QteConfig())

    def test_constant_treatment_in_a_training_fold(self):
        # d varies over the sample but is 0 on all of fold 0's training
        # half, so the propensity fit there has one label.
        data, _ = gen_dataset(DgpConfig(n=400, seed=3))
        split = split_folds(data.n, derive_seed(5, SEED_SPLIT))
        d = data.d.copy()
        d[split.indices(1)] = 0.0
        with pytest.raises(ValueError, match="degenerate labels"):
            qte_crossfit(Dataset(data.x, data.y, d), QteConfig(seed=5))

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0},
        {"tau": 1.0},
        {"learner": "banana"},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            QteConfig(**kwargs)
