"""Tests for the synthetic instrumented DGP and the replication harness."""

import math

import numpy as np
import pytest
from scipy import integrate

import orthoscore.late
import orthoscore.sim
from orthoscore.core import Dataset, in_row_blocks
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.learners import expit
from orthoscore.sim import (BETA0, DgpConfig, f0_true, gen_covariates,
                            gen_dataset, h0_true, mu_true, run_replications,
                            summarize_replicates)

# Variance of a standard normal truncated to [-1, 1]:
# 1 - 2 phi(1) / (2 Phi(1) - 1), frozen from the closed form and
# re-derived below by quadrature.
TRUNC_VAR = 0.29112509477279314


def _truncated_weights(m):
    """Gauss-Legendre nodes on [-1, 1] with truncated-normal weights."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    w = weights * np.exp(-0.5 * nodes ** 2)
    return nodes, w / w.sum()


def _instrument_marginal(m):
    """E[expit(f0(X))] for X with iid truncated-normal coordinates."""
    nodes, w = _truncated_weights(m)
    grid = np.array(np.meshgrid(nodes, nodes, nodes, nodes,
                                indexing="ij")).reshape(4, -1).T
    wg = (w[:, None, None, None] * w[None, :, None, None]
          * w[None, None, :, None] * w[None, None, None, :]).ravel()
    return float(wg @ expit(f0_true(grid)))


def _scattered_dataset(config):
    """gen_dataset as it was when each stratum mean was gathered on its
    own rows and scattered back, with the package's current mu_true."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    x = gen_covariates(n, config.p, rng)
    g0 = expit(f0_true(x))
    z = (rng.random(n) < g0).astype(float)
    u = rng.choice(np.array([1, 2, 3]), size=n, p=(0.2, 0.6, 0.2))
    d = ((u == 1) | ((u == 2) & (z == 1.0))).astype(float)
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    mean = np.empty(n)
    always, complier, never = u == 1, u == 2, u == 3
    mean[always] = (x1 + x2 + x3 + x4 + 2.0 * d)[always]
    mean[complier] = mu_true(x[complier], d[complier], config.scenario)
    mean[never] = (0.6 * x1 + 0.8 * x2 + x3 + 1.2 * x4 - 2.0 * d)[never]
    y = mean + rng.standard_normal(n)
    return dict(y=y, d=d, z=z, u=u)


def _assert_same_bits(got, want, what=""):
    """Equal shapes and float64 bit patterns; a mismatch is shown in hex."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64, what
    assert got.shape == want.shape, what
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"{what}: {bad.size} values differ, the first at {bad[0]}: "
        f"{float(got.flat[bad[0]]).hex()} != {float(want.flat[bad[0]]).hex()}")


def _covariates_reference(n, p, rng):
    """gen_covariates as it was written with a full-size |x| per round."""
    x = rng.standard_normal((n, p))
    flat = x.reshape(-1)
    redo = np.flatnonzero(np.abs(flat) > 1.0)
    while redo.size:
        draw = rng.standard_normal(redo.size)
        flat[redo] = draw
        redo = redo[np.abs(draw) > 1.0]
    return x


def _where_dataset(config):
    """gen_dataset as it was when all three stratum means were formed on
    every row and picked by nested np.where."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    x = _covariates_reference(n, config.p, rng)
    g0 = expit(f0_true(x))
    z = (rng.random(n) < g0).astype(float)
    r = rng.random(n)
    cdf = orthoscore.sim._STRATUM_CDF
    u = 1 + (r >= cdf[0]) + (r >= cdf[1])
    d = ((u == 1) | ((u == 2) & (z == 1.0))).astype(float)
    mu0 = mu_true(x, 0.0, config.scenario)
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    always = x1 + x2 + x3 + x4 + 2.0 * d
    complier = mu0 + 3.0 * d
    never = 0.6 * x1 + 0.8 * x2 + x3 + 1.2 * x4 - 2.0 * d
    mean = np.where(u == 1, always, np.where(u == 2, complier, never))
    y = mean + rng.standard_normal(n)
    return dict(x=x, y=y, d=d, z=z, u=u, mu0=mu0, next=rng.random())


@pytest.fixture(scope="module")
def big_draw():
    return gen_dataset(DgpConfig(scenario="s1", n=1_000_000, p=4, seed=123))


class TestTruthFunctions:
    def test_f0_frozen_values(self):
        # f0(0) = log 4 - 1.5; f0(1,1,1,1) = 0.5 + log 5 - sqrt(e);
        # f0(0,0,1,-1) = log 4 - exp(-1/2) - 0.5.
        zero = f0_true(np.zeros((1, 4)))[0]
        assert zero == pytest.approx(-0.11370563888010943, abs=1e-12)
        ones = f0_true(np.ones((1, 4)))[0]
        assert ones == pytest.approx(0.4607166417339723, abs=1e-12)
        mixed = f0_true(np.array([[0.0, 0.0, 1.0, -1.0]]))[0]
        assert mixed == pytest.approx(0.27976370140725715, abs=1e-12)

    def test_mu_frozen_values(self):
        # s1 at the origin, control arm: 1 + e^{-1} + log 3.
        got = mu_true(np.zeros((1, 4)), 0, "s1")[0]
        assert got == pytest.approx(2.466491729839552, abs=1e-12)
        # s2 at the origin, treated arm: log 1.5 + 1 + 3.
        got = mu_true(np.zeros((1, 4)), 1, "s2")[0]
        assert got == pytest.approx(4.405465108108165, abs=1e-12)

    def test_arm_gap_is_exactly_three(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(50, 4))
        for scenario in ("s1", "s2"):
            gap = mu_true(x, 1, scenario) - mu_true(x, 0, scenario)
            assert np.allclose(gap, 3.0, atol=1e-12)

    def test_mu_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            mu_true(np.zeros((1, 4)), 0, "s3")


class TestLateDirection:
    """h0_true is E[t | X] for the pseudo-outcome t that estimate_h
    regresses on x, t = y ((e^f - e^-f) z - e^f), e^f = g0 / (1 - g0).

    Checked on one large draw: E[(t - h0(X)) phi(X)] = 0 for every phi,
    so each sample mean lies within a few standard errors of 0.  Criterion
    5's 3-SE band at 1e6 draws cannot see an error in h0 below about
    0.26 %; at 2e6 draws an error of 0.3 % moves the mean along 1 or
    cos x1 by about 4.4 standard errors (2.6 to 6.2 over seeds 0-7).
    """

    N = 2_000_000
    PHIS = {"1": lambda x: np.ones(len(x)), "x1": lambda x: x[:, 0],
            "x2": lambda x: x[:, 1], "cos x1": lambda x: np.cos(x[:, 0]),
            "x3 x4": lambda x: x[:, 2] * x[:, 3]}

    @pytest.fixture(scope="class")
    def draw(self):
        data, truth = gen_dataset(DgpConfig(n=self.N, seed=2))
        e_f = truth.g0 / (1.0 - truth.g0)
        t = data.y * ((e_f - 1.0 / e_f) * data.z - e_f)
        h0 = in_row_blocks(h0_true, data.x, truth.g0, truth.mu0)
        return data.x, t, h0

    def _ratios(self, x, residual):
        out = {}
        for name, phi in self.PHIS.items():
            v = residual * phi(x)
            out[name] = float(np.mean(v) / (np.std(v) / math.sqrt(len(v))))
        return out

    def test_h0_is_the_conditional_mean_of_the_pseudo_outcome(self, draw):
        # Measured ratios: 1 +0.18, x1 +1.89, x2 -0.50, cos x1 +0.06, x3 x4 -0.17.
        x, t, h0 = draw
        ratios = self._ratios(x, t - h0)
        assert all(abs(r) <= 4.0 for r in ratios.values()), ratios

    def test_h0_off_by_three_tenths_of_a_percent_is_seen(self, draw):
        # Measured ratios along 1 and cos x1: +4.60 and +4.45.
        x, t, h0 = draw
        ratios = self._ratios(x, t - 1.003 * h0)
        assert max(abs(r) for r in ratios.values()) > 4.0, ratios


class TestGenCovariates:
    def test_truncation_variance_oracle(self):
        # Independent re-derivation of the frozen constant.
        mass, _ = integrate.quad(lambda t: math.exp(-0.5 * t * t), -1.0, 1.0)
        second, _ = integrate.quad(lambda t: t * t * math.exp(-0.5 * t * t),
                                   -1.0, 1.0)
        assert second / mass == pytest.approx(TRUNC_VAR, abs=1e-10)

    def test_sample_moments(self):
        rng = np.random.default_rng(7)
        x = gen_covariates(100_000, 4, rng)
        assert np.all(np.abs(x) <= 1.0)
        assert np.allclose(x.mean(axis=0), 0.0, atol=0.05)
        assert np.allclose(x.var(axis=0), TRUNC_VAR, atol=0.03)

    def test_deterministic_given_rng_seed(self):
        a = gen_covariates(200, 4, np.random.default_rng(3))
        b = gen_covariates(200, 4, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="p must be at least 1"):
            gen_covariates(10, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 4097, 131_072])
    def test_same_bits_as_the_full_size_abs_build(self, n, seed):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = gen_covariates(n, 4, got_rng)
        _assert_same_bits(got, _covariates_reference(n, 4, want_rng))
        assert got_rng.random().hex() == want_rng.random().hex()

    @pytest.mark.parametrize("n, p, seed", [
        (1, 4, 0), (1, 5, 3), (7, 5, 1), (1000, 4, 2), (4096, 6, 9),
    ])
    def test_same_draws_as_whole_array_rejection(self, n, p, seed):
        # Reference: re-check the whole matrix after every redraw.
        rng = np.random.default_rng(seed)
        want = rng.standard_normal((n, p))
        while True:
            out = np.abs(want) > 1.0
            count = int(np.count_nonzero(out))
            if count == 0:
                break
            want[out] = rng.standard_normal(count)
        got_rng = np.random.default_rng(seed)
        assert np.array_equal(gen_covariates(n, p, got_rng), want)
        assert got_rng.random() == rng.random()


class TestGenDataset:
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_equals_the_checking_constructor(self, n):
        # gen_dataset skips the Dataset checks its draws pass by construction.
        data, _ = gen_dataset(DgpConfig(n=n, seed=4))
        want = Dataset(*(col.copy() for col in (data.x, data.y, data.d, data.z)))
        assert type(data) is Dataset and not data.real_treatment
        for got_col, want_col in ((data.x, want.x), (data.y, want.y),
                                  (data.d, want.d), (data.z, want.z)):
            assert got_col.dtype == want_col.dtype
            assert got_col.shape == want_col.shape
            assert got_col.tobytes() == want_col.tobytes()
            assert not got_col.flags.writeable

    def test_treatment_structure_is_exact(self, big_draw):
        data, truth = big_draw
        assert np.all(data.d[truth.u == 1] == 1.0)
        assert np.array_equal(data.d[truth.u == 2], data.z[truth.u == 2])
        assert np.all(data.d[truth.u == 3] == 0.0)

    def test_stratum_proportions(self, big_draw):
        _, truth = big_draw
        n = truth.u.size
        for label, prob in ((1, 0.2), (2, 0.6), (3, 0.2)):
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(np.mean(truth.u == label) - prob) <= 3.0 * se

    def test_complier_fraction(self, big_draw):
        _, truth = big_draw
        assert abs(np.mean(truth.u == 2) - 0.6) <= 0.002

    def test_instrument_marginal_matches_quadrature(self, big_draw):
        coarse = _instrument_marginal(16)
        fine = _instrument_marginal(24)
        assert coarse == pytest.approx(fine, abs=1e-8)
        data, truth = big_draw
        assert abs(float(np.mean(truth.g0)) - fine) <= 0.002
        assert abs(float(np.mean(data.z)) - fine) <= 0.005

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    def test_stratum_outcome_means(self, scenario):
        data, truth = gen_dataset(DgpConfig(scenario=scenario, n=200_000,
                                            p=4, seed=11))
        x1, x2, x3, x4 = (data.x[:, j] for j in range(4))
        always = truth.u == 1
        never = truth.u == 3
        complier = truth.u == 2
        resid_a = data.y[always] - (x1 + x2 + x3 + x4 + 2.0)[always]
        resid_n = data.y[never] - (0.6 * x1 + 0.8 * x2 + x3 + 1.2 * x4)[never]
        mu = mu_true(data.x[complier], data.d[complier], scenario)
        resid_c = data.y[complier] - mu
        for resid in (resid_a, resid_n, resid_c):
            assert abs(float(resid.mean())) <= 3.0 / math.sqrt(resid.size)
            assert float(resid.var()) == pytest.approx(1.0, abs=0.05)

    def test_truth_record(self, big_draw):
        data, truth = big_draw
        assert truth.beta0 == BETA0 == 1.8
        assert truth.scenario == "s1"
        assert np.all((truth.g0 > 0.0) & (truth.g0 < 1.0))
        assert data.z is not None
        assert not truth.g0.flags.writeable
        assert not truth.u.flags.writeable

    def test_truth_carries_the_log_odds(self, big_draw):
        data, truth = big_draw
        assert np.array_equal(truth.f0, f0_true(data.x))
        assert np.array_equal(truth.g0, expit(truth.f0))
        assert not truth.f0.flags.writeable

    def test_truth_carries_the_arm_zero_complier_mean(self, big_draw):
        data, truth = big_draw
        assert np.array_equal(truth.mu0, mu_true(data.x, 0, truth.scenario))
        assert not truth.mu0.flags.writeable

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("n", list(range(1, 18)) + [4097, 131_072])
    def test_same_draws_as_stratum_gather_and_scatter(self, scenario, n):
        cfg = DgpConfig(scenario=scenario, n=n, p=4, seed=1000 + n)
        data, truth = gen_dataset(cfg)
        want = _scattered_dataset(cfg)
        assert np.array_equal(data.y, want["y"])
        assert np.array_equal(data.d, want["d"])
        assert np.array_equal(data.z, want["z"])
        assert np.array_equal(truth.u, want["u"])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 7, 4097, 131_072])
    def test_strata_are_generator_choice_draws(self, seed, n):
        # The reference draws the strata with Generator.choice; equal
        # outcomes show the outcome noise, the generator's next draw, is
        # equal too.
        cfg = DgpConfig(n=n, seed=seed)
        data, truth = gen_dataset(cfg)
        want = _scattered_dataset(cfg)
        assert truth.u.dtype == want["u"].dtype
        assert np.array_equal(truth.u, want["u"])
        assert np.array_equal(data.y, want["y"])

    @pytest.mark.parametrize("scenario", ["s1", "s2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, p", [(1, 4), (2, 4), (7, 5), (4097, 4),
                                      (131_072, 4)])
    def test_same_bits_as_the_nested_where_build(self, scenario, seed, n, p):
        cfg = DgpConfig(scenario=scenario, n=n, p=p, seed=seed)
        data, truth = gen_dataset(cfg)
        want = _where_dataset(cfg)
        for name in ("x", "y", "d", "z"):
            _assert_same_bits(getattr(data, name), want[name], name)
        _assert_same_bits(truth.mu0, want["mu0"])
        assert np.array_equal(truth.u, want["u"])

    def test_deterministic(self):
        cfg = DgpConfig(scenario="s2", n=500, p=5, seed=21)
        a, ta = gen_dataset(cfg)
        b, tb = gen_dataset(cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d) and np.array_equal(a.z, b.z)
        assert np.array_equal(ta.g0, tb.g0) and np.array_equal(ta.u, tb.u)

    # Recorded from the package before the complier means were computed
    # with one mu_true call; n=8 holds compliers in both arms.
    PINNED = {
        ("s1", 11): dict(
            u=[3, 2, 1, 2, 1, 1, 2, 3], d=[0, 0, 1, 1, 1, 1, 1, 0],
            z=[1, 0, 0, 1, 1, 1, 1, 1],
            y=[0.4262960116612075, 1.5056896461257456, 4.16095798125475,
               5.384948990471586, 0.014437442039595128, 2.298664826112935,
               6.573332221744896, 2.326359889787152],
            g0=[0.49221036738790097, 0.48761016318074896, 0.4787125074823516,
                0.48707150254034665, 0.4312852926143056, 0.4168280512261953,
                0.5129688367654553, 0.5058481609698393],
            x_sum=-0.03846884136706086, x5_sum=-1.6279683674059067),
        ("s2", 12): dict(
            u=[3, 1, 3, 2, 2, 2, 2, 2], d=[0, 1, 0, 0, 0, 1, 0, 0],
            z=[0, 1, 1, 0, 0, 1, 0, 0],
            y=[2.3060053090546764, 2.562653822993415, -0.38247192973069555,
               0.694070105658624, 0.8779677470014393, 4.364280341024694,
               0.6978638334720609, 1.9071419002436711],
            g0=[0.4137380883057272, 0.4195668016066208, 0.4782026544139886,
                0.590561698467834, 0.4704325969504964, 0.5429218628333412,
                0.48548745442615676, 0.47142020792954753],
            x_sum=2.774684646568385, x5_sum=-1.3574208270331676),
    }

    @pytest.mark.parametrize("scenario, seed", sorted(PINNED))
    def test_pinned_draws(self, scenario, seed):
        want = self.PINNED[(scenario, seed)]
        data, truth = gen_dataset(DgpConfig(scenario=scenario, n=8, p=5,
                                            seed=seed))
        assert truth.u.tolist() == want["u"]
        assert data.d.tolist() == want["d"]
        assert data.z.tolist() == want["z"]
        assert data.y.tolist() == want["y"]
        assert truth.g0.tolist() == want["g0"]
        assert float(data.x.sum()) == want["x_sum"]
        assert float(data.x[:, 4].sum()) == want["x5_sum"]

    def test_seed_changes_draw(self):
        a, _ = gen_dataset(DgpConfig(n=500, seed=1))
        b, _ = gen_dataset(DgpConfig(n=500, seed=2))
        assert not np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "s3"},
        {"p": 3},
        {"n": 0},
        {"n": 2.5},
        {"n": True},
        {"p": 4.5},
    ])
    def test_config_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            DgpConfig(**kwargs)


class TestSummarizeReplicates:
    def test_hand_formula(self):
        # Every estimate off by +1 at n=100: bias 1, smse sqrt(100)*1 = 10.
        s = summarize_replicates("m", [2.8] * 4, [True, False, True, True],
                                 failures=1, n=100)
        assert s.bias == pytest.approx(1.0, abs=1e-12)
        assert s.smse == pytest.approx(10.0, abs=1e-12)
        assert s.coverage == pytest.approx(0.75, abs=1e-12)
        assert s.reps_done == 4
        assert s.failures == 1

    def test_bias_is_absolute_and_errors_average(self):
        # Errors 0 and +1 at n=4: bias |0.5|, smse 2 * 0.5 = 1.
        s = summarize_replicates("m", [1.8, 2.8], [True, True], 0, n=4)
        assert s.bias == pytest.approx(0.5, abs=1e-12)
        assert s.smse == pytest.approx(1.0, abs=1e-12)
        low = summarize_replicates("m", [0.8], [False], 0, n=4)
        assert low.bias == pytest.approx(1.0, abs=1e-12)

    def test_no_successes_gives_nan_metrics(self):
        s = summarize_replicates("m", [], [], failures=3, n=100)
        assert math.isnan(s.bias) and math.isnan(s.smse)
        assert math.isnan(s.coverage)
        assert s.reps_done == 0 and s.failures == 3


@pytest.fixture(scope="module")
def small_report():
    return run_replications(DgpConfig(n=120, p=4, seed=0),
                            ("robust_lr", "moment"), reps=6, master_seed=9)


class TestRunReplications:
    def test_deterministic(self, small_report):
        again = run_replications(DgpConfig(n=120, p=4, seed=0),
                                 ("robust_lr", "moment"), reps=6, master_seed=9)
        assert again == small_report

    def test_worker_count_does_not_change_report(self, small_report):
        parallel = run_replications(DgpConfig(n=120, p=4, seed=0),
                                    ("robust_lr", "moment"), reps=6,
                                    master_seed=9, jobs=2)
        assert parallel == small_report

    def test_report_shape(self, small_report):
        assert small_report.scenario == "s1"
        assert small_report.n == 120 and small_report.p == 4
        assert small_report.reps == 6 and small_report.master_seed == 9
        for summary in small_report.methods:
            assert 0.0 <= summary.coverage <= 1.0
            assert summary.smse >= 0.0
            assert summary.reps_done + summary.failures == 6

    def test_by_method_lookup(self, small_report):
        assert small_report.by_method("moment").method == "moment"
        with pytest.raises(KeyError):
            small_report.by_method("nope")

    def test_failed_replicates_are_counted_not_averaged(self, monkeypatch):
        def flaky(data, config):
            if config.method == "moment":
                raise RuntimeError("boom")
            return late_crossfit(data, config)

        monkeypatch.setattr(orthoscore.sim, "late_crossfit", flaky)
        report = run_replications(DgpConfig(n=120, p=4, seed=0),
                                  ("robust_lr", "moment"), reps=4,
                                  master_seed=3)
        broken = report.by_method("moment")
        assert broken.failures == 4 and broken.reps_done == 0
        assert math.isnan(broken.bias)
        intact = report.by_method("robust_lr")
        assert intact.failures == 0 and intact.reps_done == 4

    def test_non_finite_mean_score_is_a_failed_replicate(self, monkeypatch):
        # The first fold of the first replicate sees a NaN score; that
        # replicate fails, and the metrics of the rest stay finite.
        score = orthoscore.late.moment_score
        calls = []

        def poisoned(beta, f, data):
            calls.append(beta)
            out = score(beta, f, data)
            return out if len(calls) > 1 else np.full_like(out, np.nan)

        monkeypatch.setattr(orthoscore.late, "moment_score", poisoned)
        summary = run_replications(DgpConfig(n=120, p=4, seed=0), ("moment",),
                                   reps=4, master_seed=3).by_method("moment")
        assert summary.failures == 1 and summary.reps_done == 3
        assert math.isfinite(summary.bias) and math.isfinite(summary.smse)

    @staticmethod
    def _first_outcome_scaled(monkeypatch, factor):
        """Three replicates whose first outcome is multiplied by `factor`."""
        draw = orthoscore.sim.gen_dataset
        calls = []

        def scaled_first_outcome(config):
            data, truth = draw(config)
            calls.append(config.seed)
            if len(calls) == 1:
                data = Dataset(data.x, data.y * factor, data.d, data.z)
            return data, truth

        monkeypatch.setattr(orthoscore.sim, "gen_dataset", scaled_first_outcome)
        return run_replications(DgpConfig(n=120, p=4, seed=0),
                                ("robust_lr", "moment", "reg_lr"), reps=3,
                                master_seed=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_variance_is_a_failed_replicate(self, monkeypatch):
        # The first replicate's outcome is scaled by 1e300: its estimate is
        # finite but its variance is not, so it fails and the rest count.
        report = self._first_outcome_scaled(monkeypatch, 1e300)
        for summary in report.methods:
            assert summary.failures == 1 and summary.reps_done == 2
            assert math.isfinite(summary.bias) and math.isfinite(summary.smse)

    def test_underflowed_variance_is_a_failed_replicate(self, monkeypatch):
        # Scaled by 1e-300, every squared score underflows to 0.
        report = self._first_outcome_scaled(monkeypatch, 1e-300)
        for summary in report.methods:
            assert summary.failures == 1 and summary.reps_done == 2
            assert math.isfinite(summary.bias) and math.isfinite(summary.smse)

    def test_programming_error_is_not_counted_as_a_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a learner")

        monkeypatch.setattr(orthoscore.late, "fit_least_squares", broken)
        with pytest.raises(TypeError, match="bug in a learner"):
            run_replications(DgpConfig(n=120, p=4, seed=0), ("robust_lr",),
                             reps=2, master_seed=3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_replications(DgpConfig(n=120), ("banana",), 2, 0)

    def test_duplicate_method_rejected_before_any_replicate(self, monkeypatch):
        # Results are keyed by method name: a second copy, seeded from its
        # own list position, would silently replace the first one's.
        def never(config):
            raise AssertionError("drew before the methods were checked")

        monkeypatch.setattr(orthoscore.sim, "gen_dataset", never)
        with pytest.raises(ValueError, match="^duplicate method: 'robust_lr'$"):
            run_replications(DgpConfig(n=120), ("robust_lr", "moment", "robust_lr"),
                             2, 0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"reps": 0}, "reps must be at least 1"),
        ({"reps": 2.5}, "reps must be an integer"),
        ({"reps": 2, "jobs": 1.5}, "jobs must be an integer"),
    ])
    def test_reps_validation(self, kwargs, match, monkeypatch):
        def never(config):
            raise AssertionError("drew before the arguments were checked")

        monkeypatch.setattr(orthoscore.sim, "gen_dataset", never)
        with pytest.raises(ValueError, match=match):
            run_replications(DgpConfig(n=120), ("moment",), master_seed=0,
                             **kwargs)

    def test_master_seed_changes_replicates(self):
        a = run_replications(DgpConfig(n=120), ("moment",), 2, master_seed=1)
        b = run_replications(DgpConfig(n=120), ("moment",), 2, master_seed=2)
        assert a.by_method("moment").bias != b.by_method("moment").bias
