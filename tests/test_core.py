"""Tests for the shared data model: datasets, folds, intervals, seeds,
and the cross-fitting loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoscore import (
    Dataset,
    EstimationResult,
    FunctionEstimate,
    derive_seed,
    make_ci,
    normal_quantile,
    split_folds,
)
from orthoscore import late, plr, qte
from orthoscore.core import (BLOCK_ROWS, Q95, SEED_LATE_H, SEED_LATE_LARF,
                             SEED_LATE_LOG_ODDS, SEED_PLR, SEED_QTE_H,
                             SEED_QTE_LOG_ODDS, SEED_SPLIT, crossfit,
                             in_row_blocks)
from orthoscore.learners import MlpArchitecture, TrainConfig, fit_least_squares
from orthoscore.sim import DgpConfig, gen_dataset


class TestMakeCi:
    def test_unit_normal_interval(self):
        lo, hi = make_ci(0.0, 1.0, 1)
        assert lo == pytest.approx(-1.959964, abs=1e-12)
        assert hi == pytest.approx(1.959964, abs=1e-12)

    def test_zero_variance_collapses(self):
        assert make_ci(1.8, 0.0, 100) == (1.8, 1.8)

    def test_hand_computed_interval(self):
        # 2 +- 1.959964 * sqrt(4/400) = 2 +- 1.959964 * 0.1
        lo, hi = make_ci(2.0, 4.0, 400)
        assert lo == pytest.approx(1.8040036, abs=1e-7)
        assert hi == pytest.approx(2.1959964, abs=1e-7)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            make_ci(0.0, -1.0, 10)

    def test_interval_ordering(self):
        lo, hi = make_ci(3.7, 2.5, 57)
        assert lo <= 3.7 <= hi

    def test_q95_is_the_two_sided_95_quantile_to_six_places(self):
        # Fixed rather than computed so intervals keep their bits everywhere.
        assert Q95 == round(normal_quantile(0.975), 6)


class TestIntervalLevelIsFixed:
    """Every interval is the 95% one.  A caller who asks for another level
    gets a TypeError, never a 95% interval under the wrong name."""

    _DATA = Dataset(np.zeros((4, 1)), np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("call", [
        lambda: late.LateConfig(level=0.9),
        lambda: plr.PlrConfig(level=0.9),
        lambda: qte.QteConfig(level=0.9),
        lambda: make_ci(0.0, 1.0, 10, level=0.9),
        lambda: EstimationResult.from_folds((1.0, 2.0), 1.0, 10, "stub", 0,
                                            level=0.9),
        lambda: crossfit(TestIntervalLevelIsFixed._DATA, 0,
                         lambda *a: None, "stub", level=0.9),
    ], ids=["LateConfig", "PlrConfig", "QteConfig", "make_ci", "from_folds",
            "crossfit"])
    def test_level_is_not_accepted(self, call):
        with pytest.raises(TypeError,
                           match="unexpected keyword argument 'level'"):
            call()

    def test_result_carries_no_level(self):
        names = {f.name for f in dataclasses.fields(EstimationResult)}
        assert "level" not in names


class TestNormalQuantile:
    def test_against_scipy_grid(self):
        # Independent oracle: scipy's inverse normal CDF.
        ndtri = pytest.importorskip("scipy.special").ndtri
        grid = np.concatenate([
            np.array([1e-12, 1e-9, 1e-6, 0.001, 0.02424, 0.02426]),
            np.linspace(0.05, 0.95, 19),
            np.array([0.975, 0.999, 1 - 1e-6, 1 - 1e-9]),
        ])
        for p in grid:
            assert normal_quantile(float(p)) == pytest.approx(
                ndtri(p), abs=1e-9), p

    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(
                -normal_quantile(1 - p), abs=1e-12)

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestSplitFolds:
    def test_even_n_balanced(self):
        fs = split_folds(4, seed=0)
        assert len(fs[0]) == 2
        assert len(fs[1]) == 2

    def test_odd_n_differs_by_one(self):
        fs = split_folds(5, seed=3)
        sizes = sorted([len(fs[0]), len(fs[1])])
        assert sizes == [2, 3]

    def test_deterministic(self):
        a = split_folds(1000, seed=7)
        b = split_folds(1000, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_partition_is_bijection(self):
        fs = split_folds(101, seed=11)
        merged = np.sort(np.concatenate([fs[0], fs[1]]))
        np.testing.assert_array_equal(merged, np.arange(101))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="sample too small to split"):
            split_folds(3, seed=0)

    def test_seed_changes_assignment(self):
        a = split_folds(200, seed=0)
        b = split_folds(200, seed=1)
        assert not np.array_equal(a[0], b[0])

    @given(n=st.integers(min_value=4, max_value=400),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_properties_hold(self, n, seed):
        fs = split_folds(n, seed)
        i0, i1 = fs
        assert abs(len(i0) - len(i1)) <= 1
        merged = np.sort(np.concatenate([i0, i1]))
        np.testing.assert_array_equal(merged, np.arange(n))


def assert_same_dataset(got, want):
    """Same columns to the bit, read-only, and the same treatment flag."""
    assert type(got) is Dataset
    assert got.real_treatment == want.real_treatment
    for got_col, want_col in ((got.x, want.x), (got.y, want.y),
                              (got.d, want.d), (got.z, want.z)):
        if want_col is None:
            assert got_col is None
        else:
            assert got_col.dtype == want_col.dtype
            assert got_col.shape == want_col.shape
            assert got_col.tobytes() == want_col.tobytes()
            assert not got_col.flags.writeable


class TestDataset:
    def _cols(self, n=6):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        d = (rng.random(n) < 0.5).astype(float)
        z = (rng.random(n) < 0.5).astype(float)
        return x, y, d, z

    def test_round_trip_fields(self):
        x, y, d, z = self._cols()
        data = Dataset(x, y, d, z)
        assert data.n == 6
        assert data.p == 3
        np.testing.assert_array_equal(data.y, y)

    def test_length_mismatch_rejected(self):
        x, y, d, z = self._cols()
        with pytest.raises(ValueError, match="same length"):
            Dataset(x, y[:-1], d, z)

    def test_non_finite_rejected(self):
        x, y, d, z = self._cols()
        y = y.copy()
        y[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x, y, d, z)

    def test_non_binary_instrument_rejected(self):
        x, y, d, z = self._cols()
        z = z.copy()
        z[0] = 0.5
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            Dataset(x, y, d, z)

    def test_non_binary_treatment_rejected_with_instrument(self):
        x, y, d, z = self._cols()
        d = d + 0.25
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            Dataset(x, y, d, z)

    def test_real_treatment_opt_out(self):
        x, y, d, _ = self._cols()
        data = Dataset(x, y, d + 0.25, None, real_treatment=True)
        assert data.z is None

    def test_real_treatment_does_not_relax_instrument_designs(self):
        x, y, d, z = self._cols()
        with pytest.raises(ValueError):
            Dataset(x, y, d + 0.25, z, real_treatment=True)

    def test_columns_are_read_only(self):
        x, y, d, z = self._cols()
        data = Dataset(x, y, d, z)
        with pytest.raises(ValueError):
            data.y[0] = 99.0

    def test_subset_preserves_rows(self):
        x, y, d, z = self._cols()
        data = Dataset(x, y, d, z)
        sub = data.subset(np.array([1, 3]))
        assert sub.n == 2
        np.testing.assert_array_equal(sub.y, y[[1, 3]])
        np.testing.assert_array_equal(sub.x, x[[1, 3]])

    @pytest.mark.parametrize("idx", [
        np.array([1, 3]), np.array([5, 0, 5, 2]), np.array([-1, -6, 2]),
        [4, -2], np.array([], dtype=int), [], np.array([3], dtype=np.int32),
        np.array([2, 1], dtype=np.uint8), np.array([True, False, True, True, False, True]),
        np.zeros(6, dtype=bool), [False, True, False, False, False, True],
        4, np.int64(-2), np.array(3),
    ], ids=repr)
    @pytest.mark.parametrize("instrument", [True, False])
    def test_subset_equals_fancy_indexing(self, idx, instrument):
        # The subset skips the checks; the checking constructor on the
        # same rows must give the same Dataset.
        x, y, d, z = self._cols()
        if not instrument:
            z = None
        sub = Dataset(x, y, d, z).subset(idx)
        want = Dataset(x[idx], y[idx], d[idx], None if z is None else z[idx])
        assert_same_dataset(sub, want)

    @pytest.mark.parametrize("idx", [
        np.array([5, 0, 2]), [1, 4], np.array([], dtype=int),
        np.array([False, True, True, False, False, True]),
    ], ids=repr)
    def test_subset_keeps_a_real_treatment(self, idx):
        x, y, d, _ = self._cols()
        sub = Dataset(x, y, d + 0.25, real_treatment=True).subset(idx)
        want = Dataset(x[idx], y[idx], (d + 0.25)[idx], real_treatment=True)
        assert_same_dataset(sub, want)

    def test_subset_rejects_a_two_dimensional_index(self):
        x, y, d, z = self._cols()
        with pytest.raises(ValueError, match="one-dimensional"):
            Dataset(x, y, d, z).subset(np.array([[0], [2]]))

    @pytest.mark.parametrize("idx", [
        np.array([1.0, 3.0]), np.array([]), np.array([6]), np.array([-7]),
        np.array([True, False]), np.ones(7, dtype=bool),
    ], ids=repr)
    def test_subset_rejects_what_fancy_indexing_rejects(self, idx):
        x, y, d, z = self._cols()
        with pytest.raises(IndexError):
            Dataset(x, y, d, z).subset(idx)


class TestFunctionEstimate:
    def test_batch_and_single_agree(self):
        fn = FunctionEstimate(lambda x: x[:, 0] ** 2)
        x = np.array([[2.0, 1.0], [3.0, -1.0]])
        np.testing.assert_allclose(fn(x), [4.0, 9.0])
        assert fn(np.array([[3.0, -1.0]]))[0] == 9.0

    def test_batch_requires_matrix(self):
        fn = FunctionEstimate(lambda x: x[:, 0])
        with pytest.raises(ValueError, match="matrix"):
            fn(np.zeros(5))

    def test_constant_factory(self):
        c = FunctionEstimate.constant(2.5)
        np.testing.assert_allclose(c(np.zeros((4, 3))), 2.5)


class TestInRowBlocks:
    def test_one_block_or_less_runs_once_on_the_columns_themselves(self):
        x, y = np.zeros((BLOCK_ROWS, 2)), np.ones(BLOCK_ROWS)
        seen = []

        def formula(*cols):
            seen.append(cols)
            return y

        assert in_row_blocks(formula, x, y) is y
        assert len(seen) == 1 and seen[0][0] is x and seen[0][1] is y

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 17])
    def test_longer_inputs_run_on_consecutive_blocks(self, n):
        x = np.arange(3.0 * n).reshape(n, 3)
        y = np.arange(n) * 0.5
        starts = []

        def formula(xb, yb):
            assert xb.shape[0] == yb.shape[0] <= BLOCK_ROWS
            starts.append(int(yb[0] * 2))
            return xb[:, 0] + yb

        total = in_row_blocks(formula, x, y)
        assert starts == list(range(0, n, BLOCK_ROWS))
        assert total.shape == (n,) and total.dtype == np.float64
        np.testing.assert_array_equal(total, x[:, 0] + y)


class TestMeansAreNpMean:
    """Fold means are np.mean's sum and divide, bit for bit."""

    ROWS = 8193     # past numpy's 8-way unrolled and 128-element pairwise blocks

    def _scores(self, seed):
        return np.random.default_rng(seed).standard_normal(self.ROWS) * 3.0 + 0.7

    def test_solve_beta_linear(self):
        a = self._scores(1)
        fold = Dataset(np.zeros((self.ROWS, 1)), a, np.zeros(self.ROWS))
        got = late.solve_beta_linear(lambda beta, ds: ds.y - beta, fold)
        assert got.hex() == float(np.mean(a)).hex()

    def test_crossfit_pools_fold_variances_and_estimates(self):
        data = Dataset(np.zeros((2 * self.ROWS, 1)), np.zeros(2 * self.ROWS),
                       np.zeros(2 * self.ROWS))
        steps = {0: (0.1, self._scores(2), -1.0), 1: (0.2, self._scores(3), 0.3)}
        res = crossfit(data, 5, lambda train, est, k: steps[k], "stub")
        fold_vars = [float(np.mean(s * s)) / slope ** 2 for _, s, slope in steps.values()]
        assert res.sigma2_hat.hex() == float(np.mean(fold_vars)).hex()
        assert res.beta_hat.hex() == float(np.mean([0.1, 0.2])).hex()

    def test_from_folds_beta_hat(self):
        rng = np.random.default_rng(4)
        for count in (1, 2, 3, 9):
            for _ in range(50):
                betas = rng.standard_normal(count) * 10.0 ** rng.integers(-3, 4)
                res = EstimationResult.from_folds(betas, 1.0, 10, "m", 0)
                assert res.beta_hat.hex() == float(np.mean(betas)).hex()


class TestEstimationResult:
    def test_from_folds_invariants(self):
        res = EstimationResult.from_folds(
            [1.7, 1.9], sigma2_hat=4.0, n=400, method="demo", seed=5)
        assert res.beta_hat == pytest.approx(1.8)
        assert res.std_err == pytest.approx(math.sqrt(4.0 / 400))
        assert res.ci_low <= res.beta_hat <= res.ci_high
        assert res.fold_betas == (1.7, 1.9)

    def test_bit_identical_reconstruction(self):
        a = EstimationResult.from_folds([0.3, 0.5, 0.7], 1.0, 99, "m", 1)
        b = EstimationResult.from_folds([0.3, 0.5, 0.7], 1.0, 99, "m", 1)
        assert a == b


class TestDeriveSeed:
    def test_stable_value(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_path_sensitivity(self):
        # Trailing zero path segments alias upstream (entropy padding),
        # so distinctness is asserted on paths that differ elsewhere.
        seen = {derive_seed(42), derive_seed(42, 1), derive_seed(42, 2),
                derive_seed(42, 1, 1), derive_seed(43)}
        assert len(seen) == 5

    def test_uint64_range(self):
        for s in (derive_seed(0), derive_seed(2**31, 5, 5, 5)):
            assert 0 <= s < 2**64


class TestNetSeedPaths:
    """Every net fit of a pipeline draws its seed from the SEED_* table.

    Net fits are not portable across hosts, so no golden pins them;
    this pins the (loss, seed) sequence they are trained with instead.
    """

    SEED = 6
    TINY = dict(arch=MlpArchitecture(depth=1, width=4),
                train=TrainConfig(epochs=2, batch_size=32, weight_decay=1.0))

    def _record(self, monkeypatch, module):
        calls = []
        fit = module.fit_mlp

        def recording(x, targets, loss="squared_error", weights=None,
                      arch=None, config=None):
            calls.append((loss, config.seed))
            return fit(x, targets, loss, weights, arch, config)

        monkeypatch.setattr(module, "fit_mlp", recording)
        return calls

    def _seed(self, *path):
        return derive_seed(self.SEED, *path)

    @pytest.mark.parametrize("method", ["robust_np", "reg_np"])
    def test_late(self, method, monkeypatch):
        calls = self._record(monkeypatch, late)
        iv, _ = gen_dataset(DgpConfig(n=200, seed=1))
        late.late_crossfit(iv, late.LateConfig(method=method, seed=self.SEED,
                                               **self.TINY))
        want = []
        for k in range(2):
            want.append(("cross_entropy_on_logits",
                         self._seed(SEED_LATE_LOG_ODDS, k)))
            if method == "robust_np":
                want.append(("squared_error", self._seed(SEED_LATE_H, k)))
            else:
                want += [("weighted_squared_error", self._seed(SEED_LATE_LARF + t, k))
                         for t in (0, 1)]
        assert calls == want

    def test_plr(self, monkeypatch):
        calls = self._record(monkeypatch, plr)
        iv, _ = gen_dataset(DgpConfig(n=200, seed=1))
        plr.plr_crossfit(Dataset(iv.x, iv.y, iv.d),
                         plr.PlrConfig(learner="mlp", seed=self.SEED, **self.TINY))
        assert calls == [("squared_error", self._seed(SEED_PLR, j))
                         for j in range(4)]

    def test_qte(self, monkeypatch):
        calls = self._record(monkeypatch, qte)
        iv, _ = gen_dataset(DgpConfig(n=200, seed=1))
        qte.qte_crossfit(Dataset(iv.x, iv.y, iv.d),
                         qte.QteConfig(learner="mlp", seed=self.SEED, **self.TINY))
        want = []
        for k in range(2):
            want += [("cross_entropy_on_logits", self._seed(SEED_QTE_LOG_ODDS, k)),
                     ("squared_error", self._seed(SEED_QTE_H, k))]
        assert calls == want


class TestCrossfit:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_variance_raises(self):
        # Finite fold estimates whose squared scores overflow.
        data = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6), np.zeros(6))

        def fit_fold(train, est, k):
            return 1.0, np.array([-1e300, 1e300]), -1.0

        with pytest.raises(ValueError, match="^non-finite variance$"):
            crossfit(data, 4, fit_fold, "stub")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["robust_lr", "moment", "reg_lr", "plr"])
    def test_outcome_scaled_by_1e300_fails_instead_of_an_infinite_interval(self, name):
        # The fold estimates stay finite, but mean(scores^2) overflows;
        # the interval would have been (-inf, inf).
        iv, _ = gen_dataset(DgpConfig(n=400, seed=3))
        y = iv.y * 1e300
        if name == "plr":
            run = lambda: plr.plr_crossfit(Dataset(iv.x, y, iv.d), plr.PlrConfig(seed=1))
        else:
            run = lambda: late.late_crossfit(Dataset(iv.x, y, iv.d, iv.z),
                                             late.LateConfig(method=name, seed=1))
        with pytest.raises(ValueError, match="^non-finite variance$"):
            run()

    def test_underflowed_variance_raises(self):
        # Nonzero scores whose squares underflow to 0.
        data = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6), np.zeros(6))

        def fit_fold(train, est, k):
            return 1.0, np.array([-1e-200, 1e-200 * k]), -1.0

        with pytest.raises(ValueError, match="^variance underflows to 0$"):
            crossfit(data, 4, fit_fold, "stub")

    def test_scores_that_are_all_zero_give_variance_0(self):
        data = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6), np.zeros(6))
        res = crossfit(data, 4, lambda train, est, k: (1.0, np.zeros(3), -1.0), "stub")
        assert res.sigma2_hat == 0.0 and res.ci_low == res.ci_high == 1.0

    @pytest.mark.parametrize("name", ["robust_lr", "moment", "reg_lr", "plr"])
    def test_outcome_scaled_by_1e_minus_300_fails_instead_of_a_zero_width_interval(
            self, name):
        # The fold estimates are about 2e-300, but every squared score
        # underflows; the interval would have had width 0.
        iv, _ = gen_dataset(DgpConfig(n=400, seed=3))
        y = iv.y * 1e-300
        if name == "plr":
            run = lambda: plr.plr_crossfit(Dataset(iv.x, y, iv.d), plr.PlrConfig(seed=1))
        else:
            run = lambda: late.late_crossfit(Dataset(iv.x, y, iv.d, iv.z),
                                             late.LateConfig(method=name, seed=1))
        with pytest.raises(ValueError, match="^variance underflows to 0$"):
            run()

    def test_fold_variance_is_mean_square_score_over_squared_slope(self):
        # Fold 0: mean([-1, 1]^2) / (-1)^2 = 1; fold 1: 1 / 2^2 = 0.25.
        data = Dataset(np.arange(12.0).reshape(6, 2), np.zeros(6), np.zeros(6))
        steps = {0: (1.0, -1.0), 1: (3.0, 2.0)}
        seen = []

        def fit_fold(train, est, k):
            seen.append((train.n, est.n))
            beta_k, slope = steps[k]
            return beta_k, np.array([-1.0, 1.0]), slope

        res = crossfit(data, 4, fit_fold, "stub")
        assert seen == [(3, 3), (3, 3)]
        assert res.fold_betas == (1.0, 3.0) and res.beta_hat == 2.0
        assert res.sigma2_hat == 0.625
        assert (res.method, res.n, res.seed) == ("stub", 6, 4)

    def test_plr_variance_is_the_mean_fold_sandwich(self):
        iv, _ = gen_dataset(DgpConfig(n=300, seed=2))
        data = Dataset(iv.x, iv.y, iv.d)
        res = plr.plr_crossfit(data, plr.PlrConfig(seed=9))
        rows = split_folds(data.n, derive_seed(9, SEED_SPLIT))
        fold_vars = []
        for k in (0, 1):
            train = data.subset(rows[1 - k])
            est = data.subset(rows[k])
            r_d = est.d - fit_least_squares(train.x, train.d)(est.x)
            r_y = est.y - fit_least_squares(train.x, train.y)(est.x)
            psi = plr.partialled_score(res.fold_betas[k], r_d, r_y)
            fold_vars.append(np.mean(psi * psi) / np.mean(r_d * r_d) ** 2)
        assert res.sigma2_hat == float(np.mean(fold_vars))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["late", "plr", "qte"])
    def test_tiny_sample_too_small_to_split(self, name, n):
        # Constant treatment and instrument: a size check that ran after
        # the degeneracy checks would report those instead, and one that
        # ran after reading row 0 would fail with IndexError at n = 0.
        ones = np.ones(n)
        x = np.arange(4.0 * n).reshape(n, 4)
        run = {
            "late": lambda: late.late_crossfit(Dataset(x, ones, ones, ones),
                                               late.LateConfig(method="robust_lr")),
            "plr": lambda: plr.plr_crossfit(Dataset(x, ones, ones)),
            "qte": lambda: qte.qte_crossfit(Dataset(x, ones, ones), qte.QteConfig()),
        }[name]
        with pytest.raises(ValueError, match="^sample too small to split$"):
            run()

    @pytest.mark.parametrize("n", [4, 5])
    def test_smallest_splits_are_two_and_the_rest(self, n):
        for seed in range(20):
            fs = split_folds(n, seed)
            assert (len(fs[0]), len(fs[1])) == (2, n - 2)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("name, error, message", [
        ("robust_lr", RuntimeError, "fold 0: underdetermined"),
        ("moment", RuntimeError, "fold 0: underdetermined"),
        ("reg_lr", RuntimeError, "fold 0: underdetermined"),
        ("plr", ValueError, "underdetermined"),
        ("qte", ValueError, "underdetermined"),
    ])
    def test_smallest_splits_fail_with_the_fit_error(self, n, name, error, message):
        # Two or three training rows cannot determine a linear fit in
        # four covariates and an intercept.
        iv, _ = gen_dataset(DgpConfig(n=n, seed=1))
        plain = Dataset(iv.x, iv.y, iv.d)
        if name == "plr":
            run = lambda: plr.plr_crossfit(plain)
        elif name == "qte":
            run = lambda: qte.qte_crossfit(plain, qte.QteConfig())
        else:
            run = lambda: late.late_crossfit(iv, late.LateConfig(method=name))
        with pytest.raises(Exception) as info:
            run()
        assert type(info.value) is error
        assert str(info.value) == message
