"""Tests for the nuisance learners: weighted LS, logistic, MLP."""

import math
from dataclasses import replace

import numpy as np
import pytest

from orthoscore import late, learners
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.learners import (
    NEWTON_GRAD_TOL,
    NEWTON_MAX_ITER,
    AffineEstimate,
    MlpArchitecture,
    MlpEstimate,
    TrainConfig,
    TrainingDiverged,
    _check_loss_args,
    _init_params,
    _validate_design,
    expit,
    fit_least_squares,
    fit_logistic,
    fit_mlp,
    gradient_check,
    pipeline_train_config,
)
from orthoscore.sim import DgpConfig, gen_dataset


def _wls_oracle(x, y, weights=None):
    """Closed-form weighted normal equations, solved independently."""
    design = np.column_stack([np.ones(len(y)), x])
    w = np.ones(len(y)) if weights is None else np.asarray(weights, float)
    gram = design.T @ (w[:, None] * design)
    rhs = design.T @ (w * y)
    return np.linalg.pinv(gram) @ rhs


class TestLeastSquares:
    def test_exact_line_through_points(self):
        est = fit_least_squares(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert est(np.array([[3.0]]))[0] == pytest.approx(6.0, abs=1e-10)

    def test_constant_target_gives_constant_fit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        est = fit_least_squares(x, np.full(40, 2.75))
        np.testing.assert_allclose(est(x), 2.75, atol=1e-10)

    def test_zero_weight_drops_rows(self):
        # Weighting out the third row leaves the line through the
        # first two: y = x, so evaluate(2) = 2.
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 4.0])
        est = fit_least_squares(x, y, weights=np.array([1.0, 1.0, 0.0]))
        assert est(np.array([[2.0]]))[0] == pytest.approx(2.0, abs=1e-9)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        w = rng.uniform(0.1, 2.0, size=60)
        est = fit_least_squares(x, y, weights=w)
        oracle = _wls_oracle(x, y, w)
        assert est.intercept == pytest.approx(oracle[0], abs=1e-8)
        np.testing.assert_allclose(est.coef, oracle[1:], atol=1e-8)

    def test_signed_weights_accepted(self):
        # Signed weights are part of the contract; the solution still
        # satisfies the (indefinite) weighted normal equations.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        w = rng.normal(size=50)
        est = fit_least_squares(x, y, weights=w)
        oracle = _wls_oracle(x, y, w)
        np.testing.assert_allclose(
            np.concatenate([[est.intercept], est.coef]), oracle, atol=1e-7)

    def test_unweighted_equals_unit_weights(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        a = fit_least_squares(x, y)
        b = fit_least_squares(x, y, weights=np.ones(30))
        assert a.intercept == pytest.approx(b.intercept, abs=1e-10)
        np.testing.assert_allclose(a.coef, b.coef, atol=1e-10)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            fit_least_squares(np.eye(3), np.ones(3))

    def test_non_finite_rejected(self):
        x = np.array([[1.0], [2.0], [np.inf]])
        with pytest.raises(ValueError):
            fit_least_squares(x, np.ones(3))


def _reference_fit_least_squares(x, y, weights=None):
    """The least-squares fit as it was when it asked ``np.linalg.cond``
    for the condition number, kept verbatim so that the singular-value
    ratio it now computes can be compared with it bit for bit."""
    x, y = _validate_design(x, y)
    n, p = x.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    a = np.column_stack([np.ones(n), x])
    gram = a.T @ (a * w[:, None])
    rhs = a.T @ (w * y)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        gram = gram + (1e-8 * np.trace(gram) / gram.shape[0]) * np.eye(gram.shape[0])
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate weighted design") from exc
    return AffineEstimate(theta[0], theta[1:], label="least squares")


def _reference_standardized_fit(x, y, weights=None):
    """The fallback of an ill-conditioned least-squares fit, written out:
    the cond-form fit of ``_reference_fit_least_squares`` on the
    standardized design [1, (x - mean) / sd] (a column with sd 0 only
    centred), its coefficients mapped back to the units of x."""
    x, y = _validate_design(x, y)
    mean = np.mean(x, axis=0)
    sd = np.std(x, axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    fit = _reference_fit_least_squares((x - mean) / sd, y, weights)
    coef = fit.coef / sd
    return AffineEstimate(fit.intercept - mean @ coef, coef, label="least squares")


def _ridge_design(kind):
    """(x, y, weights, cond of the weighted Gram matrix is past 1e12)."""
    rng = np.random.default_rng(16)
    x = rng.normal(size=(80, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=80)
    if kind == "well conditioned":
        return x, y, rng.uniform(0.5, 2.0, size=80), False
    if kind == "duplicated column":
        return np.column_stack([x, x[:, 1]]), y, None, True
    if kind == "near-collinear pair":
        near = x[:, 0] + 1e-6 * rng.normal(size=80)     # cond about 6e12
        return np.column_stack([x, near]), y, None, True
    return x, y, np.zeros(80), True     # all-zero weights: a NaN ratio


class TestLeastSquaresRidgeFallback:
    @pytest.mark.parametrize("kind", ["well conditioned", "duplicated column",
                                      "near-collinear pair", "all-zero weights"])
    def test_hex_equal_to_the_cond_form(self, kind):
        x, y, w, ill = _ridge_design(kind)
        a = np.column_stack([np.ones(len(y)), x])
        gram = a.T @ (a * (np.ones(len(y)) if w is None else w)[:, None])
        cond = np.linalg.cond(gram)
        assert (not np.isfinite(cond) or cond > 1e12) == ill
        if kind == "all-zero weights":
            for fit in (fit_least_squares, _reference_fit_least_squares):
                with pytest.raises(ValueError, match="^degenerate weighted design$"):
                    fit(x, y, w)
            return
        got = fit_least_squares(x, y, weights=w)
        # An ill-conditioned design is refitted in standardized units.
        reference = _reference_standardized_fit if ill else _reference_fit_least_squares
        want = reference(x, y, weights=w)
        assert got.intercept.hex() == want.intercept.hex()
        assert [c.hex() for c in got.coef] == [c.hex() for c in want.coef]

    @pytest.mark.parametrize("seed", range(12))
    def test_predictions_do_not_depend_on_the_covariates_units(self, seed):
        # An affine map of x that pushes the Gram matrix's condition
        # number past 1e12 sends the fit to its standardized refit; the
        # predictions are those of the well-conditioned raw fit.
        rng = np.random.default_rng(seed)
        n, p = 300, 3
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=p) + np.sin(x[:, 0]) + rng.normal(size=n)
        w = None if seed % 2 else rng.uniform(-0.5, 2.0, size=n)
        # One column in units of 1e-6, the others in units from 1 to 1e-3,
        # each origin 1e3 to 2e3 away: no value of the moved x loses more
        # than about 1e-13 of its x to rounding.
        scale = 10.0 ** rng.uniform(0.0, 3.0, size=p) * rng.choice([-1.0, 1.0], size=p)
        scale[seed % p] = 1e6 * np.sign(scale[seed % p])
        shift = rng.uniform(1e3, 2e3, size=p) * rng.choice([-1.0, 1.0], size=p)
        moved = x * scale + shift
        for design, ill in ((x, False), (moved, True)):
            a = np.column_stack([np.ones(n), design])
            gram = a.T @ (a * (np.ones(n) if w is None else w)[:, None])
            assert (np.linalg.cond(gram) > 1e12) == ill
        want = fit_least_squares(x, y, weights=w)(x)
        got = fit_least_squares(moved, y, weights=w)(moved)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_constant_column_is_absorbed_by_the_intercept(self):
        # A constant column duplicates the intercept; centred, it is all
        # zeros, the standardized Gram matrix is singular and the ridge
        # gives that column a zero coefficient.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        y = x @ np.array([1.0, -1.0]) + rng.normal(size=200)
        fit = fit_least_squares(np.column_stack([x, np.full(200, 7.0)]), y)
        want = fit_least_squares(x, y)
        assert fit.coef[2] == 0.0
        np.testing.assert_allclose(fit.coef[:2], want.coef, rtol=1e-6)
        np.testing.assert_allclose(fit.intercept, want.intercept, rtol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_covariates_past_1e154_raise_without_a_lapack_message(self, capfd):
        # The Gram matrix of x * 1e200 overflows; SVD would print LAPACK's
        # "DLASCL ... illegal value" to stderr and the fit return zero slopes.
        iv, _ = gen_dataset(DgpConfig(n=400, seed=3))
        with pytest.raises(ValueError, match="^covariate scale overflows$"):
            fit_least_squares(iv.x * 1e200, iv.y)
        assert capfd.readouterr().err == ""

    def test_covariates_at_1e150_still_fit(self, capfd):
        iv, _ = gen_dataset(DgpConfig(n=400, seed=3))
        x = iv.x * 1e150
        fit = fit_least_squares(x, iv.y)
        pred = fit(x)
        assert np.isfinite(pred).all()
        np.testing.assert_allclose(pred, fit_least_squares(iv.x, iv.y)(iv.x),
                                   rtol=1e-8, atol=1e-8)
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_weights_that_overflow_the_standardized_gram_raise(self, capfd):
        iv, _ = gen_dataset(DgpConfig(n=400, seed=3))
        with pytest.raises(ValueError, match="^weighted Gram matrix overflows$"):
            fit_least_squares(iv.x, iv.y, weights=np.full(400, 1e307))
        assert capfd.readouterr().err == ""


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestSameBitsForms:
    """The linear path's fast forms against the numpy forms they replace."""

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_design_is_column_stack(self, n, p):
        x = np.random.default_rng(10 * n + p).standard_normal((n, p))
        want = np.column_stack([np.ones(n), x])
        assert want.flags.c_contiguous
        # column_stack keeps a Fortran-ordered x's layout; _design does not.
        for x_in in (x, np.asfortranarray(x), x.repeat(2, axis=1)[:, ::2]):
            got = learners._design(x_in)
            assert got.flags.c_contiguous
            assert got.shape == want.shape == (n, p + 1)
            assert _hex(got) == _hex(want)

    def test_affine_fits_do_not_depend_on_the_layout_of_x(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((600, 4))
        y = x @ np.array([1.0, -0.5, 0.25, 2.0]) + rng.normal(size=600)
        labels = (rng.random(600) < expit(x[:, 0] - x[:, 2])).astype(float)
        for fit, target in ((fit_least_squares, y), (fit_logistic, labels)):
            want = fit(x, target)
            got = fit(np.asfortranarray(x), target)
            assert _hex([got.intercept, *got.coef]) == _hex([want.intercept, *want.coef])

    def test_clip_propensity_is_np_clip(self):
        eps = learners.CLIP_EPSILON
        edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, eps, 1.0 - eps,
                 np.nextafter(eps, 0.0), np.nextafter(1.0 - eps, 2.0), 0.5]
        g = np.concatenate([edges, np.random.default_rng(5).uniform(-0.5, 1.5, 999)])
        got = learners.clip_propensity(g)
        assert _hex(got) == _hex(np.clip(g, eps, 1.0 - eps))
        assert _hex(got[:7]) == _hex([np.nan, 1.0 - eps, eps, eps, eps, eps, 1.0 - eps])
        for value in edges:
            got = learners.clip_propensity(np.array(value))
            want = np.clip(np.array(value), eps, 1.0 - eps)
            assert type(got) is type(want) and np.shape(got) == np.shape(want) == ()
            assert float(got).hex() == float(want).hex()

    def test_unweighted_least_squares_at_100k_rows(self):
        # Large enough that BLAS blocks the Gram product; the design built
        # by _design must still give the reference's bits.
        rng = np.random.default_rng(24)
        x = rng.uniform(-1.0, 1.0, size=(100_000, 4))
        y = x @ np.array([0.3, -1.2, 2.0, 0.7]) + np.sin(3.0 * x[:, 0]) + rng.normal(size=100_000)
        got = fit_least_squares(x, y)
        want = _reference_fit_least_squares(x, y)
        assert got.intercept.hex() == want.intercept.hex()
        assert _hex(got.coef) == _hex(want.coef)
        ones = fit_least_squares(x, y, weights=np.ones(100_000))
        assert _hex([ones.intercept, *ones.coef]) == _hex([got.intercept, *got.coef])


class TestLogistic:
    def test_no_signal_fits_marginal_rate(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4000, 3))
        labels = (rng.random(4000) < 0.5).astype(float)
        est = fit_logistic(x, labels)
        rate = labels.mean()
        assert est.intercept == pytest.approx(np.log(rate / (1 - rate)),
                                              abs=0.1)
        np.testing.assert_allclose(est.coef, 0.0, atol=0.1)

    def test_recovers_affine_log_odds(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(20000, 2))
        f = 0.5 + 1.2 * x[:, 0] - 0.7 * x[:, 1]
        labels = (rng.random(20000) < expit(f)).astype(float)
        est = fit_logistic(x, labels)
        assert est.intercept == pytest.approx(0.5, abs=0.1)
        np.testing.assert_allclose(est.coef, [1.2, -0.7], atol=0.1)

    def test_monotone_sign_matches_grid_oracle(self):
        # 1-d two-point design, noiseless labels: any loss-improving
        # solution must slope upward; confirmed by a brute-force scan.
        x = np.array([[-1.0], [1.0]] * 100)
        labels = np.array([0.0, 1.0] * 100)
        est = fit_logistic(x, labels)
        assert est.coef[0] > 0

        def loss(slope):
            f = slope * x[:, 0]
            return np.mean(np.log1p(np.exp(f)) - labels * f)

        grid = np.linspace(-5, 5, 201)
        assert grid[np.argmin([loss(s) for s in grid])] > 0

    def test_newton_losses_non_increasing(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(500, 3))
        labels = (rng.random(500) < expit(x[:, 0])).astype(float)
        est = fit_logistic(x, labels)
        diffs = np.diff(est.newton_losses)
        assert np.all(diffs <= 1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="degenerate labels"):
            fit_logistic(np.zeros((10, 1)), np.ones(10))

    def test_no_rows_rejected(self):
        # Before the label checks, which would read labels[0].
        with pytest.raises(ValueError, match="^no rows$"):
            fit_logistic(np.empty((0, 2)), np.empty(0))

    def test_separable_data_stays_finite(self):
        x = np.linspace(-1, 1, 50)[:, None]
        labels = (x[:, 0] > 0).astype(float)
        est = fit_logistic(x, labels)
        assert np.isfinite(est.intercept)
        assert np.all(np.isfinite(est.coef))
        assert np.all(np.isfinite(est(x)))


def _reference_fit_logistic(x, labels):
    """The damped Newton loop that recomputed a @ theta after every
    accepted step, kept verbatim so that the loop reusing the line
    search's logits can be compared with it bit for bit."""
    x, labels = _validate_design(x, labels)
    n, p = x.shape
    a = np.column_stack([np.ones(n), x])
    theta = np.zeros(p + 1)
    f = a @ theta
    losses = [learners._loss_value(f, labels, "cross_entropy_on_logits", None)]
    for _ in range(NEWTON_MAX_ITER):
        g = expit(f)
        grad = a.T @ (g - labels) / n
        if np.linalg.norm(grad) <= NEWTON_GRAD_TOL:
            break
        curv = np.clip(g * (1.0 - g), 1e-12, None)
        hess = (a * curv[:, None]).T @ a / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-12 * np.trace(hess)) * np.eye(p + 1)
            step = np.linalg.solve(hess, grad)
        t = 1.0
        moved = False
        while t > 1e-14:
            cand = theta - t * step
            cand_loss = learners._loss_value(a @ cand, labels,
                                             "cross_entropy_on_logits", None)
            if cand_loss <= losses[-1]:
                theta, moved = cand, True
                losses.append(cand_loss)
                break
            t /= 2.0
        if not moved:
            break
        f = a @ theta
    est = AffineEstimate(theta[0], theta[1:], label="logistic log-odds")
    est.newton_losses = tuple(losses)
    return est


def _logistic_design(seed):
    """Designs from balanced to rare labels; one in five is separable."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 3000))
    p = int(rng.integers(1, 6))
    x = rng.normal(size=(n, p)) * rng.uniform(0.2, 5.0, size=p) + rng.normal(size=p)
    f = rng.normal() + x @ rng.normal(size=p) * rng.uniform(0.1, 3.0)
    if seed % 5 == 4:
        # Separable in covariates of order 1e6: the gradient, taken in
        # those units, stays above the tolerance until the cap.
        return 1e6 * x, (f > np.median(f)).astype(float)
    labels = (rng.random(n) < expit(f)).astype(float)
    labels[:2] = (0.0, 1.0)
    return x, labels


class TestNewtonReusesLineSearchLogits:
    @pytest.mark.parametrize("seed", range(20))
    def test_hex_equal_to_the_recomputing_loop(self, seed):
        x, labels = _logistic_design(seed)
        got = fit_logistic(x, labels)
        want = _reference_fit_logistic(x, labels)
        assert got.intercept.hex() == want.intercept.hex()
        assert [c.hex() for c in got.coef] == [c.hex() for c in want.coef]
        assert ([v.hex() for v in got.newton_losses]
                == [v.hex() for v in want.newton_losses])

    def test_separable_designs_run_to_the_iteration_cap(self):
        iters = [len(fit_logistic(*_logistic_design(seed)).newton_losses) - 1
                 for seed in range(4, 20, 5)]
        assert iters == [NEWTON_MAX_ITER] * 4


def _cross_entropy_rows(f, labels):
    """The per-row cross-entropy that ``learners._loss_value`` sums."""
    terms = (np.empty_like(f), np.empty_like(f))
    learners._loss_value(f, labels, "cross_entropy_on_logits", None, terms)
    return terms[0]


def _logaddexp_rows(f, labels):
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, f) - labels * f


def _wide_logits():
    return np.concatenate([np.random.default_rng(31).uniform(-40.0, 40.0, 1_000_000),
                           [36.7, -36.7, 745.0, -745.0, 800.0, -800.0]])


class TestSoftplusCrossEntropy:
    """The loss's softplus against np.logaddexp(0, f), which it replaced."""

    def test_softplus_within_4_ulp_of_logaddexp(self):
        f = _wide_logits()
        got = _cross_entropy_rows(f, np.zeros(f.size))
        want = np.logaddexp(0.0, f)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    def test_cross_entropy_within_4_ulp_of_its_larger_term(self):
        # With label 1, -f cancels against the softplus: an ULP of f is
        # many ULP of the difference, in this formula and the old one.
        f = _wide_logits()
        labels = (np.random.default_rng(32).random(f.size) < 0.5).astype(float)
        got = _cross_entropy_rows(f, labels)
        want = _logaddexp_rows(f, labels)
        scale = np.maximum(np.logaddexp(0.0, f), np.abs(labels * f))
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale))

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_non_finite_logits_give_the_logaddexp_rows(self, label):
        # fit_mlp raises TrainingDiverged on a loss that is not finite.
        f = np.array([np.inf, -np.inf, np.nan, 0.5])
        labels = np.full(4, label)
        with np.errstate(invalid="ignore"):
            got = _cross_entropy_rows(f, labels)
        np.testing.assert_array_equal(got, _logaddexp_rows(f, labels))
        # The softplus is inf, 0 and NaN; label * f makes NaN of inf - inf
        # and of 0 * inf.
        np.testing.assert_array_equal(got[:3], [np.nan, np.inf if label else np.nan, np.nan])

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_zero_logits_cost_exactly_log_two(self, label):
        got = _cross_entropy_rows(np.array([0.0, -0.0]), np.full(2, label))
        assert _hex(got) == _hex([math.log(2.0)] * 2)

    def test_fit_logistic_first_loss_is_the_computed_one(self):
        x, labels = _logistic_design(3)
        want = learners._loss_value(np.zeros(labels.size), labels,
                                    "cross_entropy_on_logits", None)
        assert fit_logistic(x, labels).newton_losses[0].hex() == want.hex()


def _logaddexp_fit_logistic(x, labels):
    """fit_logistic's damped Newton loop as it was when the line search
    priced candidates with np.logaddexp(0, f), kept so that the
    softplus loss can be shown to move no coefficient."""
    x, labels = _validate_design(x, labels)
    n, p = x.shape
    a = learners._design(x)
    theta = np.zeros(p + 1)
    losses = [float(np.add.reduce(np.full(n, math.log(2.0)))) / n]
    g = np.full(n, 0.5)
    for _ in range(NEWTON_MAX_ITER):
        grad = a.T @ (g - labels) / n
        if math.sqrt(grad.dot(grad)) <= NEWTON_GRAD_TOL:
            break
        curv = np.maximum(g * (1.0 - g), 1e-12)
        hess = (a * curv[:, None]).T @ a / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-12 * np.trace(hess)) * np.eye(p + 1)
            step = np.linalg.solve(hess, grad)
        t = 1.0
        moved = False
        while t > 1e-14:
            cand = theta - t * step
            cand_f = a @ cand
            cand_loss = float(np.add.reduce(np.logaddexp(0.0, cand_f)
                                            - labels * cand_f)) / n
            if cand_loss <= losses[-1]:
                theta, g, moved = cand, expit(cand_f), True
                losses.append(cand_loss)
                break
            t /= 2.0
        if not moved:
            break
    est = AffineEstimate(theta[0], theta[1:], label="logistic log-odds")
    est.newton_losses = tuple(losses)
    return est


class TestSoftplusMovesNoCoefficient:
    @pytest.mark.parametrize("seed", range(20))
    def test_hex_equal_to_the_logaddexp_loop(self, seed):
        x, labels = _logistic_design(seed)
        got = fit_logistic(x, labels)
        want = _logaddexp_fit_logistic(x, labels)
        assert got.intercept.hex() == want.intercept.hex()
        assert _hex(got.coef) == _hex(want.coef)
        assert len(got.newton_losses) == len(want.newton_losses)
        np.testing.assert_allclose(got.newton_losses, want.newton_losses,
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("fit", [
    lambda x, y, w: fit_least_squares(x, y, weights=w),
    lambda x, y, w: fit_mlp(x, y, "weighted_squared_error", weights=w,
                            arch=MlpArchitecture(depth=1, width=4),
                            config=TrainConfig(epochs=1, batch_size=8)),
], ids=["least_squares", "mlp"])
@pytest.mark.parametrize("weights, message", [
    (np.ones(19), "^weights must have length n$"),
    (np.ones(21), "^weights must have length n$"),
    (np.r_[np.ones(19), np.nan], "^non-finite values in weights$"),
    (np.r_[np.ones(19), -np.inf], "^non-finite values in weights$"),
])
def test_bad_weight_vector_rejected(fit, weights, message):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(20, 2))
    with pytest.raises(ValueError, match=message):
        fit(x, rng.normal(size=20), weights)


@pytest.mark.parametrize("loss", ["squared_error", "cross_entropy_on_logits"])
@pytest.mark.parametrize("weights", [np.zeros(20), np.full(20, np.nan)],
                         ids=["zeros", "nan"])
@pytest.mark.parametrize("fit", [
    lambda x, t, loss, w: fit_mlp(x, t, loss, weights=w,
                                  arch=MlpArchitecture(depth=1, width=4),
                                  config=TrainConfig(epochs=1, batch_size=8)),
    lambda x, t, loss, w: gradient_check(MlpArchitecture(depth=1, width=4),
                                         loss, x, t, weights=w),
], ids=["fit_mlp", "gradient_check"])
def test_weights_rejected_for_an_unweighted_loss(fit, weights, loss):
    # Such a loss would ignore them: all-zero weights used to give the
    # net of no weights, and NaN weights passed unchecked.
    rng = np.random.default_rng(15)
    x = rng.normal(size=(20, 2))
    labels = (rng.random(20) < 0.5).astype(float)
    with pytest.raises(ValueError, match=f"^loss '{loss}' takes no weights$"):
        fit(x, labels, loss, weights)


class TestMlp:
    def test_learns_sine_better_than_mean(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-3, 3, size=(2000, 1))
        y = np.sin(x[:, 0])
        est = fit_mlp(x, y, config=TrainConfig(seed=0))
        mse = np.mean((est(x) - y) ** 2)
        assert mse < np.var(y) * 0.2

    def test_zero_targets_fit_near_zero(self):
        # The pipeline training profile converges hard to the zero
        # function; raw constant-rate Adam keeps a small dither floor
        # around the optimum, so it gets a looser bound.
        rng = np.random.default_rng(32)
        x = rng.normal(size=(200, 2))
        from dataclasses import replace
        est = fit_mlp(x, np.zeros(200),
                      config=replace(pipeline_train_config(), seed=1))
        assert np.max(np.abs(est(x))) <= 1e-2
        raw = fit_mlp(x, np.zeros(200), config=TrainConfig(seed=1))
        assert np.max(np.abs(raw(x))) <= 0.1

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(300, 2))
        y = x[:, 0] ** 2
        cfg = TrainConfig(epochs=20, seed=5)
        a = fit_mlp(x, y, config=cfg)
        b = fit_mlp(x, y, config=cfg)
        xe = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(a(xe), b(xe))

    def test_seed_changes_fit(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(300, 2))
        y = x[:, 0]
        a = fit_mlp(x, y, config=TrainConfig(epochs=5, seed=0))
        b = fit_mlp(x, y, config=TrainConfig(epochs=5, seed=1))
        assert not np.array_equal(a(x), b(x))

    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(64, 1))
        # Targets whose squared error overflows float64 immediately.
        y = rng.normal(size=64) * 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDiverged) as exc:
                fit_mlp(x, y, config=TrainConfig(epochs=3, seed=0))
        assert exc.value.epoch == 0
        assert "diverged" in str(exc.value)
        # An absurd learning rate overflows after the first update.
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingDiverged) as exc2:
                fit_mlp(x, rng.normal(size=64),
                        config=TrainConfig(learning_rate=1e80, epochs=3,
                                           seed=0))
        assert exc2.value.epoch >= 0

    def test_signed_weighted_loss_trains(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(200, 2))
        y = x[:, 0] + 0.1 * rng.normal(size=200)
        w = rng.normal(size=200)
        est = fit_mlp(x, y, "weighted_squared_error", weights=w,
                      config=TrainConfig(epochs=10, seed=2))
        assert np.all(np.isfinite(est(x)))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            fit_mlp(np.zeros((64, 1)), np.zeros(64), "hinge")

    def test_cross_entropy_fits_constant_rate(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2000, 2))
        labels = (rng.random(2000) < 0.7).astype(float)
        est = fit_mlp(x, labels, "cross_entropy_on_logits",
                      config=pipeline_train_config())
        probs = expit(est(x))
        assert np.max(np.abs(probs - 0.7)) < 0.06


class TestWeightDecay:
    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(weight_decay=-0.5)

    @pytest.mark.parametrize("lr,decay", [(0.2, 8.0), (0.125, 8.0), (1.0, 1.0)])
    def test_decay_step_of_one_or_more_rejected(self, lr, decay):
        # A decay factor 1 - lr * decay <= 0 zeroes or sign-flips every
        # weight matrix on every step.
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(learning_rate=lr, weight_decay=decay)

    def test_decay_shrinks_weight_scale(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(300, 2))
        y = rng.normal(size=300)

        def weight_norm(est):
            return sum(float(np.sum(layer[0] ** 2))
                       for layer in est.params)

        raw = fit_mlp(x, y, config=TrainConfig(epochs=30, seed=3))
        decayed = fit_mlp(x, y, config=TrainConfig(epochs=30, seed=3,
                                                   weight_decay=8.0))
        assert weight_norm(decayed) < weight_norm(raw)

    def test_zero_decay_is_default(self):
        assert TrainConfig().weight_decay == 0.0
        assert pipeline_train_config().weight_decay > 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("weight_decay", float("nan")),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("epochs", 2.5),
        ("batch_size", 2.5),
        ("epochs", True),
    ])
    def test_non_finite_or_fractional_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("depth", 2.5),
        ("width", 2.5),
        ("depth", True),
    ])
    def test_fractional_architecture_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MlpArchitecture(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        assert TrainConfig(epochs=np.int64(3)).epochs == 3
        assert MlpArchitecture(depth=np.int64(2)).depth == 2


class TestGradientCheck:
    def test_squared_error_probe(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=16)
        err = gradient_check(MlpArchitecture(depth=2, width=4),
                             "squared_error", x, y, seed=0)
        assert err <= 1e-4

    def test_cross_entropy_probe(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(16, 3))
        labels = (rng.random(16) < 0.5).astype(float)
        err = gradient_check(MlpArchitecture(depth=2, width=4),
                             "cross_entropy_on_logits", x, labels, seed=0)
        assert err <= 1e-4

    def test_signed_weighted_probe(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=16)
        w = rng.normal(size=16)
        err = gradient_check(MlpArchitecture(depth=2, width=4),
                             "weighted_squared_error", x, y, weights=w,
                             seed=0)
        assert err <= 1e-4


# ---------------------------------------------------------------------------
# Reference trainer: the array-by-array Adam loop that the flat-buffer
# trainer replaced, kept verbatim (with its allocating forward, loss and
# backward passes) so that the two can be compared bit for bit.
# ---------------------------------------------------------------------------

def _forward(params, x):
    """Returns per-sample predictions and the activation stack."""
    acts = [x]
    h = x
    for w, b in params[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
        acts.append(h)
    w_out, b_out = params[-1]
    pred = h @ w_out + b_out[0]
    return pred, acts


def _loss_value(pred, targets, kind, w):
    if kind == "squared_error":
        return float(np.mean((pred - targets) ** 2))
    if kind == "weighted_squared_error":
        return float(np.mean(w * (pred - targets) ** 2))
    return float(np.mean(np.logaddexp(0.0, pred) - targets * pred))


def _loss_grad_pred(pred, targets, kind, w):
    m = pred.shape[0]
    if kind == "squared_error":
        return 2.0 * (pred - targets) / m
    if kind == "weighted_squared_error":
        return 2.0 * w * (pred - targets) / m
    return (expit(pred) - targets) / m


def _reference_backward(params, acts, dpred):
    grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
    w_out = params[-1][0]
    h_last = acts[-1]
    grads[-1][0] = h_last.T @ dpred
    grads[-1][1] = np.array([np.sum(dpred)])
    delta = np.outer(dpred, w_out)
    for layer in range(len(params) - 2, -1, -1):
        delta = delta * (acts[layer + 1] > 0.0)
        grads[layer][0] = delta.T @ acts[layer]
        grads[layer][1] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ params[layer][0]
    return grads


def _reference_fit_mlp(x, targets, loss="squared_error", weights=None,
                       arch=None, config=None):
    """Returns the trained [[w, b], ...] list."""
    arch = arch or MlpArchitecture()
    config = config or TrainConfig()
    x, targets = _validate_design(x, targets)
    n, p = x.shape
    w_full = _check_loss_args(loss, weights, n)
    rng = np.random.default_rng(config.seed)
    params = _init_params(p, arch, rng)
    m_state = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
    v_state = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    decay = config.weight_decay
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            pred, acts = _forward(params, x[idx])
            wb = None if w_full is None else w_full[idx]
            if not np.isfinite(_loss_value(pred, targets[idx], loss, wb)):
                raise TrainingDiverged(epoch)
            dpred = _loss_grad_pred(pred, targets[idx], loss, wb)
            grads = _reference_backward(params, acts, dpred)
            step += 1
            corr1 = 1.0 - b1 ** step
            corr2 = 1.0 - b2 ** step
            for layer in range(len(params)):
                for slot in range(2):
                    g = grads[layer][slot]
                    m_state[layer][slot] = b1 * m_state[layer][slot] + (1 - b1) * g
                    v_state[layer][slot] = b2 * v_state[layer][slot] + (1 - b2) * g * g
                    m_hat = m_state[layer][slot] / corr1
                    v_hat = v_state[layer][slot] / corr2
                    params[layer][slot] = params[layer][slot] - lr * m_hat / (np.sqrt(v_hat) + eps)
                    if decay > 0.0 and slot == 0:
                        params[layer][slot] = params[layer][slot] * (1.0 - lr * decay)
    pred, _ = _forward(params, x)
    if not np.isfinite(_loss_value(pred, targets, loss, w_full)):
        raise TrainingDiverged(config.epochs - 1)
    return params


def _loss_problem(loss, n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if loss == "cross_entropy_on_logits":
        targets = (rng.random(n) < expit(x[:, 0])).astype(float)
    else:
        targets = np.sin(x[:, 0]) + 0.3 * rng.normal(size=n)
    weights = rng.normal(size=n) if loss == "weighted_squared_error" else None
    return x, targets, weights


def _assert_same_params(got, want):
    # Bytes, not values: a -0 where the reference has +0 is a difference.
    assert len(got) == len(want)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.shape == ww.shape and gb.shape == wb.shape
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


class TestFlatBufferTrainer:
    """fit_mlp against the array-by-array reference, bit for bit."""

    @pytest.mark.parametrize("loss", ["squared_error", "weighted_squared_error",
                                      "cross_entropy_on_logits"])
    @pytest.mark.parametrize("decay", [0.0, 8.0])
    @pytest.mark.parametrize("arch", [MlpArchitecture(),
                                      MlpArchitecture(depth=1, width=7)],
                             ids=["4x80", "1x7"])
    @pytest.mark.parametrize("n", [256, 437])    # 437: a ragged last batch
    def test_params_equal_reference(self, loss, decay, arch, n):
        x, targets, weights = _loss_problem(loss, n, 4, seed=61)
        cfg = TrainConfig(epochs=5, seed=7, weight_decay=decay)
        est = fit_mlp(x, targets, loss, weights=weights, arch=arch, config=cfg)
        want = _reference_fit_mlp(x, targets, loss, weights, arch, cfg)
        _assert_same_params(est.params, want)
        assert est(x).tobytes() == _forward(want, x)[0].tobytes()

    @pytest.mark.parametrize("loss", ["squared_error", "weighted_squared_error",
                                      "cross_entropy_on_logits"])
    @pytest.mark.parametrize("decay", [0.0, 8.0])
    def test_params_equal_reference_past_bias_correction(self, loss, decay):
        # 250 epochs of two batches: 500 steps, past step 356, from which
        # 1 - 0.9**step is exactly 1.0 and the trainer skips that divide.
        x, targets, weights = _loss_problem(loss, 128, 3, seed=64)
        arch = MlpArchitecture(depth=1, width=7)
        cfg = TrainConfig(epochs=250, seed=8, weight_decay=decay)
        est = fit_mlp(x, targets, loss, weights=weights, arch=arch, config=cfg)
        want = _reference_fit_mlp(x, targets, loss, weights, arch, cfg)
        _assert_same_params(est.params, want)

    def test_full_batch_equals_reference(self):
        # batch_size == n: one batch per epoch and no ragged last batch.
        x, targets, _ = _loss_problem("squared_error", 100, 3, seed=65)
        arch = MlpArchitecture(depth=2, width=9)
        cfg = TrainConfig(epochs=20, batch_size=100, seed=2, weight_decay=8.0)
        est = fit_mlp(x, targets, arch=arch, config=cfg)
        _assert_same_params(est.params,
                            _reference_fit_mlp(x, targets, arch=arch, config=cfg))

    def test_interleaved_fits_are_independent(self):
        # A, B, A with different batch shapes: nothing of one fit's
        # buffers may leak into the next.
        xa, ya, _ = _loss_problem("squared_error", 200, 3, seed=66)
        xb, yb, _ = _loss_problem("cross_entropy_on_logits", 150, 5, seed=67)
        cfg_a = TrainConfig(epochs=4, seed=3, weight_decay=8.0)
        cfg_b = TrainConfig(epochs=4, batch_size=32, seed=4)
        first = fit_mlp(xa, ya, config=cfg_a)
        fit_mlp(xb, yb, "cross_entropy_on_logits",
                arch=MlpArchitecture(depth=2, width=11), config=cfg_b)
        second = fit_mlp(xa, ya, config=cfg_a)
        _assert_same_params(first.params, second.params)
        _assert_same_params(first.params,
                            _reference_fit_mlp(xa, ya, config=cfg_a))

    def test_divergence_epoch_equals_reference(self):
        # The two inputs of TestMlp.test_divergence_reported_with_epoch.
        rng = np.random.default_rng(35)
        x = rng.normal(size=(64, 1))
        cases = [(rng.normal(size=64) * 1e200, TrainConfig(epochs=3, seed=0)),
                 (rng.normal(size=64),
                  TrainConfig(learning_rate=1e80, epochs=3, seed=0))]
        for y, cfg in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TrainingDiverged) as got:
                    fit_mlp(x, y, config=cfg)
                with pytest.raises(TrainingDiverged) as want:
                    _reference_fit_mlp(x, y, config=cfg)
            assert got.value.epoch == want.value.epoch

    @pytest.mark.parametrize("method", ["robust_np", "reg_np"])
    def test_late_crossfit_equals_reference(self, method, monkeypatch):
        data, _ = gen_dataset(DgpConfig(scenario="s1", n=600, p=4, seed=5))
        cfg = LateConfig(method=method, seed=9,
                         train=replace(pipeline_train_config(), epochs=3))
        got = late_crossfit(data, cfg)

        def reference(x, targets, loss="squared_error", weights=None,
                      arch=None, config=None):
            return MlpEstimate(_reference_fit_mlp(x, targets, loss, weights,
                                                  arch, config))

        monkeypatch.setattr(late, "fit_mlp", reference)
        want = late_crossfit(data, cfg)
        fields = ("beta_hat", "sigma2_hat", "std_err", "ci_low", "ci_high")
        assert ([float(getattr(got, f)).hex() for f in fields]
                == [float(getattr(want, f)).hex() for f in fields])
        assert ([b.hex() for b in got.fold_betas]
                == [b.hex() for b in want.fold_betas])

    def test_estimate_params_are_read_only_copies(self, monkeypatch):
        # Capture the training buffers by recording the flat vector
        # every [w, b] view of the trainer is cut from, and every array
        # of each step workspace.
        from orthoscore import learners
        buffers = []
        original = learners._unflatten

        def recording(flat, template):
            buffers.append(flat)
            return original(flat, template)

        class RecordingWorkspace(learners._Workspace):
            def __init__(self, rows, params):
                super().__init__(rows, params)
                stack = list(vars(self).values())
                while stack:
                    item = stack.pop()
                    if isinstance(item, np.ndarray):
                        buffers.append(item)
                    else:
                        stack.extend(item)

        monkeypatch.setattr(learners, "_unflatten", recording)
        monkeypatch.setattr(learners, "_Workspace", RecordingWorkspace)
        rng = np.random.default_rng(63)
        x = rng.normal(size=(128, 2))
        y = rng.normal(size=128)
        cfg = TrainConfig(epochs=2, seed=1, weight_decay=8.0)
        est = fit_mlp(x, y, config=cfg)
        assert buffers
        before = [[w.copy(), b.copy()] for w, b in est.params]
        for w, b in est.params:
            for arr in (w, b):
                assert not arr.flags.writeable
                for buf in buffers:
                    assert not np.shares_memory(arr, buf)
        for buf in buffers:
            buf[...] = np.nan
        fit_mlp(x, 2.0 * y, config=cfg)
        _assert_same_params(est.params, before)
