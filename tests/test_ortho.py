"""Tests for the generic orthogonal-score builders and the FD checker."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from orthoscore import ortho
from orthoscore.core import BLOCK_ROWS, Dataset, FunctionEstimate, derive_seed
from orthoscore.late import LateConfig, estimate_h, estimate_log_odds, robust_score
from orthoscore.learners import clip_propensity, expit, fit_least_squares
from orthoscore.ortho import (
    CoupledModel,
    DecoupledModel,
    ScoreFamily,
    SequentialModel,
    build_coupled_score,
    build_decoupled_score,
    build_sequential_score,
    check_orthogonality,
    fit_coupled_direction,
    fit_decoupled_direction,
    fit_sequential_directions,
)
from orthoscore.plr import partialled_score
from orthoscore.qte import ipw_quantile_score, orthogonal_quantile_score


def _evaluate(family, beta, data):
    """The family's score at beta with every nuisance evaluated at data.x."""
    return family.score(beta, data, {name: fn(data.x)
                                     for name, fn in family.nuisances.items()})

# Partially linear regression as a coupled criterion:
#   m(beta, f; w) = (beta*d + f(x) - y)^2
# so d2_{beta f} m = 2d and d2_{ff} m = 2.
PLR_MODEL = CoupledModel(
    d_beta_m=lambda b, fv, data: 2.0 * data.d * (b * data.d + fv - data.y),
    d_f_m=lambda b, fv, data: 2.0 * (b * data.d + fv - data.y),
    d2_beta_f_m=lambda b, fv, data: 2.0 * data.d,
    d2_ff_m=lambda b, fv, data: np.full(data.n, 2.0),
)


def _plr_data(n, seed, beta0=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    d = 0.7 * x[:, 0] - 0.2 * x[:, 1] + rng.normal(size=n)
    y = beta0 * d + np.cos(x[:, 1]) + rng.normal(size=n)
    return Dataset(x, y, d, None, real_treatment=True)


class TestCoupledDirection:
    def test_plr_direction_is_minus_treatment_regression(self):
        # With a linear regressor, the fitted ratio -E[2d|x]/E[2|x]
        # must equal minus the least-squares fit of d on x exactly.
        data = _plr_data(300, seed=1)
        f_hat = FunctionEstimate.constant(0.0)
        h = fit_coupled_direction(PLR_MODEL, 0.5, f_hat, data,
                                  fit_least_squares)
        d_fit = fit_least_squares(data.x, data.d)
        np.testing.assert_allclose(h(data.x), -d_fit(data.x), atol=1e-10)

    def test_zero_cross_derivative_gives_zero_direction(self):
        model = CoupledModel(
            d_beta_m=lambda b, fv, data: data.y,
            d_f_m=lambda b, fv, data: fv,
            d2_beta_f_m=lambda b, fv, data: np.zeros(data.n),
            d2_ff_m=lambda b, fv, data: np.full(data.n, 2.0),
        )
        data = _plr_data(100, seed=2)
        h = fit_coupled_direction(model, 0.0, FunctionEstimate.constant(0.0),
                                  data, fit_least_squares)
        np.testing.assert_allclose(h(data.x), 0.0, atol=1e-12)

    def test_independent_bernoulli_gives_flat_direction(self):
        rng = np.random.default_rng(3)
        n = 60000
        x = rng.normal(size=(n, 2))
        d = (rng.random(n) < 0.3).astype(float)
        data = Dataset(x, rng.normal(size=n), d, None, real_treatment=True)
        h = fit_coupled_direction(PLR_MODEL, 0.0,
                                  FunctionEstimate.constant(0.0), data,
                                  fit_least_squares)
        probe = rng.normal(size=(50, 2))
        np.testing.assert_allclose(h(probe), -0.3, atol=0.02)

    def test_all_zero_denominator_rejected(self):
        model = CoupledModel(
            d_beta_m=PLR_MODEL.d_beta_m,
            d_f_m=PLR_MODEL.d_f_m,
            d2_beta_f_m=PLR_MODEL.d2_beta_f_m,
            d2_ff_m=lambda b, fv, data: np.zeros(data.n),
        )
        data = _plr_data(50, seed=4)
        with pytest.raises(ValueError, match="direction undefined"):
            fit_coupled_direction(model, 0.0, FunctionEstimate.constant(0.0),
                                  data, fit_least_squares)


class TestCoupledScore:
    def test_plr_reduces_to_partialled_form(self):
        data = _plr_data(150, seed=5)
        f_hat = FunctionEstimate(lambda x: np.sin(x[:, 0]))
        m_hat = FunctionEstimate(lambda x: 0.3 * x[:, 1])
        h_hat = FunctionEstimate(lambda x: -m_hat(x))
        family = build_coupled_score(PLR_MODEL, f_hat, h_hat)
        beta = 0.8
        expected = 2.0 * (data.d - m_hat(data.x)) * (
            beta * data.d + f_hat(data.x) - data.y)
        np.testing.assert_allclose(_evaluate(family, beta, data), expected,
                                   atol=1e-12)

    def test_zero_direction_recovers_base_derivative(self):
        data = _plr_data(80, seed=6)
        f_hat = FunctionEstimate.constant(0.0)
        family = build_coupled_score(PLR_MODEL, f_hat,
                                     FunctionEstimate.constant(0.0))
        expected = PLR_MODEL.d_beta_m(0.4, f_hat(data.x), data)
        np.testing.assert_allclose(_evaluate(family, 0.4, data), expected,
                                   atol=0)

    def test_hand_evaluated_observations(self):
        # Three rows evaluated by hand for m=(beta*d+f-y)^2 with f=0,
        # h=-1: psi = 2d(beta*d - y) + 2(beta*d - y)*(-1), beta=1.
        x = np.zeros((3, 1))
        d = np.array([1.0, 0.0, 2.0])
        y = np.array([2.0, 1.0, 0.0])
        data = Dataset(x, y, d, None, real_treatment=True)
        family = build_coupled_score(PLR_MODEL,
                                     FunctionEstimate.constant(0.0),
                                     FunctionEstimate.constant(-1.0))
        # row1: 2*1*(1-2) + 2*(1-2)*(-1) = -2 + 2 = 0
        # row2: 0 + 2*(0-1)*(-1) = 2
        # row3: 2*2*(2-0) + 2*(2-0)*(-1) = 8 - 4 = 4
        np.testing.assert_allclose(_evaluate(family, 1.0, data),
                                   [0.0, 2.0, 4.0], atol=1e-12)


# Quantile-style decoupled toy: psi = d*(I(y<=beta)-tau) + f-correction
# channel; m1 is the cross-entropy criterion for the log-odds f, so
# d_f m1 = expit(f) - d and d2_ff m1 = expit(f)(1-expit(f)).
def _qte_model(tau):
    return DecoupledModel(
        psi=lambda b, fv, data: data.d * (1.0 + np.exp(-fv))
        * ((data.y <= b) - tau),
        d_f_psi=lambda b, fv, data: -data.d * np.exp(-fv)
        * ((data.y <= b) - tau),
        d_f_m1=lambda fv, data: expit(fv) - data.d,
        d2_ff_m1=lambda fv, data: expit(fv) * (1.0 - expit(fv)),
    )


class TestDecoupledDirection:
    def test_zero_sensitivity_gives_zero_direction(self):
        model = DecoupledModel(
            psi=lambda b, fv, data: data.y - b,
            d_f_psi=lambda b, fv, data: np.zeros(data.n),
            d_f_m1=lambda fv, data: expit(fv) - data.d,
            d2_ff_m1=lambda fv, data: expit(fv) * (1.0 - expit(fv)),
        )
        data = _plr_data(100, seed=7)
        h = fit_decoupled_direction(model, 0.0,
                                    FunctionEstimate.constant(0.0), data,
                                    fit_least_squares)
        np.testing.assert_allclose(h(data.x), 0.0, atol=1e-12)

    def test_constant_means_give_constant_direction(self):
        rng = np.random.default_rng(8)
        n = 50000
        x = rng.normal(size=(n, 2))
        d = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        data = Dataset(x, y, d, None, real_treatment=True)
        model = _qte_model(tau=0.5)
        f_hat = FunctionEstimate.constant(0.0)
        h = fit_decoupled_direction(model, 0.0, f_hat, data,
                                    fit_least_squares)
        # Closed form at f=0: num = E[-d(I(y<=0)-.5)] = -.5*.25... the
        # exact level is checked by Monte Carlo flatness instead.
        probe = rng.normal(size=(40, 2))
        vals = h(probe)
        assert np.std(vals) < 0.02

    def test_direction_solves_weighted_normal_equations(self):
        # The fitted direction is the Riesz loss fit: on the design
        # D = [1, x] its coefficients solve D' diag(den) D c = -D' num,
        # checked against an independently solved oracle.
        rng = np.random.default_rng(9)
        n = 500
        x = rng.normal(size=(n, 2))
        g = expit(0.8 * x[:, 0])
        d = (rng.random(n) < g).astype(float)
        y = x[:, 0] + rng.normal(size=n)
        data = Dataset(x, y, d, None, real_treatment=True)
        model = _qte_model(tau=0.5)
        f_hat = FunctionEstimate(lambda xs: 0.8 * xs[:, 0])
        h = fit_decoupled_direction(model, 0.0, f_hat, data,
                                    fit_least_squares)
        fv = f_hat(data.x)
        num_t = model.d_f_psi(0.0, fv, data)
        den_t = model.d2_ff_m1(fv, data)
        design = np.column_stack([np.ones(n), x])
        coef = np.linalg.solve(design.T @ (den_t[:, None] * design),
                               -design.T @ num_t)
        probe = rng.normal(size=(30, 2))
        expected = np.column_stack([np.ones(30), probe]) @ coef
        np.testing.assert_allclose(h(probe), expected, atol=1e-9)

    @staticmethod
    def _treated_curvature_model(num_on_untreated):
        # d2_ff m1 is 0 on every untreated row, and d_f psi there is x1
        # (num_on_untreated) or 0.
        return DecoupledModel(
            psi=lambda b, fv, data: data.y - b,
            d_f_psi=lambda b, fv, data: data.x[:, 0] * (
                1.0 if num_on_untreated else data.d),
            d_f_m1=lambda fv, data: fv - data.d,
            d2_ff_m1=lambda fv, data: data.d * (1.0 + data.x[:, 1] ** 2),
        )

    def test_zero_curvature_with_nonzero_numerator_rejected(self):
        # Such a row adds 2 num h to the Riesz loss, which no weighted
        # regression carries.
        data = _plr_data(200, seed=23)
        data = Dataset(data.x, data.y, (data.x[:, 0] > 0).astype(float))
        with pytest.raises(ValueError, match="direction undefined"):
            fit_decoupled_direction(self._treated_curvature_model(True), 0.0,
                                    FunctionEstimate.constant(0.0), data,
                                    fit_least_squares)

    def test_zero_curvature_rows_with_zero_numerator_drop_out(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(300, 2))
        data = Dataset(x, rng.normal(size=300),
                       (rng.random(300) < 0.6).astype(float))
        model = self._treated_curvature_model(False)
        f_hat = FunctionEstimate.constant(0.0)
        h = fit_decoupled_direction(model, 0.0, f_hat, data, fit_least_squares)
        treated = data.subset(np.flatnonzero(data.d == 1.0))
        h_treated = fit_decoupled_direction(model, 0.0, f_hat, treated,
                                            fit_least_squares)
        probe = rng.normal(size=(20, 2))
        np.testing.assert_allclose(h(probe), h_treated(probe), rtol=1e-12)

    def test_one_regressor_call_per_direction(self):
        calls = []

        def counted(x, t, weights):
            calls.append(t.shape[0])
            return _on_first_two(x, t, weights)

        zero = FunctionEstimate.constant(0.0)
        expected = {"coupled": 1, "decoupled": 1, "sequential": 3}
        fits = {
            "coupled": lambda: fit_coupled_direction(
                PLR_MODEL, 0.0, zero, _plr_data(100, seed=25), counted),
            "decoupled": lambda: fit_decoupled_direction(
                _qte_model(0.5), 0.0, zero, _plr_data(100, seed=26), counted),
            "sequential": lambda: fit_sequential_directions(
                _seq_model(), 0.0, zero, zero, _seq_data(100, seed=27), counted),
        }
        for regime, fit in fits.items():
            calls.clear()
            fit()
            assert calls == [100] * expected[regime], regime


class TestDecoupledScore:
    def test_cross_entropy_correction_form(self):
        data = _plr_data(60, seed=10)
        model = _qte_model(tau=0.3)
        f_hat = FunctionEstimate(lambda x: 0.2 * x[:, 0])
        h_hat = FunctionEstimate(lambda x: x[:, 1] ** 2)
        family = build_decoupled_score(model, f_hat, h_hat)
        fv = f_hat(data.x)
        expected = (data.d * (1 + np.exp(-fv)) * ((data.y <= 0.1) - 0.3)
                    + (expit(fv) - data.d) * h_hat(data.x))
        np.testing.assert_allclose(_evaluate(family, 0.1, data), expected,
                                   atol=1e-12)

    def test_zero_direction_reduces_to_psi(self):
        data = _plr_data(60, seed=11)
        model = _qte_model(tau=0.5)
        f_hat = FunctionEstimate.constant(0.4)
        family = build_decoupled_score(model, f_hat,
                                       FunctionEstimate.constant(0.0))
        expected = model.psi(0.0, f_hat(data.x), data)
        np.testing.assert_allclose(_evaluate(family, 0.0, data), expected)


# Sequential toy with analytic directions.  Observables (y, u, s, q)
# ride along in the covariate matrix so the Dataset stays standard:
# columns are [x1, x2, u, s, q] and y/d fill their usual slots.
#   m1(f; w) = (f - s)^2            with E[s|x] = 0.3*x1
#   m2(mu, f; w) = (mu - q - f)^2   with E[q|x] = x2
#   psi(beta, mu, f; w) = y*mu + u*f - beta
# giving h10 = -E[u|x]/2, h20 = -E[y|x]/2, h30 = h20 exactly.
def _seq_model():
    return SequentialModel(
        psi=lambda b, mv, fv, data: data.y * mv + data.x[:, 2] * fv - b,
        d_mu_psi=lambda b, mv, fv, data: data.y,
        d_f_psi=lambda b, mv, fv, data: data.x[:, 2],
        d_mu_m2=lambda mv, fv, data: 2.0 * (mv - data.x[:, 4] - fv),
        d2_mumu_m2=lambda mv, fv, data: np.full(data.n, 2.0),
        d2_muf_m2=lambda mv, fv, data: np.full(data.n, -2.0),
        d_f_m1=lambda fv, data: 2.0 * (fv - data.x[:, 3]),
        d2_ff_m1=lambda fv, data: np.full(data.n, 2.0),
    )


def _seq_data(n, seed):
    rng = np.random.default_rng(seed)
    x12 = rng.normal(size=(n, 2))
    u = -x12[:, 1] + rng.normal(size=n)
    s = 0.3 * x12[:, 0] + rng.normal(size=n)
    q = x12[:, 1] + rng.normal(size=n)
    y = 1.0 + 2.0 * x12[:, 0] + rng.normal(size=n)
    x = np.column_stack([x12, u, s, q])
    return Dataset(x, y, np.zeros(n), None, real_treatment=True)


class TestSequentialDirections:
    def test_toy_closed_forms(self):
        data = _seq_data(120000, seed=12)
        model = _seq_model()
        mu_hat = FunctionEstimate.constant(0.0)
        f_hat = FunctionEstimate.constant(0.0)

        # Regress on the structural covariates only, so the
        # pseudo-outcome columns cannot leak into the fit.
        dirs = fit_sequential_directions(model, 0.0, mu_hat, f_hat, data,
                                         _on_first_two)
        probe = _seq_data(200, seed=13).x
        x1, x2 = probe[:, 0], probe[:, 1]
        np.testing.assert_allclose(dirs.h1(probe), x2 / 2.0, atol=0.03)
        np.testing.assert_allclose(dirs.h2(probe), -(1 + 2 * x1) / 2.0,
                                   atol=0.04)
        np.testing.assert_allclose(dirs.h3(probe), dirs.h2(probe), atol=1e-10)

    def test_zero_mu_sensitivity_cascades(self):
        model = SequentialModel(
            psi=lambda b, mv, fv, data: data.y - b,
            d_mu_psi=lambda b, mv, fv, data: np.zeros(data.n),
            d_f_psi=lambda b, mv, fv, data: data.x[:, 2],
            d_mu_m2=lambda mv, fv, data: np.zeros(data.n),
            d2_mumu_m2=lambda mv, fv, data: np.full(data.n, 2.0),
            d2_muf_m2=lambda mv, fv, data: np.full(data.n, -2.0),
            d_f_m1=lambda fv, data: np.zeros(data.n),
            d2_ff_m1=lambda fv, data: np.full(data.n, 2.0),
        )
        data = _seq_data(500, seed=14)
        dirs = fit_sequential_directions(model, 0.0,
                                         FunctionEstimate.constant(0.0),
                                         FunctionEstimate.constant(0.0),
                                         data, fit_least_squares)
        np.testing.assert_allclose(dirs.h2(data.x), 0.0, atol=1e-12)
        np.testing.assert_allclose(dirs.h3(data.x), 0.0, atol=1e-12)

    def test_zero_muf_curvature_kills_h3_only(self):
        model = SequentialModel(
            psi=_seq_model().psi,
            d_mu_psi=_seq_model().d_mu_psi,
            d_f_psi=_seq_model().d_f_psi,
            d_mu_m2=_seq_model().d_mu_m2,
            d2_mumu_m2=_seq_model().d2_mumu_m2,
            d2_muf_m2=lambda mv, fv, data: np.zeros(data.n),
            d_f_m1=_seq_model().d_f_m1,
            d2_ff_m1=_seq_model().d2_ff_m1,
        )
        data = _seq_data(2000, seed=15)
        dirs = fit_sequential_directions(model, 0.0,
                                         FunctionEstimate.constant(0.0),
                                         FunctionEstimate.constant(0.0),
                                         data, fit_least_squares)
        np.testing.assert_allclose(dirs.h3(data.x), 0.0, atol=1e-12)
        assert np.max(np.abs(dirs.h2(data.x))) > 0.1


class TestSequentialScore:
    def test_mu_free_psi_reduces_to_decoupled(self):
        # When psi ignores mu and h2=h3=0, the sequential evaluator
        # must agree with the decoupled one pointwise.
        data = _plr_data(70, seed=16)
        tau = 0.4
        dec = _qte_model(tau)
        seq = SequentialModel(
            psi=lambda b, mv, fv, d_: dec.psi(b, fv, d_),
            d_mu_psi=lambda b, mv, fv, d_: np.zeros(d_.n),
            d_f_psi=lambda b, mv, fv, d_: dec.d_f_psi(b, fv, d_),
            d_mu_m2=lambda mv, fv, d_: np.zeros(d_.n),
            d2_mumu_m2=lambda mv, fv, d_: np.full(d_.n, 2.0),
            d2_muf_m2=lambda mv, fv, d_: np.zeros(d_.n),
            d_f_m1=dec.d_f_m1,
            d2_ff_m1=dec.d2_ff_m1,
        )
        f_hat = FunctionEstimate(lambda x: 0.1 * x[:, 0])
        h_hat = FunctionEstimate(lambda x: np.cos(x[:, 1]))
        zero = FunctionEstimate.constant(0.0)

        class Dirs:
            h1, h2, h3 = h_hat, zero, zero

        fam_seq = build_sequential_score(seq, FunctionEstimate.constant(0.0),
                                         f_hat, Dirs)
        fam_dec = build_decoupled_score(dec, f_hat, h_hat)
        np.testing.assert_allclose(_evaluate(fam_seq, 0.2, data),
                                   _evaluate(fam_dec, 0.2, data), atol=1e-12)

    def test_iv_cast_matches_dedicated_robust_score(self):
        # The binary-instrument estimator's orthogonal score, cast into
        # the generic sequential regime (mu-free psi, cross-entropy m1,
        # h1 = -h/(g(1-g))), must agree with the dedicated module.
        rng = np.random.default_rng(17)
        n = 100
        x = rng.normal(size=(n, 3))
        z = (rng.random(n) < 0.6).astype(float)
        d = (rng.random(n) < 0.5).astype(float)
        y = rng.normal(size=n)
        data = Dataset(x, y, d, z)
        cfg = LateConfig(method="robust_lr", seed=0)
        f_hat = estimate_log_odds(data, cfg)
        h_hat = estimate_h(data, f_hat, cfg)

        def kappa_diff(fv, data):
            g = clip_propensity(expit(fv))
            k0 = (1 - data.d) * ((1 - data.z) - (1 - g)) / ((1 - g) * g)
            k1 = data.d * (data.z - g) / ((1 - g) * g)
            return k1 - k0

        model = DecoupledModel(
            psi=lambda b, fv, d_: kappa_diff(fv, d_) * d_.y - b,
            d_f_psi=lambda b, fv, d_: np.zeros(d_.n),
            d_f_m1=lambda fv, d_: expit(fv) - d_.z,
            d2_ff_m1=lambda fv, d_: expit(fv) * (1 - expit(fv)),
        )

        def h1_batch(xs):
            g = clip_propensity(expit(f_hat(xs)))
            return -h_hat(xs) / (g * (1 - g))

        family = build_decoupled_score(model, f_hat,
                                       FunctionEstimate(h1_batch))
        beta = 0.7
        expected = robust_score(beta, f_hat(data.x), h_hat(data.x), data)
        np.testing.assert_allclose(_evaluate(family, beta, data), expected,
                                   atol=1e-12)


class TestCheckOrthogonality:
    @staticmethod
    def _plr_sampler(m, seed):
        return _plr_data(m, seed)

    def _family_at_truth(self):
        f0 = FunctionEstimate(lambda x: np.cos(x[:, 1]))
        m0 = FunctionEstimate(lambda x: 0.7 * x[:, 0] - 0.2 * x[:, 1])
        return build_coupled_score(PLR_MODEL, f0,
                                   FunctionEstimate(lambda x: -m0(x)))

    def test_orthogonal_at_truth_within_three_se(self):
        family = self._family_at_truth()
        for direction in (FunctionEstimate.constant(1.0),
                          FunctionEstimate(lambda x: x[:, 0]),
                          FunctionEstimate(lambda x: np.cos(x[:, 0]))):
            for which in ("f", "h"):
                deriv, se = check_orthogonality(
                    family, self._plr_sampler, beta0=1.0,
                    direction=direction, which_nuisance=which,
                    n_mc=40000, seed=5)
                assert abs(deriv) <= 3.0 * se, (which, direction.label)

    def test_non_orthogonal_control_detected(self):
        # The unpartialled score d*(beta*d + f(x) - y) is sensitive to
        # f perturbations: its derivative is E[2d * dir(x)] != 0.
        def score(beta, data, v):
            return 2.0 * data.d * (beta * data.d + v["f"] - data.y)

        family = ScoreFamily(score,
                             {"f": FunctionEstimate(lambda x: np.cos(x[:, 1]))})
        deriv, se = check_orthogonality(
            family, self._plr_sampler, beta0=1.0,
            direction=FunctionEstimate(lambda x: x[:, 0]),
            which_nuisance="f", n_mc=40000, seed=6)
        assert abs(deriv) > 5.0 * se

    def test_zero_direction_is_exactly_zero(self):
        family = self._family_at_truth()
        deriv, se = check_orthogonality(
            family, self._plr_sampler, beta0=1.0,
            direction=FunctionEstimate.constant(0.0), which_nuisance="f",
            n_mc=5000, seed=7)
        assert deriv == 0.0
        assert se == 0.0

    def _no_draw_sampler(self, m, seed):
        raise AssertionError("sampled before the arguments were checked")

    @pytest.mark.parametrize("n_mc, match", [
        (float("inf"), "n_mc"),
        (1000.5, "n_mc"),
        (1000.0, "n_mc"),
        (True, "n_mc must be an integer"),
    ])
    def test_non_integer_n_mc_rejected_before_sampling(self, n_mc, match):
        # n_mc = inf used to draw forever and 1000.5 to fail inside the
        # sampler; the sampler here fails the test if it is ever called.
        family = self._family_at_truth()
        with pytest.raises(ValueError, match=match):
            check_orthogonality(family, self._no_draw_sampler, 1.0,
                                FunctionEstimate.constant(1.0), "f", n_mc=n_mc)

    def test_n_mc_and_seed_are_keyword_only(self):
        family = self._family_at_truth()
        with pytest.raises(TypeError):
            check_orthogonality(family, self._no_draw_sampler, 1.0,
                                FunctionEstimate.constant(1.0), "f", 100)

    @pytest.mark.parametrize("name, value", [("epsilon", 1e-2),
                                             ("shard_size", 4096)])
    def test_step_and_shard_are_not_settings(self, name, value):
        family = self._family_at_truth()
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{name}'"):
            check_orthogonality(family, self._no_draw_sampler, 1.0,
                                FunctionEstimate.constant(1.0), "f",
                                **{name: value})

    def test_shard_rows_is_the_length_that_sets_the_draws(self):
        # Each shard is one sampler call with its own derived seed, so another
        # length would draw a different sample for the same n_mc and seed.
        assert ortho.SHARD_ROWS == 131_072

    def test_check_epsilon_is_the_documented_step(self):
        assert ortho.CHECK_EPSILON == 1e-3

    @pytest.mark.parametrize("shard_rows", [4096, 3000])
    def test_shard_count_follows_shard_rows_at_call_time(self, shard_rows,
                                                         monkeypatch):
        drawn = []

        def sampler(m, seed):
            drawn.append(m)
            return _plr_data(m, seed)

        monkeypatch.setattr(ortho, "SHARD_ROWS", shard_rows)
        check_orthogonality(self._family_at_truth(), sampler, 1.0,
                            FunctionEstimate.constant(1.0), "f", n_mc=10_000)
        full, last = divmod(10_000, shard_rows)
        assert drawn == [shard_rows] * full + [last]

    @pytest.mark.parametrize("step", [1e-3, 0.5])
    def test_step_follows_check_epsilon_at_call_time(self, step, monkeypatch):
        # The central difference of f^3 at f = 0 along 1 is step^2.
        monkeypatch.setattr(ortho, "CHECK_EPSILON", step)
        cube = ScoreFamily(lambda beta, data, v: v["f"] ** 3,
                           {"f": FunctionEstimate.constant(0.0)})
        deriv, _ = check_orthogonality(cube, self._plr_sampler, 1.0,
                                       FunctionEstimate.constant(1.0), "f",
                                       n_mc=100)
        assert deriv == pytest.approx(step ** 2, rel=1e-12)

    def test_numpy_integer_n_mc_accepted(self):
        family = self._family_at_truth()
        args = (family, self._plr_sampler, 1.0, FunctionEstimate(lambda x: x[:, 0]), "f")
        assert check_orthogonality(*args, n_mc=np.int64(3000), seed=2) == \
            check_orthogonality(*args, n_mc=3000, seed=2)

    def test_unknown_nuisance_rejected_before_sampling(self):
        family = self._family_at_truth()
        with pytest.raises(ValueError,
                           match=r"unknown nuisance names: \['zzz'\]"):
            check_orthogonality(family, self._no_draw_sampler, 1.0,
                                FunctionEstimate.constant(1.0), "zzz",
                                n_mc=100)

    @pytest.mark.parametrize("n_mc, shard_size", [(10_000, 4096),
                                                  (70_000, 2 * BLOCK_ROWS + 5)])
    def test_each_nuisance_once_per_shard_and_score_once_per_sign(
            self, n_mc, shard_size, monkeypatch):
        # The direction runs once per shard on exactly that shard's rows,
        # also on shards longer than one row block.
        monkeypatch.setattr(ortho, "SHARD_ROWS", shard_size)
        shard_rows = [min(shard_size, n_mc - lo)
                      for lo in range(0, n_mc, shard_size)]
        shards = len(shard_rows)
        calls = {"f": 0, "h": 0, "evaluate": 0}
        dir_rows = []

        def counted(name, fn):
            def batch(x):
                calls[name] += 1
                return fn(x)
            return FunctionEstimate(batch, name)

        def score(beta, data, v):
            calls["evaluate"] += 1
            return (PLR_MODEL.d_beta_m(beta, v["f"], data)
                    + PLR_MODEL.d_f_m(beta, v["f"], data) * v["h"])

        def direction_batch(x):
            dir_rows.append(x.shape[0])
            return x[:, 0]

        family = ScoreFamily(score, {"f": counted("f", lambda x: np.cos(x[:, 1])),
                                     "h": counted("h", lambda x: -0.7 * x[:, 0])})
        for which in ("f", "h"):
            calls.update(dict.fromkeys(calls, 0))
            dir_rows.clear()
            check_orthogonality(family, self._plr_sampler, 1.0,
                                FunctionEstimate(direction_batch), which,
                                n_mc=n_mc, seed=2)
            assert calls == {"f": shards, "h": shards,
                             "evaluate": 2 * shards}, which
            assert dir_rows == shard_rows
            assert sum(dir_rows) == n_mc

    def test_score_cannot_write_into_stored_values(self):
        # h is shared by both signs when f is perturbed; writing into it
        # would change the second sign's score.
        def score(beta, data, v):
            v["h"] *= 2.0
            return PLR_MODEL.d_beta_m(beta, v["f"], data)

        family = ScoreFamily(score, self._family_at_truth().nuisances)
        with pytest.raises(ValueError, match="read-only"):
            check_orthogonality(family, self._plr_sampler, 1.0,
                                FunctionEstimate.constant(1.0), "f",
                                n_mc=100, seed=0)

    def test_read_only_score_results_are_not_written(self, monkeypatch):
        # The checker forms the central difference as a fresh array, so
        # a read-only array that a score hands back is never written.
        monkeypatch.setattr(ortho, "SHARD_ROWS", 4096)
        returned = []

        def read_only(beta, data, v):
            out = data.d * v["f"]
            out.setflags(write=False)
            returned.append((out, out.copy()))
            return out

        nuisances = {"f": FunctionEstimate(lambda x: np.cos(x[:, 1])),
                     "h": FunctionEstimate(lambda x: x[:, 0])}
        args = (self._plr_sampler, 1.0, FunctionEstimate(lambda x: x[:, 0]))
        kwargs = dict(n_mc=10_000, seed=2)
        writable = ScoreFamily(lambda beta, data, v: data.d * v["f"], nuisances)
        assert check_orthogonality(ScoreFamily(read_only, nuisances), *args, "f",
                                   **kwargs) == \
            check_orthogonality(writable, *args, "f", **kwargs)
        assert len(returned) == 6
        for out, copy in returned:
            assert np.array_equal(out, copy)
        # A score may return a stored nuisance itself; perturbing another
        # nuisance leaves it the same on both signs.
        stored = ScoreFamily(lambda beta, data, v: v["f"], nuisances)
        assert check_orthogonality(stored, *args, "h", **kwargs) == (0.0, 0.0)

    def test_deterministic_given_seed(self):
        family = self._family_at_truth()
        args = dict(direction=FunctionEstimate.constant(1.0),
                    which_nuisance="h", n_mc=20000, seed=11)
        a = check_orthogonality(family, self._plr_sampler, 1.0, **args)
        b = check_orthogonality(family, self._plr_sampler, 1.0, **args)
        assert a == b


class TestShippedScoresAreRegimeInstances:
    """Each shipped score is the score of a generic regime, exactly."""

    @staticmethod
    def _qte_regime(tau):
        # psi is the IPW score at g = expit(f); m1 is the cross-entropy
        # of d on the log-odds, so d_f m1 = g - d and d2_ff m1 = g(1 - g).
        def ind(b, data):
            return (data.y <= b).astype(float) - tau

        return DecoupledModel(
            psi=lambda b, fv, data: ipw_quantile_score(b, data.y, data.d,
                                                       expit(fv), tau),
            d_f_psi=lambda b, fv, data: -data.d * np.exp(-fv) * ind(b, data),
            d_f_m1=lambda fv, data: expit(fv) - data.d,
            d2_ff_m1=lambda fv, data: expit(fv) * (1.0 - expit(fv)),
        )

    def test_quantile_scores_are_the_decoupled_family(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(400, 2))
        d = (rng.random(400) < expit(0.8 * x[:, 0])).astype(float)
        data = Dataset(x, x[:, 0] + rng.normal(size=400), d)
        f_hat = FunctionEstimate(lambda xs: 0.8 * xs[:, 0] - 0.1)
        h_hat = FunctionEstimate(lambda xs: np.cos(xs[:, 1]) - xs[:, 0])
        for tau in (0.25, 0.5, 0.9):
            model = self._qte_regime(tau)
            family = build_decoupled_score(model, f_hat, h_hat)
            ipw = build_decoupled_score(model, f_hat,
                                        FunctionEstimate.constant(0.0))
            g = expit(f_hat(data.x))
            for beta in (-0.5, 0.0, 0.37, 1.2):
                assert np.array_equal(
                    _evaluate(family, beta, data),
                    orthogonal_quantile_score(beta, data.y, data.d, g,
                                              h_hat(data.x), tau))
                assert np.array_equal(
                    _evaluate(ipw, beta, data),
                    ipw_quantile_score(beta, data.y, data.d, g, tau))

    def test_quantile_direction_is_the_decoupled_ratio(self):
        # Pointwise, -d_f psi / d2_ff m1 is the pseudo-outcome that
        # qte_crossfit regresses: d (I(y <= beta) - tau) / g^2.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(300, 2))
        d = (rng.random(300) < expit(x[:, 0])).astype(float)
        data = Dataset(x, rng.normal(size=300), d)
        fv, tau, beta = x[:, 0], 0.3, 0.2
        model = self._qte_regime(tau)
        ratio = -model.d_f_psi(beta, fv, data) / model.d2_ff_m1(fv, data)
        g = expit(fv)
        shipped = data.d * ((data.y <= beta).astype(float) - tau) / g ** 2
        np.testing.assert_allclose(ratio, shipped, rtol=1e-12, atol=1e-12)

    def test_partialled_score_is_the_coupled_plr_score(self):
        # At f = l - beta m and h = -m the coupled score of PLR_MODEL is
        # 2 (d - m)(beta (d - m) - (y - l)) = -2 partialled_score.
        data = _plr_data(250, seed=22)
        m_hat = FunctionEstimate(lambda x: 0.7 * x[:, 0] - 0.2 * x[:, 1])
        l_hat = FunctionEstimate(lambda x: np.cos(x[:, 1]) + 0.4 * x[:, 0])
        r_d = data.d - m_hat(data.x)
        r_y = data.y - l_hat(data.x)
        for beta in (-1.0, 0.0, 0.8, 2.5):
            f_hat = FunctionEstimate(lambda x, b=beta: l_hat(x) - b * m_hat(x))
            family = build_coupled_score(PLR_MODEL, f_hat,
                                         FunctionEstimate(lambda x: -m_hat(x)))
            np.testing.assert_allclose(-0.5 * _evaluate(family, beta, data),
                                       partialled_score(beta, r_d, r_y),
                                       rtol=1e-12, atol=1e-12)


class TestSequentialAgainstTruth:
    """check_orthogonality meets the sequential regime at a known truth.

    In the toy of ``_seq_model`` the truths are f0 = 0.3 x1,
    mu0 = x2 + f0, h10 = x2 / 2 and h20 = h30 = -(1 + 2 x1) / 2.
    """

    @staticmethod
    def _family(drop_h3=False):
        h2 = FunctionEstimate(lambda x: -(1.0 + 2.0 * x[:, 0]) / 2.0, "h20")
        directions = SimpleNamespace(
            h1=FunctionEstimate(lambda x: x[:, 1] / 2.0, "h10"), h2=h2,
            h3=FunctionEstimate.constant(0.0) if drop_h3 else h2)
        return build_sequential_score(
            _seq_model(), FunctionEstimate(lambda x: x[:, 1] + 0.3 * x[:, 0], "mu0"),
            FunctionEstimate(lambda x: 0.3 * x[:, 0], "f0"), directions)

    def test_every_nuisance_within_three_se(self):
        family = self._family()
        k = 0
        for which in ("mu", "f", "h1", "h2", "h3"):
            for direction in (FunctionEstimate.constant(1.0),
                              FunctionEstimate(lambda x: x[:, 0]),
                              FunctionEstimate(lambda x: np.cos(x[:, 1]))):
                deriv, se = check_orthogonality(
                    family, _seq_data, beta0=0.0, direction=direction,
                    which_nuisance=which, n_mc=1_000_000, seed=derive_seed(30, k))
                assert abs(deriv) <= 3.0 * se, (which, direction.label)
                k += 1

    def test_dropping_h3_is_detected(self):
        # Without h3 the f-derivative is E[-2 h20(x) dir(x)], which is
        # E[1 + 2 x1] = 1 along the constant direction.
        deriv, se = check_orthogonality(
            self._family(drop_h3=True), _seq_data, beta0=0.0,
            direction=FunctionEstimate.constant(1.0), which_nuisance="f",
            n_mc=200_000, seed=31)
        assert abs(deriv) > 5.0 * se
        assert deriv == pytest.approx(1.0, abs=0.05)


def _mean_score_derivative(family, beta, data, which, direction, step=1e-3):
    """Central difference of the mean score in nuisance `which` along
    `direction`, on the sample the directions were fitted on."""
    values = {name: fn(data.x) for name, fn in family.nuisances.items()}
    shift = step * direction(data.x)
    plus = family.score(beta, data, {**values, which: values[which] + shift})
    minus = family.score(beta, data, {**values, which: values[which] - shift})
    return float(np.mean(plus - minus)) / (2.0 * step)


def _on_first_two(x, t, weights):
    """Weighted least squares on the structural covariates x1, x2 only."""
    fit = fit_least_squares(x[:, :2], t, weights)
    return FunctionEstimate(lambda xs: fit(xs[:, :2]))


SPAN = (FunctionEstimate.constant(1.0), FunctionEstimate(lambda x: x[:, 0]),
        FunctionEstimate(lambda x: x[:, 1]))

# A discrete covariate: the bin of x1 among these edges, one cell each.
CELL_EDGES = (-1.0, 0.0, 1.0)
CELLS = tuple(FunctionEstimate(lambda x, c=c: (x[:, -1] == c).astype(float),
                               f"cell {c}") for c in range(len(CELL_EDGES) + 1))


def _with_cells(data):
    """`data` with the cell of x1 appended as its last covariate."""
    cells = np.digitize(data.x[:, 0], CELL_EDGES).astype(float)
    return Dataset(np.column_stack([data.x, cells]), data.y, data.d, None,
                   real_treatment=True)


def _cell_means(x, t, weights):
    """Weighted one-hot regression on the last covariate: the weighted
    mean of t per cell, sum(-num) / sum(den) for a Riesz loss fit."""
    cells = x[:, -1].astype(int)
    means = (np.bincount(cells, weights=weights * t)
             / np.bincount(cells, weights=weights))
    return FunctionEstimate(lambda xs: means[xs[:, -1].astype(int)], "cell means")


class TestInSampleOrthogonality:
    """With least-squares or cell-mean directions the constructed score is
    orthogonal on the fitting sample along every function the regressor
    spans.

    The PLR and sequential models are linear in the nuisances, so the
    central difference is the exact derivative.  The QTE model is not: its
    curvature g (1 - g) varies with x, and its derivative is taken exactly
    from the model's own callbacks.  In every case the Riesz loss fit's
    normal equations make it vanish along 1, x1 and x2 (least squares) or
    along each cell indicator (cell means) whatever (wrong) nuisance
    values the score is taken at.
    """

    BETA = 0.7
    QTE_BETA = 0.4
    QTE_F = FunctionEstimate(lambda x: 0.3 + 0.5 * np.sin(x[:, 0]), "wrong f")

    def _plr(self, flip=False, model=PLR_MODEL, cells=False):
        data = _plr_data(5000, seed=40)
        regressor = fit_least_squares
        if cells:
            data, regressor = _with_cells(data), _cell_means
        f_wrong = FunctionEstimate(lambda x: np.sin(x[:, 0]))
        h = fit_coupled_direction(model, self.BETA, f_wrong, data, regressor)
        if flip:
            h = FunctionEstimate(lambda x, h=h: -h(x))
        return data, build_coupled_score(model, f_wrong, h)

    def _sequential(self, drop_h3=False, cells=False):
        data = _seq_data(5000, seed=41)
        regressor = _on_first_two
        if cells:
            data, regressor = _with_cells(data), _cell_means
        mu_wrong = FunctionEstimate(lambda x: 0.5 * x[:, 0])
        f_wrong = FunctionEstimate(lambda x: np.cos(x[:, 1]))
        dirs = fit_sequential_directions(_seq_model(), self.BETA, mu_wrong,
                                         f_wrong, data, regressor)
        if drop_h3:
            dirs = SimpleNamespace(h1=dirs.h1, h2=dirs.h2,
                                   h3=FunctionEstimate.constant(0.0))
        return data, build_sequential_score(_seq_model(), mu_wrong, f_wrong,
                                            dirs)

    def _qte(self, cells=False):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5000, 2))
        d = (rng.random(5000) < expit(0.8 * x[:, 0])).astype(float)
        data = Dataset(x, x[:, 0] + rng.normal(size=5000), d)
        regressor = fit_least_squares
        if cells:
            data, regressor = _with_cells(data), _cell_means
        return data, fit_decoupled_direction(_qte_model(0.5), self.QTE_BETA,
                                             self.QTE_F, data, regressor)

    def _qte_derivative(self, data, h, direction):
        """Exact f-derivative of the mean constructed QTE score,
        mean[delta (d_f psi + d2_ff m1 h)].  A complex step would read 0:
        expit casts its input to float."""
        model, fv = _qte_model(0.5), self.QTE_F(data.x)
        return float(np.mean(direction(data.x) * (
            model.d_f_psi(self.QTE_BETA, fv, data)
            + model.d2_ff_m1(fv, data) * h(data.x))))

    def test_plr_derivative_vanishes_on_the_span(self):
        data, family = self._plr()
        for direction in SPAN:
            deriv = _mean_score_derivative(family, self.BETA, data, "f",
                                           direction)
            assert abs(deriv) <= 1e-12, direction.label

    def test_sequential_derivatives_vanish_on_the_span(self):
        data, family = self._sequential()
        for which in ("mu", "f"):
            for direction in SPAN:
                deriv = _mean_score_derivative(family, self.BETA, data, which,
                                               direction)
                assert abs(deriv) <= 1e-12, (which, direction.label)

    def test_plr_derivative_vanishes_on_each_cell(self):
        data, family = self._plr(cells=True)
        for direction in CELLS:
            deriv = _mean_score_derivative(family, self.BETA, data, "f",
                                           direction)
            assert abs(deriv) <= 1e-12, direction.label

    def test_sequential_derivatives_vanish_on_each_cell(self):
        data, family = self._sequential(cells=True)
        for which in ("mu", "f"):
            for direction in CELLS:
                deriv = _mean_score_derivative(family, self.BETA, data, which,
                                               direction)
                assert abs(deriv) <= 1e-12, (which, direction.label)

    def test_sequential_derivative_off_the_span(self):
        # Along u the f-derivative is mean(u (u - u_hat)), the residual
        # variance of u given x1, x2, which is 1 in the population.
        data, family = self._sequential()
        deriv = _mean_score_derivative(family, self.BETA, data, "f",
                                       FunctionEstimate(lambda x: x[:, 2]))
        assert deriv == pytest.approx(1.0, abs=0.1)

    def test_dropping_h3_breaks_orthogonality(self):
        # The f-derivative along 1 becomes mean(y_hat) = mean(y), near 1.
        data, family = self._sequential(drop_h3=True)
        deriv = _mean_score_derivative(family, self.BETA, data, "f", SPAN[0])
        assert deriv > 0.05

    def test_flipped_plr_direction_breaks_orthogonality(self):
        # The f-derivative along x1 becomes 4 mean(x1 d_hat), near 2.8.
        data, family = self._plr(flip=True)
        deriv = _mean_score_derivative(family, self.BETA, data, "f", SPAN[1])
        assert deriv > 0.05

    def test_doubled_curvature_breaks_orthogonality(self):
        # With d2_ff m doubled the direction is -d_hat / 2, half the
        # correction, and the f-derivative along x1 becomes mean(x1 d),
        # near 0.7.
        model = dataclasses.replace(
            PLR_MODEL, d2_ff_m=lambda b, fv, data: np.full(data.n, 4.0))
        data, family = self._plr(model=model)
        deriv = _mean_score_derivative(family, self.BETA, data, "f", SPAN[1])
        assert deriv == pytest.approx(0.7, abs=0.1)

    def test_qte_derivative_vanishes_on_the_span(self):
        data, h = self._qte()
        for direction in SPAN:
            deriv = self._qte_derivative(data, h, direction)
            assert abs(deriv) <= 1e-12, direction.label

    def test_qte_derivative_vanishes_on_each_cell(self):
        data, h = self._qte(cells=True)
        for direction in CELLS:
            deriv = self._qte_derivative(data, h, direction)
            assert abs(deriv) <= 1e-12, direction.label

    def test_qte_exact_derivative_is_the_central_difference(self):
        # Off the span the derivative is not small, and the central
        # difference of the built score agrees with it to O(step^2).
        data, h = self._qte()
        family = build_decoupled_score(_qte_model(0.5), self.QTE_F, h)
        off_span = FunctionEstimate(lambda x: x[:, 0] ** 2)
        exact = self._qte_derivative(data, h, off_span)
        assert abs(exact) > 1e-3
        assert _mean_score_derivative(family, self.QTE_BETA, data, "f",
                                      off_span) == pytest.approx(exact, rel=1e-5)

    def test_qte_ratio_of_two_fits_is_not_orthogonal(self):
        # The former recipe, -num_fit / den_fit from two least-squares
        # fits, misses the identity where the curvature varies.
        data, _ = self._qte()
        model, fv = _qte_model(0.5), self.QTE_F(data.x)
        num_fit = fit_least_squares(data.x, model.d_f_psi(self.QTE_BETA, fv, data))
        den_fit = fit_least_squares(data.x, model.d2_ff_m1(fv, data))
        ratio = FunctionEstimate(lambda x: -num_fit(x) / den_fit(x))
        assert abs(self._qte_derivative(data, ratio, SPAN[1])) > 1e-5
