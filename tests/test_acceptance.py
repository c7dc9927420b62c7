"""Acceptance gate: the eight behavioral criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL` line carrying the
measured quantity next to its accepted band (visible with -rA, and the
verbose test listing gives one pass/fail line per criterion either way).
Criteria 1-3 share one desk-scale replication run; criterion 4 is the
neural-network tier and is tagged slow.
"""

import os
import time

import numpy as np
import pytest

from orthoscore.cli import main
from orthoscore.late import kappa
from orthoscore.learners import (MlpArchitecture, TrainConfig,
                                 fit_least_squares, fit_logistic, fit_mlp,
                                 gradient_check)
from orthoscore.plr import partialled_beta
from orthoscore.qte import orthogonal_quantile_score, solve_monotone
from orthoscore.sim import DgpConfig, gen_dataset, run_replications

JOBS = max(1, min(4, os.cpu_count() or 1))


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def desk_run():
    """S1, p=4, n=2000, reps=200, fixed seed: shared by criteria 1-3."""
    start = time.time()
    report = run_replications(DgpConfig(scenario="s1", n=2000, p=4, seed=0),
                              ("robust_lr", "moment", "reg_lr"),
                              reps=200, master_seed=42, jobs=JOBS)
    return report, time.time() - start


def test_criterion_1_coverage_reproduction(desk_run):
    report, elapsed = desk_run
    s = report.by_method("robust_lr")
    ok = 0.92 <= s.coverage <= 0.995 and s.failures == 0 and elapsed <= 900.0
    assert _verdict(1, ok, f"robust_lr coverage={s.coverage:.3f} "
                           f"in [0.92, 0.995], failures={s.failures}, "
                           f"{elapsed:.0f}s <= 900s")


def test_criterion_2_consistency(desk_run):
    report, _ = desk_run
    s = report.by_method("robust_lr")
    ok = s.bias <= 0.05
    assert _verdict(2, ok, f"|mean beta_hat - 1.8| = {s.bias:.4f} <= 0.05")


def test_criterion_3_smse_ordering(desk_run):
    report, _ = desk_run
    robust, reg = report.by_method("robust_lr"), report.by_method("reg_lr")
    ok = robust.smse < reg.smse
    assert _verdict(3, ok, f"smse robust_lr={robust.smse:.3f} < "
                           f"reg_lr={reg.smse:.3f}")


@pytest.mark.slow
def test_criterion_4_nn_tier():
    start = time.time()
    report = run_replications(DgpConfig(scenario="s1", n=1000, p=4, seed=0),
                              ("robust_np",), reps=100, master_seed=42,
                              jobs=max(1, min(6, os.cpu_count() or 1)))
    elapsed = time.time() - start
    s = report.by_method("robust_np")
    ok = 0.90 <= s.coverage <= 1.0 and elapsed <= 7200.0
    assert _verdict(4, ok, f"robust_np coverage={s.coverage:.3f} in "
                           f"[0.90, 1.0], failures={s.failures}, "
                           f"{elapsed:.0f}s <= 7200s")


def test_criterion_5_orthogonality_suite(capsys):
    start = time.time()
    codes = {t: main(["check", "--target", t, "--n-mc", "1000000",
                      "--seed", "7"])
             for t in ("late", "plr", "qte")}
    elapsed = time.time() - start
    capsys.readouterr()
    ok = all(rc == 0 for rc in codes.values()) and elapsed <= 300.0
    assert _verdict(5, ok, f"check exit codes {codes}, "
                           f"{elapsed:.0f}s <= 300s")


def test_criterion_6_kappa_identity():
    data, truth = gen_dataset(DgpConfig(scenario="s1", n=1_000_000, p=4,
                                        seed=42))
    k0, k1 = kappa(data.d, data.z, truth.g0)
    gap0 = abs(float(np.mean(k0)) - 0.6)
    gap1 = abs(float(np.mean(k1)) - 0.6)
    ok = gap0 <= 0.005 and gap1 <= 0.005
    assert _verdict(6, ok, f"|mean kappa0 - 0.6|={gap0:.4f}, "
                           f"|mean kappa1 - 0.6|={gap1:.4f}, both <= 0.005")


def _grid_minimize(fn, lo, hi):
    """Three-round zooming grid search, final resolution below 1e-7."""
    for _ in range(3):
        grid = np.linspace(lo, hi, 2001)
        values = [fn(b) for b in grid]
        best = grid[int(np.argmin(values))]
        step = grid[1] - grid[0]
        lo, hi = best - 2.0 * step, best + 2.0 * step
    return float(best)


def _sample_quantile(y, tau):
    for v in np.sort(y):
        if np.mean((y <= v).astype(float) - tau) >= 0.0:
            return float(v)
    return float(np.max(y))


def test_criterion_7_oracle_equivalences():
    # Closed-form partialled-out coefficient vs a zooming grid
    # minimizer of the squared empirical score, 20 datasets of n=50.
    worst_plr = 0.0
    for s in range(20):
        rng = np.random.default_rng(s)
        resid_d = rng.normal(size=50)
        resid_y = (-2.0 + 0.35 * s) * resid_d + rng.normal(size=50)
        closed = partialled_beta(resid_d, resid_y)

        def sq_score(b):
            return float(np.mean(resid_d * (resid_y - b * resid_d))) ** 2

        grid = _grid_minimize(sq_score, -10.0, 10.0)
        worst_plr = max(worst_plr, abs(grid - closed))

    # Quantile solver with unit propensity and zero correction vs the
    # brute-force sample quantile, 50 datasets.
    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    worst_qte = 0.0
    for s in range(50):
        rng = np.random.default_rng(100 + s)
        n = 31 + s
        y = rng.normal(size=n) * (1.0 + s % 3)
        ones, zeros = np.ones(n), np.zeros(n)
        tau = taus[s % len(taus)]

        def mean_score(b):
            return float(np.mean(orthogonal_quantile_score(
                b, y, ones, ones, zeros, tau)))

        root = solve_monotone(mean_score, y)
        worst_qte = max(worst_qte, abs(root - _sample_quantile(y, tau)))

    # Weighted least squares vs pseudoinverse normal equations, with
    # zero and fractional weights, 20 problems.
    worst_wls = 0.0
    for s in range(20):
        rng = np.random.default_rng(200 + s)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        w = rng.uniform(0.2, 2.0, size=30)
        w[:2] = 0.0
        fit = fit_least_squares(x, y, weights=w)
        design = np.column_stack([np.ones(30), x])
        coeffs = np.linalg.pinv(design.T @ (w[:, None] * design)) \
            @ design.T @ (w * y)
        got = np.concatenate([[fit.intercept], fit.coef])
        worst_wls = max(worst_wls, float(np.max(np.abs(got - coeffs))))

    ok = worst_plr <= 1e-6 and worst_qte <= 1e-8 and worst_wls <= 1e-8
    assert _verdict(7, ok, f"plr grid gap {worst_plr:.2e} <= 1e-6, "
                           f"qte quantile gap {worst_qte:.2e}, "
                           f"wls gap {worst_wls:.2e} <= 1e-8")


def test_criterion_8_learner_checks():
    arch = MlpArchitecture(depth=2, width=4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3))
    targets = rng.normal(size=12)
    labels = rng.integers(0, 2, size=12).astype(float)
    signed = rng.normal(size=12)
    grads = [
        gradient_check(arch, "squared_error", x, targets, seed=0),
        gradient_check(arch, "cross_entropy_on_logits", x, labels, seed=1),
        gradient_check(arch, "weighted_squared_error", x, targets,
                       weights=signed, seed=2),
    ]
    worst_grad = max(grads)

    logit = fit_logistic(x, labels)
    newton_ok = bool(np.all(np.diff(logit.newton_losses) <= 1e-12))

    cfg = TrainConfig(epochs=20, batch_size=12, seed=3)
    net_a = fit_mlp(x, targets, "squared_error", arch=arch, config=cfg)
    net_b = fit_mlp(x, targets, "squared_error", arch=arch, config=cfg)
    bit_ok = all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
                 for (wa, ba), (wb, bb) in zip(net_a.params, net_b.params))
    logit_again = fit_logistic(x, labels)
    bit_ok = bit_ok and logit.intercept == logit_again.intercept \
        and np.array_equal(logit.coef, logit_again.coef)

    ok = worst_grad <= 1e-4 and newton_ok and bit_ok
    assert _verdict(8, ok, f"max gradient error {worst_grad:.2e} <= 1e-4, "
                           f"newton monotone={newton_ok}, "
                           f"bit reproducible={bit_ok}")
