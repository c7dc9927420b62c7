"""Quantile roots from a guess: the root of the plain search, in fewer evaluations."""

import numpy as np
import pytest

from orthoscore import qte
from orthoscore.core import Dataset
from orthoscore.learners import CLIP_EPSILON, expit
from orthoscore.qte import (QteConfig, _root_guess, orthogonal_quantile_score,
                            qte_crossfit, solve_monotone)


class _Counted:
    """A mean score that counts how often it is evaluated."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, b):
        self.calls += 1
        return self.fn(b)


def _problem(seed, n=60, ties=False, h_scale=1.0):
    """A fold's orthogonal mean score, with IPW weights up to 1/CLIP_EPSILON."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    if ties:
        y = np.round(y, 1)
    d = rng.integers(0, 2, size=n).astype(float)
    g = rng.uniform(CLIP_EPSILON, 1.0 - CLIP_EPSILON, size=n)
    g[:3] = CLIP_EPSILON
    d[:3] = 1.0
    h = h_scale * rng.normal(size=n)
    tau = rng.uniform(0.05, 0.95)

    def mean_score(b):
        return float(np.mean(orthogonal_quantile_score(b, y, d, g, h, tau)))

    jump = d / g
    offset = tau * np.sum(jump) - np.sum((g - d) * h)
    return y, mean_score, _root_guess(y, jump, offset)


def _outcome(score_fn, y, **kwargs):
    try:
        return solve_monotone(score_fn, y, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_every_guess_gives_the_plain_root(seed, ties):
    # Large corrections leave some folds unbracketed; those must raise the
    # same error from every guess.
    y, mean_score, _ = _problem(seed, ties=ties, h_scale=[0.1, 1.0, 30.0][seed % 3])
    plain = _outcome(mean_score, y)
    guesses = list(np.unique(y)) + [y.min() - 1.0, y.max() + 1.0, -np.inf, np.inf]
    for v in guesses:
        assert _outcome(mean_score, y, guess=v) == plain


@pytest.mark.parametrize("seed", range(12))
def test_exact_guess_takes_at_most_four_evaluations(seed):
    y, mean_score, _ = _problem(seed, n=500)
    root = solve_monotone(mean_score, y)
    counted = _Counted(mean_score)
    assert solve_monotone(counted, y, guess=root) == root
    assert counted.calls <= 4


@pytest.mark.parametrize("seed", range(12))
def test_sorted_cumulative_guess_is_the_root(seed):
    y, mean_score, guess = _problem(seed, n=500, ties=seed % 2 == 1)
    assert guess == solve_monotone(mean_score, y)


def test_unbracketed_scores_raise_with_any_guess():
    y = np.array([0.0, 1.0, 2.0])
    for guess in (None, -1.0, 0.0, 1.0, 2.0, 3.0):
        for constant in (1.0, -1.0):
            with pytest.raises(ValueError, match="root not bracketed"):
                solve_monotone(lambda b: constant, y, guess=guess)


@pytest.mark.parametrize("guess", [None, 1.0, 2.0, 3.0, -5.0, 5.0])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_score_raises(guess, bad):
    y = np.array([3.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^non-finite mean score$"):
        solve_monotone(lambda b: bad, y, guess=guess)


@pytest.mark.parametrize("guess", [None, 1.0, 2.0, 3.0])
def test_non_finite_score_below_every_sample_raises(guess):
    # Finite at every sample value, NaN only at the -inf bracket end.
    y = np.array([3.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^non-finite mean score$"):
        solve_monotone(lambda b: float("nan") if b == -np.inf else 1.0, y,
                       guess=guess)


@pytest.mark.parametrize("seed", range(4))
def test_crossfit_solves_take_at_most_four_evaluations(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 2000
    x = rng.normal(size=(n, 3))
    d = (rng.random(n) < expit(0.8 * x[:, 0])).astype(float)
    y = np.where(d == 1.0, 0.5 + x[:, 0] + rng.normal(size=n), rng.normal(size=n))
    counts = []

    def counting_solve(score_fn, values, **kwargs):
        counted = _Counted(score_fn)
        root = solve_monotone(counted, values, **kwargs)
        counts.append(counted.calls)
        return root

    plain = qte_crossfit(Dataset(x, y, d), QteConfig(seed=seed))
    monkeypatch.setattr(qte, "solve_monotone", counting_solve)
    again = qte_crossfit(Dataset(x, y, d), QteConfig(seed=seed))
    assert again == plain
    assert len(counts) == 4 and max(counts) <= 4
