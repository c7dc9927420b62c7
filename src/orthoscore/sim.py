"""Synthetic instrumented data and the replication study harness.

Covariates are independent standard normals rejection-truncated to
[-1, 1].  The instrument follows a logistic model in the nonlinear
log-odds f0; compliance strata (always-taker, complier, never-taker)
are drawn with probabilities (0.2, 0.6, 0.2) independently of
everything else, and the observed treatment is D = I(U=always) +
Z * I(U=complier).  Outcomes are stratum-specific means plus standard
normal noise (the noise is added in every stratum).  Complier means
follow one of two scenarios whose arms differ by exactly 3, so the
target is beta0 = 0.6 * 3 = 1.8.

``run_replications`` replays the estimator over freshly seeded
datasets and aggregates the three study metrics:

    bias     = | mean_j (beta_j - beta0) |
    smse     = (sqrt(n) / r) * sum_j (beta_j - beta0)^2
    coverage = fraction of intervals containing beta0

Each replicate derives its own seed from (master_seed, index), so the
set of results is independent of execution order and of the number of
workers.  Replicates that fail with ``ValueError`` or ``RuntimeError``
are excluded from the metrics and counted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .core import (SEED_REPLICATE_DATA, SEED_REPLICATE_METHOD, Dataset,
                   derive_seed, require_count)
from .late import METHODS, LateConfig, late_crossfit
from .learners import expit

__all__ = [
    "BETA0",
    "DgpConfig",
    "DgpTruth",
    "MethodSummary",
    "SimulationReport",
    "gen_covariates",
    "f0_true",
    "mu_true",
    "always_taker_mean",
    "complier_mean",
    "never_taker_mean",
    "gen_dataset",
    "summarize_replicates",
    "run_replications",
]

BETA0 = 1.8
SCENARIOS = ("s1", "s2")
STRATUM_PROBS = (0.2, 0.6, 0.2)  # always-taker, complier, never-taker
# Normalized as Generator.choice normalizes p, so that drawing against it
# reproduces choice's labels and generator state (see gen_dataset).
_STRATUM_CDF = np.cumsum(STRATUM_PROBS)
_STRATUM_CDF /= _STRATUM_CDF[-1]


@dataclass(frozen=True)
class DgpConfig:
    scenario: str = "s1"
    n: int = 2000
    p: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {self.scenario!r}")
        require_count("p", self.p, minimum=4)
        require_count("n", self.n)


@dataclass(frozen=True)
class DgpTruth:
    """True quantities recorded at generation time."""

    beta0: float
    g0: np.ndarray      # instrument propensity at each draw
    u: np.ndarray       # stratum label: 1 always, 2 complier, 3 never
    scenario: str
    f0: np.ndarray      # instrument log-odds f0_true(x); g0 = expit(f0)
    mu0: np.ndarray     # complier mean of arm 0, mu_true(x, 0, scenario);
                        # arm 1 is mu0 + 3 at every draw


def gen_covariates(n: int, p: int, rng) -> np.ndarray:
    """Standard normal entries, each redrawn until it lands in [-1, 1].

    Each round redraws the entries still outside, in row-major order,
    so the draws do not depend on how the entries are tracked.
    """
    require_count("p", p)
    x = rng.standard_normal((n, p))
    flat = x.reshape(-1)
    redo = np.flatnonzero(_outside_unit(flat))
    while redo.size:
        draw = rng.standard_normal(redo.size)
        flat[redo] = draw
        redo = redo[_outside_unit(draw)]
    return x


def _outside_unit(v):
    """|v| > 1 as two comparisons, without a full-size copy of |v|."""
    out = v > 1.0
    out |= v < -1.0
    return out


def f0_true(x) -> np.ndarray:
    """Instrument log-odds x1^2 x2^3 + log(x2 x3 + 4) - exp(x3 x4 / 2) - 0.5."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    # Cubes are products: float64 ``** 3`` runs numpy's general pow
    # kernel, an order of magnitude slower than two multiplies.
    return (x1 ** 2 * (x2 * x2 * x2) + np.log(x2 * x3 + 4.0)
            - np.exp(x3 * x4 / 2.0) - 0.5)


def mu_true(x, t, scenario: str) -> np.ndarray:
    """Complier response mean for arm t; the arms differ by exactly 3."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario!r}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    t = np.asarray(t, dtype=float)
    if scenario == "s1":
        base = (np.cos(np.pi * x1 * x2) + x1 * x2 * (x3 * x3 * x3)
                + np.exp(x2 * x3 - 1.0) + np.log(3.0 + x3 * x4))
    else:
        base = (np.sin(np.pi * x1 * x2 / 2.0) + np.log(x2 * x3 + 1.5)
                + np.exp(x3 * x4 / 2.0))
    return base + 3.0 * t


# The outcome mean of each compliance stratum; always-takers are treated
# (d = 1) and never-takers are not (d = 0).

def always_taker_mean(x):
    """x1 + x2 + x3 + x4 + 2."""
    return x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3] + 2.0


def complier_mean(mu0, d):
    """mu0 + 3 d, given the arm-0 mean ``mu0 = mu_true(x, 0, scenario)``."""
    return mu0 + 3.0 * d


def never_taker_mean(x):
    """0.6 x1 + 0.8 x2 + x3 + 1.2 x4."""
    return 0.6 * x[:, 0] + 0.8 * x[:, 1] + x[:, 2] + 1.2 * x[:, 3]


def gen_dataset(config: DgpConfig) -> tuple[Dataset, DgpTruth]:
    """Draw one sample and its truth record.

    The truth record's arrays are read-only: ``f0`` and ``g0`` at every
    draw, and ``mu0 = mu_true(x, 0, scenario)`` at every draw, which
    also gives the complier means (``mu0 + 3 d``).
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    x = gen_covariates(n, config.p, rng)
    f0 = f0_true(x)
    g0 = expit(f0)
    z = (rng.random(n) < g0).astype(float)
    # Generator.choice(p=...) draws one uniform per row and counts the
    # cdf entries at or below it (the last is 1, above every uniform).
    # Comparing against the first two gives the same labels and leaves
    # the generator in the same state, without choice's argument checks
    # and sorted search.
    r = rng.random(n)
    u = 1 + (r >= _STRATUM_CDF[0]) + (r >= _STRATUM_CDF[1])
    del r                   # freed before mu_true's temporaries
    d = ((u == 1) | ((u == 2) & (z == 1.0))).astype(float)
    mu0 = mu_true(x, 0.0, config.scenario)
    # The noise is the last draw; each row's own stratum mean is added
    # to it (noise + mean is mean + noise, bit for bit).
    y = rng.standard_normal(n)
    rows = np.flatnonzero(u == 1)
    y[rows] += always_taker_mean(x[rows])
    rows = np.flatnonzero(u == 2)
    y[rows] += complier_mean(mu0[rows], d[rows])
    rows = np.flatnonzero(u == 3)
    y[rows] += never_taker_mean(x[rows])
    # x lies in [-1, 1], y is finite, and d and z are 0/1 by construction.
    data = Dataset._from_checked(x, y, d, z)
    for arr in (f0, g0, u, mu0):
        arr.setflags(write=False)
    return data, DgpTruth(beta0=BETA0, g0=g0, u=u, scenario=config.scenario,
                          f0=f0, mu0=mu0)


@dataclass(frozen=True)
class MethodSummary:
    method: str
    bias: float
    smse: float
    coverage: float
    reps_done: int
    failures: int


@dataclass(frozen=True)
class SimulationReport:
    scenario: str
    n: int
    p: int
    reps: int
    master_seed: int
    methods: tuple[MethodSummary, ...]

    def by_method(self, method: str) -> MethodSummary:
        for s in self.methods:
            if s.method == method:
                return s
        raise KeyError(method)


def summarize_replicates(method: str, betas, covered, failures: int,
                         n: int) -> MethodSummary:
    """Study metrics over the successful replicates of one method."""
    betas = np.asarray(betas, dtype=float)
    covered = np.asarray(covered, dtype=bool)
    r = betas.size
    if r == 0:
        return MethodSummary(method, float("nan"), float("nan"),
                             float("nan"), 0, failures)
    err = betas - BETA0
    return MethodSummary(method=method,
                         bias=float(abs(np.mean(err))),
                         smse=float(np.sqrt(n) * np.mean(err * err)),
                         coverage=float(np.mean(covered)),
                         reps_done=int(r),
                         failures=int(failures))


def _one_replicate(dgp: DgpConfig, methods, master_seed: int, index: int):
    """Run every method on one fresh dataset; return per-method outcomes."""
    data, truth = gen_dataset(replace(dgp, seed=derive_seed(
        master_seed, index, SEED_REPLICATE_DATA)))
    out = {}
    for mi, method in enumerate(methods):
        cfg = LateConfig(method=method, seed=derive_seed(
            master_seed, index, SEED_REPLICATE_METHOD + mi))
        try:
            res = late_crossfit(data, cfg)
            out[method] = (res.beta_hat,
                           bool(res.ci_low <= truth.beta0 <= res.ci_high))
        except (ValueError, RuntimeError) as exc:
            out[method] = str(exc) or repr(exc)
    return out


def run_replications(dgp: DgpConfig, methods, reps: int, master_seed: int,
                     jobs: int = 1) -> SimulationReport:
    """Replay the study `reps` times and aggregate the metrics.

    `jobs` > 1 fans replicates out to a process pool; results are
    reduced in replicate order, so the report is identical for any
    worker count.
    """
    require_count("reps", reps)
    require_count("jobs", jobs)
    methods = tuple(methods)
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method: {m!r}")
        # Results are keyed by name, so a second copy would replace the first.
        if m in methods[:i]:
            raise ValueError(f"duplicate method: {m!r}")
    run = functools.partial(_one_replicate, dgp, methods, master_seed)
    if jobs == 1:
        results = [run(i) for i in range(reps)]
    else:
        # Imported here: the pool's modules would otherwise load on every
        # import of the package.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, range(reps)))
    summaries = []
    for method in methods:
        betas, covered, failures = [], [], 0
        for out in results:
            got = out[method]
            if isinstance(got, str):
                failures += 1
            else:
                betas.append(got[0])
                covered.append(got[1])
        summaries.append(summarize_replicates(method, betas, covered,
                                              failures, dgp.n))
    return SimulationReport(scenario=dgp.scenario, n=dgp.n, p=dgp.p,
                            reps=reps, master_seed=int(master_seed),
                            methods=tuple(summaries))
