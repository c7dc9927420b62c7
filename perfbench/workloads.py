"""The four benchmark workloads.

Each workload turns the run seed into inputs (``prepare``), warms every
code path once on a small input (``warm``), runs one operation of the
closed loop (``run``, the only timed part) and checks that operation's
results (``judge``).  Operation ``i`` of a run depends only on the seed
and ``i``, so the same seed gives the same inputs and outputs.

Workloads reach the package through its module attributes at call
time, so a tracer that rebinds those attributes sees every call.
Seeds and the inputs the package has no generator for (the PLR and QTE
designs) are made here with numpy alone, so they stay fixed across
commits of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import orthoscore

DGP_N_DESK = 2000        # criteria 1-3: desk-scale replication study
DGP_N_NP = 1000          # criterion 4: neural-nuisance tier
LARGE_N = 200_000        # covariates: 200_000 x 4 float64 = 6.4 MB, past L2
N_MC = 1_000_000         # criterion 5: draws per check case
CHECK_SEED = 7           # criterion 5's seed
REPS_PER_STUDY = 20
DESK_METHODS = ("robust_lr", "moment", "reg_lr")
NP_POOL = 4              # datasets drawn per run for np_crossfit


@dataclass(frozen=True)
class Verdict:
    values: tuple         # every number the operation returned, in order
    attempted: int
    failed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str               # what one operation is
    alias: str            # name of this workload's median seconds per operation
    attempts_per_op: int  # checked results per operation
    rows_per_op: int      # data rows one operation estimates or scores
    prepare: Callable[[int], object]
    warm: Callable[[object], None]
    run: Callable[[object, int], object]
    judge: Callable[[object], Verdict]


def child_seed(seed: int, *path: int) -> int:
    """Input seed for a position under the run seed (benchmark-owned)."""
    state = np.random.SeedSequence([int(seed), *path]).generate_state(1, np.uint64)
    return int(state[0])


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def judge_estimates(results) -> Verdict:
    """Every estimate, variance and interval finite; beta inside its CI."""
    values, failed = [], 0
    for res in results:
        numbers = (res.beta_hat, res.sigma2_hat, res.std_err, res.ci_low,
                   res.ci_high, *res.fold_betas)
        values.extend(numbers)
        ok = (_finite(*numbers) and res.sigma2_hat >= 0.0
              and res.ci_low <= res.beta_hat <= res.ci_high)
        failed += not ok
    return Verdict(tuple(values), len(results), failed)


def judge_checks(reports) -> Verdict:
    """Orthogonal cases within 3 SE of zero, controls beyond 5 SE."""
    values, attempted, failed = [], 0, 0
    for report in reports:
        for case in report.cases:
            values.extend((case.derivative, case.std_error))
            attempted += 1
            if not (_finite(case.derivative, case.std_error) and case.std_error > 0.0):
                failed += 1
                continue
            ratio = abs(case.derivative) / case.std_error
            in_band = ratio > 5.0 if case.score == "control" else ratio <= 3.0
            failed += not in_band
    return Verdict(tuple(values), attempted, failed)


def judge_study(report) -> Verdict:
    """Each replicate-method estimate counts; a failed replicate fails."""
    values, failed = [], 0
    for s in report.methods:
        values.extend((s.bias, s.smse, s.coverage, s.reps_done, s.failures))
        complete = s.reps_done + s.failures == report.reps
        failed += (s.failures if complete and _finite(s.bias, s.smse, s.coverage)
                   else report.reps)
    return Verdict(tuple(values), report.reps * len(report.methods), failed)


# ------------------------------------------------------------ np_crossfit

def _np_prepare(seed):
    return [orthoscore.gen_dataset(orthoscore.DgpConfig(
        scenario="s1", n=DGP_N_NP, p=4, seed=child_seed(seed, 0, j)))[0]
        for j in range(NP_POOL)], seed


def _np_warm(state):
    datasets, seed = state
    one_epoch = replace(orthoscore.pipeline_train_config(), epochs=1)
    orthoscore.late_crossfit(datasets[0], orthoscore.LateConfig(
        method="robust_np", train=one_epoch, seed=seed))


def _np_run(state, i):
    datasets, seed = state
    config = orthoscore.LateConfig(method="robust_np", seed=child_seed(seed, 1, i))
    return [orthoscore.late_crossfit(datasets[i % NP_POOL], config)]


# ------------------------------------------------------------ ortho_check

def _check_prepare(seed):
    return None


def _check_warm(state):
    for target in orthoscore.TARGETS:
        orthoscore.run_check(target, n_mc=4096, seed=CHECK_SEED)


def _check_run(state, i):
    return [orthoscore.run_check(target, n_mc=N_MC, seed=CHECK_SEED)
            for target in orthoscore.TARGETS]


# --------------------------------------------------------- lr_replication

def _desk_dgp():
    return orthoscore.DgpConfig(scenario="s1", n=DGP_N_DESK, p=4, seed=0)


def _study_prepare(seed):
    return seed


def _study_warm(seed):
    orthoscore.run_replications(_desk_dgp(), DESK_METHODS, reps=1,
                                master_seed=seed, jobs=1)


def _study_run(seed, i):
    return orthoscore.run_replications(_desk_dgp(), DESK_METHODS,
                                       reps=REPS_PER_STUDY,
                                       master_seed=child_seed(seed, 1, i),
                                       jobs=1)


# --------------------------------------------------------- linear_large_n

def _expit(t):
    return 1.0 / (1.0 + np.exp(-t))


def _plr_data(n, rng):
    """y = d + cos(x2) + x1/2 + e with real d = expit(x1) + v."""
    x = rng.standard_normal((n, 4))
    d = _expit(x[:, 0]) + rng.standard_normal(n)
    y = d + np.cos(x[:, 1]) + 0.5 * x[:, 0] + rng.standard_normal(n)
    return orthoscore.Dataset(x, y, d, real_treatment=True)


def _qte_data(n, rng):
    """Binary d with log-odds 0.8 x1; y(1) = 0.5 + x1 - x2 + e."""
    x = rng.standard_normal((n, 4))
    d = (rng.random(n) < _expit(0.8 * x[:, 0])).astype(float)
    y = np.where(d == 1.0, 0.5 + x[:, 0] - x[:, 1] + rng.standard_normal(n),
                 rng.standard_normal(n))
    return orthoscore.Dataset(x, y, d)


def _large_prepare(seed):
    late_data, _ = orthoscore.gen_dataset(orthoscore.DgpConfig(
        scenario="s1", n=LARGE_N, p=4, seed=child_seed(seed, 0, 0)))
    plr_data = _plr_data(LARGE_N, np.random.default_rng(child_seed(seed, 0, 1)))
    qte_data = _qte_data(LARGE_N, np.random.default_rng(child_seed(seed, 0, 2)))
    return late_data, plr_data, qte_data, seed


def _estimator_mix(late_data, plr_data, qte_data, config_seed):
    return [
        orthoscore.late_crossfit(late_data, orthoscore.LateConfig(
            method="robust_lr", seed=config_seed)),
        orthoscore.late_crossfit(late_data, orthoscore.LateConfig(
            method="reg_lr", seed=config_seed)),
        orthoscore.plr_crossfit(plr_data, orthoscore.PlrConfig(seed=config_seed)),
        orthoscore.qte_crossfit(qte_data, orthoscore.QteConfig(seed=config_seed)),
    ]


def _large_warm(state):
    *datasets, seed = state
    head = np.arange(2000)
    _estimator_mix(*(data.subset(head) for data in datasets), seed)


def _large_run(state, i):
    *datasets, seed = state
    return _estimator_mix(*datasets, child_seed(seed, 1, i))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="np_crossfit",
            why="robust_np estimates at n=1000 (criterion 4): learners.fit_mlp "
                "is nearly all the time; where a faster MLP trainer must show",
            op="one robust_np late_crossfit estimate", alias="estimate_s",
            attempts_per_op=1, rows_per_op=DGP_N_NP,
            prepare=_np_prepare, warm=_np_warm, run=_np_run,
            judge=judge_estimates),
        Workload(
            name="ortho_check",
            why="run_check late, plr, qte at 1e6 draws (criterion 5): truth "
                "functions, shard sampling and scores, no learners; where "
                "checker caching must show",
            op="the three-target check suite at 1e6 draws", alias="check_s",
            attempts_per_op=21, rows_per_op=21 * N_MC,
            prepare=_check_prepare, warm=_check_warm, run=_check_run,
            judge=judge_checks),
        Workload(
            name="lr_replication",
            why="desk-scale study (criteria 1-3): thousands of ~1 ms linear "
                "fits, bound by Python call overhead in core, learners, late "
                "and small-n sim",
            op=f"run_replications of {REPS_PER_STUDY} replicates x 3 methods",
            alias="study_s",
            attempts_per_op=REPS_PER_STUDY * len(DESK_METHODS),
            rows_per_op=REPS_PER_STUDY * len(DESK_METHODS) * DGP_N_DESK,
            prepare=_study_prepare, warm=_study_warm, run=_study_run,
            judge=judge_study),
        Workload(
            name="linear_large_n",
            why="late robust_lr/reg_lr, plr and qte linear at n=200000: "
                "array-bound linear layers past L2; the only workload that "
                "runs plr, qte and solve_monotone",
            op="the four-estimator mix at n=200000", alias="mix_s",
            attempts_per_op=4, rows_per_op=4 * LARGE_N,
            prepare=_large_prepare, warm=_large_warm, run=_large_run,
            judge=judge_estimates),
    )
}
