"""Shared data model: samples, fitted functions, fold splits, intervals.

Everything downstream works with three small contracts defined here.
A ``Dataset`` is an immutable columnar sample (covariates, outcome,
treatment, optional instrument).  A ``FunctionEstimate`` is a frozen
fitted map from a covariate vector to a real number; every nuisance
estimate in the library (log-odds, correction directions, regression
fits) is one.  ``split_folds`` produces the balanced two-way random
partition, ``crossfit`` runs the cross-fitting algorithm over it for
every estimator, and ``make_ci`` builds the normal-approximation 95%
confidence interval, with the fixed quantile ``Q95``, from a variance
estimate.  Every estimator's fold step returns (beta_k, scores_k, J_k),
J_k the slope of its mean score in beta, and ``crossfit`` alone forms
the sandwich variance mean(scores_k^2) / J_k^2.  ``require_count`` is
the one check of integer settings (sizes, counts, worker numbers), and
``in_row_blocks`` evaluates a row-wise formula ``BLOCK_ROWS`` rows at a
time, so a long input never holds full-length temporaries.

All randomness flows through explicit integer seeds.  ``derive_seed``
is the single place where child seeds (per replicate, per fold, per
shard) are derived from a master seed, so any unit of work is
individually reproducible.  The ``SEED_*`` table names the tag each
estimator step, and each replicate's data and method, appends to its
master seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "FunctionEstimate",
    "EstimationResult",
    "split_folds",
    "crossfit",
    "make_ci",
    "derive_seed",
    "require_count",
    "in_row_blocks",
]

# Two-sided 95% standard-normal quantile, fixed so that reported
# intervals are bit-stable across platforms and library versions.
Q95 = 1.959964

# Seed-path table: estimator step -> tag in derive_seed(seed, tag, fold).
# Changing a value moves every result drawn from that path.
SEED_SPLIT = 0
SEED_LATE_LOG_ODDS = 10
SEED_LATE_H = 20
SEED_LATE_LARF = 30         # + arm (0 or 1)
SEED_PLR = 40
SEED_QTE_H = 50
SEED_QTE_LOG_ODDS = 51
# Replication study: derive_seed(master_seed, replicate, tag).
SEED_REPLICATE_DATA = 0
SEED_REPLICATE_METHOD = 1   # + method index

# Rows per block of ``in_row_blocks``: 64 KiB per float64 column, so a
# block's temporaries are reused from the heap instead of being handed
# back to the operating system and faulted in again, and the eight that
# a LATE score holds at once keep a late check shard within its memory
# bound in tests/test_diagnostics.py.
BLOCK_ROWS = 1 << 13


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise unless value is an integer (numpy's too, bools not) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def in_row_blocks(formula, *columns):
    """``formula(*columns)``, evaluated ``BLOCK_ROWS`` rows at a time.

    ``formula`` maps columns with one row per observation to one 1-D
    float array whose row i depends only on row i of the columns.  Up to
    one block it runs once on the columns themselves; longer inputs run
    on consecutive row slices copied into one fresh array, so every row
    gets the value the whole-array call gives.
    """
    n = len(columns[0])
    if n <= BLOCK_ROWS:
        return formula(*columns)
    out = np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        out[rows] = formula(*(c[rows] for c in columns))
    return out


def _check_binary(name, values):
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError(f"{name} entries must be exactly 0 or 1")


@dataclass(frozen=True)
class Dataset:
    """Columnar sample (x, y, d[, z]) with validation at construction.

    ``d`` must be binary whenever an instrument is present (the IV and
    QTE paths rely on it).  For regression designs with a real-valued
    treatment and no instrument, pass ``real_treatment=True``.
    """

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    z: np.ndarray | None = None
    real_treatment: bool = field(default=False, compare=False)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        d = np.asarray(self.d, dtype=float).ravel()
        z = None if self.z is None else np.asarray(self.z, dtype=float).ravel()
        n = x.shape[0]
        if y.shape[0] != n or d.shape[0] != n or (z is not None and z.shape[0] != n):
            raise ValueError("all columns must have the same length")
        columns = (("x", x), ("y", y), ("d", d), ("z", z))
        for name, col in columns:
            if col is not None and not np.all(np.isfinite(col)):
                raise ValueError(f"{name} contains non-finite values")
        if z is not None:
            _check_binary("z", z)
        if z is not None or not self.real_treatment:
            _check_binary("d", d)
        for name, col in columns:
            if col is not None:
                col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def _from_checked(cls, x, y, d, z=None, real_treatment=False) -> "Dataset":
        """Dataset of columns that already pass ``__post_init__``'s checks.

        The columns must be float arrays, x 2-D and the rest 1-D of its
        length: rows of a checked ``Dataset``, or draws the package makes
        finite and 0/1 where required.  They are set read-only and used
        as they are; nothing is checked again.
        """
        data = object.__new__(cls)
        for name, col in (("x", x), ("y", y), ("d", d), ("z", z)):
            if col is not None:
                col.setflags(write=False)
            object.__setattr__(data, name, col)
        object.__setattr__(data, "real_treatment", real_treatment)
        return data

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row subset as a new Dataset (used for fold restriction).

        Rows are gathered with ``take``, which copies them faster than
        fancy indexing.  Any index that is not a 1-D integer array (a
        boolean mask, a list, one row number) is first read as fancy
        indexing reads it, as row numbers, so every index selects or
        rejects what it did.  The rows of a checked Dataset need no
        checks, so the subset is built without them.
        """
        if not (isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"
                and idx.ndim == 1):
            idx = np.atleast_1d(np.arange(self.n)[idx])
            if idx.ndim != 1:
                raise ValueError("row index must be one-dimensional")
        z = None if self.z is None else self.z.take(idx)
        return Dataset._from_checked(self.x.take(idx, axis=0), self.y.take(idx),
                                     self.d.take(idx), z, self.real_treatment)


class FunctionEstimate:
    """A frozen fitted function of the covariates.

    Wraps a deterministic vectorized implementation: calling the object
    on an (n, p) matrix returns an (n,) vector.  Identical input must yield
    identical output, and finite input must yield finite output; the
    learners are responsible for returning parameters that satisfy this.

    A subclass evaluates through its own ``_batch(x)`` method and sets
    ``label`` itself; it never hands this constructor a function that
    closes over ``self``.  Such a closure puts the object in a reference
    cycle, so it outlives its last reference until the cyclic garbage
    collector happens to run, and a fitted net keeps its parameters.
    A function passed here may close over arrays, never over the
    estimate it builds.
    """

    def __init__(self, batch_fn, label: str = "fn"):
        self._batch = batch_fn
        self.label = label

    def __call__(self, x_matrix) -> np.ndarray:
        x = np.asarray(x_matrix, dtype=float)
        if x.ndim != 2:
            raise ValueError("batch evaluation expects an (n, p) matrix")
        out = np.asarray(self._batch(x), dtype=float)
        return out.reshape(x.shape[0])

    def __repr__(self):
        return f"FunctionEstimate({self.label})"

    @staticmethod
    def constant(value: float, label: str | None = None) -> "FunctionEstimate":
        c = float(value)
        return FunctionEstimate(lambda x: np.full(x.shape[0], c),
                                label or f"const {c:g}")


def require_splittable(n: int) -> None:
    """Raise unless n rows can be split into two folds of at least two."""
    if n < 4:
        raise ValueError("sample too small to split")


def split_folds(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random balanced split into two folds: their sorted rows.

    Fold sizes are n//2 and n - n//2 (equal for even n, differing by
    one for odd n).  Reproducible from the seed.
    """
    require_splittable(n)
    order = np.random.default_rng(seed).permutation(n)
    assignment = np.zeros(n, dtype=np.int8)
    assignment[order[n // 2:]] = 1
    # flatnonzero of a bool mask: on the int8 array itself it is 8x slower.
    return np.flatnonzero(assignment == 0), np.flatnonzero(assignment == 1)


def make_ci(beta_hat: float, sigma2_hat: float, n: int) -> tuple[float, float]:
    """Normal-approximation 95% interval beta_hat +- Q95*sqrt(sigma2/n)."""
    if sigma2_hat < 0.0:
        raise ValueError("sigma2_hat must be nonnegative")
    if n < 1:
        raise ValueError("n must be at least 1")
    half = Q95 * math.sqrt(sigma2_hat / n)
    return (beta_hat - half, beta_hat + half)


@dataclass(frozen=True)
class EstimationResult:
    """Cross-fitted point estimate with its plug-in 95% interval."""

    beta_hat: float
    sigma2_hat: float
    std_err: float
    ci_low: float
    ci_high: float
    fold_betas: tuple[float, ...]
    method: str
    n: int
    seed: int

    @staticmethod
    def from_folds(fold_betas, sigma2_hat, n, method, seed) -> "EstimationResult":
        """Canonical constructor: averages folds, derives SE and CI."""
        fold_betas = tuple(float(b) for b in fold_betas)
        beta_hat = float(np.add.reduce(fold_betas)) / len(fold_betas)  # np.mean
        sigma2_hat = float(sigma2_hat)
        std_err = math.sqrt(sigma2_hat / n)
        lo, hi = make_ci(beta_hat, sigma2_hat, n)
        return EstimationResult(beta_hat=beta_hat, sigma2_hat=sigma2_hat,
                                std_err=std_err, ci_low=lo, ci_high=hi,
                                fold_betas=fold_betas, method=str(method),
                                n=int(n), seed=int(seed))


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit child seed for the given position in the work tree."""
    ss = np.random.SeedSequence([int(master_seed), *[int(q) for q in path]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def crossfit(data: Dataset, seed: int, fit_fold, method: str) -> EstimationResult:
    """Two-fold cross-fitted estimate (Chernozhukov et al. 2018, section 3).

    ``fit_fold(train, est, k) -> (beta_k, scores_k, slope_k)`` fits the
    nuisances on ``train``, solves the estimating equation on ``est``
    (split half k) and returns the fold estimate, the score at it on
    every row of ``est`` and the slope J_k of the mean score in beta.
    The fold estimates and the sandwich variances mean(scores_k^2) / J_k^2
    are each pooled by simple average.  A pooled variance that is not
    finite raises ``ValueError``, and so do a subnormal one (it has lost
    digits) and one of 0 from scores that are not all exactly 0 (their
    squares underflowed).
    """
    rows = split_folds(data.n, derive_seed(seed, SEED_SPLIT))
    fold_betas, fold_vars, underflow = [], [], False
    for k in (0, 1):
        beta_k, scores, slope = fit_fold(data.subset(rows[1 - k]),
                                         data.subset(rows[k]), k)
        fold_betas.append(beta_k)
        # Means are the sum and the divide that np.mean performs.
        fold_vars.append(float(np.add.reduce(scores * scores)) / scores.shape[0]
                         / slope ** 2)
        underflow = underflow or (fold_vars[-1] == 0.0 and bool(scores.any()))
        del scores  # not held while the next fold fits
    sigma2_hat = float(np.add.reduce(fold_vars)) / len(fold_vars)
    if not math.isfinite(sigma2_hat):
        raise ValueError("non-finite variance")
    if sigma2_hat == 0.0 and underflow:
        raise ValueError("variance underflows to 0")
    if 0.0 < sigma2_hat < sys.float_info.min:
        raise ValueError("subnormal variance")
    return EstimationResult.from_folds(fold_betas, sigma2_hat, data.n, method, seed)
