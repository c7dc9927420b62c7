"""Nuisance-function learners: weighted least squares, logistic
regression, and a small from-scratch ReLU multilayer perceptron.

All three return :class:`~orthoscore.core.FunctionEstimate` objects and
are exactly reproducible from their seed.  The linear and logistic fits
are affine in x and solved by closed form / damped Newton; the MLP is
trained with Adam on shuffled minibatches.  Weighted losses accept
SIGNED weights, which the complier-reweighting criterion needs; nothing
here assumes positivity of the weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FunctionEstimate, require_count

__all__ = [
    "TrainConfig",
    "pipeline_train_config",
    "MlpArchitecture",
    "TrainingDiverged",
    "fit_least_squares",
    "fit_logistic",
    "fit_mlp",
    "gradient_check",
    "expit",
    "clip_propensity",
    "propensity",
    "AffineEstimate",
    "MlpEstimate",
]

LOSS_KINDS = ("squared_error", "weighted_squared_error", "cross_entropy_on_logits")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings shared by the iterative learners.

    ``weight_decay`` is decoupled L2 shrinkage applied to weight
    matrices only (never biases) after each Adam step.  It defaults to
    off; the estimator pipelines switch it on for their net fits, where
    an unpenalized wide net interpolates the training fold and produces
    useless out-of-fold values.
    """

    learning_rate: float = 0.001
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        require_count("epochs", self.epochs)
        require_count("batch_size", self.batch_size)
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be nonnegative and finite")
        if self.learning_rate * self.weight_decay >= 1.0:
            raise ValueError("weight_decay times learning_rate must be below 1, "
                             "or the decay factor 1 - lr * decay is not positive")


@dataclass(frozen=True)
class MlpArchitecture:
    """Hidden-layer plan of the ReLU net: `depth` layers of `width` units."""

    depth: int = 4
    width: int = 80

    def __post_init__(self):
        require_count("depth", self.depth)
        require_count("width", self.width)


# Net fits inside the estimator pipelines run with weight decay on.
# An unpenalized wide net interpolates its training fold (driving the
# fold-fitted log-odds to label-memorizing extremes and wrecking the
# out-of-fold weights); decay at this strength restores smooth fits
# across the fold sizes the pipelines see, down to a few hundred rows.
PIPELINE_DECAY = 8.0


def pipeline_train_config() -> TrainConfig:
    """Training defaults for net fits owned by the estimator pipelines."""
    return TrainConfig(weight_decay=PIPELINE_DECAY)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


def expit(f):
    """Numerically stable logistic function."""
    return 0.5 * (1.0 + np.tanh(np.asarray(f, dtype=float) / 2.0))


# Once clipped, g and 1 - g are at least CLIP_EPSILON where weights divide by them.
CLIP_EPSILON = 0.01


def clip_propensity(g) -> np.ndarray:
    """Clamp propensities into [CLIP_EPSILON, 1 - CLIP_EPSILON]; identity inside."""
    # The ndarray method: np.clip's bits, NaN included, without its wrapper.
    return np.asarray(g, dtype=float).clip(CLIP_EPSILON, 1.0 - CLIP_EPSILON)


def propensity(f) -> np.ndarray:
    """The clipped propensity of log-odds f, the g every weight divides by."""
    return clip_propensity(expit(f))


class AffineEstimate(FunctionEstimate):
    """intercept + x @ coef, with the coefficients exposed."""

    def __init__(self, intercept: float, coef: np.ndarray, label: str = "affine"):
        self.intercept = float(intercept)
        coef = np.array(coef, dtype=float)
        coef.setflags(write=False)
        self.coef = coef
        self.label = label

    def _batch(self, x):
        return self.intercept + x @ self.coef


def _check_weights(weights, n):
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != n:
        raise ValueError("weights must have length n")
    if not np.isfinite(w).all():
        raise ValueError("non-finite values in weights")
    return w


def _validate_design(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and targets must have matching length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in inputs")
    return x, y


def _design(x):
    """[1, x], C-contiguous: the values of np.column_stack([np.ones(n), x])."""
    n, p = x.shape
    a = np.empty((n, p + 1))
    a[:, 0] = 1.0
    a[:, 1:] = x
    return a


def _normal_equations(a, w, y):
    """Gram matrix and right-hand side of design ``a``'s weighted fit."""
    return a.T @ (a * w[:, None]), a.T @ (w * y)


def _well_conditioned(gram) -> bool:
    """Entries finite, condition number (as ``np.linalg.cond``) at most 1e12."""
    # LAPACK rejects an inf or NaN entry with a message on stderr.
    if not np.isfinite(gram).all():
        return False
    sv = np.linalg.svd(gram, compute_uv=False)
    # A zero or NaN smallest singular value is singular, as cond's inf or NaN.
    return bool(sv[-1] > 0.0 and float(sv[0]) / float(sv[-1]) <= 1e12)


def fit_least_squares(x, y, weights=None) -> AffineEstimate:
    """Affine fit minimizing sum_i w_i (y_i - b0 - x_i'b)^2.

    Solved through the weighted normal equations.  Weights may be
    signed.  When the weighted Gram matrix overflows, or its condition
    number (the ratio of its extreme singular values, as
    ``np.linalg.cond``) exceeds 1e12 or is not finite, the fit is made
    again on the standardized design [1, (x - mean) / sd], so that it
    does not depend on the covariates' units (a column with sd 0 is only
    centred), and its coefficients are mapped back.  A mean or sd that
    overflows, or a standardized Gram matrix that does, raises
    ``ValueError``.  Only if that Gram matrix is ill conditioned is a
    ridge of 1e-8 * trace / ncol added to its diagonal before solving.
    """
    x, y = _validate_design(x, y)
    n, p = x.shape
    if n <= p:
        raise ValueError("underdetermined")
    w = np.ones(n) if weights is None else _check_weights(weights, n)
    gram, rhs = _normal_equations(_design(x), w, y)
    standardized = not _well_conditioned(gram)
    if standardized:
        shift, scale = x.mean(axis=0), x.std(axis=0)
        if not (np.isfinite(shift).all() and np.isfinite(scale).all()):
            raise ValueError("covariate scale overflows")
        scale[scale == 0.0] = 1.0
        gram, rhs = _normal_equations(_design((x - shift) / scale), w, y)
        if not _well_conditioned(gram):
            if not np.isfinite(gram).all():
                raise ValueError("weighted Gram matrix overflows")
            gram = gram + (1e-8 * np.trace(gram) / gram.shape[0]) * np.eye(gram.shape[0])
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate weighted design") from exc
    if not standardized:
        return AffineEstimate(theta[0], theta[1:], label="least squares")
    coef = theta[1:] / scale
    return AffineEstimate(theta[0] - shift @ coef, coef, label="least squares")


NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-8


def fit_logistic(x, labels) -> AffineEstimate:
    """Affine log-odds fit by damped Newton on the cross-entropy loss.

    Iterates until the gradient norm falls below `NEWTON_GRAD_TOL` or for
    `NEWTON_MAX_ITER` steps, halving the step whenever it would increase
    the loss, so the recorded loss path is non-increasing.  On separable
    data the iteration simply stops at the cap with finite coefficients.
    The returned estimate carries the loss path as `newton_losses`.
    """
    x, labels = _validate_design(x, labels)
    if labels.shape[0] == 0:
        raise ValueError("no rows")
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise ValueError("labels must be 0/1")
    if (labels == labels[0]).all():
        raise ValueError("degenerate labels")
    n, p = x.shape
    a = _design(x)
    theta = np.zeros(p + 1)
    # At theta = 0 every logit is +-0: each row's loss is log 2, g is 0.5.
    losses = [float(np.add.reduce(np.full(n, math.log(2.0)))) / n]
    g = np.full(n, 0.5)
    for _ in range(NEWTON_MAX_ITER):
        grad = a.T @ (g - labels) / n
        if math.sqrt(grad.dot(grad)) <= NEWTON_GRAD_TOL:   # np.linalg.norm
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
            cand_loss = _loss_value(cand_f, labels,
                                    "cross_entropy_on_logits", None)
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


# ---------------------------------------------------------------------------
# Multilayer perceptron
# ---------------------------------------------------------------------------

def _init_params(p_in: int, arch: MlpArchitecture, rng) -> list:
    """He-style initialization: N(0, 2/fan_in) weights, zero biases."""
    params = []
    fan_in = p_in
    for _ in range(arch.depth):
        w = rng.standard_normal((arch.width, fan_in)) * np.sqrt(2.0 / fan_in)
        params.append([w, np.zeros(arch.width)])
        fan_in = arch.width
    w_out = rng.standard_normal(fan_in) * np.sqrt(2.0 / fan_in)
    params.append([w_out, np.zeros(1)])
    return params


def _forward(params, x, ws=None):
    """Per-sample predictions and the activation stack ``[x, h1, ...]``.

    With a workspace the activations and predictions are written into
    its buffers; without one (prediction) they are allocated.
    """
    acts = [x]
    hidden = ws.hidden if ws is not None else [None] * (len(params) - 1)
    for (w, b), out in zip(params[:-1], hidden):
        h = np.matmul(acts[-1], w.T, out=out)
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    w_out, b_out = params[-1]
    pred = np.matmul(acts[-1], w_out, out=None if ws is None else ws.pred)
    pred += b_out[0]
    return pred, acts


def _loss_value(pred, targets, kind, w, terms=(None, None)):
    """Mean loss over the rows.

    ``terms`` are two buffers shaped like ``pred`` that hold the per-row
    losses; they are allocated when absent.
    """
    per_row, spare = terms
    if kind == "cross_entropy_on_logits":
        # softplus(f) = log1p(exp(-|f|)) + max(f, 0): np.logaddexp(0, f)
        # to a few ULP, on numpy's vectorized exp and log1p.
        per_row = np.abs(pred, out=per_row)
        np.negative(per_row, out=per_row)
        np.exp(per_row, out=per_row)
        np.log1p(per_row, out=per_row)
        spare = np.maximum(pred, 0.0, out=spare)
        per_row += spare
        per_row -= np.multiply(targets, pred, out=spare)
    else:
        per_row = np.subtract(pred, targets, out=per_row)
        np.multiply(per_row, per_row, out=per_row)
        if kind == "weighted_squared_error":
            np.multiply(w, per_row, out=per_row)
    # The sum and the divide that np.mean performs, without its wrapper.
    return float(np.add.reduce(per_row)) / pred.shape[0]


def _loss_grad_pred(pred, targets, kind, w, out, spare):
    """Derivative of the mean loss in each prediction.

    Written into ``out``; the weighted loss also uses ``spare``.  Both
    are buffers shaped like ``pred``.
    """
    if kind == "cross_entropy_on_logits":
        grad = np.divide(pred, 2.0, out=out)    # expit(pred), in place
        np.tanh(grad, out=grad)
        grad += 1.0
        grad *= 0.5
        grad -= targets
    else:
        grad = np.subtract(pred, targets, out=out)
        if kind == "weighted_squared_error":
            grad *= np.multiply(w, 2.0, out=spare)
        else:
            grad *= 2.0
    grad /= pred.shape[0]
    return grad


def _backward(params, acts, dpred, grads, ws):
    """Gradients of the scalar loss with respect to every parameter.

    They are written into ``grads``, a ``[[w, b], ...]`` list shaped
    like ``params``; the two deltas and the ReLU mask are buffers of the
    workspace ``ws``, so no array is created.
    """
    w_out = params[-1][0]
    np.matmul(acts[-1].T, dpred, out=grads[-1][0])
    np.add.reduce(dpred, keepdims=True, out=grads[-1][1])
    delta, spare = ws.delta
    np.multiply(dpred[:, None], w_out, out=delta)    # np.outer(dpred, w_out)
    for layer in range(len(params) - 2, -1, -1):
        np.greater(acts[layer + 1], 0.0, out=ws.mask)
        delta *= ws.mask
        np.matmul(delta.T, acts[layer], out=grads[layer][0])
        np.add.reduce(delta, axis=0, out=grads[layer][1])
        if layer > 0:
            np.matmul(delta, params[layer][0], out=spare)
            delta, spare = spare, delta


class _Workspace:
    """Buffers of one training step on a batch of ``rows`` rows: the
    gathered batch, activations, loss terms, deltas and ReLU mask.

    A fit makes one per distinct batch size (the full batch and a ragged
    last batch) and reuses it on every step, so a step creates no arrays.
    """

    def __init__(self, rows: int, params):
        width, p_in = params[0][0].shape
        self.x = np.empty((rows, p_in))
        self.targets = np.empty(rows)
        self.weights = np.empty(rows)
        self.hidden = [np.empty((rows, width)) for _ in params[:-1]]
        self.pred = np.empty(rows)
        self.dpred = np.empty(rows)
        self.terms = (np.empty(rows), np.empty(rows))
        self.delta = (np.empty((rows, width)), np.empty((rows, width)))
        self.mask = np.empty((rows, width), dtype=bool)


def _batch_gradient(params, grads, ws, x, targets, kind, w, idx):
    """Mean loss over the rows ``idx``; when it is finite, its gradient
    is written into ``grads``."""
    # The indices are valid rows; mode="raise" would gather through a
    # temporary copy before writing to ``out``.
    xb = np.take(x, idx, axis=0, out=ws.x, mode="clip")
    tb = np.take(targets, idx, out=ws.targets, mode="clip")
    wb = None if w is None else np.take(w, idx, out=ws.weights, mode="clip")
    pred, acts = _forward(params, xb, ws)
    loss = _loss_value(pred, tb, kind, wb, ws.terms)
    if math.isfinite(loss):
        dpred = _loss_grad_pred(pred, tb, kind, wb, ws.dpred, ws.terms[0])
        _backward(params, acts, dpred, grads, ws)
    return loss


class MlpEstimate(FunctionEstimate):
    """Frozen feedforward ReLU net."""

    def __init__(self, params, label="mlp"):
        self.params = [[w.copy(), b.copy()] for w, b in params]
        for w, b in self.params:
            w.setflags(write=False)
            b.setflags(write=False)
        self.label = label

    def _batch(self, x):
        return _forward(self.params, x)[0]


def _check_loss_args(kind, weights, n):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind: {kind!r}")
    if kind == "weighted_squared_error":
        if weights is None:
            raise ValueError("weighted loss requires a weight vector")
        return _check_weights(weights, n)
    if weights is not None:
        raise ValueError(f"loss {kind!r} takes no weights")
    return None


def fit_mlp(x, targets, loss: str = "squared_error", weights=None,
            arch: MlpArchitecture | None = None,
            config: TrainConfig | None = None) -> MlpEstimate:
    """Train the ReLU net with Adam (b1=0.9, b2=0.999, eps=1e-8).

    Minibatches are reshuffled every epoch from the seeded generator;
    the final-epoch weights are returned as the estimate.  A non-finite
    batch loss raises :class:`TrainingDiverged` with the epoch index.
    With ``config.weight_decay`` set, every weight matrix is shrunk by
    the factor (1 - lr * decay) after each step; biases are exempt so a
    constant signal can always be represented exactly.

    Parameters, gradient and both Adam moments each live in one flat
    buffer; the per-layer ``[w, b]`` arrays are views into them, so
    backpropagation writes the gradient in place and each Adam step is
    a fixed handful of whole-buffer operations.  The batch, activations,
    deltas and loss terms live in a workspace per batch size, so a step
    allocates no arrays.  Every element sees the same operations in the
    same order as an array-by-array update (the decay multiplies the
    weight views by the scalar (1 - lr * decay); dividing by a bias
    correction of exactly 1.0 is skipped), so the result is the same to
    the last bit.  The returned estimate holds read-only copies.
    """
    arch = arch or MlpArchitecture()
    config = config or TrainConfig()
    x, targets = _validate_design(x, targets)
    n, p = x.shape
    if p == 0:
        raise ValueError("no covariate columns")
    if n < config.batch_size:
        raise ValueError("batch size exceeds sample size")
    w_full = _check_loss_args(loss, weights, n)
    if loss == "cross_entropy_on_logits" and not np.all((targets == 0) | (targets == 1)):
        raise ValueError("labels must be 0/1")

    rng = np.random.default_rng(config.seed)
    params = _init_params(p, arch, rng)
    theta = _flatten(params)
    params = _unflatten(theta, params)
    grad = np.empty_like(theta)
    grads = _unflatten(grad, params)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    full = _Workspace(config.batch_size, params)
    ragged = n % config.batch_size
    last = _Workspace(ragged, params) if ragged else full
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    decayed = [w for w, _ in params] if config.weight_decay > 0.0 else []
    shrink = 1.0 - lr * config.weight_decay
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            ws = full if idx.shape[0] == config.batch_size else last
            loss_value = _batch_gradient(params, grads, ws, x, targets,
                                         loss, w_full, idx)
            if not math.isfinite(loss_value):
                raise TrainingDiverged(epoch)
            step += 1
            corr1 = 1.0 - b1 ** step
            corr2 = 1.0 - b2 ** step
            # Per element, in this order (rounding depends on it):
            # m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g,
            # theta -= (lr m_hat) / (sqrt(v_hat) + eps).  Once the
            # moments are updated, grad is free and holds the numerator.
            m_state *= b1
            np.multiply(grad, 1 - b1, out=scratch)
            m_state += scratch
            v_state *= b2
            np.multiply(grad, 1 - b2, out=scratch)
            scratch *= grad
            v_state += scratch
            # m / 1.0 is m exactly; corr1 rounds to 1.0 from step 356.
            if corr1 == 1.0:
                np.multiply(m_state, lr, out=grad)
            else:
                np.divide(m_state, corr1, out=grad)
                grad *= lr
            np.divide(v_state, corr2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            grad /= scratch
            theta -= grad
            for w in decayed:
                w *= shrink
    pred, _ = _forward(params, x)
    if not math.isfinite(_loss_value(pred, targets, loss, w_full)):
        raise TrainingDiverged(config.epochs - 1)
    return MlpEstimate(params)


def _flatten(params):
    return np.concatenate([arr.ravel() for layer in params for arr in layer])


def _unflatten(flat, template):
    out, pos = [], 0
    for w, b in template:
        nw, nb = w.size, b.size
        out.append([flat[pos:pos + nw].reshape(w.shape),
                    flat[pos + nw:pos + nw + nb].reshape(b.shape)])
        pos += nw + nb
    return out


FD_STEP = 1e-5


def gradient_check(arch: MlpArchitecture, loss: str, x, targets,
                   weights=None, seed: int = 0) -> float:
    """Max relative error of backprop against central finite differences.

    Initializes a seeded net at random parameters, computes the full
    analytic gradient of the batch loss, then perturbs every parameter
    coordinate by +-FD_STEP and compares.
    """
    x, targets = _validate_design(x, targets)
    w = _check_loss_args(loss, weights, x.shape[0])
    rng = np.random.default_rng(seed)
    params = _init_params(x.shape[1], arch, rng)
    flat = _flatten(params)
    analytic = np.full_like(flat, np.nan)
    _batch_gradient(params, _unflatten(analytic, params),
                    _Workspace(x.shape[0], params), x, targets, loss, w,
                    np.arange(x.shape[0]))
    fd = np.empty_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = FD_STEP
        up, _ = _forward(_unflatten(flat + bump, params), x)
        dn, _ = _forward(_unflatten(flat - bump, params), x)
        fd[i] = (_loss_value(up, targets, loss, w)
                 - _loss_value(dn, targets, loss, w)) / (2.0 * FD_STEP)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))
