"""Which package functions are traced, and the per-layer metrics.

Every per-layer metric is named ``<module>.<function>.<stat>`` and is
reported per workload operation (totals over the traced operations
divided by their number), so runs of different length compare.  The
stats are ``calls``, ``busy_s`` (summed span time), ``self_s`` (span
time minus its child spans), ``rows`` and the counters below.

``learners.fit_mlp.steps`` and ``.gflop`` are COMPUTED from the call's
arguments, not measured: Adam steps = epochs * ceil(n_train / batch),
and the multiply-adds of the forward and backward matmuls follow from
the layer shapes.  ``gflops_per_s`` divides that count by the measured
busy time.

``cli`` is a thin argparse/CSV shell that no workload drives, so it
has no probe.
"""

from __future__ import annotations

import math

import orthoscore
from tracer import Probe


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def mlp_kernel_counts(n: int, p: int, arch, config) -> tuple[int, float]:
    """Computed (Adam steps, GFLOP) of one ``fit_mlp`` call on n rows.

    Per row and epoch the forward pass costs one multiply-add per
    weight (hidden layers plus the output vector); the backward pass
    costs one per weight for the weight gradients and one per weight of
    every hidden layer but the first for the propagated deltas.  After
    the last epoch ``fit_mlp`` runs one more forward pass on all rows.
    """
    shapes = [(p, arch.width)] + [(arch.width, arch.width)] * (arch.depth - 1)
    hidden = sum(fan_in * fan_out for fan_in, fan_out in shapes)
    forward = hidden + arch.width
    backward = forward + sum(fan_in * fan_out for fan_in, fan_out in shapes[1:])
    steps = config.epochs * math.ceil(n / config.batch_size)
    flop = 2 * n * (config.epochs * (forward + backward) + forward)
    return steps, flop / 1e9


def _fit_mlp_counts(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    arch = _arg(args, kwargs, 4, "arch") or orthoscore.MlpArchitecture()
    config = _arg(args, kwargs, 5, "config") or orthoscore.TrainConfig()
    n, p = x.shape
    steps, gflop = mlp_kernel_counts(n, p, arch, config)
    return {"steps": steps, "gflop": gflop}


def _rows_out(args, kwargs, result):
    return {"rows": len(result)}


PROBES = (
    Probe("core", "split_folds"),
    Probe("core", "derive_seed"),
    Probe("core", "Dataset.subset"),
    Probe("learners", "fit_mlp", count=_fit_mlp_counts),
    Probe("learners", "fit_logistic",
          count=lambda a, k, r: {"newton_iters": len(r.newton_losses) - 1}),
    Probe("learners", "fit_least_squares"),
    Probe("sim", "gen_dataset",
          count=lambda a, k, r: {"rows": _arg(a, k, 0, "config").n}),
    Probe("sim", "gen_covariates"),
    Probe("sim", "f0_true", count=_rows_out),
    Probe("sim", "mu_true", count=_rows_out),
    Probe("sim", "run_replications"),
    Probe("diagnostics", "run_check",
          suffix=lambda a, k: _arg(a, k, 0, "target")),
    Probe("ortho", "check_orthogonality",
          count=lambda a, k, r: {"draws": _arg(a, k, 6, "n_mc", 1_000_000)}),
    Probe("late", "late_crossfit"),
    Probe("late", "estimate_log_odds"),
    Probe("late", "estimate_h"),
    Probe("late", "fit_larf"),
    Probe("late", "robust_score", count=_rows_out),
    Probe("late", "moment_score", count=_rows_out),
    Probe("late", "regression_score", count=_rows_out),
    Probe("plr", "plr_crossfit"),
    Probe("qte", "qte_crossfit"),
    Probe("qte", "solve_monotone"),
)

# (span name, stats) in report order.
REPORTED = (
    ("learners.fit_mlp", ("calls", "busy_s", "steps", "gflop", "gflops_per_s")),
    ("learners.fit_logistic", ("calls", "busy_s", "newton_iters")),
    ("learners.fit_least_squares", ("calls", "busy_s")),
    ("sim.gen_dataset", ("calls", "busy_s", "self_s", "rows")),
    ("sim.gen_covariates", ("busy_s",)),
    ("sim.f0_true", ("calls", "busy_s", "rows")),
    ("sim.mu_true", ("calls", "busy_s", "rows")),
    ("sim.run_replications", ("busy_s", "self_s")),
    ("diagnostics.run_check.late", ("busy_s",)),
    ("diagnostics.run_check.plr", ("busy_s",)),
    ("diagnostics.run_check.qte", ("busy_s",)),
    ("ortho.check_orthogonality", ("calls", "busy_s", "self_s")),
    ("late.late_crossfit", ("calls", "busy_s", "self_s")),
    ("late.estimate_log_odds", ("busy_s",)),
    ("late.estimate_h", ("busy_s",)),
    ("late.fit_larf", ("busy_s",)),
    ("late.robust_score", ("calls", "busy_s", "rows")),
    ("late.moment_score", ("calls", "busy_s", "rows")),
    ("late.regression_score", ("calls", "busy_s", "rows")),
    ("core.split_folds", ("calls", "busy_s")),
    ("core.derive_seed", ("calls", "busy_s")),
    ("core.Dataset.subset", ("calls", "busy_s")),
    ("plr.plr_crossfit", ("calls", "busy_s", "self_s")),
    ("qte.qte_crossfit", ("calls", "busy_s", "self_s")),
    ("qte.solve_monotone", ("calls", "busy_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "rows": "rows",
         "steps": "count", "gflop": "GFLOP", "gflops_per_s": "GFLOP/s",
         "newton_iters": "count"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = tuple(
    (f"{span}.{stat}", UNITS[stat], "higher" if stat == "gflops_per_s" else "lower")
    for span, stats in REPORTED for stat in stats
) + (
    ("diagnostics.truth_rows_per_draw", "rows/draw", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def layer_metrics(totals, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from ``tracer.summarize`` totals.

    ``diagnostics.truth_rows_per_draw`` is the number of ``f0_true``
    rows plus ``mu_true`` rows per Monte Carlo draw of the checker; it
    is 0 where the checker does not run.  ``trace_overhead_frac`` is
    added by the caller, which holds the untraced timings.
    """
    out = {}
    for span, stats in REPORTED:
        entry = totals.get(span, {})
        for stat in stats:
            if stat == "gflops_per_s":
                busy = entry.get("busy_s", 0.0)
                value = entry.get("gflop", 0.0) / busy if busy else 0.0
            else:
                value = entry.get(stat, 0) / n_ops
            out[f"{span}.{stat}"] = (value, UNITS[stat])
    draws = totals.get("ortho.check_orthogonality", {}).get("draws", 0)
    truth_rows = sum(totals.get(name, {}).get("rows", 0)
                     for name in ("sim.f0_true", "sim.mu_true"))
    out["diagnostics.truth_rows_per_draw"] = (
        truth_rows / draws if draws else 0.0, "rows/draw")
    return out
