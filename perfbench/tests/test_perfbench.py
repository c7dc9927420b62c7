"""Tests of the benchmark itself: tracer completeness, call counts,
bit identity with tracing on and off, and the result-line format.

Run from the repository root with ``python -m pytest perfbench/tests``.
The per-workload tests run one real operation of each workload twice,
so the file takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import orthoscore
from layers import PER_LAYER, PROBES, layer_metrics, mlp_kernel_counts
from tracer import Tracer, package_modules, summarize
from workloads import DESK_METHODS, N_MC, REPS_PER_STUDY, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _holders(obj):
    return sorted(f"{module.__name__}.{name}" for module in package_modules()
                  for name, value in vars(module).items() if value is obj)


def test_tracer_rebinds_every_holder_and_restores():
    originals = {probe.name: getattr(*probe.locate()) for probe in PROBES}
    before = {name: _holders(obj) for name, obj in originals.items()}
    # The cross-module imports the tracer has to follow.
    for module in ("late", "plr", "qte"):
        for name in ("fit_least_squares", "fit_mlp"):
            assert f"orthoscore.{module}.{name}" in before[f"learners.{name}"]
    for name in ("gen_dataset", "f0_true", "mu_true"):
        assert f"orthoscore.diagnostics.{name}" in before[f"sim.{name}"]
    for name in ("robust_score", "moment_score"):
        assert f"orthoscore.diagnostics.{name}" in before[f"late.{name}"]
    seed_users = {h.rsplit(".", 1)[0] for h in before["core.derive_seed"]}
    assert {f"orthoscore.{m}" for m in
            ("late", "plr", "qte", "sim", "diagnostics", "ortho")} <= seed_users

    subset = orthoscore.Dataset.subset
    with Tracer(PROBES):
        for name, obj in originals.items():
            assert _holders(obj) == [], name
        assert orthoscore.Dataset.subset is not subset
    assert {name: _holders(obj) for name, obj in originals.items()} == before
    assert orthoscore.Dataset.subset is subset


def test_mlp_kernel_counts_by_hand():
    arch = orthoscore.MlpArchitecture(depth=2, width=3)
    config = orthoscore.TrainConfig(epochs=5, batch_size=4)
    steps, gflop = mlp_kernel_counts(10, 2, arch, config)
    assert steps == 5 * 3
    # weights: 2*3 + 3*3 = 15 hidden, 3 output -> forward 18 per row;
    # backward 18 + 9 (delta through the second hidden layer) = 27.
    assert gflop * 1e9 == pytest.approx(2 * 10 * (5 * (18 + 27) + 18))


def _expected_np():
    config = orthoscore.LateConfig(method="robust_np")
    steps, gflop = mlp_kernel_counts(500, 4, config.arch, config.train)
    return {
        "late.late_crossfit.calls": 1,
        # two folds x (log-odds net + correction net)
        "learners.fit_mlp.calls": 4,
        "learners.fit_mlp.steps": 4 * steps,
        "learners.fit_mlp.gflop": 4 * gflop,
        "late.estimate_log_odds.busy_s": None,
        "learners.fit_logistic.calls": 0,
        "core.split_folds.calls": 1,
        "core.Dataset.subset.calls": 4,
        # per fold: two calls to solve, one for the variance
        "late.robust_score.calls": 6,
        "late.robust_score.rows": 6 * 500,
    }


def _expected_check():
    shards = math.ceil(N_MC / (1 << 17))
    return {
        "diagnostics.run_check.late.busy_s": None,
        "diagnostics.run_check.plr.busy_s": None,
        "diagnostics.run_check.qte.busy_s": None,
        # per target: 2 nuisances x 3 directions + 1 control
        "ortho.check_orthogonality.calls": 21,
        # the late target samples gen_dataset shard by shard, 8 per case
        "sim.gen_dataset.calls": 7 * shards,
        "sim.gen_dataset.rows": 7 * N_MC,
        # plus and minus copies per shard: 6 orthogonal, 1 control case
        "late.robust_score.calls": 6 * shards * 2,
        "late.moment_score.calls": 1 * shards * 2,
        "learners.fit_mlp.calls": 0,
        "learners.fit_logistic.calls": 0,
        "learners.fit_least_squares.calls": 0,
    }


def _expected_study():
    r = REPS_PER_STUDY
    assert DESK_METHODS == ("robust_lr", "moment", "reg_lr")
    return {
        "sim.run_replications.busy_s": None,
        "sim.gen_dataset.calls": r,
        "late.late_crossfit.calls": 3 * r,
        "learners.fit_logistic.calls": 2 * 3 * r,
        # h for robust_lr and moment, two arms for reg_lr, per fold
        "learners.fit_least_squares.calls": 2 * (1 + 1 + 2) * r,
        "core.split_folds.calls": 3 * r,
        "core.Dataset.subset.calls": 4 * 3 * r,
        "late.robust_score.calls": 2 * (3 + 1) * r,
        "late.moment_score.calls": 2 * 2 * r,
        "late.regression_score.calls": 2 * 3 * r,
        "learners.fit_mlp.calls": 0,
    }


def _expected_large():
    return {
        "late.late_crossfit.calls": 2,
        "plr.plr_crossfit.calls": 1,
        "qte.qte_crossfit.calls": 1,
        # log-odds per late fold, propensity per qte fold
        "learners.fit_logistic.calls": 2 * 2 + 2,
        # robust_lr h, reg_lr two arms, plr m and l, qte h; per fold
        "learners.fit_least_squares.calls": 2 * (1 + 2 + 2 + 1),
        # pilot and final quantile per qte fold
        "qte.solve_monotone.calls": 4,
        "core.split_folds.calls": 4,
        "learners.fit_mlp.calls": 0,
        "ortho.check_orthogonality.calls": 0,
    }


EXPECTED = {"np_crossfit": _expected_np, "ortho_check": _expected_check,
            "lr_replication": _expected_study, "linear_large_n": _expected_large}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_and_bit_identity(name):
    workload = WORKLOADS[name]
    state = workload.prepare(3)
    plain = workload.judge(workload.run(state, 0))
    tracer = Tracer(PROBES)
    with tracer:
        traced = workload.judge(workload.run(state, 0))
    assert plain == traced
    assert plain.failed == 0
    assert plain.attempted == workload.attempts_per_op

    metrics = layer_metrics(summarize(tracer.spans), 1)
    for metric, expected in EXPECTED[name]().items():
        value, _ = metrics[metric]
        if expected is None:
            assert value > 0.0, metric
        else:
            assert value == pytest.approx(expected, rel=1e-12), metric
    if name == "ortho_check":
        assert metrics["diagnostics.truth_rows_per_draw"][0] > 0.0


def _result(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_result_lines_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    common = ["--workload", "lr_replication", "--seed", "5", "--seconds", "1"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _result(ROOT, *common, "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _result(tmp_path, "--workload", "lr_replication", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
