"""Benchmark of the orthoscore package.

Run from the repository root:

    python3 perfbench/run.py --workload np_crossfit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in one process as a closed loop: an operation starts
only after the previous one returned, with ``jobs=1``, no extra threads
and every BLAS/OpenMP pool pinned to one thread before numpy is
imported.  Operations start until ``--seconds`` have passed (at least
one; two in a traced run).

``--trace 0`` reports the end-to-end metrics: ``op_ref`` (the median
over operations of each one's time over the time of a reference kernel
run just before and after it, see ``ReferenceKernel``), ``peak_rss_mb``
and ``setup_s``
(import in a fresh interpreter, input generation and warm-up, repeated
and reported as the median).  The median seconds per operation, the
fastest operation, the throughput and a tail percentile are recorded
beside them, not gated: on a shared host raw seconds move with other
tenants' load.  ``--trace 1`` runs each operation twice,
untraced then traced by the outside-in tracer, requires the two to
return bit-identical numbers, and reports the per-layer metrics of
``layers.py`` plus ``trace_overhead_frac``.

Every run checks the returned numbers (see ``workloads.judge_*``) and
prints a human-readable report, one ``record`` JSON line with the
environment, sample counts and a digest of the first operation's
numbers, and last the result line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in its own child process, one after another.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the pin above must precede numpy's import)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("np_crossfit", "ortho_check", "lr_replication", "linear_large_n")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import orthoscore; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def set_up(workload, seed):
    """Import, input generation and warm-up, repeated; returns state, times."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        state = workload.prepare(seed)
        workload.warm(state)
        times.append(imported + perf_counter() - start)
    return state, times


def timed_op(workload, state, i):
    """(seconds, verdict) of operation i; a raised operation fails whole."""
    start = perf_counter()
    try:
        results = workload.run(state, i)
    except Exception:  # keep the loop running; the failure is counted
        traceback.print_exc()
        return perf_counter() - start, None
    elapsed = perf_counter() - start
    return elapsed, workload.judge(results)


def digest(values) -> str:
    return "sha256:" + hashlib.sha256(
        numpy.asarray(values, dtype=numpy.float64).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times):
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 90, 75, 50):
        if len(times) * (100 - q) / 100 >= 10:
            return {"percentile": q, "value": float(numpy.percentile(times, q))}
    return None


class Tally:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None

    def add(self, verdict):
        if verdict is None:
            n = self.workload.attempts_per_op
            self.attempted += n
            self.failed += n
            return
        if self.first is None:
            self.first = verdict
        self.attempted += verdict.attempted
        self.failed += verdict.failed


class ReferenceKernel:
    """A fixed compute kernel, timed between operations.

    The host is shared: other tenants slow the core by up to ~1.7x for
    seconds to minutes at a time, and the operations slow with them.
    The kernel mixes what the workloads spend their time on (small BLAS
    matmuls, elementwise numpy within L2 and over an 8 MB array, and a
    Python loop), so an operation's time over the kernel's time moves
    much less with the host's load than either time alone.  The kernel
    never calls the package, so no change to the package can move it.
    """

    REPEATS = 6

    def __init__(self):
        rng = numpy.random.default_rng(12345)
        self.matrix = rng.standard_normal((160, 160))
        self.vector = rng.standard_normal(1 << 16)
        self.block = rng.standard_normal(1 << 20)      # 8 MB, past L2

    def seconds(self) -> float:
        start = perf_counter()
        for _ in range(self.REPEATS):
            for _ in range(6):
                self.matrix @ self.matrix
            numpy.sort(numpy.exp(0.5 * self.vector))
            self.block * 1.5 + 1.0
            total = 0.0
            for i in range(4000):
                total += math.sqrt(i)
        return perf_counter() - start


def measure(workload, state, seconds, reference):
    """Operation times, and the kernel times sampled in each gap.

    ``gaps[i]`` holds the kernel samples taken just before operation i
    and ``gaps[i + 1]`` those just after it.  After each operation the
    kernel runs once per started second of that operation, so a long
    operation is flanked by several samples.
    """
    reference.seconds()  # the first call pays for first-touch allocation
    times, gaps, tally = [], [[reference.seconds()]], Tally(workload)
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        elapsed, verdict = timed_op(workload, state, len(times))
        times.append(elapsed)
        tally.add(verdict)
        gaps.append([reference.seconds() for _ in range(1 + int(elapsed))])
    return times, gaps, tally


def op_ref(times, gaps) -> float:
    """Median over operations of its time over its flanking kernel time."""
    flank = [0.5 * (statistics.fmean(before) + statistics.fmean(after))
             for before, after in zip(gaps, gaps[1:])]
    return statistics.median(t / f for t, f in zip(times, flank))


def measure_traced(workload, state, seconds, tracer):
    """Pairs of (untraced, traced) runs of the same operation."""
    plain, traced, tally, mismatches = [], [], Tally(workload), 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        i = len(traced)
        elapsed, base = timed_op(workload, state, i)
        plain.append(elapsed)
        with tracer:
            elapsed, seen = timed_op(workload, state, i)
        traced.append(elapsed)
        tally.add(base)
        tally.add(seen)
        if base is not None and seen is not None and base.values != seen.values:
            print(f"operation {i}: traced numbers differ from untraced",
                  file=sys.stderr)
            mismatches += seen.attempted
    tally.failed += mismatches
    return plain, traced, tally


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(args) -> int:
    import orthoscore
    if Path(orthoscore.__file__).resolve().parent != SRC / "orthoscore":
        print(f"perfbench: imported orthoscore from {orthoscore.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer, summarize, write_spans

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    state, setup_times = set_up(workload, args.seed)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "op": workload.op,
              "env": env}

    if args.trace:
        tracer = Tracer(layers.PROBES)
        plain, traced, tally = measure_traced(workload, state, args.seconds, tracer)
        n = len(traced)
        metrics = {name: metric(value, unit, n) for name, (value, unit)
                   in layers.layer_metrics(summarize(tracer.spans), n).items()}
        overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        metrics["trace_overhead_frac"] = metric(overhead, "frac", n)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(tracer.spans, spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        times, gaps, tally = measure(workload, state, args.seconds,
                                     ReferenceKernel())
        n = len(times)
        median = statistics.median(times)
        rate = n / sum(times)
        metrics = {
            "op_ref": metric(op_ref(times, gaps), "ref", n),
            "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
            "setup_s": metric(statistics.median(setup_times), "s", SETUP_REPEATS),
        }
        record["op_times_s"] = times
        record["kernel_times_s"] = gaps
        derived = {workload.alias: metric(median, "s", n),
                   "op_best_s": metric(min(times), "s", n),
                   "rows_per_s": metric(workload.rows_per_op * rate, "1/s", n)}
        if workload.name == "lr_replication":
            derived["replicates_per_s"] = metric(
                workloads.REPS_PER_STUDY * rate, "1/s", n)
        if workload.name == "np_crossfit":
            # Criterion 4: 100 robust_np replicates at n=1000, jobs=1.
            derived["slow_tier_projection_s"] = metric(100 * median, "s", n)
        record["op_tail_s"] = tail(times)
        record["derived_not_gated"] = derived

    record["failed_frac"] = tally.failed / max(tally.attempted, 1)
    record["digest_first_op"] = digest(tally.first.values) if tally.first else None
    record["metrics"] = metrics
    print_human(record, tally)
    print("record " + json.dumps(record))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    print(json.dumps(result))
    return 0


def print_human(record, tally):
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: operation = {record['op']}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']} (samples {m['samples']})")
    for name, m in record.get("derived_not_gated", {}).items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']}; not gated)")
    if record.get("op_tail_s"):
        print(f"  {'op_tail_s':44s} {record['op_tail_s']['value']:.6g} s "
              f"(p{record['op_tail_s']['percentile']}; not gated)")
    print(f"  {'failed_frac':44s} {record['failed_frac']:.6g} "
          f"({tally.failed} of {tally.attempted} checked results)")
    print(f"  digest of first operation: {record['digest_first_op']}")
    print(f"  env: {json.dumps(record['env'])}")


def run_all(args) -> int:
    """Every workload in its own child process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orthoscore" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
