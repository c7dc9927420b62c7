"""Run the benchmark in alternating pairs, and compare two BENCH files.

    python tools/bench.py run --label mychange --seconds 25 --pairs 10 --against HEAD
    python tools/bench.py compare BENCH_mychange_parent.json BENCH_mychange.json

``run`` runs ``perfbench/run.py --workload W --seed 1 --seconds S --trace 0``
once per workload of ``BENCHMARK.json`` and pair, each in a fresh process,
and writes ``BENCH_<label>.json`` with the git head (and whether the working
tree differs from it), the environment line, and for each workload and pair
the gated metrics, ``op_times_s``, ``failed`` and ``digest_first_op``.

With ``--against REV``, REV is exported with ``git archive`` into a temporary
directory, and each pair runs both trees one after the other: REV first in
even pairs, the working tree first in odd ones, so drift in the host's load
falls on both sides alike.  REV's runs go to ``BENCH_<label>_parent.json``.
Files are rewritten after every run, so an interrupted run keeps its pairs.

``compare A.json B.json`` prints, per workload and gated metric, the median
[q1, q3] of each side, in how many of the n pairs B read lower than A, and
whether the medians differ by more than A's quartile distance, and a
verdict on the claim rule: a gain is claimed only from at least 10 pairs,
when B reads lower in at least 9 of every 10 of them, B's median is below
A's by more than A's quartile distance, and B failed no more operations
than A.  Beside the gated metrics it prints the raw time: the median over
pairs of B's median operation time divided by A's, which ``op_ref`` hides
when the reference kernel it is divided by runs faster or slower on one
side.  Then it prints any ``digest_first_op`` that differs between the
sides.  A run of ``--seconds 1`` is the quick mode.

Known blind spot: ``ortho_check`` times ``run_check`` in a process whose
reference kernel has already freed an 8 MB block.  That raises glibc's mmap
and trim thresholds, so the checker's shards stop page-faulting.
``orthoscore check`` runs in a fresh process, where 0.28-0.33 s of each
target is system time spent on those faults, which ``ortho_check`` never
sees.

Only the standard library is used, and nothing under ``perfbench/`` or
``BENCHMARK.json`` is written.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUN_TIMEOUT_S = 900


def parse_output(text: str) -> dict:
    """The figures of one perfbench run, from its ``record`` and result lines."""
    record = result = None
    for line in text.splitlines():
        if line.startswith("record {"):
            record = json.loads(line[len("record "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if record is None or result is None:
        raise ValueError("no record line and result line in perfbench output")
    return {
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "op_times_s": record["op_times_s"],
        "failed": result["failed"],
        "digest_first_op": record["digest_first_op"],
        "env": record["env"],
    }


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(("git",) + args, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    blob = subprocess.run(("git", "archive", "--format=tar", rev), cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def _run_once(tree: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        (sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace",
         "0"), cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench {workload} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return parse_output(done.stdout)


def _bench_file(label, head, dirty, against, seconds) -> dict:
    return {"label": label, "head": head, "dirty": dirty, "against": against,
            "seed": SEED, "seconds": seconds, "env": None, "workloads": {}}


def _add_run(bench: dict, workload: str, pair: int, first: bool, run: dict) -> None:
    env = run.pop("env")
    bench["env"] = bench["env"] or env
    bench["workloads"].setdefault(workload, []).append(
        {"pair": pair, "ran_first": first, **run})


def cmd_run(args) -> int:
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    against = _git("rev-parse", "--verify", args.against + "^{commit}") if args.against else None
    sides = [(ROOT, Path(f"BENCH_{args.label}.json"),
              _bench_file(args.label, head, dirty, against, args.seconds))]
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        if against:
            _export(against, Path(tmp))
            sides.append((Path(tmp), Path(f"BENCH_{args.label}_parent.json"),
                          _bench_file(args.label, against, False, None, args.seconds)))
            sides.reverse()  # REV runs first in pair 0
        for pair in range(args.pairs):
            for workload in names:
                order = sides if pair % 2 == 0 else sides[::-1]
                for position, (tree, out, bench) in enumerate(order):
                    run = _run_once(tree, workload, args.seconds)
                    _add_run(bench, workload, pair, position == 0, run)
                    (ROOT / out).write_text(json.dumps(bench, indent=1) + "\n")
                    print(f"pair {pair} {workload} {out}: op_ref "
                          f"{run['metrics']['op_ref']:.4g}, failed {run['failed']}",
                          flush=True)
    return 0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(a: dict, b: dict) -> list[str]:
    """Report lines comparing BENCH file b (the change) against a (the base)."""
    lines = [f"A: {a['label']} at {a['head'][:12]}; B: {b['label']} at "
             f"{b['head'][:12]}{' (dirty)' if b['dirty'] else ''}"]
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if not runs_b:
            lines.append(f"{workload}: only in A")
            continue
        n = min(len(runs_a), len(runs_b))
        failed_a, failed_b = (sum(r["failed"] for r in runs) for runs in (runs_a, runs_b))
        lines.append(f"{workload} ({n} pairs; failed A {failed_a}, B {failed_b})")
        for name in runs_a[0]["metrics"]:
            va = [r["metrics"][name] for r in runs_a[:n]]
            vb = [r["metrics"][name] for r in runs_b[:n]]
            qa, qb = _quartiles(va), _quartiles(vb)
            lower = sum(y < x for x, y in zip(va, vb))
            beyond = abs(qb[1] - qa[1]) > qa[2] - qa[0]
            claim = (n >= 10 and 10 * lower >= 9 * n and beyond and qb[1] < qa[1]
                     and failed_b <= failed_a)
            lines.append(
                f"  {name:12s} A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                f"B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                f"{100.0 * (qb[1] / qa[1] - 1.0):+.1f} %  B lower in {lower}/{n}  "
                f"beyond A's quartile distance: {'yes' if beyond else 'no'}  "
                f"claim rule: {'met' if claim else 'not met'}")
        ratios = [statistics.median(rb["op_times_s"]) / statistics.median(ra["op_times_s"])
                  for ra, rb in zip(runs_a[:n], runs_b[:n])]
        lines.append(f"  raw time     B/A {statistics.median(ratios):.3f} (median over "
                     f"pairs of B's median operation time over A's)  B lower in "
                     f"{sum(r < 1.0 for r in ratios)}/{n}")
        digests = sorted({(ra["digest_first_op"], rb["digest_first_op"])
                          for ra, rb in zip(runs_a[:n], runs_b[:n])})
        differ = [f"A {da}, B {db}" for da, db in digests if da != db]
        lines.append("  digest_first_op " + ("differs: " + "; ".join(differ) if differ
                                             else "same: " + digests[0][0]))
    return lines


def cmd_compare(args) -> int:
    try:
        a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
        lines = compare(a, b)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"bench: cannot compare {args.a} and {args.b}: {exc!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark and write BENCH_<label>.json")
    run.add_argument("--label", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--pairs", type=int, required=True)
    run.add_argument("--against", metavar="REV")
    comp = sub.add_parser("compare", help="compare B (the change) against A")
    comp.add_argument("a")
    comp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.seconds <= 0 or args.pairs < 1:
            parser.error("--seconds must be > 0 and --pairs >= 1")
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
