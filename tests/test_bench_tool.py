"""Smoke tests of tools/bench.py on canned perfbench output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ENV = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6"}


def _output(op_ref, rss, setup, digest, failed=0):
    """The tail of one perfbench run: report, record line, result line."""
    metrics = {"op_ref": {"value": op_ref, "unit": "ref", "samples": 3},
               "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
               "setup_s": {"value": setup, "unit": "s", "samples": 5}}
    record = {"workload": "linear_large_n", "seed": 1, "env": ENV,
              "op_times_s": [0.41, 0.40, 0.43], "digest_first_op": digest,
              "failed_frac": failed / 12, "metrics": metrics}
    result = {"correct": failed == 0, "attempted": 12, "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items()}}
    return "\n".join([
        "perfbench linear_large_n seed=1 trace=0: operation = the mix",
        f"  op_ref {op_ref} ref (samples 3)",
        f"  env: {json.dumps(ENV)}",
        "record " + json.dumps(record),
        json.dumps(result),
    ]) + "\n"


def _bench(label, op_refs, digest="sha256:aa", failed=0):
    data = bench._bench_file(label, "0123456789abcdef", False, None, 25.0)
    for pair, op_ref in enumerate(op_refs):
        run = bench.parse_output(_output(op_ref, 110.0 + pair, 0.3, digest, failed))
        bench._add_run(data, "linear_large_n", pair, pair % 2 == 0, run)
    return data


def test_parse_output_reads_record_and_result_lines():
    run = bench.parse_output(_output(17.5, 111.25, 0.28, "sha256:ab", failed=2))
    assert run == {"metrics": {"op_ref": 17.5, "peak_rss_mb": 111.25, "setup_s": 0.28},
                   "op_times_s": [0.41, 0.40, 0.43], "failed": 2,
                   "digest_first_op": "sha256:ab", "env": ENV}


def test_parse_output_rejects_output_without_a_record():
    with pytest.raises(ValueError, match="no record line"):
        bench.parse_output("perfbench: no package source under src\n")


def test_add_run_keeps_the_environment_once():
    data = _bench("x", [19.0, 18.0])
    assert data["env"] == ENV
    assert [r["pair"] for r in data["workloads"]["linear_large_n"]] == [0, 1]
    assert all("env" not in r for r in data["workloads"]["linear_large_n"])


def test_compare_counts_lower_pairs_and_quartile_distance():
    parent = _bench("parent", [19.0, 19.5, 20.0, 19.2, 19.8])
    change = _bench("change", [17.0, 17.2, 20.5, 16.9, 17.1])
    lines = bench.compare(parent, change)
    op_ref = next(line for line in lines if line.strip().startswith("op_ref"))
    assert "A 19.5 [19.2, 19.8]" in op_ref
    assert "B 17.1 [17, 17.2]" in op_ref
    assert "B lower in 4/5" in op_ref
    assert "beyond A's quartile distance: yes" in op_ref
    assert "digest_first_op same: sha256:aa" in lines[-1]


def _op_ref_line(parent_values, change_values, failed_a=0, failed_b=0):
    lines = bench.compare(_bench("parent", parent_values, failed=failed_a),
                          _bench("change", change_values, failed=failed_b))
    return next(line for line in lines if line.strip().startswith("op_ref"))


PARENT_10 = [19.0, 19.5, 20.0, 19.2, 19.8, 19.4, 19.6, 19.1, 19.9, 19.3]
# 9 of 10 lower; median 17.35 against 19.45, quartile distance 0.525
CHANGE_10 = [17.0, 17.2, 20.5, 16.9, 17.1, 17.5, 17.6, 17.4, 17.8, 17.3]


@pytest.mark.parametrize("change, verdict", [
    (CHANGE_10, "met"),
    # 8 of 10 lower: too few pairs
    ([17.0, 17.2, 20.5, 16.9, 17.1, 17.5, 17.6, 17.4, 20.1, 17.3], "not met"),
    # 10 of 10 lower, but the medians differ by 0.2 < 0.525
    ([v - 0.2 for v in PARENT_10], "not met"),
    # the medians differ by more than the quartile distance, upward
    ([v + 2.0 for v in PARENT_10], "not met"),
], ids=["9 of 10 and beyond", "8 of 10", "inside the quartiles", "higher"])
def test_compare_states_the_claim_verdict(change, verdict):
    line = _op_ref_line(PARENT_10, change)
    assert line.endswith(f"claim rule: {verdict}")
    assert line.count("claim rule:") == 1


def test_claim_rule_needs_ten_pairs():
    # 19 of 20 lower counts; 5 of 5 and 9 of 9 are too few pairs to claim.
    assert _op_ref_line(PARENT_10 * 2, CHANGE_10 * 2).endswith("claim rule: met")
    assert _op_ref_line(PARENT_10[:5], [v - 2.0 for v in PARENT_10[:5]]).endswith(
        "claim rule: not met")
    assert _op_ref_line(PARENT_10[:9], [v - 2.0 for v in PARENT_10[:9]]).endswith(
        "claim rule: not met")


def test_claim_rule_is_not_met_when_b_fails_more_operations():
    assert _op_ref_line(PARENT_10, CHANGE_10, failed_b=1).endswith("claim rule: not met")
    assert _op_ref_line(PARENT_10, CHANGE_10, failed_a=1, failed_b=1).endswith(
        "claim rule: met")


@pytest.mark.parametrize("change, verdict", [
    (CHANGE_10, "within bound"),
    # 24 % worse: inside the 25 % bound of op_ref
    ([v * 1.24 for v in PARENT_10], "within bound"),
    ([v * 1.3 for v in PARENT_10], "worse beyond bound"),
    # B's quartile distance, 6.5 on a median of 19.5, is wider than 25 %
    ([14.0, 19.5, 26.0, 14.5, 25.0, 19.0, 20.0, 13.0, 27.0, 19.6], "unresolved"),
], ids=["lower", "worse within", "worse beyond", "spread"])
def test_compare_states_the_regression_verdict(change, verdict):
    assert f"regression: {verdict}  claim rule:" in _op_ref_line(PARENT_10, change)


def test_regression_verdict_reads_bound_and_direction():
    base = (9.9, 10.0, 10.1)
    assert bench.regression_verdict(base, (10.9, 11.0, 11.1), 0.05, "lower") == (
        "worse beyond bound")
    assert bench.regression_verdict(base, (10.9, 11.0, 11.1), 0.05, "higher") == (
        "within bound")
    assert bench.regression_verdict(base, (8.9, 9.0, 9.1), 0.05, "higher") == (
        "worse beyond bound")
    # A quartile distance of 1.0 is wider than 5 % of the median 10.0.
    wide = (9.5, 10.0, 10.5)
    assert bench.regression_verdict(wide, base, 0.05, "lower") == "unresolved"
    assert bench.regression_verdict(base, wide, 0.05, "lower") == "unresolved"
    assert bench.regression_verdict(wide, base, 0.1, "lower") == "within bound"


def test_compare_reports_a_moved_digest():
    lines = bench.compare(_bench("a", [19.0, 19.0]), _bench("b", [19.0, 19.0], "sha256:bb"))
    assert lines[-1] == "  digest_first_op differs: A sha256:aa, B sha256:bb"
    assert any("B lower in 0/2" in line and "quartile distance: no" in line
               for line in lines)


def _with_simd(data, level):
    data["env"] = {**data["env"], "simd": level}
    return data


def test_compare_says_digests_at_other_simd_levels_are_not_comparable():
    avx512 = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]
    a = _with_simd(_bench("a", [19.0, 19.0]), avx512)
    b = _with_simd(_bench("b", [19.0, 19.0], "sha256:bb"), ["X86_V3"])
    assert bench.compare(a, b)[-1] == (
        "  digest_first_op: SIMD level differs; digests not comparable "
        "(A X86_V3 X86_V4 AVX512_ICL AVX512_SPR, B X86_V3)")
    # At one level, or when a file has no level, a moved digest is reported.
    same = _with_simd(_bench("b", [19.0, 19.0], "sha256:bb"), avx512)
    for b in (same, _bench("b", [19.0, 19.0], "sha256:bb")):
        assert bench.compare(a, b)[-1] == (
            "  digest_first_op differs: A sha256:aa, B sha256:bb")
    # Equal digests are equal at any level.
    b = _with_simd(_bench("b", [19.0, 19.0]), ["X86_V3"])
    assert bench.compare(a, b)[-1] == "  digest_first_op same: sha256:aa"


def test_simd_level_lists_enabled_dispatch_targets():
    import numpy
    umath = getattr(numpy, "_core", numpy.core)._multiarray_umath
    level = bench._simd_level()
    assert level == [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


def test_compare_prints_the_raw_time_ratio(tmp_path, capsys):
    # Every canned parent run has the median operation time 0.41 s.
    parent = _bench("parent", [19.0, 19.5, 20.0])
    change = _bench("change", [19.0, 19.5, 20.0])
    for run, times in zip(change["workloads"]["linear_large_n"],
                          ([0.36, 0.35, 0.40], [0.50, 0.38, 0.36], [0.44, 0.45, 0.42])):
        run["op_times_s"] = times
    paths = []
    for data in (parent, change):
        paths.append(tmp_path / f"{data['label']}.json")
        paths[-1].write_text(json.dumps(data))
    assert bench.main(["compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    raw = [line for line in lines if line.strip().startswith("raw time")]
    # Ratios 0.36/0.41, 0.38/0.41 and 0.44/0.41; op_ref is the same on both sides.
    assert raw == ["  raw time     B/A 0.927 (median over pairs of B's median "
                   "operation time over A's)  B lower in 2/3"]
    assert lines.index(raw[0]) == len(lines) - 2
    assert any(line.strip().startswith("op_ref") and "+0.0 %" in line for line in lines)


def test_compare_command_exits_2_on_a_malformed_file(tmp_path, capsys):
    good = tmp_path / "a.json"
    good.write_text(json.dumps(_bench("a", [19.0])))
    bad = tmp_path / "b.json"
    bad.write_text("{")
    assert bench.main(["compare", str(good), str(bad)]) == 2
    assert bench.main(["compare", str(good), str(good)]) == 0
    assert "linear_large_n (1 pairs; failed A 0, B 0)" in capsys.readouterr().out


def test_committed_bench_files_parse():
    names = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        assert data["workloads"] and set(data["workloads"]) <= names
        assert bench.compare(data, data)
