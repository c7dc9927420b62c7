"""End-to-end tests of the command-line surface, run in process."""

import json
import tracemalloc

import numpy as np
import pytest

import orthoscore.cli
import orthoscore.sim
from orthoscore.cli import METHOD_LABELS, main
from orthoscore.cli import _read_columns
from orthoscore.core import Dataset
from orthoscore.late import LateConfig, late_crossfit
from orthoscore.sim import DgpConfig, gen_dataset, run_replications

SIM_ARGV = ["simulate", "--scenario", "s1", "--n", "120", "--p", "4",
            "--reps", "3", "--methods", "r-lr,m", "--seed", "4"]
REPORT_NUMBERS = ["n", "p", "reps", "bias", "smse", "coverage", "failures"]


def _never(*args, **kwargs):
    raise AssertionError("the run must not start")


def _export_csv(path, data):
    """Write a dataset the way a user would hand it to `analyze`."""
    p = data.x.shape[1]
    header = [f"x{j + 1}" for j in range(p)] + ["y", "d", "z"]
    lines = [",".join(header)]
    for i in range(data.n):
        cells = [repr(float(v)) for v in data.x[i]]
        cells += [repr(float(data.y[i])), repr(float(data.d[i])),
                  repr(float(data.z[i]))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _analyze_argv(csv_path, method="r-lr", seed=3, p=4, **extra):
    argv = ["analyze", "--input", str(csv_path), "--outcome", "y",
            "--treatment", "d", "--instrument", "z",
            "--covariates", ",".join(f"x{j + 1}" for j in range(p)),
            "--method", method, "--seed", str(seed)]
    for flag, value in extra.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return argv


class TestSimulate:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(SIM_ARGV + ["--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "method,scenario,n,p,reps,bias,smse,coverage,failures"
        assert len(lines) == 3
        for label, line in zip(("r-lr", "m"), lines[1:]):
            cells = line.split(",")
            assert cells[0] == label
            assert cells[1:5] == ["s1", "120", "4", "3"]
            assert np.isfinite([float(c) for c in cells[5:8]]).all()
            assert cells[8] == "0"
        console = capsys.readouterr().out
        assert "seed=4" in console
        assert "r-lr" in console and "coverage" in console

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(SIM_ARGV + ["--out", str(a)]) == 0
        assert main(SIM_ARGV + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_roundtrips_through_own_reader(self, tmp_path):
        out = tmp_path / "r.csv"
        main(SIM_ARGV + ["--out", str(out)])
        columns = _read_columns(str(out), REPORT_NUMBERS)
        assert list(columns) == REPORT_NUMBERS
        assert columns["n"].tolist() == [120.0, 120.0]
        assert columns["failures"].tolist() == [0.0, 0.0]

    def test_json_mirror_matches_csv(self, tmp_path):
        out, js = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(SIM_ARGV + ["--out", str(out), "--json", str(js)]) == 0
        payload = json.loads(js.read_text(encoding="utf-8"))
        assert payload["scenario"] == "s1" and payload["n"] == 120
        assert payload["seed"] == 4
        assert [m["method"] for m in payload["methods"]] == ["r-lr", "m"]
        columns = _read_columns(str(out), REPORT_NUMBERS)
        for key in ("bias", "smse", "coverage"):
            assert columns[key].tolist() == [m[key] for m in payload["methods"]]

    def test_env_seed_is_the_default(self, tmp_path, monkeypatch):
        flagged, via_env = tmp_path / "flag.csv", tmp_path / "env.csv"
        assert main(SIM_ARGV + ["--out", str(flagged)]) == 0
        monkeypatch.setenv("ORTHOSCORE_SEED", "4")
        assert main(SIM_ARGV[:-2] + ["--out", str(via_env)]) == 0
        assert flagged.read_bytes() == via_env.read_bytes()

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("ORTHOSCORE_SEED", "not-a-number")
        assert main(SIM_ARGV[:-2]) == 2
        assert "ORTHOSCORE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [
        ["--methods", "banana"],
        ["--reps", "0"],
        ["--p", "3"],
        ["--jobs", "0"],
    ])
    def test_usage_errors_exit_2(self, patch, capsys):
        argv = list(SIM_ARGV)
        flag = patch[0]
        i = argv.index(flag) if flag in argv else None
        if i is None:
            argv += patch
        else:
            argv[i:i + 2] = patch
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_repeated_method_exits_2_before_any_replicate(self, monkeypatch, capsys):
        monkeypatch.setattr(orthoscore.sim, "gen_dataset", _never)
        argv = list(SIM_ARGV)
        argv[argv.index("--methods") + 1] = "r-lr,m,r-lr"
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: duplicate method: 'robust_lr'\n"

    def test_too_few_rows_to_split_exits_2_before_any_replicate(
            self, monkeypatch, capsys):
        monkeypatch.setattr(orthoscore.cli, "run_replications", _never)
        argv = list(SIM_ARGV)
        argv[argv.index("--n") + 1] = "3"
        assert main(argv) == 2
        assert "n must be at least 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_unwritable_report_path_exits_2(self, flag, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(orthoscore.cli, "run_replications", _never)
        target = tmp_path / "no" / "such" / "dir" / "r.txt"
        assert main(SIM_ARGV + [flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(target) in err
        assert "Traceback" not in err

    def test_failure_rate_exits_1_with_report_written(self, tmp_path,
                                                      monkeypatch, capsys):
        def broken(data, config):
            raise ValueError("boom")

        monkeypatch.setattr(orthoscore.sim, "late_crossfit", broken)
        out = tmp_path / "r.csv"
        argv = ["simulate", "--n", "120", "--reps", "2", "--methods", "m",
                "--seed", "0", "--out", str(out)]
        assert main(argv) == 1
        assert "failure rate" in capsys.readouterr().err
        columns = _read_columns(str(out), REPORT_NUMBERS)
        assert columns["failures"][0] == 2.0 and np.isnan(columns["bias"][0])


@pytest.fixture()
def iv_csv(tmp_path):
    data, _ = gen_dataset(DgpConfig(scenario="s1", n=400, p=4, seed=5))
    path = tmp_path / "d.csv"
    _export_csv(path, data)
    return path, data


class TestAnalyze:
    def test_json_roundtrip_matches_library(self, iv_csv, tmp_path, capsys):
        path, data = iv_csv
        out = tmp_path / "res.json"
        assert main(_analyze_argv(path, method="m", out=out)) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["method"] == "m"
        assert payload["n"] == 400 and payload["seed"] == 3
        direct = late_crossfit(data, LateConfig(method="moment", seed=3))
        # repr round-trips floats exactly, so the CSV detour is lossless.
        assert payload["beta_hat"] == direct.beta_hat
        assert payload["std_err"] == direct.std_err
        assert payload["ci_low"] == direct.ci_low
        assert payload["ci_high"] == direct.ci_high
        assert "beta_hat=" in capsys.readouterr().out

    def test_stdout_csv_format(self, iv_csv, capsys):
        path, _ = iv_csv
        assert main(_analyze_argv(path, format="csv")) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        lines = out.splitlines()
        assert lines[0] == "method,n,beta_hat,std_err,ci_low,ci_high,seed"
        cells = lines[1].split(",")
        assert cells[0] == "r-lr" and cells[1] == "400"
        assert np.isfinite([float(c) for c in cells[2:6]]).all()

    @pytest.mark.parametrize("op, compare", [
        ("==", np.equal), ("!=", np.not_equal), ("<", np.less),
        ("<=", np.less_equal), (">", np.greater), (">=", np.greater_equal),
    ])
    def test_filter_subsets_rows(self, iv_csv, tmp_path, op, compare, capsys):
        path, data = iv_csv
        site = np.arange(data.n) % 3
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [lines[0] + ",site"]
        rows += [f"{line},{s}" for line, s in zip(lines[1:], site)]
        labelled = tmp_path / "site.csv"
        labelled.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = _analyze_argv(labelled, filter_col="site", filter_op=op,
                             filter_value="1")
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == int(np.count_nonzero(compare(site, 1)))

    def test_zero_outcome_makes_m_equal_r_lr(self, iv_csv, tmp_path, capsys):
        path, data = iv_csv
        zeroed = tmp_path / "zero.csv"
        _export_csv(zeroed, type(data)(data.x, np.zeros(data.n), data.d, data.z))
        betas = {}
        for method in ("m", "r-lr"):
            assert main(_analyze_argv(zeroed, method=method, seed=8)) == 0
            betas[method] = json.loads(capsys.readouterr().out)["beta_hat"]
        assert betas["m"] == pytest.approx(betas["r-lr"], abs=1e-12)

    def test_ci_covers_truth_across_seeded_exports(self, tmp_path):
        hits = 0
        for s in range(50):
            data, truth = gen_dataset(DgpConfig(scenario="s1", n=400, p=4,
                                                seed=1000 + s))
            path = tmp_path / f"d{s}.csv"
            _export_csv(path, data)
            out = tmp_path / f"r{s}.json"
            assert main(_analyze_argv(path, seed=s, out=out)) == 0
            payload = json.loads(out.read_text(encoding="utf-8"))
            hits += payload["ci_low"] <= truth.beta0 <= payload["ci_high"]
        assert hits >= 45  # 90% of 50

    def test_filter_selecting_nothing_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        argv = _analyze_argv(path, filter_col="x1", filter_op=">",
                             filter_value="2")
        assert main(argv) == 2
        assert "no rows" in capsys.readouterr().err

    def test_fewer_than_20_rows_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        argv = _analyze_argv(path, filter_col="x1", filter_op=">",
                             filter_value="0.99")
        assert main(argv) == 2
        assert "fewer than 20 rows" in capsys.readouterr().err

    def test_incomplete_filter_flags_exit_2(self, iv_csv, capsys):
        path, _ = iv_csv
        assert main(_analyze_argv(path, filter_col="x1")) == 2
        assert "together" in capsys.readouterr().err

    def test_unknown_filter_op_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        argv = _analyze_argv(path, filter_col="x1", filter_op="~=",
                             filter_value="0")
        assert main(argv) == 2
        assert "comparator" in capsys.readouterr().err

    def test_non_numeric_filter_value_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        argv = _analyze_argv(path, filter_col="x1", filter_op=">",
                             filter_value="abc")
        assert main(argv) == 2
        assert "not numeric" in capsys.readouterr().err

    def test_non_numeric_filter_value_is_reported_before_the_input_is_read(
            self, tmp_path, capsys):
        argv = _analyze_argv(tmp_path / "missing.csv", filter_col="x1",
                             filter_op=">", filter_value="abc")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: filter value is not numeric: 'abc'\n")

    def test_missing_column_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        argv = _analyze_argv(path)
        argv[argv.index("y")] = "nope"
        assert main(argv) == 2
        assert "column not found" in capsys.readouterr().err

    def test_missing_values_list_first_ten_rows(self, tmp_path, capsys):
        lines = ["x1,y,d,z"]
        for i in range(30):
            cell = "" if 1 <= i <= 12 else "0.5"
            lines.append(f"{cell},1.0,{i % 2},{(i + 1) % 2}")
        path = tmp_path / "holes.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        err = capsys.readouterr().err
        assert "missing or non-numeric values in rows:" in err
        listed = err.split("rows:")[1].strip().split(", ")
        assert listed == [str(r) for r in range(2, 12)]

    def test_quoted_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "q.csv"
        path.write_text('x1,y,d,z\n"0.1",1.0,1,0\n', encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert "quoted fields are not supported" in capsys.readouterr().err

    def test_ragged_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,y,d,z\n0.1,1.0,1\n", encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert "expected 4" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line, message", [
        ("abc,1.0,1,0", "missing or non-numeric values in rows: 3"),
        ("0.1,1.0,1", "row 3 has 3 fields, expected 4"),
    ], ids=["bad cell", "ragged row"])
    def test_rows_are_numbered_by_line_after_the_header(
            self, bad_line, message, tmp_path, capsys):
        # The blank line counts, for a bad cell as for a ragged row.
        path = tmp_path / "gap.csv"
        path.write_text(f"x1,y,d,z\n0.1,1.0,1,0\n\n{bad_line}\n",
                        encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("blank", [b"   \n", b"\t\n", b" \r\n"],
                             ids=["spaces", "tab", "space before CRLF"])
    def test_whitespace_only_lines_are_skipped(self, blank, iv_csv, tmp_path, capsys):
        path, _ = iv_csv
        lines = path.read_bytes().splitlines(keepends=True)
        gappy = tmp_path / "gappy.csv"
        gappy.write_bytes(b"".join(lines[:3] + [blank] + lines[3:] + [blank]))
        assert main(_analyze_argv(path)) == 0
        plain = capsys.readouterr().out
        assert main(_analyze_argv(gappy)) == 0
        assert capsys.readouterr().out == plain
        # The skipped line still counts when rows are numbered.
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x1,y,d,z\n0.1,1.0,1,0\n" + blank + b"abc,1.0,1,0\n")
        assert main(_analyze_argv(bad, p=1)) == 2
        assert capsys.readouterr().err == "error: missing or non-numeric values in rows: 3\n"

    def test_unnamed_text_column_is_accepted(self, iv_csv, tmp_path, capsys):
        path, _ = iv_csv
        lines = path.read_text(encoding="utf-8").splitlines()
        labelled = tmp_path / "labelled.csv"
        labelled.write_text(
            "site," + lines[0] + "\n"
            + "\n".join(f"clinic {i % 3}," + line
                        for i, line in enumerate(lines[1:])) + "\n",
            encoding="utf-8")
        assert main(_analyze_argv(path)) == 0
        plain = capsys.readouterr().out
        assert main(_analyze_argv(labelled)) == 0
        assert capsys.readouterr().out == plain

    def test_reading_follows_the_named_columns(self, tmp_path):
        # 27 columns, 7 of them named: the parsed rows must not be held.
        rng = np.random.default_rng(0)
        names = [f"c{j}" for j in range(27)]
        rows = (",".join(repr(v) for v in row)
                for row in rng.standard_normal((20_000, 27)).tolist())
        path = tmp_path / "wide.csv"
        path.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        tracemalloc.start()
        try:
            columns = _read_columns(str(path), names[::4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.shape for c in columns.values()] == [(20_000,)] * 7
        assert peak < path.stat().st_size, (peak / 2**20, path.stat().st_size / 2**20)

    def test_duplicate_column_name_rejected(self, tmp_path, capsys):
        # Without the check the first x1 was read and the second ignored.
        rng = np.random.default_rng(0)
        rows = []
        for i in range(40):
            z = i % 2
            d = int(rng.random() < 0.2 + 0.6 * z)
            rows.append(f"{rng.normal() + d!r},{d},{z},"
                        f"{rng.normal()!r},{rng.normal()!r}")
        path = tmp_path / "dup.csv"
        path.write_text("y,d,z,x1,x1\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert capsys.readouterr().err == "error: duplicate column name: 'x1'\n"

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert "empty" in capsys.readouterr().err

    def test_unwritable_output_path_exits_2(self, iv_csv, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(orthoscore.cli, "late_crossfit", _never)
        path, _ = iv_csv
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(_analyze_argv(path, out=target)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(target) in captured.err
        assert "beta_hat" not in captured.out

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        argv = _analyze_argv(tmp_path / "absent.csv", p=1)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_binary_treatment_exits_2(self, tmp_path, capsys):
        rows = [f"0.{i % 10},1.0,2,{i % 2}" for i in range(25)]
        path = tmp_path / "bad_d.csv"
        path.write_text("x1,y,d,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 2
        assert "must be binary" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, iv_csv, capsys):
        path, _ = iv_csv
        assert main(_analyze_argv(path, method="banana")) == 2
        assert "unknown method label" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_variance_exits_1(self, tmp_path, capsys):
        data, _ = gen_dataset(DgpConfig(scenario="s1", n=400, p=4, seed=5))
        path = tmp_path / "huge_y.csv"
        _export_csv(path, Dataset(data.x, data.y * 1e300, data.d, data.z))
        assert main(_analyze_argv(path)) == 1
        assert "estimation failed: non-finite variance" in capsys.readouterr().err

    def test_underflowed_variance_exits_1(self, tmp_path, capsys):
        data, _ = gen_dataset(DgpConfig(scenario="s1", n=400, p=4, seed=5))
        path = tmp_path / "tiny_y.csv"
        _export_csv(path, Dataset(data.x, data.y * 1e-300, data.d, data.z))
        assert main(_analyze_argv(path)) == 1
        assert "estimation failed: variance underflows to 0" in capsys.readouterr().err

    def test_degenerate_instrument_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [f"{rng.uniform(-1, 1)!r},{rng.normal()!r},{i % 2},1.0"
                for i in range(40)]
        path = tmp_path / "flat_z.csv"
        path.write_text("x1,y,d,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(_analyze_argv(path, p=1)) == 1
        assert "estimation failed" in capsys.readouterr().err


class TestCheck:
    def test_late_target_passes(self, capsys):
        rc = main(["check", "--target", "late", "--n-mc", "100000",
                   "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "target=late" in out
        assert out.rstrip().endswith("PASS")
        assert "control" in out

    def test_plr_target_passes(self, capsys):
        rc = main(["check", "--target", "plr", "--n-mc", "50000",
                   "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith("PASS")

    def test_each_case_prints_its_pass_band(self, capsys):
        main(["check", "--target", "plr", "--n-mc", "4096", "--seed", "1"])
        cases = [line.split()[0] + " " + line[line.index("["):line.index("]") + 1]
                 for line in capsys.readouterr().out.splitlines()
                 if "derivative" in line]
        assert cases == ["orthogonal [<= 3*SE required]"] * 6 + \
            ["control [> 5*SE required]"]

    def test_zero_mc_budget_exits_2(self, capsys):
        assert main(["check", "--target", "late", "--n-mc", "0"]) == 2
        assert "n-mc must be at least 2" in capsys.readouterr().err

    def test_single_draw_exits_2(self, capsys):
        assert main(["check", "--target", "plr", "--n-mc", "1"]) == 2
        assert "n-mc must be at least 2" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, capsys):
        assert main(["check", "--target", "banana"]) == 2
        capsys.readouterr()

    def test_bad_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("ORTHOSCORE_SEED", "zzz")
        assert main(["check", "--target", "plr", "--n-mc", "1000"]) == 2
        assert "ORTHOSCORE_SEED" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative seed is a usage error (exit 2) on every path."""

    def test_simulate_flag(self, capsys):
        argv = list(SIM_ARGV)
        argv[argv.index("--seed") + 1] = "-1"
        assert main(argv) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_check_flag(self, capsys):
        assert main(["check", "--target", "plr", "--n-mc", "1000",
                     "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_analyze_flag(self, iv_csv, capsys):
        path, _ = iv_csv
        assert main(_analyze_argv(path, seed=-1)) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err
        assert "estimation failed" not in err

    @pytest.mark.parametrize("argv", [
        SIM_ARGV[:-2],
        ["check", "--target", "plr", "--n-mc", "1000"],
    ], ids=["simulate", "check"])
    def test_env_seed(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("ORTHOSCORE_SEED", "-3")
        assert main(argv) == 2
        assert "ORTHOSCORE_SEED must be non-negative" in capsys.readouterr().err

    def test_env_seed_for_analyze(self, iv_csv, monkeypatch, capsys):
        path, _ = iv_csv
        monkeypatch.setenv("ORTHOSCORE_SEED", "-3")
        argv = _analyze_argv(path)
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        assert main(argv) == 2
        assert "ORTHOSCORE_SEED must be non-negative" in capsys.readouterr().err

    def test_zero_seed_still_accepted(self, monkeypatch):
        monkeypatch.setenv("ORTHOSCORE_SEED", "0")
        assert main(["check", "--target", "plr", "--n-mc", "1000"]) == 0


def test_method_labels_cover_all_estimators():
    assert set(METHOD_LABELS) == {"r-np", "r-lr", "m", "reg-np", "reg-lr"}
    assert set(METHOD_LABELS.values()) == {"robust_np", "robust_lr", "moment",
                                           "reg_np", "reg_lr"}


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token!r}")


def test_all_failed_method_writes_null_in_json(tmp_path, monkeypatch, capsys):
    # NaN is no JSON value: a metric without a successful replicate is
    # null in the JSON report and nan in the CSV.
    def broken(data, config):
        raise ValueError("boom")

    monkeypatch.setattr(orthoscore.sim, "late_crossfit", broken)
    out, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    argv = ["simulate", "--n", "120", "--reps", "2", "--methods", "m",
            "--seed", "0", "--out", str(out), "--json", str(out_json)]
    assert main(argv) == 1
    assert "failure rate" in capsys.readouterr().err
    payload = json.loads(out_json.read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert payload["methods"] == [{"method": "m", "bias": None, "smse": None,
                                   "coverage": None, "reps_done": 0,
                                   "failures": 2}]
    assert np.isnan(_read_columns(str(out), ["bias"])["bias"][0])


def _hand_written_simulate_json(report, labels):
    """The JSON report as it was written before it was built from
    ``MethodSummary``'s fields."""
    payload = {
        "scenario": report.scenario,
        "n": report.n,
        "p": report.p,
        "reps": report.reps,
        "seed": report.master_seed,
        "methods": [
            {
                "method": label,
                "bias": s.bias,
                "smse": s.smse,
                "coverage": s.coverage,
                "reps_done": s.reps_done,
                "failures": s.failures,
            }
            for label in labels
            for s in [report.by_method(METHOD_LABELS[label])]
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_simulate_json_matches_hand_written_writer(tmp_path, monkeypatch):
    reports = []

    def recording(*args, **kwargs):
        reports.append(run_replications(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(orthoscore.cli, "run_replications", recording)
    out_json = tmp_path / "r.json"
    labels = ["reg-lr", "r-lr", "m"]
    argv = ["simulate", "--n", "120", "--reps", "3", "--methods",
            ",".join(labels), "--seed", "4", "--json", str(out_json)]
    assert main(argv) == 0
    (report,) = reports
    assert all(s.failures == 0 for s in report.methods)
    assert out_json.read_bytes() == _hand_written_simulate_json(
        report, labels).encode("utf-8")
