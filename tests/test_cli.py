import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import siftpose.bench as bench
from siftpose.cli import main
from support import read_benchmark_rows, read_solutions

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_cli(args):
    return main(list(args))


class TestSolveCommand:
    def test_e3sift_fixture(self, tmp_path, capsys):
        out = tmp_path / "solution.txt"
        code = run_cli(["solve", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv"),
                        "--output", str(out)])
        assert code == 0
        problem, models = read_solutions(out)
        assert problem == "e3sift"
        assert len(models) == 1
        assert models[0]["residual_max"] < 1e-8

    def test_f4sift_fixture(self, tmp_path):
        out = tmp_path / "solution.txt"
        code = run_cli(["solve", "--problem", "f4sift",
                        "--input", os.path.join(FIXTURES, "f4sift_clean.csv"),
                        "--output", str(out)])
        assert code == 0
        _, models = read_solutions(out)
        assert 1 <= len(models) <= 3
        for model in models:
            assert abs(np.linalg.det(model["matrix"])) < 1e-8

    def test_ff3sift_fixture(self, tmp_path):
        out = tmp_path / "solution.txt"
        code = run_cli(["solve", "--problem", "ff3sift",
                        "--input", os.path.join(FIXTURES, "ff3sift_clean.csv"),
                        "--output", str(out)])
        assert code == 0
        _, models = read_solutions(out)
        assert all(m["focal"] > 0 for m in models)

    def test_wrong_sample_size_exit_code(self, tmp_path):
        code = run_cli(["solve", "--problem", "f4sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv")])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# units=rad\n1,2,nope,4,5,6,7,8\n")
        code = run_cli(["solve", "--problem", "e3sift", "--input", str(bad)])
        assert code == 3

    def test_degenerate_sample_exit_code(self, tmp_path):
        bad = tmp_path / "degenerate.csv"
        rows = ["# units=rad"]
        for i in range(4):
            rows.append(f"{10.0 + i},{20.0 + 2 * i},1,0,{30.0 + i},{40.0 + 2 * i},1,0")
        bad.write_text("\n".join(rows) + "\n")
        code = run_cli(["solve", "--problem", "f4sift", "--input", str(bad)])
        assert code == 4


class TestRansacCommand:
    def test_demo_pair(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(["ransac", "--problem", "f4sift",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                        "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                        "--seed", "3", "--output", str(out)])
        assert code == 0
        rows = read_benchmark_rows(out)
        assert rows[0].status == "ok"
        assert rows[0].inliers >= 60
        assert rows[0].rot_err_deg < 5.0
        assert "# inliers:" in out.read_text()

    def test_seed_determinism_bitwise(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run_cli(["ransac", "--problem", "e3sift",
                            "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                            "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                            "--seed", "9", "--fixed-clock", "--output", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_max_iters_one_still_succeeds_with_output(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(["ransac", "--problem", "f7pt",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                        "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                        "--max-iters", "1", "--seed", "1", "--output", str(out)])
        assert code == 0
        rows = read_benchmark_rows(out)
        assert rows[0].status in ("ok", "failed")
        assert rows[0].iterations <= 1

    @pytest.mark.parametrize("flag,value", [("--confidence", "2"), ("--confidence", "0"),
                                            ("--threshold", "-1"), ("--threshold", "0"),
                                            ("--threshold", "inf"), ("--threshold", "5e-324"),
                                            ("--max-iters", "-3")])
    def test_invalid_config_is_usage_error(self, flag, value, capsys):
        code = run_cli(["ransac", "--problem", "f7pt",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_zero_budget_writes_failed_row(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(["ransac", "--problem", "f7pt",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                        "--max-iters", "0", "--output", str(out)])
        assert code == 0
        rows = read_benchmark_rows(out)
        assert rows[0].status == "failed" and rows[0].iterations == 0
        assert "# warnings: no model found" in out.read_text()

    @pytest.mark.parametrize("problem", ["e3sift", "ff3sift"])
    def test_meta_without_intrinsics_is_usage_error(self, tmp_path, problem):
        meta = tmp_path / "pair.meta"
        meta.write_text("dataset synthetic\n")
        code = run_cli(["ransac", "--problem", problem,
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                        "--meta", str(meta)])
        assert code == 2

    def test_meta_required_for_essential(self):
        code = run_cli(["ransac", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv")])
        assert code == 2

    def test_lo_flag_off(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(["ransac", "--problem", "f4sift",
                        "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                        "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                        "--lo", "off", "--seed", "3", "--output", str(out)])
        assert code == 0


class TestBenchCommands:
    def test_bench_synthetic_stability(self, tmp_path):
        out_dir = tmp_path / "bench"
        code = run_cli(["bench-synthetic", "--experiment", "stability",
                        "--trials", "30", "--seed", "2", "--out-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "stability.csv").read_text().strip().split("\n")
        assert lines[0] == "trial,solver,log10_error"
        assert len(lines) == 1 + 30 * 4

    def test_bench_synthetic_deterministic(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code = run_cli(["bench-synthetic", "--experiment", "noise",
                            "--trials", "6", "--seed", "4", "--sigmas", "0,1",
                            "--out-dir", str(out_dir)])
            assert code == 0
            blobs.append((out_dir / "noise.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("experiment,trials,table", [("noise", "4", "noise.csv"),
                                                         ("ransac-speedup", "2",
                                                          "ransac_speedup.csv")])
    def test_bench_synthetic_worker_count(self, tmp_path, monkeypatch, experiment, trials,
                                          table):
        # SIFTPOSE_WORKERS is the only worker control; the tables must not see it
        blobs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SIFTPOSE_WORKERS", workers)
            out_dir = tmp_path / f"w{workers}"
            assert run_cli(["bench-synthetic", "--experiment", experiment, "--trials", trials,
                            "--seed", "3", "--fixed-clock", "--out-dir", str(out_dir)]) == 0
            blobs.append((out_dir / table).read_bytes())
        assert blobs[0] == blobs[1]

    def test_bench_dataset(self, tmp_path):
        out = tmp_path / "rows.csv"
        manifest = os.path.join(FIXTURES, "mini_dataset", "manifest.txt")
        code = run_cli(["bench-dataset", "--pairs", manifest, "--problem", "e",
                        "--solvers", "e3sift,e5pt", "--seed", "0",
                        "--fixed-clock", "--out", str(out)])
        assert code == 0
        rows = read_benchmark_rows(out)
        per_pair = [r for r in rows if not r.pair_id.startswith("aggregate")]
        footer = [r for r in rows if r.pair_id.startswith("aggregate")]
        assert len(per_pair) == 20 * 2
        assert len(footer) == 4  # mean and median per solver
        # aggregate footer equals recomputation from the rows
        for solver in ("e3sift", "e5pt"):
            good = [r for r in per_pair if r.solver == solver and r.status == "ok"]
            mean_row = next(r for r in footer
                            if r.solver == solver and r.pair_id == "aggregate_mean")
            assert mean_row.rot_err_deg == pytest.approx(
                np.mean([r.rot_err_deg for r in good]))

    def test_bench_dataset_solver_family_mismatch(self, tmp_path):
        manifest = os.path.join(FIXTURES, "mini_dataset", "manifest.txt")
        code = run_cli(["bench-dataset", "--pairs", manifest, "--problem", "e",
                        "--solvers", "f7pt", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("solvers,message", [("f4sift,bogus", "unknown solver 'bogus'"),
                                                 (",", "names no solver")])
    def test_bench_dataset_bad_solver_list(self, tmp_path, capsys, solvers, message):
        manifest = os.path.join(FIXTURES, "mini_dataset", "manifest.txt")
        out = tmp_path / "x.csv"
        code = run_cli(["bench-dataset", "--pairs", manifest, "--problem", "f",
                        "--solvers", solvers, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bench_dataset_missing_meta_rows(self, tmp_path):
        # a manifest entry with a missing metadata file yields an error row
        # and the run continues
        manifest = tmp_path / "manifest.txt"
        src = os.path.join(FIXTURES, "mini_dataset")
        manifest.write_text(
            f"{os.path.join(src, 'pair_000.csv')} {os.path.join(src, 'pair_000.meta')}\n"
            f"{os.path.join(src, 'pair_001.csv')} {tmp_path / 'missing.meta'}\n")
        out = tmp_path / "rows.csv"
        code = run_cli(["bench-dataset", "--pairs", str(manifest), "--problem", "e",
                        "--solvers", "e3sift", "--seed", "0",
                        "--fixed-clock", "--out", str(out)])
        assert code == 0
        rows = read_benchmark_rows(out)
        statuses = {r.pair_id: r.status for r in rows if not r.pair_id.startswith("aggregate")}
        assert statuses["pair_000"] == "ok"
        assert list(statuses.values()).count("parse-error") == 1

    def test_bench_dataset_program_fault_propagates(self, monkeypatch):
        # only a ParseError marks a pair as a bad file; any other fault is a bug
        def broken(path):
            raise RuntimeError("program fault")

        monkeypatch.setattr(bench, "read_metadata", broken)
        src = os.path.join(FIXTURES, "mini_dataset")
        args = (0, os.path.join(src, "pair_000.csv"), os.path.join(src, "pair_000.meta"),
                ("e3sift",), 0, True)
        with pytest.raises(RuntimeError, match="program fault"):
            bench._dataset_chunk(args)

    def test_metadata_with_k1_only(self, tmp_path):
        # bench-dataset and ransac both use what K1 gives: no pose for f, a
        # refusal for e (an error row, exit 2), K1's principal point for ff
        with open(os.path.join(FIXTURES, "ransac_f_demo.meta")) as handle:
            text = "".join(line for line in handle if not line.startswith("K2"))
        meta = tmp_path / "pair.meta"
        meta.write_text(text)
        data = os.path.join(FIXTURES, "ransac_f_demo.csv")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{data} {meta}\n")
        dataset = {}
        for family, solver_id in (("f", "f7pt"), ("e", "e5pt"), ("ff", "ff3sift")):
            out = tmp_path / f"{family}.csv"
            assert run_cli(["bench-dataset", "--pairs", str(manifest), "--problem", family,
                            "--solvers", solver_id, "--fixed-clock", "--out", str(out)]) == 0
            dataset[family] = read_benchmark_rows(out)[0]
        assert dataset["f"].status == "ok" and np.isnan(dataset["f"].rot_err_deg)
        assert dataset["e"].status == "error"
        assert dataset["ff"].status == "ok"
        assert np.isfinite([dataset["ff"].rot_err_deg, dataset["ff"].focal_err]).all()
        rows = {}
        for problem, code in (("f4sift", 0), ("e3sift", 2), ("ff3sift", 0)):
            out = tmp_path / f"{problem}.csv"
            assert run_cli(["ransac", "--problem", problem, "--input", data, "--meta", str(meta),
                            "--max-iters", "50", "--seed", "1", "--output", str(out)]) == code
            if code == 0:
                rows[problem] = read_benchmark_rows(out)[0]
        assert rows["f4sift"].status == "ok" and np.isnan(rows["f4sift"].rot_err_deg)
        assert np.isfinite([rows["ff3sift"].rot_err_deg, rows["ff3sift"].focal_err]).all()


class TestNonFiniteInput:
    """A non-finite field is malformed input: exit 3 with a message, no traceback."""

    @pytest.mark.parametrize("command,fixture,meta", [
        ("solve", "f4sift_clean.csv", None),
        ("ransac", "ransac_f_demo.csv", "ransac_f_demo.meta"),
    ])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_exit_code(self, tmp_path, command, fixture, meta, token):
        with open(os.path.join(FIXTURES, fixture)) as handle:
            lines = handle.read().splitlines()
        fields = lines[2].split(",")
        fields[4] = token
        lines[2] = ",".join(fields)
        bad = tmp_path / fixture
        bad.write_text("\n".join(lines) + "\n")
        args = [sys.executable, "-m", "siftpose.cli", command, "--problem", "f4sift",
                "--input", str(bad)]
        if meta is not None:
            args += ["--meta", os.path.join(FIXTURES, meta)]
        result = subprocess.run(args, capture_output=True, text=True)
        assert result.returncode == 3
        assert f"{bad}:3: non-finite value" in result.stderr
        assert "Traceback" not in result.stderr


class TestConsoleEntry:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "siftpose.cli", "solve", "--problem", "e3sift",
             "--input", os.path.join(FIXTURES, "e3sift_clean.csv")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("problem e3sift")

    def test_usage_exit(self):
        result = subprocess.run([sys.executable, "-m", "siftpose.cli", "solve"],
                                capture_output=True, text=True)
        assert result.returncode == 2


class TestInputErrors:
    """Malformed intrinsics and bad options exit 2; unreadable files exit 3."""

    @pytest.mark.parametrize("k1", ["-800 0 600 0 800 400 0 0 1",
                                    "800 0 600 5 800 400 0 0 1"])
    def test_solve_malformed_intrinsics_is_usage_error(self, tmp_path, capsys, k1):
        meta = tmp_path / "pair.meta"
        meta.write_text(f"K1 {k1}\nK2 800 0 600 0 800 400 0 0 1\n")
        code = run_cli(["solve", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv"),
                        "--meta", str(meta)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("line", ["K1 nan 0 600 0 800 400 0 0 1", "gt_focal inf"])
    def test_non_finite_metadata_is_parse_error(self, tmp_path, capsys, line):
        meta = tmp_path / "pair.meta"
        meta.write_text(f"{line}\nK2 800 0 600 0 800 400 0 0 1\n")
        code = run_cli(["solve", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv"),
                        "--meta", str(meta)])
        assert code == 3
        assert f"{meta}:1: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["solve", "--problem", "e3sift", "--input", "{missing}"],
        ["solve", "--problem", "e3sift", "--input", "{e3sift}", "--meta", "{missing}"],
        ["ransac", "--problem", "f7pt", "--input", "{missing}"],
        ["bench-dataset", "--pairs", "{missing}", "--problem", "f", "--solvers", "f7pt",
         "--out", "{out}"],
    ])
    def test_missing_file_is_parse_error(self, tmp_path, capsys, args):
        paths = {"missing": str(tmp_path / "missing.txt"), "out": str(tmp_path / "out.csv"),
                 "e3sift": os.path.join(FIXTURES, "e3sift_clean.csv")}
        code = run_cli([arg.format(**paths) for arg in args])
        assert code == 3
        assert "cannot open" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--sigmas", "a"),
                                            ("--sigmas", "-1"), ("--sigmas", "0,nan"),
                                            ("--inlier-ratio", "1.5"),
                                            ("--inlier-ratio", "0")])
    def test_bench_synthetic_bad_option_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run_cli(["bench-synthetic", "--experiment", "noise", f"{flag}={value}",
                        "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "noise.csv").exists()


    @pytest.mark.parametrize("target", ["input", "meta", "manifest"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, target):
        bad = tmp_path / "bad.txt"
        fixture = {"input": "e3sift_clean.csv", "meta": "ransac_f_demo.meta",
                   "manifest": os.path.join("mini_dataset", "manifest.txt")}[target]
        with open(os.path.join(FIXTURES, fixture), "rb") as handle:
            bad.write_bytes(handle.read() + b"# \xff\n")
        if target == "manifest":
            args = ["bench-dataset", "--pairs", str(bad), "--problem", "f",
                    "--solvers", "f7pt", "--out", str(tmp_path / "rows.csv")]
        else:
            args = ["solve", "--problem", "e3sift",
                    "--input", str(bad) if target == "input"
                    else os.path.join(FIXTURES, "e3sift_clean.csv")]
            if target == "meta":
                args += ["--meta", str(bad)]
        assert run_cli(args) == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_solve_essential_without_k2_names_it(self, tmp_path, capsys):
        meta = tmp_path / "pair.meta"
        meta.write_text("K1 800 0 600 0 800 400 0 0 1\n")
        code = run_cli(["solve", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv"),
                        "--meta", str(meta)])
        assert code == 2
        err = capsys.readouterr().err
        assert "needs both intrinsics" in err and "no K2" in err

    def test_solve_essential_without_k1_names_it(self, tmp_path, capsys):
        meta = tmp_path / "pair.meta"
        meta.write_text("K2 800 0 600 0 800 400 0 0 1\n")
        code = run_cli(["solve", "--problem", "e3sift",
                        "--input", os.path.join(FIXTURES, "e3sift_clean.csv"),
                        "--meta", str(meta)])
        assert code == 2
        err = capsys.readouterr().err
        assert "needs both intrinsics" in err and "no K1" in err

    def test_solve_semicalibrated_without_k1_names_it(self, tmp_path, capsys):
        # the principal point comes from K1; K2 alone must not pass for none
        meta = tmp_path / "pair.meta"
        meta.write_text("K2 800 0 600 0 800 400 0 0 1\n")
        out = tmp_path / "solution.txt"
        code = run_cli(["solve", "--problem", "ff3sift",
                        "--input", os.path.join(FIXTURES, "ff3sift_clean.csv"),
                        "--meta", str(meta), "--output", str(out)])
        assert code == 2
        assert "no K1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,problem,code", [("solve", "f4sift", 4),
                                                      ("solve", "ff3sift", 4),
                                                      ("ransac", "f4sift", 2),
                                                      ("ransac", "ff3sift", 2)])
    def test_coordinates_overflowing_the_frame(self, tmp_path, command, problem, code):
        data = _with_huge_coordinate(tmp_path, f"{problem}_clean.csv")
        args = [command, "--problem", problem, "--input", str(data)]
        if problem == "ff3sift" and command == "ransac":
            args += ["--meta", os.path.join(FIXTURES, "ransac_f_demo.meta")]
        result = subprocess.run([sys.executable, "-m", "siftpose.cli", *args],
                                capture_output=True, text=True)
        assert result.returncode == code
        assert "coordinates too large for a solver frame" in result.stderr
        assert "Warning" not in result.stderr

    def test_overflowing_rows_are_refused(self, tmp_path):
        # u1 = u2 = 1e300 overflows the record's epipolar row to inf; the
        # sample is refused before its core runs on the non-finite rows
        for problem, fixture, size in (("e3sift", "e3sift_clean.csv", 3),
                                       ("e5pt", "ransac_f_demo.csv", 5)):
            data = _with_huge_coordinate(tmp_path, fixture, columns=(0, 4), count=size)
            result = subprocess.run([sys.executable, "-m", "siftpose.cli", "solve",
                                     "--problem", problem, "--input", str(data)],
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 4, problem
            assert "estimation failed: constraint rows not finite" in result.stderr
            assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    @pytest.mark.parametrize("problem", ["e3sift", "e5pt"])
    def test_overflowing_rows_end_ransac_in_time(self, tmp_path, problem):
        # every tenth record at u1 = u2 = 1e300: each drawn sample holding
        # one is refused by the row screen, where the e5pt core's SVD used
        # to run on the infinite rows without end
        data = _with_huge_coordinate(tmp_path, "ransac_f_demo.csv", columns=(0, 4), step=10)
        result = subprocess.run(
            [sys.executable, "-m", "siftpose.cli", "ransac", "--problem", problem,
             "--input", str(data), "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
             "--seed", "1", "--output", str(tmp_path / "report.csv")],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0 and result.stderr == ""

    @pytest.mark.parametrize("problem", ["e3sift", "e5pt"])
    def test_overflowing_distances_exclude_the_record(self, tmp_path, problem):
        # the calibrated frame has no spread to overflow; the record's squared
        # distances and errors are inf, which only keeps it out of the inliers
        data = _with_huge_coordinate(tmp_path, "ransac_f_demo.csv")
        out = tmp_path / "report.csv"
        result = subprocess.run(
            [sys.executable, "-m", "siftpose.cli", "ransac", "--problem", problem,
             "--input", str(data), "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
             "--max-iters", "50", "--seed", "1", "--output", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == ""
        assert read_benchmark_rows(out)[0].status == "ok"


def _with_huge_coordinate(tmp_path, fixture, columns=(0,), step=None, count=None):
    """A copy of a fixture's first count records (all by default) with 1e300 in some columns.

    The first record, and every step-th record after it when step is
    given, holds 1e300 in the given columns (u1 by default).
    """
    with open(os.path.join(FIXTURES, fixture)) as handle:
        lines = handle.read().splitlines()
    header = [line for line in lines if line.startswith("#")]
    records = [line for line in lines if not line.startswith("#")][:count]
    for i in range(0, len(records), step or len(records)):
        fields = records[i].split(",")
        for column in columns:
            fields[column] = "1e300"
        records[i] = ",".join(fields)
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(header + records) + "\n")
    return data


def _fixture_rows(name):
    with open(os.path.join(FIXTURES, name)) as handle:
        return [line.strip().split(",") for line in handle if not line.startswith("#")]


DEMO_ROWS = _fixture_rows("ransac_f_demo.csv")
VALID_K = ["800", "0", "600", "0", "800", "400", "0", "0", "1"]
SAMPLE_SIZES = {"f4sift": 4, "e3sift": 3, "ff3sift": 3, "f7pt": 7, "e5pt": 5, "ff6pt": 6}
# "\udcff" is written as the byte 0xff, which is not UTF-8
bad_tokens = st.sampled_from(["nan", "inf", "-inf", "x", "", "-1", "0", "1e400", "1e300",
                              "-1e300", "\udcff"])
headers = st.sampled_from(["# units=rad"] * 8 + ["# units=deg", "# units=grad", "", "# comment"])


@st.composite
def correspondence_files(draw):
    """A correspondence file: a header, demo records, then a few corrupted fields."""
    lines = [draw(headers)]
    count = draw(st.sampled_from([3, 4, 5, 6, 7, 12, 12, 12, 0]))
    start = draw(st.integers(0, len(DEMO_ROWS) - count))
    records = [list(row) for row in DEMO_ROWS[start:start + count]]
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        if not records:
            break
        row = records[draw(st.integers(0, len(records) - 1))]
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(bad_tokens)
        elif draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    return "\n".join(lines + [",".join(row) for row in records]) + "\n"


@st.composite
def well_formed_inputs(draw, command, problem):
    """A parseable correspondence file and metadata with both intrinsics, or no metadata.

    solve gets one sample, ransac twelve records. The last record may repeat
    the first (a degenerate sample), or a coordinate may be +-1e300.
    """
    count = SAMPLE_SIZES[problem] if command == "solve" else 12
    start = draw(st.integers(0, len(DEMO_ROWS) - count))
    records = [list(row) for row in DEMO_ROWS[start:start + count]]
    edit = draw(st.sampled_from([None] * 3 + ["repeat", "huge"]))
    if edit == "repeat":
        records[-1] = list(records[0])
    elif edit == "huge":
        row = records[draw(st.integers(0, count - 1))]
        row[draw(st.sampled_from([0, 1, 4, 5]))] = draw(st.sampled_from(["1e300", "-1e300"]))
    corr = "\n".join(["# units=rad"] + [",".join(row) for row in records]) + "\n"
    k_lines = "".join(f"{key} {' '.join(VALID_K)}\n" for key in ("K1", "K2"))
    meta_optional = command == "solve" or problem in ("f4sift", "f7pt")
    meta = draw(st.sampled_from([k_lines, "none"] if meta_optional else [k_lines]))
    return corr, meta


@st.composite
def metadata_files(draw):
    """Pair metadata whose K lines may be missing, short, non-finite or malformed."""
    lines = []
    for key in ("K1", "K2"):
        entries = list(VALID_K)
        kind = draw(st.sampled_from(["valid"] * 10 + ["missing", "short", "token",
                                                      "negative", "lower"]))
        if kind == "missing":
            continue
        if kind == "short":
            entries.pop()
        elif kind == "token":
            entries[draw(st.integers(0, 8))] = draw(bad_tokens)
        elif kind == "negative":
            entries[0] = "-800"
        elif kind == "lower":
            entries[3] = "5"
        lines.append(key + " " + " ".join(entries))
    extra = draw(st.sampled_from([None] * 3 + ["gt_focal 800", "gt_focal nan", "bogus 1"]))
    if extra is not None:
        lines.append(extra)
    return "\n".join(lines) + "\n"


@st.composite
def cli_cases(draw):
    """(command, problem, correspondence text or None for a missing file, metadata).

    Four in five cases are well formed, so that most reach a solver.
    """
    command = draw(st.sampled_from(["solve", "ransac"]))
    problem = draw(st.sampled_from(sorted(SAMPLE_SIZES)))
    if draw(st.sampled_from([True] * 4 + [False])):
        corr, meta = draw(well_formed_inputs(command, problem))
        return command, problem, corr, meta
    corr = draw(st.sampled_from([True] * 7 + [False]).flatmap(
        lambda present: correspondence_files() if present else st.none()))
    meta = draw(st.sampled_from(["file"] * 4 + ["none", "absent"]).flatmap(
        lambda kind: metadata_files() if kind == "file" else st.just(kind)))
    return command, problem, corr, meta


def _write(path, text):
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
        handle.write(text)


class TestExitCodeTotality:
    """Every fuzzed input ends in a documented exit code, never in an exception."""

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cli_cases())
    def test_documented_exit_codes(self, case):
        command, problem, corr, meta = case
        with tempfile.TemporaryDirectory() as tmp:
            corr_path = os.path.join(tmp, "pair.csv")
            if corr is not None:  # None leaves the file missing
                _write(corr_path, corr)
            args = [command, "--problem", problem, "--input", corr_path,
                    "--output", os.path.join(tmp, "out.txt")]
            if meta != "none":
                meta_path = os.path.join(tmp, "pair.meta")
                if meta != "absent":
                    _write(meta_path, meta)
                args += ["--meta", meta_path]
            if command == "ransac":
                args += ["--max-iters", "20"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli(args)
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
