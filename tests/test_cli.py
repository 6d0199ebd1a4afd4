import os
import subprocess
import sys

import numpy as np
import pytest

from siftpose.cli import main
from siftpose.fileio import read_benchmark_rows, read_solutions

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
