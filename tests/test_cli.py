import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def _fixture_rows(name):
    with open(os.path.join(FIXTURES, name)) as handle:
        return [line.strip().split(",") for line in handle if not line.startswith("#")]


DEMO_ROWS = _fixture_rows("ransac_f_demo.csv")
VALID_K = ["800", "0", "600", "0", "800", "400", "0", "0", "1"]
bad_tokens = st.sampled_from(["nan", "inf", "-inf", "x", "", "-1", "0", "1e400"])
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


class TestExitCodeTotality:
    """Every fuzzed input ends in a documented exit code, never in an exception."""

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["solve", "ransac"]),
           problem=st.sampled_from(["f4sift", "e3sift", "ff3sift", "f7pt", "e5pt", "ff6pt"]),
           corr=st.sampled_from([True] * 7 + [False]).flatmap(
               lambda present: correspondence_files() if present else st.none()),
           meta=st.sampled_from(["file"] * 4 + ["none", "absent"]).flatmap(
               lambda kind: metadata_files() if kind == "file" else st.just(kind)))
    def test_documented_exit_codes(self, command, problem, corr, meta):
        with tempfile.TemporaryDirectory() as tmp:
            corr_path = os.path.join(tmp, "pair.csv")
            if corr is not None:  # None leaves the file missing
                with open(corr_path, "w") as handle:
                    handle.write(corr)
            args = [command, "--problem", problem, "--input", corr_path,
                    "--output", os.path.join(tmp, "out.txt")]
            if meta != "none":
                meta_path = os.path.join(tmp, "pair.meta")
                if meta != "absent":
                    with open(meta_path, "w") as handle:
                        handle.write(meta)
                args += ["--meta", meta_path]
            if command == "ransac":
                args += ["--max-iters", "20"]
            assert run_cli(args) in (0, 2, 3, 4)
