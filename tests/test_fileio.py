import math

import numpy as np
import pytest

from siftpose.errors import ParseError
from siftpose.fileio import (
    BenchmarkRow,
    PairMetadata,
    read_correspondences,
    read_metadata,
    write_benchmark_rows,
    write_correspondences,
    write_metadata,
    write_solutions,
)
from siftpose.geometry import CameraIntrinsics

from support import read_benchmark_rows, read_solutions


class TestCorrespondenceFiles:
    def test_round_trip_radians(self, tmp_path, scene):
        path = tmp_path / "corr.csv"
        write_correspondences(path, scene.correspondences, units="rad")
        back = read_correspondences(path)
        assert np.array_equal(back, scene.correspondences)

    def test_degree_header(self, tmp_path):
        path = tmp_path / "corr.csv"
        corr = np.array([[1.0, 2.0, 1.5, math.pi / 2, 3.0, 4.0, 2.5, math.pi]])
        write_correspondences(path, corr, units="deg")
        text = path.read_text()
        assert text.startswith("# units=deg")
        assert "90" in text
        back = read_correspondences(path)
        assert np.allclose(back, corr)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4,5,6,7,8\n")
        with pytest.raises(ParseError):
            read_correspondences(path)

    def test_non_numeric_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# units=rad\n1,2,3,4,5,6,7,8\n1,2,x,4,5,6,7,8\n")
        with pytest.raises(ParseError) as excinfo:
            read_correspondences(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"# units=rad\n1,2,3,4,5,6,7,8\n1,2,3,4,{token},6,7,8\n")
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            read_correspondences(path)
        assert excinfo.value.line == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# units=rad\n1,2,3\n")
        with pytest.raises(ParseError):
            read_correspondences(path)

    def test_non_positive_scale_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# units=rad\n1,2,-1,0,3,4,1,0\n")
        with pytest.raises(ParseError):
            read_correspondences(path)


class TestMetadataFiles:
    def test_round_trip(self, tmp_path, scene):
        path = tmp_path / "pair.meta"
        meta = PairMetadata(k1=scene.k1.matrix(), k2=scene.k2.matrix(),
                            gt_rotation=scene.pose.rotation,
                            gt_translation=scene.pose.translation,
                            gt_focal=scene.focal, dataset="synthetic",
                            sequence="s", pair_id="p0")
        write_metadata(path, meta)
        back = read_metadata(path)
        assert np.array_equal(back.k1, meta.k1)
        assert np.array_equal(back.gt_rotation, meta.gt_rotation)
        assert np.array_equal(back.gt_translation, meta.gt_translation)
        assert back.gt_focal == meta.gt_focal
        assert (back.dataset, back.sequence, back.pair_id) == ("synthetic", "s", "p0")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "pair.meta"
        path.write_text("K3 1 2 3\n")
        with pytest.raises(ParseError):
            read_metadata(path)

    def test_wrong_matrix_size(self, tmp_path):
        path = tmp_path / "pair.meta"
        path.write_text("K1 1 2 3 4\n")
        with pytest.raises(ParseError):
            read_metadata(path)

    def test_intrinsics_helpers(self, scene, tmp_path):
        path = tmp_path / "pair.meta"
        write_metadata(path, PairMetadata(k1=scene.k1.matrix(), k2=scene.k2.matrix()))
        meta = read_metadata(path)
        k1, k2 = CameraIntrinsics.from_matrix(meta.k1), CameraIntrinsics.from_matrix(meta.k2)
        assert k1.fx == scene.k1.fx
        assert np.allclose(meta.principal_point, scene.principal_point)


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        rng = np.random.default_rng(0)
        entries = [{"matrix": rng.standard_normal((3, 3)), "focal": 812.5,
                    "residual_max": 1.25e-12},
                   {"matrix": rng.standard_normal((3, 3)), "focal": None,
                    "residual_max": 3.5e-11}]
        with open(path, "w") as handle:
            write_solutions(handle, "ff3sift", entries)
        problem, models = read_solutions(path)
        assert problem == "ff3sift"
        assert len(models) == 2
        assert np.array_equal(models[0]["matrix"], entries[0]["matrix"])
        assert models[0]["focal"] == 812.5
        assert models[1]["residual_max"] == 3.5e-11
        assert "focal" not in models[1]


class TestBenchmarkFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.csv"
        rows = [
            BenchmarkRow("p0", "e3sift", 0.5, 1.25, math.nan, 12.5, 40, 44, 120, "ok"),
            BenchmarkRow("p1", "e3sift", status="error"),
        ]
        write_benchmark_rows(path, rows)
        back = read_benchmark_rows(path)
        assert len(back) == 2
        assert back[0].pair_id == "p0"
        assert back[0].rot_err_deg == 0.5
        assert math.isnan(back[0].focal_err)
        assert back[1].status == "error"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text("pair_id,solver\n")
        with pytest.raises(ParseError):
            read_benchmark_rows(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "bench.csv"
        row = BenchmarkRow("p0", "f7pt", 1.0, 2.0, math.nan, 0.0, 10, 12, 80, "ok")
        path.write_text(",".join(
            ("pair_id", "solver", "rot_err_deg", "trans_err_deg", "focal_err",
             "wall_ms", "iterations", "models_scored", "inliers", "status"))
            + "\n" + row.to_csv() + "\n# inliers: 1 2 3\n")
        assert len(read_benchmark_rows(path)) == 1
