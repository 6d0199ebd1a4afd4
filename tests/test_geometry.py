import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from siftpose.errors import DegenerateConfigurationError
from siftpose.geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FundamentalMatrix,
    RelativePose,
    decompose_essential,
    epipolar_error_stack,
    essential_from_pose,
    fundamental_from_essential,
    homogenize,
    normalize_points,
    relative_focal_error,
    rotation_error,
    symmetric_epipolar_errors,
    translation_error,
)
import siftpose.geometry
from support import two_buffer_epipolar_errors


def random_rank2(rng):
    u = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(u)
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return FundamentalMatrix.from_array(q @ np.diag([1.0, rng.uniform(0.2, 1.0), 0.0]) @ v.T)


def line_in_image2(f, point):
    """The line F p in image 2 of a first-image point, as coefficients (a, b, c)."""
    return f.m @ np.array([point[0], point[1], 1.0])


def point_on_line(line, offset, rng):
    a, b, c = line
    norm = math.hypot(a, b)
    base = -c / norm * np.array([a, b]) / norm
    tangent = np.array([-b, a]) / norm
    return base + rng.uniform(-offset, offset) * tangent


class TestSymmetricEpipolarError:
    def test_consistent_pair_is_zero(self):
        rng = np.random.default_rng(3)
        f = random_rank2(rng)
        p1 = np.array([3.0, -7.0])
        line = line_in_image2(f, p1)
        p2 = point_on_line(line, 50.0, rng)
        assert symmetric_epipolar_errors(f, np.array([[*p1, *p2]]))[0] < 1e-12

    def test_synthetic_scene_noise_free(self, scene):
        errors = symmetric_epipolar_errors(scene.f, scene.pairs)
        assert np.max(errors) < 1e-9

    def test_one_pixel_perpendicular_displacement(self):
        # independent oracle: the displaced point is exactly 1 px from its
        # line, and the first-image distance is the residual over that
        # image's line normal
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 10:
            f = random_rank2(rng)
            p1 = rng.uniform(-50.0, 50.0, 2)
            line = line_in_image2(f, p1)
            if math.hypot(line[0], line[1]) < 1e-14:
                continue
            p2 = point_on_line(line, 50.0, rng)
            normal = line[:2] / np.linalg.norm(line[:2])
            displaced = p2 + normal
            n1 = (f.m.T @ np.array([*displaced, 1.0]))[:2]
            n2 = line[:2]
            expected = 0.5 * (1.0 + np.linalg.norm(n2) / np.linalg.norm(n1))
            got = symmetric_epipolar_errors(f, np.array([[*p1, *displaced]]))[0]
            assert abs(got - expected) < 1e-9
            if 0.4 < expected <= 1.0:
                checked += 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        f = random_rank2(rng)
        pairs = rng.uniform(-100.0, 100.0, (20, 4))
        a = symmetric_epipolar_errors(f.m, pairs)
        b = symmetric_epipolar_errors(7.3 * f.m, pairs)
        assert np.allclose(a, b)

    def test_double_epipole_sentinel(self):
        f = np.diag([1.0, 1.0, 0.0])  # rank 2; (0, 0) is the epipole both ways
        err = symmetric_epipolar_errors(f, np.array([[0.0, 0.0, 0.0, 0.0]]))
        assert np.isinf(err[0])
        # a single epipole with a vanishing residual is consistent: zero error
        err_one = symmetric_epipolar_errors(f, np.array([[0.0, 0.0, 3.0, 4.0]]))
        assert err_one[0] == 0.0

    def test_non_finite_is_inf(self):
        rng = np.random.default_rng(6)
        pairs = rng.uniform(-100.0, 100.0, (5, 4))
        for bad in (np.nan, np.inf):
            assert np.all(symmetric_epipolar_errors(np.full((3, 3), bad), pairs) == np.inf)
        # line normals and residuals overflow
        huge = symmetric_epipolar_errors(random_rank2(rng), np.full((1, 4), 1e300))
        assert huge[0] == np.inf

    def test_stack_matches_the_two_buffer_form(self):
        # bitwise, on random stacks with non-finite entries, vanishing line
        # normals and points on an epipole
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300])
        for trial in range(600):
            scale = 10.0 ** rng.integers(-3, 4)
            pairs = scale * rng.standard_normal((int(rng.integers(1, 300)), 4))
            stack = rng.standard_normal((int(rng.integers(1, 40)), 3, 3))
            if trial % 3 == 0:
                bad = rng.random(stack.shape) < 0.05
                stack[bad] = rng.choice(specials, bad.sum())
            if trial % 5 == 0:
                bad = rng.random(pairs.shape) < 0.05
                pairs[bad] = rng.choice(specials, bad.sum())
            if trial % 7 == 0:
                stack[0] = np.outer([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
                pairs[0, :2] = 0.0
            p1h, p2h = homogenize(pairs[:, :2]), homogenize(pairs[:, 2:])
            assert (epipolar_error_stack(p1h, p2h, stack).tobytes()
                    == two_buffer_epipolar_errors(p1h, p2h, stack).tobytes()), trial

    def test_wrong_shape_is_refused(self, scene):
        with pytest.raises(ValueError, match=r"\(n, 4\).*\(\d+, 8\)"):
            symmetric_epipolar_errors(scene.f, scene.correspondences)
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            symmetric_epipolar_errors(scene.f, np.zeros((2, 3)))


class TestPoseMetrics:
    def test_rotation_identity(self):
        r = Rotation.from_rotvec([0.1, 0.2, 0.3]).as_matrix()
        assert rotation_error(r, r) == 0.0

    def test_rotation_ten_degrees(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            base = Rotation.random(random_state=7).as_matrix()
            turned = Rotation.from_rotvec(np.radians(10.0) * axis).as_matrix() @ base
            assert abs(rotation_error(turned, base) - 10.0) < 1e-9

    def test_rotation_matches_independent_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            r_a = Rotation.random(random_state=rng).as_matrix()
            r_b = Rotation.random(random_state=rng).as_matrix()
            oracle = math.degrees(Rotation.from_matrix(r_a.T @ r_b).magnitude())
            assert abs(rotation_error(r_b, r_a) - oracle) < 1e-8

    def test_rotation_symmetry(self):
        rng = np.random.default_rng(9)
        r_a = Rotation.random(random_state=rng).as_matrix()
        r_b = Rotation.random(random_state=rng).as_matrix()
        assert rotation_error(r_a, r_b) == pytest.approx(rotation_error(r_b, r_a))

    def test_translation_trivials(self):
        t = np.array([0.3, -0.4, 0.5])
        assert translation_error(t, t) == 0.0
        assert translation_error(-t, t) == 0.0
        assert translation_error([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(90.0)

    def test_translation_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            translation_error([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_focal_error(self):
        assert relative_focal_error(800.0, 800.0) == 0.0
        assert relative_focal_error(1.5 * 640.0, 640.0) == pytest.approx(0.5)
        assert relative_focal_error(0.0, 123.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            relative_focal_error(100.0, 0.0)


class TestNormalizePoints:
    def test_identity(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(normalize_points(pts, np.eye(3)), pts)

    def test_diagonal(self):
        out = normalize_points(np.array([[4.0, 2.0]]), np.diag([2.0, 2.0, 1.0]))
        assert np.allclose(out, [[2.0, 1.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        k = CameraIntrinsics(812.0, 790.0, 512.0, 384.0, skew=0.3)
        pts = rng.uniform(0.0, 1000.0, (30, 2))
        normalized = normalize_points(pts, k)
        back = np.hstack([normalized, np.ones((30, 1))]) @ k.matrix().T
        assert np.max(np.abs(back[:, :2] - pts)) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            normalize_points(np.array([[1.0, 1.0]]), np.diag([1.0, 1.0, 0.0]))


class TestDecomposeEssential:
    def test_forward_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rotation = Rotation.from_rotvec(0.4 * rng.standard_normal(3)).as_matrix()
            translation = rng.standard_normal(3)
            translation /= np.linalg.norm(translation)
            e = essential_from_pose(rotation, translation)
            world = rng.uniform(-1.0, 1.0, (12, 3)) + np.array([0.0, 0.0, 6.0])
            x1 = world[:, :2] / world[:, 2:3]
            cam2 = world @ rotation.T + translation
            if np.any(cam2[:, 2] <= 0.0):
                continue
            x2 = cam2[:, :2] / cam2[:, 2:3]
            pose = decompose_essential(e, np.hstack([x1, x2]),
                                       CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                                       CameraIntrinsics(1.0, 1.0, 0.0, 0.0))
            assert rotation_error(pose.rotation, rotation) < 1e-6
            assert translation_error(pose.translation, translation) < 1e-6

    def test_canonical_stereo(self):
        e = essential_from_pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        world = np.array([[0.0, 0.0, 5.0]])
        x1 = world[:, :2] / world[:, 2:3]
        cam2 = world + np.array([1.0, 0.0, 0.0])
        x2 = cam2[:, :2] / cam2[:, 2:3]
        pose = decompose_essential(e, np.hstack([x1, x2]),
                                   CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                                   CameraIntrinsics(1.0, 1.0, 0.0, 0.0))
        assert rotation_error(pose.rotation, np.eye(3)) < 1e-9
        assert abs(abs(pose.translation[0]) - 1.0) < 1e-9

    def test_mirrored_points_recovered_up_to_sign(self):
        # negating every depth is absorbed by the translation-sign ambiguity
        # of the essential matrix, so the pose comes back with t flipped
        # rather than failing
        rng = np.random.default_rng(12)
        rotation = Rotation.from_rotvec([0.1, -0.2, 0.15]).as_matrix()
        translation = np.array([0.6, -0.2, 0.75])
        translation /= np.linalg.norm(translation)
        e = essential_from_pose(rotation, translation)
        world = rng.uniform(-1.0, 1.0, (10, 3)) + np.array([0.0, 0.0, -6.0])
        x1 = world[:, :2] / world[:, 2:3]
        cam2 = world @ rotation.T + translation
        assert np.all(cam2[:, 2] < 0.0)
        x2 = cam2[:, :2] / cam2[:, 2:3]
        pose = decompose_essential(e, np.hstack([x1, x2]),
                                   CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                                   CameraIntrinsics(1.0, 1.0, 0.0, 0.0))
        assert rotation_error(pose.rotation, rotation) < 1e-6
        assert pose.translation @ translation < -0.999

    def test_no_candidate_raises(self, monkeypatch):
        def all_behind(x1, x2, rotation, translation):
            n = x1.shape[0]
            return -np.ones(n), -np.ones(n)

        monkeypatch.setattr(siftpose.geometry, "_triangulate_depths", all_behind)
        e = essential_from_pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateConfigurationError):
            decompose_essential(e, np.array([[0.0, 0.0, 0.1, 0.0]]),
                                CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                                CameraIntrinsics(1.0, 1.0, 0.0, 0.0))

    def test_round_trip_property(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rotation = Rotation.random(random_state=rng).as_matrix()
            translation = rng.standard_normal(3)
            translation /= np.linalg.norm(translation)
            world = rng.uniform(-0.5, 0.5, (15, 3)) + np.array([0.0, 0.0, 4.0])
            cam2 = world @ rotation.T + translation
            if np.any(world[:, 2] <= 0.1) or np.any(cam2[:, 2] <= 0.1):
                continue
            e = essential_from_pose(rotation, translation)
            pairs = np.hstack([world[:, :2] / world[:, 2:3], cam2[:, :2] / cam2[:, 2:3]])
            pose = decompose_essential(e, pairs, CameraIntrinsics(1.0, 1.0, 0.0, 0.0),
                                       CameraIntrinsics(1.0, 1.0, 0.0, 0.0))
            assert rotation_error(pose.rotation, rotation) < 1e-6
            assert translation_error(pose.translation, translation) < 1e-6


class TestModelTypes:
    def test_fundamental_storage_convention(self):
        rng = np.random.default_rng(14)
        f = random_rank2(rng)
        assert np.linalg.norm(f.m) == pytest.approx(1.0)
        flat = f.flat()
        assert flat[np.argmax(np.abs(flat))] > 0.0

    def test_projected_essential_spectrum(self):
        rng = np.random.default_rng(15)
        raw = EssentialMatrix.from_array(rng.standard_normal((3, 3)))
        projected = raw.projected()
        s = projected.singular_values()
        assert abs(s[0] - s[1]) < 1e-10
        assert s[2] < 1e-10

    def test_relative_pose_validation(self):
        with pytest.raises(ValueError):
            RelativePose(np.eye(3) * 2.0, np.array([1.0, 0.0, 0.0]))
        pose = RelativePose(np.eye(3), np.array([0.0, 0.0, 2.0]))
        assert np.linalg.norm(pose.translation) == pytest.approx(1.0)

    def test_essential_fundamental_round_trip(self, scene):
        e = scene.e
        f = fundamental_from_essential(e, scene.k1, scene.k2)
        diff = min(np.abs(f.m - scene.f.m).max(), np.abs(f.m + scene.f.m).max())
        assert diff < 1e-12
