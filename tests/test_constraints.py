import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftpose.constraints import (
    affine_jacobians_of_homography,
    circle_compatible_angles,
    epipolar_rows,
    sift_rows,
)
from siftpose.errors import PointAtInfinityError
from support import (
    JacobianDecomposition,
    MirroredFeatureError,
    affine_rows,
    decompose_jacobian,
    decomposition_residuals,
    legacy_combined_residual,
    make_consistent_sift,
    sift_from_affine,
    wrap_angle,
)
from test_geometry import line_in_image2, point_on_line, random_rank2


def rotation2(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def consistent_affinity(alpha1, alpha2, q, shear, rng=None):
    """The oriented-circle-consistent family R2 [[q, w], [0, q]] R1^T."""
    return rotation2(alpha2) @ np.array([[q, shear], [0.0, q]]) @ rotation2(alpha1).T


class TestEpipolarRow:
    def test_origin_pair(self):
        row = epipolar_rows(np.array([[0.0, 0.0, 0.0, 0.0]]))[0]
        assert np.array_equal(row, [0, 0, 0, 0, 0, 0, 0, 0, 1])

    def test_expansion(self):
        row = epipolar_rows(np.array([[1.0, 2.0, 3.0, 4.0]]))[0]
        assert np.array_equal(row, [3, 6, 3, 4, 8, 4, 1, 2, 1])

    def test_consistent_pair_annihilates(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = random_rank2(rng)
            p1 = rng.uniform(-200.0, 200.0, 2)
            line = line_in_image2(f, p1)
            if math.hypot(line[0], line[1]) < 1e-14:
                continue
            p2 = point_on_line(line, 200.0, rng)
            row = epipolar_rows(np.array([[*p1, *p2]]))[0]
            assert abs(row @ f.flat()) / np.linalg.norm(row) < 1e-12


class TestSiftRow:
    def test_quarter_turn_at_origin(self):
        corr = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, math.pi / 2]])
        assert np.allclose(sift_rows(corr)[0], [0, 0, 0, 0, 0, 1, 1, 0, 0], atol=1e-15)

    def test_direct_evaluation(self):
        corr = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 0.0]])
        assert np.allclose(sift_rows(corr)[0], [2, 0, 2, 1, 0, 0, 1, 0, 0])

    def test_last_coefficient_exactly_zero(self):
        rng = np.random.default_rng(1)
        corr = np.empty((1000, 8))
        corr[:, [0, 1, 4, 5]] = rng.uniform(-500, 500, (1000, 4))
        corr[:, [2, 6]] = rng.uniform(0.1, 10.0, (1000, 2))
        corr[:, [3, 7]] = rng.uniform(0.0, 2 * math.pi, (1000, 2))
        rows = sift_rows(corr)
        assert np.all(rows[:, 8] == 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(points=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4),
           scales=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
           angles=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
           lam=st.floats(0.1, 10.0))
    def test_scale_pair_homogeneity(self, points, scales, angles, lam):
        # the row depends on the scales only through their ratio q2 / q1
        u1, v1, u2, v2 = points
        corr = np.array([[u1, v1, scales[0], angles[0], u2, v2, scales[1], angles[1]]])
        scaled = corr.copy()
        scaled[0, [2, 6]] *= lam
        assert np.allclose(sift_rows(corr), sift_rows(scaled), rtol=1e-12)

    def test_rejects_non_positive_scale(self):
        bad = np.array([[0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            sift_rows(bad)

    def test_consistent_instance_annihilates(self):
        rng = np.random.default_rng(3)
        f = random_rank2(rng)
        for _ in range(50):
            corr, _ = make_consistent_sift(f, rng)
            row = sift_rows(corr[None])[0]
            assert abs(row @ f.flat()) / np.linalg.norm(row) < 1e-10


class TestAffineRows:
    def test_identity_at_origin(self):
        rows = affine_rows(np.zeros((1, 4)), np.eye(2)[None])[0]
        assert np.array_equal(rows[0], [0, 0, 1, 0, 0, 0, 1, 0, 0])
        assert np.array_equal(rows[1], [0, 0, 0, 0, 0, 1, 0, 1, 0])

    def test_synthetic_affinities_annihilate(self, scene):
        vec = scene.f.flat()
        for rows in affine_rows(scene.pairs, scene.affinities):
            res = np.abs(rows @ vec) / np.linalg.norm(rows, axis=1)
            assert np.max(res) < 1e-10

    def test_affine_scaling_is_not_row_scaling(self):
        pair = np.array([[3.0, 4.0, 5.0, 6.0]])
        a = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        rows = affine_rows(pair, a)[0]
        rows_scaled = affine_rows(pair, 2.0 * a)[0]
        assert not np.allclose(rows_scaled, 2.0 * rows)
        # the pure-point coefficients are unchanged while affine terms scale
        assert rows_scaled[0][6] == rows[0][6] == 1.0
        assert rows_scaled[0][2] == pytest.approx(2.0 * rows[0][2])


def project_through(h, point):
    """The point mapped through H by homogeneous division."""
    mapped = h @ np.array([point[0], point[1], 1.0])
    return mapped[:2] / mapped[2]


class TestAffineFromHomography:
    def test_identity(self):
        proj, jac = affine_jacobians_of_homography(np.eye(3), np.array([[5.0, -3.0]]))
        assert np.allclose(jac[0], np.eye(2))
        assert np.array_equal(proj[0], [5.0, -3.0])

    def test_affine_homography_is_its_own_jacobian(self):
        h = np.diag([2.0, 3.0, 1.0])
        proj, jac = affine_jacobians_of_homography(h, np.array([[1.0, 1.0]]))
        assert np.array_equal(proj[0], [2.0, 3.0])
        assert np.allclose(jac[0], np.diag([2.0, 3.0]))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(200):
            h = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            p = rng.uniform(-2.0, 2.0, 2)
            try:
                _, jac = affine_jacobians_of_homography(h, p[None])
            except PointAtInfinityError:
                continue
            numeric = np.empty((2, 2))
            for j in range(2):
                forward = p.copy()
                forward[j] += step
                backward = p.copy()
                backward[j] -= step
                numeric[:, j] = (project_through(h, forward)
                                 - project_through(h, backward)) / (2 * step)
            assert np.max(np.abs(numeric - jac[0])) < 1e-5

    def test_point_at_infinity(self):
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(PointAtInfinityError):
            affine_jacobians_of_homography(h, np.array([[0.0, 0.0]]))


class TestSiftFromAffine:
    def test_identity(self):
        alpha2, q2, residual = sift_from_affine(np.eye(2), 0.3, 2.0)
        assert alpha2 == pytest.approx(0.3)
        assert q2 == pytest.approx(2.0)
        assert abs(residual) < 1e-15

    def test_similarity(self):
        a = 2.0 * rotation2(math.pi / 2)
        alpha2, q2, residual = sift_from_affine(a, 0.0, 1.0)
        assert alpha2 == pytest.approx(math.pi / 2)
        assert q2 == pytest.approx(2.0)
        assert abs(residual) < 1e-12

    def test_forward_jacobian_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha1 = rng.uniform(0, 2 * math.pi)
            alpha2 = rng.uniform(0, 2 * math.pi)
            q = rng.uniform(0.3, 3.0)
            shear = rng.uniform(-1.0, 1.0)
            a = consistent_affinity(alpha1, alpha2, q, shear)
            got_alpha2, got_q2, residual = sift_from_affine(a, alpha1, 1.0)
            assert abs(wrap_angle(got_alpha2 - alpha2)) < 1e-10 \
                or abs(wrap_angle(got_alpha2 - alpha2) - 2 * math.pi) < 1e-10
            assert abs(residual) < 1e-12
            assert got_q2 == pytest.approx(q, rel=1e-10)

    def test_mirrored_rejected(self):
        with pytest.raises(MirroredFeatureError):
            sift_from_affine(np.diag([1.0, -1.0]), 0.0, 1.0)


class TestJacobianDecomposition:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            original = JacobianDecomposition(
                alpha=rng.uniform(0, 2 * math.pi), qu=rng.uniform(0.2, 3.0),
                qv=rng.uniform(0.2, 3.0), w=rng.uniform(-1.0, 1.0))
            recovered = decompose_jacobian(original.matrix())
            assert recovered.alpha == pytest.approx(original.alpha, abs=1e-10)
            assert recovered.qu == pytest.approx(original.qu)
            assert recovered.qv == pytest.approx(original.qv)
            assert recovered.w == pytest.approx(original.w, abs=1e-10)

    def test_mirrored_jacobian_rejected(self):
        with pytest.raises(MirroredFeatureError):
            decompose_jacobian(np.diag([1.0, -0.5]))


class TestDecompositionResiduals:
    def test_consistent_instance_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            alpha1 = rng.uniform(0, 2 * math.pi)
            q1 = rng.uniform(0.3, 3.0)
            a = consistent_affinity(alpha1, rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            alpha2, q2, _ = sift_from_affine(a, alpha1, q1)
            residuals = decomposition_residuals(a, (alpha1, alpha2, q2 / q1))
            assert max(abs(r) for r in residuals) < 1e-12

    def test_identity_zero(self):
        assert decomposition_residuals(np.eye(2), (0.0, 0.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_alpha2_perturbation_structure(self):
        a = consistent_affinity(0.4, 1.1, 1.7, 0.3)
        alpha2, q2, _ = sift_from_affine(a, 0.4, 1.0)
        delta = 1e-4
        r0 = decomposition_residuals(a, (0.4, alpha2, q2))
        r1 = decomposition_residuals(a, (0.4, alpha2 + delta, q2))
        assert r1[0] == r0[0]  # the scale constraint does not involve alpha2
        assert abs(r1[1] - r0[1]) > 1e-5
        assert abs(r1[1]) < 10 * delta and abs(r1[2]) < 10 * delta


class TestLegacyCombinedResidual:
    def test_consistent_instance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            alpha1 = rng.uniform(0, 2 * math.pi)
            a = consistent_affinity(alpha1, rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            alpha2, q2, _ = sift_from_affine(a, alpha1, 1.0)
            assert abs(legacy_combined_residual(a, (alpha1, alpha2, q2))) < 1e-12

    def test_identity(self):
        assert legacy_combined_residual(np.eye(2), (0.0, 0.0, 1.0)) == 0.0

    def test_vanishes_while_circle_residuals_do_not(self):
        # perturb a consistent affinity along the direction that changes the
        # two circle residuals by (s2 eps, c2 eps): their combination
        # s2*r_cos - c2*r_sin stays exactly zero
        rng = np.random.default_rng(9)
        count_both = 0
        for _ in range(100):
            alpha1 = rng.uniform(0, 2 * math.pi)
            alpha2 = rng.uniform(0, 2 * math.pi)
            a = consistent_affinity(alpha1, alpha2, rng.uniform(0.5, 2.0),
                                    rng.uniform(-0.5, 0.5))
            alpha2_got, q2, _ = sift_from_affine(a, alpha1, 1.0)
            c1, s1 = math.cos(alpha1), math.sin(alpha1)
            c2, s2 = math.cos(alpha2_got), math.sin(alpha2_got)
            eps = 0.05
            tweaked = a.copy()
            tweaked[1, 0] += s2 * eps * c1
            tweaked[1, 1] += s2 * eps * s1
            tweaked[0, 0] += c2 * eps * c1
            tweaked[0, 1] += c2 * eps * s1
            sift = (alpha1, alpha2_got, q2)
            _, r_sin, r_cos = decomposition_residuals(tweaked, sift)
            assert abs(legacy_combined_residual(tweaked, sift)) < 1e-12
            assert math.hypot(r_sin, r_cos) > eps / 2
            if abs(r_sin) > 1e-4 and abs(r_cos) > 1e-4:
                count_both += 1
        assert count_both > 50  # both circle residuals nonzero in most draws

    def test_is_stated_combination(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = rng.standard_normal((2, 2))
            alpha1 = rng.uniform(0, 2 * math.pi)
            alpha2 = rng.uniform(0, 2 * math.pi)
            q = rng.uniform(0.2, 3.0)
            _, r_sin, r_cos = decomposition_residuals(a, (alpha1, alpha2, q))
            combined = legacy_combined_residual(a, (alpha1, alpha2, q))
            c2, s2 = math.cos(alpha2), math.sin(alpha2)
            assert combined == pytest.approx(s2 * r_cos - c2 * r_sin, abs=1e-12)


class TestMakeConsistentSift:
    def test_all_row_families_annihilate(self):
        rng = np.random.default_rng(11)
        f = random_rank2(rng)
        vec = f.flat()
        for _ in range(100):
            corr, a = make_consistent_sift(f, rng)
            pair = corr[None, [0, 1, 4, 5]]
            srow = sift_rows(corr[None])[0]
            erow = epipolar_rows(pair)[0]
            arows = affine_rows(pair, a[None])[0]
            assert abs(srow @ vec) / np.linalg.norm(srow) < 1e-10
            assert abs(erow @ vec) / np.linalg.norm(erow) < 1e-12
            assert np.max(np.abs(arows @ vec) / np.linalg.norm(arows, axis=1)) < 1e-10

    def test_epipole_region_resampled(self):
        # a fundamental matrix whose epipole sits inside the sampling box
        # forces occasional resampling without failing
        rng = np.random.default_rng(12)
        f = random_rank2(rng)
        for _ in range(50):
            corr, _ = make_consistent_sift(f, rng, point_scale=5.0)
            assert np.isfinite(corr).all()

    def test_circle_compatible_angles(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((400, 2, 2))
        a = a[np.linalg.det(a) > 1e-3]
        a[0] = 1.7 * rotation2(0.4)  # a similarity: every direction works
        angles, free = circle_compatible_angles(a)
        assert angles.shape == (a.shape[0], 2)
        assert free[0] and np.count_nonzero(free) == 1
        det = np.linalg.det(a)
        for line in (angles[:, 0], angles[:, 1]):
            directions = np.stack([np.cos(line), np.sin(line)], axis=1)
            mapped = np.einsum("nij,nj->ni", a, directions)
            gap = np.abs(np.sum(mapped ** 2, axis=1) - det)[~free]
            assert np.all(gap < 1e-9 * np.maximum(1.0, det[~free]))
