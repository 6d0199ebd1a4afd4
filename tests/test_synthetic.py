import math

import numpy as np
import pytest

from siftpose.constraints import (
    affine_rows,
    decomposition_residuals,
    epipolar_rows,
    sift_rows,
)
from siftpose.geometry import symmetric_epipolar_errors
from siftpose.synthetic import (
    SyntheticConfig,
    add_noise,
    evaluate_trial,
    generate_scene,
    noise_sweep,
    stability_histogram,
)


class TestSceneInvariants:
    def test_all_row_families_annihilate(self, scenes):
        for scene in scenes:
            vec = scene.f.flat()
            rows = np.vstack([epipolar_rows(scene.pairs), sift_rows(scene.correspondences)])
            residuals = np.abs(rows @ vec) / np.linalg.norm(rows, axis=1)
            assert residuals.max() < 1e-10
            for arows in affine_rows(scene.pairs, scene.affinities):
                assert np.max(np.abs(arows @ vec) / np.linalg.norm(arows, axis=1)) < 1e-10

    def test_affinities_orientation_preserving(self, scenes):
        for scene in scenes:
            dets = (scene.affinities[:, 0, 0] * scene.affinities[:, 1, 1]
                    - scene.affinities[:, 0, 1] * scene.affinities[:, 1, 0])
            assert np.all(dets > 0.0)

    def test_essential_consistent_with_fundamental(self, scenes):
        for scene in scenes:
            k = scene.k1.matrix()
            derived = k.T @ scene.f.m @ k
            derived /= np.linalg.norm(derived)
            gap = min(np.abs(derived - scene.e.m).max(), np.abs(derived + scene.e.m).max())
            assert gap < 1e-12

    def test_finite_difference_affinity(self, scene):
        step = 1e-6
        for j, h in enumerate(scene.homographies):
            mask = scene.plane_ids == j
            pts = scene.correspondences[mask, 0:2]
            for i in range(min(5, pts.shape[0])):
                numeric = np.empty((2, 2))
                for axis in range(2):
                    fwd = pts[i].copy()
                    fwd[axis] += step
                    bwd = pts[i].copy()
                    bwd[axis] -= step
                    fh = np.append(fwd, 1.0) @ h.T
                    bh = np.append(bwd, 1.0) @ h.T
                    numeric[:, axis] = (fh[:2] / fh[2] - bh[:2] / bh[2]) / (2 * step)
                stored = scene.affinities[mask][i]
                assert np.max(np.abs(numeric - stored)) < 1e-5

    def test_feature_frames_reassemble(self, scenes):
        # J2 rebuilt from the extracted second-image frame reproduces A J1
        for scene in scenes[:5]:
            corr = scene.correspondences
            alpha1, qu1, qv1, w1 = scene.frame1.T
            c, s = np.cos(alpha1), np.sin(alpha1)
            j1 = np.zeros((corr.shape[0], 2, 2))
            j1[:, 0, 0] = qu1 * c
            j1[:, 0, 1] = w1 * c - qv1 * s
            j1[:, 1, 0] = qu1 * s
            j1[:, 1, 1] = w1 * s + qv1 * c
            j2 = scene.affinities @ j1
            from siftpose.constraints import decompose_jacobian

            for i in range(corr.shape[0]):
                dec = decompose_jacobian(j2[i])
                rebuilt = dec.matrix()
                assert np.max(np.abs(rebuilt - j2[i])) < 1e-10
                assert abs(dec.uniform_scale - corr[i, 6]) < 1e-10

    def test_feature_scales_follow_determinant(self, scenes):
        for scene in scenes:
            corr = scene.correspondences
            dets = (scene.affinities[:, 0, 0] * scene.affinities[:, 1, 1]
                    - scene.affinities[:, 0, 1] * scene.affinities[:, 1, 0])
            assert np.allclose(corr[:, 6] / corr[:, 2], np.sqrt(dets), rtol=1e-10)

    def test_decomposition_residuals_vanish_on_clean_scene(self, scene):
        corr = scene.correspondences
        for i in range(corr.shape[0]):
            residuals = decomposition_residuals(
                scene.affinities[i], (corr[i, 3], corr[i, 7], corr[i, 6] / corr[i, 2]))
            assert max(abs(r) for r in residuals) < 1e-10

    def test_seeded_determinism(self):
        config = SyntheticConfig()
        a = generate_scene(config, np.random.default_rng(99))
        b = generate_scene(config, np.random.default_rng(99))
        assert np.array_equal(a.correspondences, b.correspondences)
        assert np.array_equal(a.f.m, b.f.m)
        assert a.focal == b.focal

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(plane_count=1)


class TestAddNoise:
    def test_zero_sigma_identity(self, scene):
        rng = np.random.default_rng(0)
        assert add_noise(scene, 0.0, rng) is scene

    def test_negative_sigma_rejected(self, scene):
        with pytest.raises(ValueError):
            add_noise(scene, -1.0, np.random.default_rng(0))

    def test_point_noise_statistics(self):
        # Monte-Carlo: mean symmetric epipolar error of the true model on
        # noised points lands in the documented band at sigma = 1
        rng = np.random.default_rng(1)
        errors = []
        total = 0
        while total < 10_000:
            scene = generate_scene(SyntheticConfig(points_per_plane=50), rng)
            noisy = add_noise(scene, 1.0, rng)
            errors.append(symmetric_epipolar_errors(scene.f, noisy.pairs))
            total += noisy.pairs.shape[0]
        mean = float(np.mean(np.concatenate(errors)))
        assert 0.8 < mean < 1.6

    def test_feature_residuals_grow_with_sigma(self):
        rng = np.random.default_rng(2)
        means = []
        for sigma in (0.0, 0.5, 1.0, 2.0):
            rng_level = np.random.default_rng(3)
            sizes = []
            for _ in range(20):
                scene = generate_scene(SyntheticConfig(), rng_level)
                noisy = add_noise(scene, sigma, rng) if sigma > 0 else scene
                corr = noisy.correspondences
                for i in range(corr.shape[0]):
                    residuals = decomposition_residuals(
                        noisy.affinities[i],
                        (corr[i, 3], corr[i, 7], corr[i, 6] / corr[i, 2]))
                    sizes.append(np.linalg.norm(residuals))
            means.append(np.mean(sizes))
        assert means[0] < 1e-9
        assert means[0] < means[1] < means[2] < means[3]

    def test_gt_model_untouched(self, scene):
        noisy = add_noise(scene, 2.0, np.random.default_rng(4))
        assert np.array_equal(noisy.f.m, scene.f.m)
        assert noisy.noise_sigma == 2.0


class TestStudies:
    def test_stability_histogram_small(self):
        result = stability_histogram("f4sift", trials=120, seed=5)
        assert result.trials == 120
        assert result.failures <= 1
        finite = result.log10_errors[np.isfinite(result.log10_errors)]
        assert np.median(finite) <= -9.0
        assert result.histogram.sum() == finite.shape[0]

    def test_stability_histogram_essential(self):
        result = stability_histogram("e3sift", trials=120, seed=6)
        finite = result.log10_errors[np.isfinite(result.log10_errors)]
        assert np.median(finite) <= -6.0
        assert np.quantile(finite, 0.99) <= -4.0

    def test_focal_errors_recorded(self):
        result = stability_histogram("ff3sift", trials=60, seed=7)
        finite = result.log10_focal_errors[np.isfinite(result.log10_focal_errors)]
        assert finite.shape[0] >= 58
        assert np.median(finite) <= -6.0

    def test_noise_sweep_monotone(self):
        records = noise_sweep(["f7pt", "f4sift"], sigmas=(0.0, 1.0), trials=60, seed=8)
        by_solver = {}
        for rec in records:
            by_solver.setdefault(rec["solver"], {})[rec["sigma"]] = rec["mean_error"]
        for solver, table in by_solver.items():
            assert table[0.0] < table[1.0]

    def test_trial_worker_equivalence(self):
        solo = stability_histogram("e3sift", trials=24, seed=9, workers=1)
        pooled = stability_histogram("e3sift", trials=24, seed=9, workers=2)
        assert np.array_equal(solo.log10_errors, pooled.log10_errors,
                              equal_nan=True)
