import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siftpose.bench import make_robust_instance, pose_errors
from siftpose.geometry import rotation_error, symmetric_epipolar_errors
from siftpose.robust import (
    EssentialProblem,
    FocalProblem,
    FundamentalProblem,
    RansacConfig,
    degenerate_draws,
    local_optimize,
    make_problem,
    ransac,
    required_iterations,
    score_msac,
)

from siftpose.solvers import run_minimal_solver, solve_f_8pt, solver_info

from conftest import spanning_indices


class TestTermination:
    def test_values_from_formula(self):
        assert required_iterations(0.5, 3, 0.99) == 35
        assert required_iterations(0.5, 5, 0.99) == 146

    def test_monotone_in_sample_size(self):
        for eps in (0.3, 0.5, 0.8):
            values = [required_iterations(eps, m, 0.99) for m in range(2, 9)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_full_inlier_ratio_stops_immediately(self):
        assert required_iterations(1.0, 3, 0.99) == 0

    def test_all_inliers_one_iteration(self, scene):
        problem = FundamentalProblem(scene.correspondences, "f4sift")
        report = ransac(problem, RansacConfig(seed=1))
        assert report.success
        assert report.iterations_run == 1
        assert report.inliers.shape[0] == scene.correspondences.shape[0]


class TestScoring:
    def test_all_zero_errors(self):
        score, inliers = score_msac(np.zeros(10), 0.75)
        assert score == 0.0
        assert inliers.shape[0] == 10

    def test_threshold_boundary_is_outlier(self):
        score, inliers = score_msac(np.array([0.75]), 0.75)
        assert inliers.shape[0] == 0
        assert score == pytest.approx(0.75 ** 2)

    def test_truth_beats_random_models(self, scenes):
        rng = np.random.default_rng(2)
        wins = 0
        trials = 0
        for scene in scenes:
            problem = FundamentalProblem(scene.correspondences, "f7pt")
            threshold = 0.75 * problem.threshold_factor
            truth = problem.frame.t2.T.T @ scene.f.m  # map pixel F into the hat frame
            truth = np.linalg.inv(problem.frame.t2).T @ scene.f.m @ np.linalg.inv(problem.frame.t1)
            true_score, _ = score_msac(problem.errors(truth), threshold)
            for _ in range(20):
                random_model = rng.standard_normal((3, 3))
                score, _ = score_msac(problem.errors(random_model), threshold)
                trials += 1
                if true_score < score:
                    wins += 1
        assert wins / trials >= 0.99

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            score_msac(np.ones(3), 0.0)


class TestBlockScoring:
    """Scoring k models in one pass equals scoring each model alone, bitwise."""

    @staticmethod
    def _models(problem, rng):
        draws = np.stack([rng.choice(problem.size, problem.sample_size, replace=False)
                          for _ in range(6)])
        models = [model for sample in problem.solve_minimal_batch(draws) for model in sample]
        broken = [np.zeros((3, 3)), np.full((3, 3), np.nan), np.full((3, 3), np.inf)]
        if isinstance(problem, FocalProblem):
            broken = [(mat, 1.0) for mat in broken]
        return models, models + broken

    @pytest.mark.parametrize("solver_id", ["f4sift", "f7pt", "e3sift", "e5pt", "ff3sift"])
    def test_block_equals_per_model(self, solver_id):
        rng = np.random.default_rng(9)
        scene, corr, _ = make_robust_instance(120, 0.6, 0.5, rng)
        problem = make_problem(solver_id, corr, k1=scene.k1, k2=scene.k2,
                               principal_point=scene.principal_point)
        solved, models = self._models(problem, rng)
        assert solved, "no solved model to compare"
        threshold = 0.75 * problem.threshold_factor
        errors = problem.block_errors(models)
        scores, masks = score_msac(errors, threshold)
        assert errors.shape == (len(models), problem.size)
        for j, model in enumerate(models):
            single = problem.errors(model)
            score, inliers = score_msac(single, threshold)
            assert np.array_equal(errors[j], single)
            assert scores[j] == score
            assert np.array_equal(np.nonzero(masks[j])[0], inliers)

    @pytest.mark.parametrize("solver_id", ["f7pt", "e5pt", "ff3sift"])
    def test_block_errors_match_geometry(self, solver_id):
        rng = np.random.default_rng(10)
        scene, corr, _ = make_robust_instance(120, 0.6, 0.5, rng)
        problem = make_problem(solver_id, corr, k1=scene.k1, k2=scene.k2,
                               principal_point=scene.principal_point)
        solved, models = self._models(problem, rng)
        errors = problem.block_errors(models)
        for j, model in enumerate(solved):
            mat = model[0] if isinstance(model, tuple) else model
            np.testing.assert_allclose(errors[j], symmetric_epipolar_errors(mat, problem.pairs),
                                       rtol=1e-12, atol=1e-15)

    def test_non_finite_errors_are_inf_and_never_inliers(self, scene):
        problem = FundamentalProblem(scene.correspondences, "f7pt")
        models = [np.zeros((3, 3)), np.full((3, 3), np.nan), np.full((3, 3), np.inf)]
        errors = problem.block_errors(models)
        assert np.all(errors == np.inf)
        threshold = 0.75 * problem.threshold_factor
        scores, masks = score_msac(errors, threshold)
        np.testing.assert_allclose(scores, problem.size * threshold ** 2, rtol=1e-12)
        assert not masks.any()


class TestDegeneracy:
    def test_duplicate_fails(self):
        pairs = np.array([[0.0, 0.0, 5.0, 5.0],
                          [0.5, 0.5, 80.0, 80.0],
                          [60.0, 10.0, 40.0, 30.0]])
        assert degenerate_draws(pairs, np.array([[0, 1, 2]]), check_collinear=False)[0]

    def test_collinear_fails_for_f(self):
        t = np.arange(4, dtype=float)
        pairs = np.stack([10 * t, 5 * t, 30 + 20 * t, 40 + 3 * t], axis=1)
        draws = np.array([[0, 1, 2, 3]])
        assert degenerate_draws(pairs, draws, check_collinear=True)[0]
        assert not degenerate_draws(pairs, draws, check_collinear=False)[0]

    def test_generic_sample_passes(self, scene):
        assert not degenerate_draws(scene.pairs, np.arange(7)[None], check_collinear=True)[0]

    def test_collinear_to_roundoff_fails_at_pixel_scale(self):
        # points on a slanted line carry roundoff off it: the smaller scatter
        # eigenvalue reads up to about 1e-10 px^2 against a trace near 5e5 px^2
        rng = np.random.default_rng(51)
        x = rng.uniform(0.0, 1000.0, (1000, 7))
        pairs = np.stack([x, 0.37 * x + 11.0, rng.uniform(0.0, 1000.0, (1000, 7)),
                          rng.uniform(0.0, 1000.0, (1000, 7))], axis=-1).reshape(-1, 4)
        draws = np.arange(pairs.shape[0]).reshape(1000, 7)
        assert degenerate_draws(pairs, draws, check_collinear=True).all()


def _reference_degenerate(pairs, row, check_collinear):
    """One index set, pair by pair: within one pixel, or all cross products zero."""
    for offset in (0, 2):
        pts = pairs[row][:, offset:offset + 2]
        for i, j in itertools.combinations(range(len(row)), 2):
            dx, dy = pts[i] - pts[j]
            if dx * dx + dy * dy < 1.0:
                return True
        if check_collinear and len(row) >= 3:
            edges = pts[1:] - pts[0]
            if all(u[0] * v[1] - u[1] * v[0] == 0.0
                   for u, v in itertools.combinations(edges, 2)):
                return True
    return False


class TestDegenerateDraws:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 7), extra=st.integers(0, 5),
           blocks=st.integers(1, 4), close=st.sampled_from([None, 0.5, 1.5]),
           close_image=st.sampled_from([0, 2]), line_image=st.sampled_from([None, 0, 2]),
           line_axis=st.sampled_from([0, 1]), repeat=st.booleans(),
           check_collinear=st.booleans())
    def test_matches_brute_force(self, seed, m, extra, blocks, close, close_image,
                                 line_image, line_axis, repeat, check_collinear):
        rng = np.random.default_rng(seed)
        n = m + extra
        pairs = rng.uniform(0.0, 500.0, (n, 4))
        if line_image is not None:
            # an axis-aligned line of integer points is exactly collinear
            pairs[:, line_image + line_axis] = 10.0 * rng.permutation(n)
            pairs[:, line_image + 1 - line_axis] = 7.0
        draws = np.stack([rng.permutation(n)[:m] for _ in range(blocks)])
        if close is not None and m >= 2:
            i, j = draws[0, :2]
            pairs[j, close_image:close_image + 2] = pairs[i, close_image:close_image + 2]
            pairs[j, close_image] += close
        if repeat and m >= 2:
            draws[-1, -1] = draws[-1, 0]
        expected = [_reference_degenerate(pairs, row, check_collinear) for row in draws]
        got = degenerate_draws(pairs, draws, check_collinear)
        assert got.shape == (blocks,)
        assert got.tolist() == expected

    def test_set_up_memory_is_linear(self):
        # the check reads drawn points only, so no (n, n) table is built
        corr = np.random.default_rng(4).uniform(0.5, 2.0, (2000, 8))
        corr[:, [0, 1, 4, 5]] *= 500.0
        tracemalloc.start()
        try:
            make_problem("f4sift", corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestLocalOptimize:
    def test_noise_free_fixpoint(self, scene):
        problem = FundamentalProblem(scene.correspondences, "f4sift")
        threshold = 0.75 * problem.threshold_factor
        truth = np.linalg.inv(problem.frame.t2).T @ scene.f.m @ np.linalg.inv(problem.frame.t1)
        truth /= np.linalg.norm(truth)
        _, inliers = score_msac(problem.errors(truth), threshold)
        model, score, out_inliers, rounds, history, warn = local_optimize(
            problem, truth, inliers, threshold)
        refined = model / np.linalg.norm(model)
        gap = min(np.abs(refined - truth).max(), np.abs(refined + truth).max())
        assert gap < 1e-10
        assert warn is None

    def test_score_history_non_increasing(self):
        rng = np.random.default_rng(3)
        scene, corr, _ = make_robust_instance(120, 1.0, 1.0, rng)
        problem = FundamentalProblem(corr, "f7pt")
        threshold = 0.75 * problem.threshold_factor
        model = problem.solve_minimal_batch(np.arange(7)[None])[0][0]
        _, inliers = score_msac(problem.errors(model), threshold)
        _, _, _, rounds, history, _ = local_optimize(problem, model, inliers, threshold)
        assert rounds >= 1
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_insufficient_inliers_returns_input(self, scene):
        corr = scene.correspondences[[0, 1, 11, 12, 13]]  # five points, two planes
        problem = FundamentalProblem(corr, "f4sift")
        threshold = 0.75 * problem.threshold_factor
        model = problem.solve_minimal_batch(np.array([[0, 1, 2, 3]]))[0][0]
        _, inliers = score_msac(problem.errors(model), threshold)
        out_model, _, _, rounds, _, warn = local_optimize(problem, model, inliers, threshold)
        assert warn == "insufficient inliers"
        assert rounds == 0
        assert out_model is model


class TestEssentialRefit:
    """The E adapter's LO refit: a null vector below eight inliers, the 8-point fit from eight."""

    @pytest.mark.parametrize("count", [6, 7])
    def test_few_inliers_give_a_null_vector_of_their_rows(self, scene, count):
        problem = EssentialProblem(scene.correspondences, "e5pt", scene.k1, scene.k2)
        assert problem.min_lo_inliers == 6
        idx = spanning_indices(scene, count, np.random.default_rng(count))
        model = problem.refit(idx)
        assert model.shape == (3, 3)
        assert np.linalg.norm(model) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(problem.point_rows[idx] @ model.reshape(-1)).max() < 1e-10

    @pytest.mark.parametrize("count", [8, 9, 30])
    def test_eight_or_more_inliers_give_the_eight_point_fit(self, scene, count):
        problem = EssentialProblem(scene.correspondences, "e3sift", scene.k1, scene.k2)
        idx = spanning_indices(scene, count, np.random.default_rng(count))
        assert np.array_equal(problem.refit(idx), solve_f_8pt(problem.pairs[idx]).m)


class TestRansacEndToEnd:
    def test_determinism_bitwise(self):
        rng = np.random.default_rng(4)
        scene, corr, _ = make_robust_instance(150, 0.6, 0.5, rng)
        problem_a = EssentialProblem(corr, "e3sift", scene.k1, scene.k2)
        problem_b = EssentialProblem(corr, "e3sift", scene.k1, scene.k2)
        a = ransac(problem_a, RansacConfig(seed=11))
        b = ransac(problem_b, RansacConfig(seed=11))
        assert np.array_equal(a.model.m, b.model.m)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.iterations_run == b.iterations_run
        assert a.models_scored == b.models_scored

    def test_reported_inliers_satisfy_threshold(self):
        rng = np.random.default_rng(5)
        scene, corr, _ = make_robust_instance(150, 0.6, 0.5, rng)
        problem = FundamentalProblem(corr, "f4sift")
        config = RansacConfig(seed=3)
        report = ransac(problem, config)
        assert report.success
        threshold = config.threshold * problem.threshold_factor
        hat = np.linalg.inv(problem.frame.t2).T @ report.model.m @ np.linalg.inv(problem.frame.t1)
        errors = problem.errors(hat)
        assert np.all(errors[report.inliers] < threshold)
        outside = np.setdiff1d(np.arange(problem.size), report.inliers)
        assert np.all(errors[outside] >= threshold)

    def test_sift_pipeline_accuracy_noise_free(self):
        # planted 60% inliers without measurement noise: the pipeline should
        # nail the pose almost always
        hits = 0
        trials = 25
        for trial in range(trials):
            rng = np.random.default_rng(100 + trial)
            scene, corr, _ = make_robust_instance(200, 0.6, 0.0, rng)
            problem = EssentialProblem(corr, "e3sift", scene.k1, scene.k2)
            report = ransac(problem, RansacConfig(seed=trial))
            if not report.success:
                continue
            inl = corr[report.inliers][:, [0, 1, 4, 5]]
            rot, _, _ = pose_errors("e3sift", report.model, inl, scene)
            if rot < 0.5:
                hits += 1
        assert hits >= round(0.95 * trials)

    def test_failure_report(self):
        # every pair of points coincides within a pixel, so every sample is
        # rejected as degenerate and no model is ever scored
        rng = np.random.default_rng(6)
        corr = np.zeros((10, 8))
        corr[:, [0, 1, 4, 5]] = 500.0 + rng.uniform(0.0, 0.3, (10, 4))
        corr[:, [2, 6]] = 1.0
        problem = FundamentalProblem(corr, "f4sift")
        report = ransac(problem, RansacConfig(seed=0, max_iterations=50))
        assert not report.success
        assert report.model is None
        assert report.inliers.shape[0] == 0
        assert "no model found" in report.warnings

    def test_too_few_correspondences(self, scene):
        problem = FundamentalProblem(scene.correspondences[:3], "f4sift")
        with pytest.raises(ValueError):
            ransac(problem, RansacConfig())

    def test_exactly_one_sample(self, scene):
        # with n == m every draw is the whole set, in some order
        corr = scene.correspondences[spanning_indices(scene, 4, np.random.default_rng(0))]
        report = ransac(FundamentalProblem(corr, "f4sift"), RansacConfig(max_iterations=5))
        assert report.success and report.iterations_run >= 1
        assert np.array_equal(report.inliers, np.arange(4))

    def test_iteration_budget_validation(self, scene):
        with pytest.raises(ValueError, match="max_iterations"):
            RansacConfig(max_iterations=-1)
        report = ransac(FundamentalProblem(scene.correspondences, "f7pt"),
                        RansacConfig(max_iterations=0))
        assert not report.success and report.iterations_run == 0

    def test_make_problem_validation(self, scene):
        # the family frame refuses missing intrinsics alike for RANSAC and
        # for one minimal sample
        for solver_id, message in (("e3sift", "needs both intrinsics"),
                                   ("e5pt", "needs both intrinsics"),
                                   ("ff3sift", "needs the shared principal point"),
                                   ("ff6pt", "needs the shared principal point")):
            with pytest.raises(ValueError, match=message) as robust_error:
                make_problem(solver_id, scene.correspondences)
            size = solver_info(solver_id).sample_size
            with pytest.raises(ValueError) as solver_error:
                run_minimal_solver(solver_id, scene.correspondences[:size])
            assert str(solver_error.value) == str(robust_error.value)
        corr = scene.correspondences.copy()
        corr[[2, 5], [0, 6]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="2 of"):
            make_problem("f4sift", corr)
        problem = make_problem("ff3sift", scene.correspondences,
                               principal_point=scene.principal_point)
        assert isinstance(problem, FocalProblem)

    def test_focal_pipeline(self):
        # focal accuracy through robust estimation is loose by nature (the
        # published averages sit near 0.8 relative error); assert the
        # structural outcome, not tight recovery
        rng = np.random.default_rng(7)
        scene, corr, mask = make_robust_instance(150, 0.7, 0.25, rng)
        problem = FocalProblem(corr, "ff3sift", principal_point=scene.principal_point)
        report = ransac(problem, RansacConfig(seed=2))
        assert report.success
        assert report.model.focal > 0.0
        recall = np.intersect1d(report.inliers, np.nonzero(mask)[0]).size / mask.sum()
        assert recall > 0.5

    @pytest.mark.parametrize("trial", [0, 3, 5])
    def test_focal_lo_keeps_the_minimal_focal(self, trial):
        # noise-free pairs on which pairing a least-squares F with the seed's
        # focal length in local optimization gives 11-66% focal error
        rng = np.random.default_rng(np.random.SeedSequence((556, trial)))
        scene, corr, _ = make_robust_instance(200, 0.6, 0.0, rng)
        problem = FocalProblem(corr, "ff3sift", principal_point=scene.principal_point)
        report = ransac(problem, RansacConfig(seed=trial))
        assert report.success
        assert abs(report.model.focal - scene.focal) / scene.focal <= 1e-6

    def test_sample_size_economics(self):
        # the quantitative core: fewer correspondences per sample means fewer
        # models scored for the same confidence
        rng = np.random.default_rng(8)
        scene, corr, _ = make_robust_instance(200, 0.6, 0.5, rng)
        scored = {}
        for solver_id in ("e3sift", "e5pt"):
            problem = make_problem(solver_id, corr, k1=scene.k1, k2=scene.k2)
            scored[solver_id] = ransac(problem, RansacConfig(seed=5)).models_scored
        assert scored["e5pt"] / scored["e3sift"] >= 2.0
