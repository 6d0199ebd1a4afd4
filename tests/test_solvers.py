import math

import numpy as np
import pytest

import siftpose.solvers as solvers_module
from siftpose.constraints import epipolar_rows, sift_rows
from siftpose.errors import DegenerateSampleError, SolverError
from siftpose.geometry import (
    CameraIntrinsics,
    decompose_essential,
    rotation_error,
    symmetric_epipolar_errors,
    translation_error,
)
from siftpose import _poly
from siftpose.solvers import (
    _e3sift_start,
    _polish_batch,
    essential_3sift_batch,
    essential_residual,
    essential_candidates_batch,
    normalize_sift_correspondences,
    rank2_candidates_batch,
    real_cubic_roots,
    run_minimal_solver,
    semicalibrated_frame,
    solve_e_3sift,
    solve_e_5pt,
    solve_f_4sift,
    solve_f_7pt,
    solve_f_8pt,
    solve_f_focal_3sift,
    solve_f_focal_6pt,
    solver_info,
)
from siftpose.robust import make_problem
from siftpose.synthetic import SyntheticConfig, add_noise, generate_scene

from conftest import spanning_indices


def matrix_gap(model, truth):
    m = model.m if hasattr(model, "m") else model
    t = truth.m if hasattr(truth, "m") else truth
    return min(np.abs(m - t).max(), np.abs(m + t).max())


def best_gap(models, truth):
    return min(matrix_gap(m, truth) for m in models)


class TestCubicRoots:
    def test_known_roots(self):
        # (x - 1)(x - 2)(x + 3) = x^3 - 7x + 6
        roots = sorted(real_cubic_roots(1.0, 0.0, -7.0, 6.0))
        assert np.allclose(roots, [-3.0, 1.0, 2.0])

    def test_single_real_root(self):
        # (x - 2)(x^2 + 1)
        roots = real_cubic_roots(1.0, -2.0, 1.0, -2.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0)

    def test_quadratic_fallback(self):
        roots = sorted(real_cubic_roots(0.0, 1.0, -3.0, 2.0))
        assert np.allclose(roots, [1.0, 2.0])

    def test_random_polynomials_against_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            coeffs = rng.standard_normal(4)
            mine = sorted(real_cubic_roots(*coeffs))
            reference = sorted(r.real for r in np.roots(coeffs)
                               if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)))
            assert len(mine) == len(reference)
            for a, b in zip(mine, reference):
                assert a == pytest.approx(b, abs=1e-7)


class TestFundamentalSolvers:
    def test_f7pt_recovers_ground_truth(self, scenes):
        rng = np.random.default_rng(1)
        for scene in scenes:
            idx = spanning_indices(scene, 7, rng)
            out = solve_f_7pt(scene.pairs[idx])
            assert 1 <= len(out.models) <= 3
            assert best_gap(out.models, scene.f) < 1e-8

    def test_f4sift_recovers_ground_truth(self, scenes):
        rng = np.random.default_rng(2)
        for scene in scenes:
            idx = spanning_indices(scene, 4, rng)
            out = solve_f_4sift(scene.correspondences[idx])
            assert 1 <= len(out.models) <= 3
            assert best_gap(out.models, scene.f) < 1e-8

    def test_f4sift_postconditions(self, scenes):
        rng = np.random.default_rng(3)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 4, rng)
            out = solve_f_4sift(scene.correspondences[idx])
            for model, residual in zip(out.models, out.row_residuals):
                assert abs(model.det()) < 1e-10
                assert residual < 1e-10

    def test_f4sift_duplicate_correspondence(self, scene):
        sample = scene.correspondences[[0, 0, 11, 13]]
        with pytest.raises(DegenerateSampleError):
            solve_f_4sift(sample)

    def test_f7pt_wrong_count(self, scene):
        with pytest.raises(ValueError):
            solve_f_7pt(scene.pairs[:6])

    def test_f8pt_recovers_ground_truth(self, scenes):
        rng = np.random.default_rng(5)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 8, rng)
            model = solve_f_8pt(scene.pairs[idx])
            assert matrix_gap(model, scene.f) < 1e-8

    def test_f8pt_beats_worst_subset(self):
        # subset-enumeration oracle at small n
        rng = np.random.default_rng(6)
        scene = generate_scene(SyntheticConfig(points_per_plane=6), rng)
        noisy = add_noise(scene, 1.0, rng)
        pairs = noisy.pairs
        held = scene.pairs  # clean geometry for evaluation
        full_err = np.mean(symmetric_epipolar_errors(solve_f_8pt(pairs), held))
        from itertools import combinations

        worst = 0.0
        for subset in combinations(range(12), 8):
            try:
                err = np.mean(symmetric_epipolar_errors(solve_f_8pt(pairs[list(subset)]), held))
            except SolverError:
                continue
            worst = max(worst, err)
        assert full_err < worst

    def test_f8pt_collinear_points(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 8)
        p1 = np.stack([100.0 * t, 50.0 * t], axis=1)
        p2 = p1 + rng.uniform(10.0, 20.0, 2)
        with pytest.raises(DegenerateSampleError):
            solve_f_8pt(np.hstack([p1, p2]))

    def test_f8pt_needs_eight(self, scene):
        with pytest.raises(ValueError):
            solve_f_8pt(scene.pairs[:7])

    def test_translation_equivariance(self, scenes):
        rng = np.random.default_rng(8)
        shift = np.array([37.0, -12.0])
        t_inv = np.array([[1.0, 0.0, -shift[0]], [0.0, 1.0, -shift[1]], [0.0, 0.0, 1.0]])
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 7, rng)
            base = solve_f_7pt(scene.pairs[idx])
            shifted_pairs = scene.pairs[idx] + np.tile(shift, 2)
            shifted = solve_f_7pt(shifted_pairs)
            for model in base.models:
                expected = t_inv.T @ model.m @ t_inv
                expected /= np.linalg.norm(expected)
                gap = min(best_gap(shifted.models, expected),
                          best_gap(shifted.models, -expected))
                assert gap < 1e-6

    def test_translation_equivariance_f4sift(self, scenes):
        rng = np.random.default_rng(9)
        shift = np.array([-21.0, 8.5])
        t_inv = np.array([[1.0, 0.0, -shift[0]], [0.0, 1.0, -shift[1]], [0.0, 0.0, 1.0]])
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 4, rng)
            base = solve_f_4sift(scene.correspondences[idx])
            moved = scene.correspondences[idx].copy()
            moved[:, 0:2] += shift
            moved[:, 4:6] += shift
            shifted = solve_f_4sift(moved)
            for model in base.models:
                expected = t_inv.T @ model.m @ t_inv
                expected /= np.linalg.norm(expected)
                gap = min(best_gap(shifted.models, expected),
                          best_gap(shifted.models, -expected))
                assert gap < 1e-6


class TestEssentialSolvers:
    def test_e3sift_recovers_ground_truth(self, scenes):
        rng = np.random.default_rng(10)
        for scene in scenes:
            idx = spanning_indices(scene, 3, rng)
            out = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
            assert len(out.models) == 1
            assert best_gap(out.models, scene.e) < 1e-6

    def test_e3sift_pose_recovery(self, scenes):
        rng = np.random.default_rng(11)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 3, rng)
            out = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
            pose = decompose_essential(out.models[0], scene.pairs, scene.k1, scene.k2)
            assert rotation_error(pose.rotation, scene.pose.rotation) < 1e-4
            assert translation_error(pose.translation, scene.pose.translation) < 1e-4

    def test_e3sift_postconditions(self, scenes):
        rng = np.random.default_rng(12)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 3, rng)
            out = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
            assert essential_residual(out.models[0]) < 1e-8
            assert abs(out.models[0].det()) < 1e-10
            assert out.row_residuals[0] < 1e-8

    def test_e3sift_single_model_many_samples(self, scenes):
        rng = np.random.default_rng(13)
        count = 0
        for _ in range(300):
            scene = scenes[rng.integers(len(scenes))]
            idx = spanning_indices(scene, 3, rng)
            try:
                out = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
            except SolverError:
                continue
            assert len(out.models) <= 1
            count += 1
        assert count > 250

    def test_e3sift_monomial_consistency(self, scenes):
        rng = np.random.default_rng(14)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 3, rng)
            local = normalize_sift_correspondences(scene.correspondences[idx],
                                                   scene.k1, scene.k2)
            _, _, y, _ = _e3sift_start(_interleaved(epipolar_rows(local[:, [0, 1, 4, 5]]),
                                                    sift_rows(local)))
            assert abs(y[7] ** 3 - y[0]) < 1e-6 * max(1.0, abs(y[0]))
            assert abs(y[8] ** 3 - y[1]) < 1e-6 * max(1.0, abs(y[1]))

    def test_e3sift_determinism(self, scene):
        rng = np.random.default_rng(15)
        idx = spanning_indices(scene, 3, rng)
        a = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
        b = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
        assert np.array_equal(a.models[0].m, b.models[0].m)

    def test_e5pt_recovers_ground_truth(self, scenes):
        rng = np.random.default_rng(16)
        for scene in scenes:
            idx = spanning_indices(scene, 5, rng)
            out = solve_e_5pt(scene.pairs[idx], scene.k1, scene.k2)
            assert 1 <= len(out.models) <= 10
            assert best_gap(out.models, scene.e) < 1e-6

    def test_e5pt_models_satisfy_sample(self, scenes):
        rng = np.random.default_rng(17)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 5, rng)
            out = solve_e_5pt(scene.pairs[idx], scene.k1, scene.k2)
            assert out.row_residuals and max(out.row_residuals) < 1e-10

    def test_normalized_sift_round_trip_angles(self, scene):
        local = normalize_sift_correspondences(scene.correspondences, scene.k1, scene.k2)
        # square pixels: angles survive the normalization exactly up to wrap
        delta = np.mod(local[:, 3] - scene.correspondences[:, 3], 2 * math.pi)
        delta = np.minimum(delta, 2 * math.pi - delta)
        assert np.max(delta) < 1e-12


class TestSingleCore:
    """The public F/E solvers and the sampling loop run one batched core."""

    @staticmethod
    def _blocks(scenes, size, feature_rows):
        rng = np.random.default_rng(23)
        blocks = []
        for scene in scenes:
            idx = spanning_indices(scene, size, rng)
            corr = scene.correspondences[idx]
            if feature_rows:
                rows = np.vstack([epipolar_rows(corr[:, [0, 1, 4, 5]]), sift_rows(corr)[:3]])
            else:
                rows = epipolar_rows(normalize_sift_correspondences(corr, scene.k1, scene.k2)
                                     [:, [0, 1, 4, 5]])
            blocks.append(rows)
        blocks.append(np.zeros_like(blocks[0]))
        return np.stack(blocks)

    @pytest.mark.parametrize("size,feature_rows", [(4, True), (7, False)])
    def test_rank2_batch_rows_equal_batches_of_one(self, scenes, size, feature_rows):
        rows = self._blocks(scenes, size, feature_rows)
        batched = rank2_candidates_batch(rows)
        assert any(batched) and batched[-1] == []
        for i, models in enumerate(batched):
            alone = rank2_candidates_batch(rows[i:i + 1])[0]
            assert len(alone) == len(models)
            for a, b in zip(alone, models):
                assert np.array_equal(a, b)

    def test_e5pt_batch_rows_equal_batches_of_one(self, scenes):
        rows = self._blocks(scenes, 5, False)
        batched, solvable = essential_candidates_batch(rows)
        assert solvable[:-1].all() and not solvable[-1]
        for i, models in enumerate(batched):
            alone, alone_solvable = essential_candidates_batch(rows[i:i + 1])
            assert alone_solvable[0] == solvable[i]
            assert len(alone[0]) == len(models)
            for a, b in zip(alone[0], models):
                assert np.array_equal(a, b)

    def test_e3sift_batch_rows_equal_batches_of_one(self, scenes):
        rng = np.random.default_rng(25)
        blocks = []
        for scene in scenes:
            local = normalize_sift_correspondences(
                scene.correspondences[spanning_indices(scene, 3, rng)], scene.k1, scene.k2)
            rows = np.empty((6, 9))
            rows[0::2] = epipolar_rows(local[:, [0, 1, 4, 5]])
            rows[1::2] = sift_rows(local)
            blocks.append(rows)
        # refused samples in mid-block: all-zero rows and a repeated correspondence
        blocks.insert(3, np.zeros((6, 9)))
        blocks.insert(7, np.tile(blocks[0][:2], (3, 1)))
        rows = np.stack(blocks)
        batched = essential_3sift_batch(rows)
        refused = [i for i, result in enumerate(batched) if isinstance(result, Exception)]
        assert refused == [3, 7]
        for i, result in enumerate(batched):
            alone = essential_3sift_batch(rows[i:i + 1])[0]
            if i in refused:
                assert type(alone) is type(result) is DegenerateSampleError
                assert str(alone) == str(result)
                continue
            assert len(alone) == len(result) == 1
            assert np.array_equal(alone[0], result[0])

    @staticmethod
    def _calls(scene):
        return {
            "f7pt": lambda corr: solve_f_7pt(corr),
            "f4sift": lambda corr: solve_f_4sift(corr),
            "e3sift": lambda corr: solve_e_3sift(corr, scene.k1, scene.k2),
            "e5pt": lambda corr: solve_e_5pt(corr, scene.k1, scene.k2),
        }

    @pytest.mark.parametrize("solver_id,size",
                             [("f7pt", 7), ("f4sift", 4), ("e3sift", 3), ("e5pt", 5)])
    def test_rank_deficient_sample_refused(self, scene, solver_id, size):
        sample = scene.correspondences[[0] * size]  # one correspondence repeated
        with pytest.raises(DegenerateSampleError):
            self._calls(scene)[solver_id](sample)

    @pytest.mark.parametrize("solver_id,size",
                             [("f7pt", 7), ("f4sift", 4), ("e3sift", 3), ("e5pt", 5)])
    def test_all_zero_rows_refused(self, scene, solver_id, size, monkeypatch):
        monkeypatch.setattr(solvers_module, "epipolar_rows",
                            lambda pairs: np.zeros((pairs.shape[0], 9)))
        monkeypatch.setattr(solvers_module, "sift_rows",
                            lambda corr: np.zeros((corr.shape[0], 9)))
        rng = np.random.default_rng(24)
        sample = scene.correspondences[spanning_indices(scene, size, rng)]
        with pytest.raises(DegenerateSampleError):
            self._calls(scene)[solver_id](sample)


class TestPolisher:
    """The one Gauss-Newton polisher every minimal solver refines through."""

    @pytest.mark.parametrize("basis,nvars", [(_poly.BIVARIATE_BASIS, 2),
                                             (_poly.TRIVARIATE_BASIS, 3),
                                             (_poly.SEMICALIBRATED_BASIS, 3)])
    def test_gradient_matches_central_differences(self, basis, nvars):
        monomials, gradient = basis
        states = np.random.default_rng(26).uniform(-2.0, 2.0, (5, nvars))
        step = 1e-6
        for k in range(nvars):
            delta = np.zeros(nvars)
            delta[k] = step
            numeric = (monomials(states + delta) - monomials(states - delta)) / (2 * step)
            np.testing.assert_allclose(gradient(states)[:, :, k], numeric, rtol=1e-8, atol=1e-8)

    @staticmethod
    def _system():
        # x - 0.5, y + 0.25 and x^2 - 0.25 over the bivariate basis, root (0.5, -0.25)
        system = np.zeros((3, 10))
        system[0, [7, 9]] = 1.0, -0.5
        system[1, [8, 9]] = 1.0, 0.25
        system[2, [4, 9]] = 1.0, -0.25
        return system

    def test_converged_start_is_left_alone(self):
        system = self._system()
        # the first start is converged (squared residual below 1e-28) yet
        # not exact, so one more step would still move it
        starts = np.array([[0.5 + 4e-15, -0.25], [0.9, 0.3], [0.5, -0.25]])
        systems = np.broadcast_to(system, (3, 3, 10))
        residual = system @ _poly.bivariate_monomials_batch(starts[:1])[0]
        assert 0.0 < residual @ residual <= 1e-28
        states, norms = _polish_batch(systems, starts, _poly.BIVARIATE_BASIS, 4)
        assert np.array_equal(states[0], starts[0])
        assert norms[0] == pytest.approx(math.sqrt(residual @ residual), rel=1e-12)
        assert np.array_equal(states[2], starts[2]) and norms[2] == 0.0
        assert not np.array_equal(states[1], starts[1])
        np.testing.assert_allclose(states[1], [0.5, -0.25], atol=1e-9)

    def test_singular_start_stops_alone(self):
        # 1e10 (x + y) + 1: equal, large gradient columns make the damped
        # normal equations exactly singular
        singular = np.zeros((3, 10))
        singular[0, [7, 8, 9]] = 1e10, 1e10, 1.0
        systems = np.stack([singular, self._system()])
        starts = np.array([[0.3, 0.2], [0.9, 0.3]])
        states, _ = _polish_batch(systems, starts, _poly.BIVARIATE_BASIS, 4)
        assert np.array_equal(states[0], starts[0])
        np.testing.assert_allclose(states[1], [0.5, -0.25], atol=1e-9)


class TestFocalSolvers:
    def test_ff3sift_recovers_focal(self, scenes):
        # near-double roots can displace a converged solution by a few 1e-6
        # relative, so single draws get a loose cap and the batch a tight one
        rng = np.random.default_rng(18)
        errors = []
        for scene in scenes:
            idx = spanning_indices(scene, 3, rng)
            out = solve_f_focal_3sift(scene.correspondences[idx], scene.principal_point)
            assert 1 <= len(out.models) <= 15
            errors.append(min(abs(m.focal - scene.focal) / scene.focal for m in out.models))
            assert errors[-1] < 1e-4
            assert min(matrix_gap(m.fundamental, scene.f) for m in out.models) < 1e-4
        assert np.median(errors) < 1e-6

    def test_ff6pt_recovers_focal(self, scenes):
        rng = np.random.default_rng(19)
        errors = []
        for scene in scenes:
            idx = spanning_indices(scene, 6, rng)
            out = solve_f_focal_6pt(scene.pairs[idx], scene.principal_point)
            assert 1 <= len(out.models) <= 15
            errors.append(min(abs(m.focal - scene.focal) / scene.focal for m in out.models))
            assert errors[-1] < 1e-4
        assert np.median(errors) < 1e-6

    def test_focal_postconditions(self, scenes):
        rng = np.random.default_rng(20)
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 3, rng)
            corr = scene.correspondences[idx]
            out = solve_f_focal_3sift(corr, scene.principal_point)
            local = semicalibrated_frame(corr[:, [0, 1, 4, 5]],
                                         scene.principal_point).local(corr)
            found = solvers_module._solve_semicalibrated_rows(
                _interleaved(epipolar_rows(local[:, [0, 1, 4, 5]]), sift_rows(local)))
            assert len(found) == len(out.models)
            for model, (_, _, res) in zip(out.models, found):
                assert model.focal > 0.0
                assert abs(model.fundamental.det()) < 1e-10
                assert res < 1e-8  # trace constraint of diag(f,f,1) F diag(f,f,1)

    def test_back_ends_shared(self):
        # the point and feature variants, public and robust, run through one core
        assert (solver_info("ff3sift").core is solver_info("ff6pt").core
                is solvers_module._semicalibrated_batch)

    def test_engine_deterministic_on_same_rows(self, scene):
        rng = np.random.default_rng(21)
        idx = spanning_indices(scene, 3, rng)
        corr = scene.correspondences[idx]
        local = semicalibrated_frame(corr[:, [0, 1, 4, 5]], scene.principal_point).local(corr)
        rows = np.empty((6, 9))
        rows[0::2] = epipolar_rows(local[:, [0, 1, 4, 5]])
        rows[1::2] = sift_rows(local)
        first = solvers_module._solve_semicalibrated_rows(rows)
        second = solvers_module._solve_semicalibrated_rows(rows)
        assert len(first) == len(second)
        for (mat_a, focal_a, res_a), (mat_b, focal_b, res_b) in zip(first, second):
            assert np.array_equal(mat_a, mat_b)
            assert focal_a == focal_b and res_a == res_b


class TestDispatch:
    def test_registry_sample_sizes(self):
        from siftpose.solvers import MINIMAL_SOLVERS

        assert {k: v.sample_size for k, v in MINIMAL_SOLVERS.items()} == {
            "f4sift": 4, "f7pt": 7, "e3sift": 3, "e5pt": 5, "ff3sift": 3, "ff6pt": 6}

    def test_run_minimal_solver(self, scene):
        rng = np.random.default_rng(22)
        idx = spanning_indices(scene, 4, rng)
        out = run_minimal_solver("f4sift", scene.correspondences[idx])
        assert best_gap(out.models, scene.f) < 1e-8
        with pytest.raises(ValueError):
            run_minimal_solver("f4sift", scene.correspondences[:3])
        with pytest.raises(ValueError):
            run_minimal_solver("nope", scene.correspondences[:3])


def _interleaved(points, features):
    rows = np.empty((2 * points.shape[0], 9))
    rows[0::2] = points
    rows[1::2] = features
    return rows


class TestRegistry:
    """Each solver's one registry entry, as every caller runs it."""

    HAND_BUILT = {
        "f4sift": lambda points, features: np.vstack([points, features[:3]]),
        "f7pt": lambda points, features: points,
        "e3sift": _interleaved,
        "e5pt": lambda points, features: points,
        "ff3sift": _interleaved,
        "ff6pt": lambda points, features: points,
    }

    @staticmethod
    def _kwargs(scene):
        return {"k1": scene.k1, "k2": scene.k2, "principal_point": scene.principal_point}

    @pytest.mark.parametrize("solver_id", list(HAND_BUILT))
    def test_rows_reproduce_hand_built_layouts(self, scenes, solver_id):
        info = solver_info(solver_id)
        rng = np.random.default_rng(28)
        samples = [scene.correspondences[spanning_indices(scene, info.sample_size, rng)]
                   for scene in scenes[:3]]
        points = np.stack([epipolar_rows(corr[:, [0, 1, 4, 5]]) for corr in samples])
        features = np.stack([sift_rows(corr) for corr in samples])
        rows = info.rows(points, features if info.uses_orientation else None)
        for i in range(len(samples)):
            assert np.array_equal(rows[i], self.HAND_BUILT[solver_id](points[i], features[i]))

    def test_null_space_dims(self, scene):
        rng = np.random.default_rng(29)
        dims = {}
        for solver_id, info in solvers_module.MINIMAL_SOLVERS.items():
            corr = scene.correspondences[spanning_indices(scene, info.sample_size, rng)]
            rows = solvers_module._stacked_rows(info, corr)[0]
            dims[solver_id] = 9 - np.linalg.matrix_rank(rows)
        assert dims == {"f4sift": 2, "f7pt": 2, "e3sift": 3, "e5pt": 4, "ff3sift": 3, "ff6pt": 3}

    @pytest.mark.parametrize("solver_id", list(HAND_BUILT))
    def test_refused_sample_mid_block(self, scene, solver_id):
        problem = make_problem(solver_id, scene.correspondences, **self._kwargs(scene))
        rng = np.random.default_rng(30)
        draws = [spanning_indices(scene, problem.sample_size, rng) for _ in range(4)]
        draws.insert(2, np.zeros(problem.sample_size, dtype=int))  # one correspondence repeated
        block = np.stack(draws)
        solved = problem.solve_minimal_batch(block)
        assert solved[2] == []
        for i in (0, 1, 3, 4):
            alone = problem.solve_minimal_batch(block[i:i + 1])[0]
            assert solved[i] and len(alone) == len(solved[i])
            for a, b in zip(alone, solved[i]):
                if isinstance(a, tuple):  # semi-calibrated (F, focal)
                    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
                else:
                    assert np.array_equal(a, b)
