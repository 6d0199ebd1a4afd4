import dataclasses
import math

import numpy as np
import pytest

import siftpose.solvers as solvers_module
from siftpose.constraints import epipolar_rows, sift_rows
from siftpose.errors import DegenerateSampleError, IllConditionedSampleError, SolverError
from siftpose.geometry import (
    CameraIntrinsics,
    decompose_essential,
    rotation_error,
    symmetric_epipolar_errors,
    translation_error,
)
from siftpose import _poly
from siftpose.solvers import (
    _E3SIFT_REFUSALS,
    _e3sift_front,
    _first_of_clusters,
    _greedy_keep,
    _monomial_solve,
    _polish_batch,
    frame_rows,
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
    solve_rows,
    solver_info,
)
from siftpose.robust import make_problem
from siftpose.synthetic import SyntheticConfig, add_noise, generate_scene

from conftest import spanning_indices
from support import (
    essential_residual,
    scalar_cubic_roots,
    scalar_e3sift_start,
    scalar_semicalibrated_rows,
)


def matrix_gap(model, truth):
    m = model.m if hasattr(model, "m") else model
    t = truth.m if hasattr(truth, "m") else truth
    return min(np.abs(m - t).max(), np.abs(m + t).max())


def best_gap(models, truth):
    return min(matrix_gap(m, truth) for m in models)


class TestCubicRoots:
    @staticmethod
    def _roots(*coeffs):
        """The kept real roots of one cubic, through the batched solver."""
        roots, found = real_cubic_roots(np.array([coeffs]))
        return list(roots[0, found[0]])

    def test_known_roots(self):
        # (x - 1)(x - 2)(x + 3) = x^3 - 7x + 6
        roots = sorted(self._roots(1.0, 0.0, -7.0, 6.0))
        assert np.allclose(roots, [-3.0, 1.0, 2.0])

    def test_single_real_root(self):
        # (x - 2)(x^2 + 1)
        roots = self._roots(1.0, -2.0, 1.0, -2.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0)

    def test_quadratic_fallback(self):
        roots = sorted(self._roots(0.0, 1.0, -3.0, 2.0))
        assert np.allclose(roots, [1.0, 2.0])

    def test_random_polynomials_against_numpy(self):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((300, 4))
        roots, found = real_cubic_roots(coeffs)
        for row, kept, mask in zip(coeffs, roots, found):
            mine = sorted(kept[mask])
            reference = sorted(r.real for r in np.roots(row)
                               if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)))
            assert len(mine) == len(reference)
            for a, b in zip(mine, reference):
                assert a == pytest.approx(b, abs=1e-7)

    def test_triple_roots_with_rounded_coefficients(self):
        # (x - r)^3 with coefficients rounded to doubles: value and derivative
        # at the closed-form root are both roundoff, and an unguarded Newton
        # step between them threw roots off by up to 2.4 r
        rng = np.random.default_rng(29)
        r = rng.uniform(0.01, 10.0, 3000) * rng.choice([-1.0, 1.0], 3000)
        coeffs = np.stack([np.ones_like(r), -3.0 * r, 3.0 * r * r, -r ** 3], axis=1)
        roots, found = real_cubic_roots(coeffs)
        assert found.any(axis=1).all()
        gap = np.where(found, np.abs(roots - r[:, None]), 0.0).max(axis=1) / np.abs(r)
        # up to |r| = 2 the depressed cubic passes the triple-root test; beyond,
        # the rounded cubic's own roots lie about eps^(1/3) |r| from r
        assert gap[np.abs(r) <= 2.0].max() <= 1e-6
        assert gap.max() <= 1e-4

    def test_rows_match_the_scalar_reference(self):
        # one batch mixing every branch: full cubics, a vanishing cubic
        # term, a vanishing quadratic term too, and all-zero rows
        rng = np.random.default_rng(27)
        coeffs = rng.standard_normal((3000, 4))
        coeffs[2000:2500, 0] = 0.0
        coeffs[2500:2990, :2] = 0.0
        coeffs[2990:] = 0.0
        roots, found = real_cubic_roots(coeffs)
        for row, kept, mask in zip(coeffs, roots, found):
            reference = scalar_cubic_roots(*row)
            assert len(kept[mask]) == len(reference)
            np.testing.assert_allclose(kept[mask], reference, rtol=1e-12, atol=1e-12)


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
        rows = []
        for scene in scenes[:10]:
            idx = spanning_indices(scene, 3, rng)
            local = normalize_sift_correspondences(scene.correspondences[idx],
                                                   scene.k1, scene.k2)
            rows.append(_interleaved(epipolar_rows(local[:, [0, 1, 4, 5]]), sift_rows(local)))
        _, system, _, code = _e3sift_front(_basis(np.stack(rows)))
        y, conditioned = _monomial_solve(system)
        assert not code.any() and conditioned.all()
        for sample in y:
            assert abs(sample[7] ** 3 - sample[0]) < 1e-6 * max(1.0, abs(sample[0]))
            assert abs(sample[8] ** 3 - sample[1]) < 1e-6 * max(1.0, abs(sample[1]))

    def test_e3sift_front_matches_the_scalar_reference(self, scenes):
        # one batch of finite rows mixing clean and noisy samples with the
        # refused kinds: a repeated correspondence, all-zero rows and a null
        # space of coordinate matrices (an ill-conditioned monomial system)
        rng = np.random.default_rng(28)
        noisy = [add_noise(scene, 0.5, rng) for scene in scenes]
        blocks = []
        for i in range(320):
            scene = (scenes if i % 2 else noisy)[i % len(scenes)]
            corr = scene.correspondences[spanning_indices(scene, 3, rng)]
            if i % 16 == 5:
                corr = corr[[0, 0, 1]]
            local = normalize_sift_correspondences(corr, scene.k1, scene.k2)
            rows = _interleaved(epipolar_rows(local[:, [0, 1, 4, 5]]), sift_rows(local))
            if i % 16 == 9:
                rows[:] = 0.0
            elif i % 16 == 13:
                rows = np.eye(9)[np.roll(np.arange(9), i % 9)[3:]]
            blocks.append(rows)
        stack = np.stack(blocks)
        _, _, starts, code = _e3sift_front(_basis(stack))
        screened = _screen(solver_info("e3sift"), stack)
        kinds = set()
        for i, rows in enumerate(blocks):
            try:
                ref_start = scalar_e3sift_start(rows)[3]
            except SolverError as exc:
                if isinstance(exc, DegenerateSampleError):  # the rank screen's refusal
                    refusal = screened[i]
                else:
                    refusal = _E3SIFT_REFUSALS[code[i]]() if code[i] else None
                assert type(refusal) is type(exc) and str(refusal) == str(exc)
                kinds.add(str(exc))
                continue
            assert code[i] == 0 and isinstance(screened[i], list)
            assert np.abs(starts[i] - ref_start).max() <= 1e-9 * np.abs(ref_start).max()
        assert len(kinds) == 2 and np.count_nonzero(code == 0) >= 200

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
        bases = _basis(rows[:-1])
        batched = rank2_candidates_batch(bases)
        assert any(batched)
        for i, models in enumerate(batched):
            alone = rank2_candidates_batch(bases[i:i + 1])[0]
            assert len(alone) == len(models)
            for a, b in zip(alone, models):
                assert np.array_equal(a, b)
        # the all-zero sample never reaches the core
        refusal = _screen(solver_info("f4sift" if feature_rows else "f7pt"), rows[-1:])[0]
        assert type(refusal) is DegenerateSampleError and str(refusal) == _rank_refusal(7)

    @staticmethod
    def _mixed_samples(scenes, info):
        """Point and feature rows (batch, m, 9) of 320 samples in the solver's frame.

        Of every 16 samples, ten are clean or noisy; one repeats a
        correspondence; the rows of four are all zero or hold a NaN, +inf
        or -inf entry; and one has a record at 1e300 in the frame, whose
        rows overflow.
        """
        rng = np.random.default_rng(31)
        noisy = [add_noise(scene, 0.5, rng) for scene in scenes]
        points, features = [], []
        for i in range(320):
            kind = i % 16
            scene = (scenes if i % 2 else noisy)[i % len(scenes)]
            idx = spanning_indices(scene, info.sample_size, rng)
            if kind == 10:
                idx[1] = idx[0]
            corr = scene.correspondences[idx]
            frame, _, rows, feature_rows = frame_rows(
                info, corr, scene.k1, scene.k2, scene.principal_point)
            if kind == 11:
                rows[:] = 0.0
                if feature_rows is not None:
                    feature_rows[:] = 0.0
            elif kind in (12, 13, 14):
                # the entry goes into the feature rows of every other such sample
                target = rows if feature_rows is None or i % 32 < 16 else feature_rows
                target[i % info.sample_size, i % 9] = (np.nan, np.inf, -np.inf)[kind - 12]
            elif kind == 15:
                local = frame.local(corr)
                local[i % info.sample_size, [0, 4]] = 1e300
                _, rows, feature_rows = solvers_module._constraint_rows(info, local)
            points.append(rows)
            features.append(feature_rows)
        return np.stack(points), None if info.layout is None else np.stack(features)

    @staticmethod
    def _single_start_five_point_samples(count):
        """Random e5pt rows (count, 5, 9) whose five-point core polishes exactly one start.

        The real roots of the five-point system come in pairs, so a generic
        sample polishes an even number of starts, and a batch of one sample
        never makes a polish batch of one. Each of these samples sits where
        its last real pair turns complex along a segment between a sample
        with models and one without: the conjugate roots are still valid
        (|Im| <= 1e-6) and share their real part, so they merge into one
        start.
        """
        info = solver_info("e5pt")

        def models(rows):
            out = solve_rows(info, rows[None], None)[0]
            return 0 if isinstance(out, Exception) else len(out)

        rng = np.random.default_rng(41)
        samples = []
        while len(samples) < count:
            a, b = rng.standard_normal((2, 5, 9))
            if models(a) == 0 or models(b) != 0:
                continue
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if models((1 - mid) * a + mid * b) else (lo, mid)
            samples.append((1 - lo) * a + lo * b)
            assert models(samples[-1]) == 1
        return np.stack(samples)

    @pytest.mark.parametrize("solver_id", ["f4sift", "f7pt", "e3sift", "e5pt",
                                           "ff3sift", "ff6pt"])
    def test_batch_rows_equal_samples_alone(self, scenes, solver_id):
        # the one core call site: row i of a mixed batch is sample i solved
        # alone, bitwise, and a refused sample has the same refusal; e5pt
        # also runs samples that polish a single start when alone
        info = solver_info(solver_id)
        points, features = self._mixed_samples(scenes, info)
        if solver_id == "e5pt":
            points = np.concatenate([points, self._single_start_five_point_samples(8)])
        batched = solve_rows(info, points, features)
        refusals = set()
        for i, result in enumerate(batched):
            alone = solve_rows(info, points[i:i + 1],
                               None if features is None else features[i:i + 1])[0]
            if isinstance(result, Exception):
                assert type(alone) is type(result) and str(alone) == str(result), i
                refusals.add((type(result), str(result)))
                continue
            assert len(alone) == len(result), i
            for a, b in zip(alone, result):
                if isinstance(a, tuple):  # semi-calibrated (F, focal)
                    assert np.array_equal(a[0], b[0]) and a[1] == b[1], i
                else:
                    assert np.array_equal(a, b), i
        assert (IllConditionedSampleError,
                "constraint rows not finite: the sample's coordinates overflow them") in refusals
        rank = info.rows(points[:1], None if features is None else features[:1]).shape[1]
        assert (DegenerateSampleError, _rank_refusal(rank)) in refusals
        assert sum(not isinstance(result, Exception) for result in batched) >= 150

    @pytest.mark.parametrize("solver_id", ["f4sift", "f7pt", "e3sift", "e5pt",
                                           "ff3sift", "ff6pt"])
    def test_block_of_refused_samples(self, scene, solver_id):
        # all-zero rows, a repeated record and a NaN: only refusals, and
        # the core is never called on the empty remainder
        info = solver_info(solver_id)
        idx = spanning_indices(scene, info.sample_size, np.random.default_rng(32))
        idx[1] = idx[0]
        _, _, points, features = frame_rows(info, scene.correspondences[idx], scene.k1,
                                            scene.k2, scene.principal_point)
        points = np.stack([np.zeros_like(points), points, points])
        points[2, 0, 0] = np.nan
        if features is not None:
            features = np.stack([np.zeros_like(features), features, features])
        rank = info.rows(points, features).shape[1]
        expected = [(DegenerateSampleError, _rank_refusal(rank))] * 2
        expected.append((IllConditionedSampleError,
                         "constraint rows not finite: the sample's coordinates overflow them"))
        for run in (info, dataclasses.replace(info, core=None)):
            assert [(type(out), str(out)) for out in solve_rows(run, points, features)] == expected

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
            np.testing.assert_allclose(gradient(states, monomials(states))[:, :, k], numeric,
                                       rtol=1e-8, atol=1e-8)

    # positions of x, y, x^2, the third variable (z or w) and the constant 1
    # in each basis; the bivariate one has no third variable
    LAYOUTS = {
        "bivariate": (_poly.BIVARIATE_BASIS, (7, 8, 4, None, 9)),
        "trivariate": (_poly.TRIVARIATE_BASIS, (16, 17, 10, 18, 19)),
        "semicalibrated": (_poly.SEMICALIBRATED_BASIS, (7, 8, 4, 19, 9)),
    }

    @classmethod
    def _system(cls, layout):
        # x - 0.5, y + 0.25, x^2 - 0.25 and, with three variables, the third
        # minus 0.125: root (0.5, -0.25[, 0.125])
        basis, (x, y, x2, third, one) = cls.LAYOUTS[layout]
        nvars = 2 if third is None else 3
        system = np.zeros((nvars + 1, basis[0](np.zeros((1, nvars))).shape[1]))
        system[0, [x, one]] = 1.0, -0.5
        system[1, [y, one]] = 1.0, 0.25
        system[2, [x2, one]] = 1.0, -0.25
        if third is not None:
            system[3, [third, one]] = 1.0, -0.125
        return basis, system, np.array([0.5, -0.25, 0.125])[:nvars]

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_converged_start_is_left_alone(self, layout):
        basis, system, root = self._system(layout)
        # the first start is converged (squared residual below 1e-28) yet
        # not exact, so one more step would still move it
        starts = np.stack([root + np.eye(len(root))[0] * 4e-15,
                           np.array([0.9, 0.3, 0.4])[:len(root)], root])
        systems = np.broadcast_to(system, (3,) + system.shape)
        residual = system @ basis[0](starts[:1])[0]
        assert 0.0 < residual @ residual <= 1e-28
        states, norms = _polish_batch(systems, starts, basis, 4)
        assert np.array_equal(states[0], starts[0])
        assert norms[0] == pytest.approx(math.sqrt(residual @ residual), rel=1e-12)
        assert np.array_equal(states[2], starts[2]) and norms[2] == 0.0
        assert not np.array_equal(states[1], starts[1])
        np.testing.assert_allclose(states[1], root, atol=1e-9)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_singular_start_stops_alone(self, layout):
        # 1e10 (x + y) + 1: equal, large gradient columns make the damped
        # normal equations exactly singular
        basis, system, root = self._system(layout)
        _, (x, y, _, _, one) = self.LAYOUTS[layout]
        singular = np.zeros_like(system)
        singular[0, [x, y, one]] = 1e10, 1e10, 1.0
        systems = np.stack([singular, system])
        starts = np.stack([np.array([0.3, 0.2, 0.1])[:len(root)],
                           np.array([0.9, 0.3, 0.4])[:len(root)]])
        states, _ = _polish_batch(systems, starts, basis, 4)
        assert np.array_equal(states[0], starts[0])
        np.testing.assert_allclose(states[1], root, atol=1e-9)


    @pytest.mark.parametrize("basis", [_poly.TRIVARIATE_BASIS, _poly.SEMICALIBRATED_BASIS],
                             ids=["trivariate", "semicalibrated"])
    def test_batch_equals_starts_alone(self, basis):
        # three variables go through the 3x3 adjugate, whose layout must not
        # depend on the batch
        rng = np.random.default_rng(32)
        terms = basis[0](np.zeros((1, 3))).shape[1]
        systems = rng.standard_normal((200, 10, terms))
        starts = rng.uniform(-1.0, 1.0, (200, 3))
        states, norms = _polish_batch(systems, starts, basis, 4)
        for i in range(200):
            alone, alone_norm = _polish_batch(systems[i:i + 1], starts[i:i + 1], basis, 4)
            assert np.array_equal(alone[0], states[i]) and alone_norm[0] == norms[i], i


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
                                         principal_point=scene.principal_point).local(corr)
            found = solvers_module._solve_semicalibrated(
                _basis(_interleaved(epipolar_rows(local[:, [0, 1, 4, 5]]), sift_rows(local))))
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
        local = semicalibrated_frame(corr[:, [0, 1, 4, 5]],
                                     principal_point=scene.principal_point).local(corr)
        rows = np.empty((6, 9))
        rows[0::2] = epipolar_rows(local[:, [0, 1, 4, 5]])
        rows[1::2] = sift_rows(local)
        first = solvers_module._solve_semicalibrated(_basis(rows))
        second = solvers_module._solve_semicalibrated(_basis(rows))
        assert first and len(first) == len(second)
        for (mat_a, focal_a, res_a), (mat_b, focal_b, res_b) in zip(first, second):
            assert np.array_equal(mat_a, mat_b)
            assert focal_a == focal_b and res_a == res_b


class TestDistinctModels:
    """No solver returns one model twice for a sample."""

    @staticmethod
    def _coincide(a, b):
        # unit F/E up to sign within 1e-6, and the focal within 1e-4 relative
        if matrix_gap(getattr(a, "fundamental", a), getattr(b, "fundamental", b)) >= 1e-6:
            return False
        return not hasattr(a, "focal") or abs(a.focal - b.focal) < 1e-4 * max(a.focal, b.focal)

    @pytest.mark.parametrize("solver_id", ["f7pt", "f4sift", "e5pt", "ff3sift", "ff6pt"])
    def test_no_two_models_coincide(self, scenes, solver_id):
        info = solver_info(solver_id)
        checked = 0
        for draw in range(400):
            scene = scenes[draw % len(scenes)]
            idx = spanning_indices(scene, info.sample_size, np.random.default_rng(draw))
            kwargs = {"e": {"k1": scene.k1, "k2": scene.k2},
                      "ff": {"principal_point": scene.principal_point}}.get(info.family, {})
            try:
                models = run_minimal_solver(solver_id, scene.correspondences[idx], **kwargs).models
            except SolverError:
                continue
            checked += 1
            for i in range(len(models)):
                for j in range(i):
                    assert not self._coincide(models[i], models[j]), (draw, i, j)
        assert checked >= 390


class TestSemicalibratedScans:
    """The semi-calibrated core's array scans against its candidate-by-candidate form."""

    @staticmethod
    def _rows(scenes, solver_id, count):
        """Core rows of count samples in the solver's frame.

        Plane-balanced draws, every other one from a scene with 0.5 px
        noise and every eighth with a correspondence repeated; then
        ff3sift's ridge draws 1082, 1355 and 1482 as TestDistinctModels
        makes them.
        """
        info = solver_info(solver_id)
        rng = np.random.default_rng(47)
        noisy = [add_noise(scene, 0.5, rng) for scene in scenes]
        draws = []
        for i in range(count - 3):
            scene = (scenes, noisy)[i % 2][i % len(scenes)]
            idx = spanning_indices(scene, info.sample_size, rng)
            if i % 8 == 7:
                idx[1] = idx[0]
            draws.append((scene, idx))
        for draw in (1082, 1355, 1482):
            scene = scenes[draw % len(scenes)]
            draws.append((scene, spanning_indices(scene, info.sample_size,
                                                  np.random.default_rng(draw))))
        return [info.rows(*frame_rows(info, scene.correspondences[idx], scene.k1, scene.k2,
                                      scene.principal_point)[2:])
                for scene, idx in draws]

    @staticmethod
    def _outcome(solve, rows):
        try:
            return [(f.tobytes(), focal, res) for f, focal, res in solve(rows)]
        except SolverError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("solver_id", ["ff3sift", "ff6pt"])
    def test_core_matches_the_scalar_reference(self, scenes, solver_id):
        # bitwise: the same (F, focal, residual) list in the same order, or
        # the same refusal
        info = solver_info(solver_id)
        outcomes = []
        for i, rows in enumerate(self._rows(scenes, solver_id, 520)):
            expected = self._outcome(scalar_semicalibrated_rows, rows)
            if isinstance(expected, tuple):  # the rank screen's refusal
                refusal = _screen(info, rows[None])[0]
                assert (type(refusal), str(refusal)) == expected, i
            else:
                solved = self._outcome(solvers_module._solve_semicalibrated, _basis(rows))
                assert solved == expected, i
            outcomes.append(expected)
        solved = [out for out in outcomes if isinstance(out, list)]
        assert len(solved) >= 400 and max(map(len, solved)) >= 3
        assert any(isinstance(out, tuple) for out in outcomes)

    def test_greedy_keep_is_not_first_of_clusters(self):
        # a ~ b and b ~ c but not a ~ c: the scan drops b, so c is kept;
        # _first_of_clusters drops c for its near earlier (valid) point b
        points = np.array([0.0, 0.6, 1.2])
        near = np.abs(points[:, None] - points) <= 0.4 * (1.0 + np.abs(points))[:, None]
        assert near[1, 0] and near[2, 1] and not near[2, 0]
        valid = np.ones(3, dtype=bool)
        assert _greedy_keep(near, valid).tolist() == [True, False, True]
        assert _first_of_clusters(points[None, :, None], valid[None], 0.4).tolist() == [
            [True, False, False]]
        # an invalid point shadows nothing
        assert _greedy_keep(near, np.array([False, True, True])).tolist() == [False, True, False]

    def test_greedy_keep_matches_a_sequential_scan(self):
        rng = np.random.default_rng(48)
        for _ in range(500):
            k = int(rng.integers(0, 14))
            near = rng.random((k, k)) < rng.uniform(0.05, 0.6)
            valid = rng.random(k) < 0.8
            kept = []
            for j in range(k):
                if valid[j] and not any(near[j, i] for i in kept if i < j):
                    kept.append(j)
            assert np.flatnonzero(_greedy_keep(near, valid)).tolist() == kept


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
        # a non-finite input is named as such, not as an overflowing frame
        corr = scene.correspondences[idx]
        corr[1, 0] = np.nan
        with pytest.raises(ValueError, match="1 of 4 correspondences hold non-finite"):
            run_minimal_solver("f4sift", corr)


def _interleaved(points, features):
    rows = np.empty((2 * points.shape[0], 9))
    rows[0::2] = points
    rows[1::2] = features
    return rows


def _basis(rows):
    """The trailing 9 - r right singular vectors of rows (..., r, 9), as solve_rows passes them."""
    return np.linalg.svd(rows)[2][..., rows.shape[-2]:, :]


def _screen(info, rows):
    """solve_rows on core rows (batch, r, 9), split back into point and feature rows."""
    if info.layout is None:
        return solve_rows(info, rows, None)
    if info.layout == "first3":
        return solve_rows(info, rows[:, :info.sample_size], rows[:, info.sample_size:])
    return solve_rows(info, rows[:, 0::2], rows[:, 1::2])


def _rank_refusal(rank):
    return f"constraint system rank below {rank}; sample does not determine the model"


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
            rows = info.rows(*frame_rows(info, corr, **self._kwargs(scene))[2:])
            dims[solver_id] = 9 - np.linalg.matrix_rank(rows)
        assert dims == {"f4sift": 2, "f7pt": 2, "e3sift": 3, "e5pt": 4, "ff3sift": 3, "ff6pt": 3}

    @pytest.mark.parametrize("solver_id", ["f7pt", "e5pt", "ff6pt"])
    @pytest.mark.parametrize("columns", [3, 5, 6, 9])
    def test_column_count_checked(self, scene, solver_id, columns):
        # only (n, 4) point pairs and (n, 8) packed records are correspondences
        corr = np.hstack([scene.correspondences, scene.correspondences])[:, :columns]
        size = solver_info(solver_id).sample_size
        with pytest.raises(ValueError, match=rf"got shape \({len(corr)}, {columns}\)"):
            make_problem(solver_id, corr, **self._kwargs(scene))
        with pytest.raises(ValueError, match=rf"got shape \({size}, {columns}\)"):
            run_minimal_solver(solver_id, corr[:size], **self._kwargs(scene))

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
