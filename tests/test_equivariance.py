"""Image-similarity equivariance of the minimal solvers.

A similarity x -> s R x + t of an image rotates each feature orientation
by R's angle and multiplies each feature scale by s. A solver fed the moved
sample must return the moved model set: every F becomes T2^-T F T1^-1, and
for the semi-calibrated solvers (one similarity for both images, the
principal point moved with it) every focal length is multiplied by s. The
calibrated solvers take s and t into the intrinsics (focal s f, principal
point s R c + t), so only R reaches the normalized points and every E
becomes Rz(theta2) E Rz(theta1)^T.
"""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from siftpose.geometry import CameraIntrinsics  # noqa: E402
from siftpose.solvers import FocalModel, run_minimal_solver, solver_info  # noqa: E402

from conftest import spanning_indices  # noqa: E402

RELATIVE = 1e-6
# largest gap measured over 1,200 random moves per solver was 3.1e-11
CALIBRATED_RELATIVE = 1e-9

angles = st.floats(-math.pi, math.pi)
log_scales = st.floats(-1.0, 1.0)
shifts = st.floats(-1000.0, 1000.0)
similarities = st.tuples(angles, log_scales, shifts, shifts)


def _matrix(angle, log_scale, tx, ty):
    s = math.exp(log_scale)
    c, n = math.cos(angle), math.sin(angle)
    return np.array([[s * c, -s * n, tx], [s * n, s * c, ty], [0.0, 0.0, 1.0]])


def _move(corr, t1, t2):
    """Packed correspondences (n, 8) carried through per-image similarities."""
    out = corr.copy()
    for offset, t in ((0, t1), (4, t2)):
        out[:, offset:offset + 2] = corr[:, offset:offset + 2] @ t[:2, :2].T + t[:2, 2]
        out[:, offset + 2] = corr[:, offset + 2] * math.hypot(t[0, 0], t[1, 0])
        out[:, offset + 3] = np.mod(corr[:, offset + 3] + math.atan2(t[1, 0], t[0, 0]),
                                    2.0 * math.pi)
    return out


def _unit(m):
    m = m / np.linalg.norm(m)
    return m if m.flat[np.argmax(np.abs(m))] > 0 else -m


def _assert_maps(base, moved, t1, t2, scale, tolerance=RELATIVE):
    """Every base model, moved, matches a distinct model of the moved solve."""
    assert len(base.models) == len(moved.models)
    inv1, inv2 = np.linalg.inv(t1), np.linalg.inv(t2)
    unmatched = list(moved.models)
    for model in base.models:
        focal = isinstance(model, FocalModel)
        f = model.fundamental.m if focal else model.m
        expected = _unit(inv2.T @ f @ inv1)

        def gap(candidate):
            g = candidate.fundamental.m if focal else candidate.m
            out = np.abs(_unit(g) - expected).max()
            if focal:
                out = max(out, abs(candidate.focal - scale * model.focal) / (scale * model.focal))
            return out

        gaps = [gap(candidate) for candidate in unmatched]
        best = int(np.argmin(gaps))
        assert gaps[best] < tolerance
        unmatched.pop(best)


@pytest.mark.parametrize("solver_id", ["f4sift", "f7pt"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(first=similarities, second=similarities, draw=st.integers(0, 2 ** 16))
def test_uncalibrated_similarity_equivariance(scenes, solver_id, first, second, draw):
    scene = scenes[draw % len(scenes)]
    rng = np.random.default_rng(draw)
    corr = scene.correspondences[spanning_indices(scene, solver_info(solver_id).sample_size, rng)]
    t1, t2 = _matrix(*first), _matrix(*second)
    base = run_minimal_solver(solver_id, corr)
    moved = run_minimal_solver(solver_id, _move(corr, t1, t2))
    _assert_maps(base, moved, t1, t2, 1.0)


@pytest.mark.parametrize("solver_id", ["ff3sift", "ff6pt"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(similarity=similarities, draw=st.integers(0, 2 ** 16))
def test_semicalibrated_similarity_equivariance(scenes, solver_id, similarity, draw):
    scene = scenes[draw % len(scenes)]
    rng = np.random.default_rng(draw)
    corr = scene.correspondences[spanning_indices(scene, solver_info(solver_id).sample_size, rng)]
    t = _matrix(*similarity)
    pp = scene.principal_point
    base = run_minimal_solver(solver_id, corr, principal_point=pp)
    moved = run_minimal_solver(solver_id, _move(corr, t, t), principal_point=t[:2, :2] @ pp + t[:2, 2])
    _assert_maps(base, moved, t, t, math.exp(similarity[1]))


def _moved_intrinsics(k, t):
    """K with the image similarity t folded in: focal s f, principal point s R c + t."""
    scale = math.hypot(t[0, 0], t[1, 0])
    center = t[:2, :2] @ (k.cx, k.cy) + t[:2, 2]
    return CameraIntrinsics(scale * k.fx, scale * k.fy, center[0], center[1])


def _rotation_z(t):
    """The in-plane rotation of a similarity, as a 3x3 rotation about the optical axis."""
    rz = np.eye(3)
    rz[:2, :2] = t[:2, :2] / math.hypot(t[0, 0], t[1, 0])
    return rz


@pytest.mark.parametrize("solver_id", ["e3sift", "e5pt"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(first=similarities, second=similarities, draw=st.integers(0, 2 ** 16))
def test_calibrated_similarity_equivariance(scenes, solver_id, first, second, draw):
    scene = scenes[draw % len(scenes)]
    rng = np.random.default_rng(draw)
    corr = scene.correspondences[spanning_indices(scene, solver_info(solver_id).sample_size, rng)]
    t1, t2 = _matrix(*first), _matrix(*second)
    base = run_minimal_solver(solver_id, corr, scene.k1, scene.k2)
    moved = run_minimal_solver(solver_id, _move(corr, t1, t2), _moved_intrinsics(scene.k1, t1),
                               _moved_intrinsics(scene.k2, t2))
    # a rotation R has R^-T = R, so the F map T2^-T E T1^-1 reads Rz2 E Rz1^T
    _assert_maps(base, moved, _rotation_z(t1), _rotation_z(t2), 1.0, CALIBRATED_RELATIVE)
