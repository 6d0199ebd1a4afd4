"""Tests of the benchmark's independent reference.

Run from the root of a checkout: python3 -m pytest posebench
"""
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import reference  # noqa: E402


def rotation_about(axis, degrees) -> np.ndarray:
    """Rodrigues' formula."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    angle = math.radians(degrees)
    kx = reference.skew(k)
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * kx @ kx


@pytest.fixture
def two_view():
    """Two cameras and points in front of both, built without siftpose."""
    rng = np.random.default_rng(5)
    k1 = np.array([[800.0, 0.0, 600.0], [0.0, 800.0, 400.0], [0.0, 0.0, 1.0]])
    k2 = np.array([[950.0, 0.0, 610.0], [0.0, 940.0, 390.0], [0.0, 0.0, 1.0]])
    r1 = rotation_about([0.3, -1.0, 0.2], 12.0)
    r2 = rotation_about([1.0, 0.4, -0.5], 35.0)
    t1 = np.array([0.1, -0.2, 4.0])
    t2 = np.array([-1.5, 0.3, 5.0])
    p1 = 2.5 * k1 @ np.hstack([r1, t1[:, None]])  # any positive scale of P is the same camera
    p2 = k2 @ np.hstack([r2, t2[:, None]])
    world = np.hstack([rng.uniform(-1.0, 1.0, (30, 3)), np.ones((30, 1))])
    x1 = world @ p1.T
    x2 = world @ p2.T
    assert np.all(x1[:, 2] > 0.0) and np.all(x2[:, 2] > 0.0)
    pairs = np.hstack([x1[:, :2] / x1[:, 2:], x2[:, :2] / x2[:, 2:]])
    return {"k1": k1, "k2": k2, "p1": p1, "p2": p2, "rotation": r2 @ r1.T,
            "translation": t2 - r2 @ r1.T @ t1, "pairs": pairs}


def test_clean_views_have_zero_epipolar_error(two_view):
    f = reference.fundamental_from_projections(two_view["p1"], two_view["p2"])
    errors = reference.symmetric_epipolar_errors(f, two_view["pairs"])
    assert np.max(errors) < 1e-9
    assert reference.singular_values(f)[2] < 1e-12


def test_epipolar_error_is_a_distance_in_pixels(two_view):
    f = reference.fundamental_from_projections(two_view["p1"], two_view["p2"])
    moved = two_view["pairs"].copy()
    line = f @ np.append(moved[0, :2], 1.0)
    normal = line[:2] / np.linalg.norm(line[:2])
    moved[0, 2:4] += 0.6 * normal  # off the epipolar line in image 2 only
    errors = reference.symmetric_epipolar_errors(f, moved)
    distance2 = abs(np.append(moved[0, 2:4], 1.0) @ line) / np.linalg.norm(line[:2])
    line1 = f.T @ np.append(moved[0, 2:4], 1.0)
    distance1 = abs(np.append(moved[0, :2], 1.0) @ line1) / np.linalg.norm(line1[:2])
    assert distance2 == pytest.approx(0.6, rel=1e-9)
    assert errors[0] == pytest.approx(0.5 * (distance1 + distance2), rel=1e-12)


def test_known_rotation_is_recovered(two_view):
    truth = reference.relative_rotation(two_view["k1"], two_view["p1"],
                                        two_view["k2"], two_view["p2"])
    assert np.allclose(truth, two_view["rotation"], atol=1e-12)
    e = reference.skew(two_view["translation"]) @ two_view["rotation"]
    assert reference.essential_rotation_error_deg(e, two_view["rotation"]) < 1e-6
    # E = K2^T F K1 from the projections gives the same rotation
    f = reference.fundamental_from_projections(two_view["p1"], two_view["p2"])
    e_from_f = two_view["k2"].T @ f @ two_view["k1"]
    assert reference.essential_rotation_error_deg(e_from_f, two_view["rotation"]) < 1e-6


def test_rotation_error_measures_the_offset(two_view):
    e = reference.skew(two_view["translation"]) @ two_view["rotation"]
    off = rotation_about([0.2, 0.7, -0.1], 3.0) @ two_view["rotation"]
    assert reference.essential_rotation_error_deg(e, off) == pytest.approx(3.0, abs=1e-9)
    # sign and scale of E do not matter
    assert reference.essential_rotation_error_deg(-7.0 * e, off) == pytest.approx(3.0, abs=1e-9)


def test_agrees_with_a_generated_scene():
    synthetic = pytest.importorskip("siftpose.synthetic")
    scene = synthetic.generate_scene(synthetic.SyntheticConfig(), np.random.default_rng(3))
    f = reference.fundamental_from_projections(scene.p1, scene.p2)
    assert np.max(reference.symmetric_epipolar_errors(f, scene.pairs)) < 1e-7
    truth = reference.relative_rotation(scene.k1.matrix(), scene.p1,
                                        scene.k2.matrix(), scene.p2)
    assert reference.rotation_angle_deg(truth, scene.pose.rotation) < 1e-6
    assert reference.essential_rotation_error_deg(scene.e.m, truth) < 1e-6
