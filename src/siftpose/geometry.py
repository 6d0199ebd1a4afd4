"""Core two-view geometry: model types, error metrics, and pose recovery.

Conventions: matrices act on homogeneous pixel points p = (u, v, 1); the
epipolar constraint reads p2^T F p1 = 0; essential and fundamental matrices
are related by E = K2^T F K1. Stored F/E matrices are scaled to unit
Frobenius norm with the largest-magnitude entry positive so that equal models
compare entrywise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError


def homogenize(points: np.ndarray) -> np.ndarray:
    """Append a unit coordinate: (n, 2) -> (n, 3)."""
    points = np.asarray(points, dtype=float)
    return np.hstack([points, np.ones((points.shape[0], 1))])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]_x such that [v]_x w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def normalized_matrix(m: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm; fix the sign by the largest-magnitude entry."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero matrix")
    m = m / norm
    flat = m.reshape(-1)
    lead = flat[np.argmax(np.abs(flat))]
    if lead < 0.0:
        m = -m
    return m


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalMatrix:
    """Rank-2 two-view model in pixel coordinates, stored unit-Frobenius."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))

    @classmethod
    def from_array(cls, m: np.ndarray) -> "FundamentalMatrix":
        return cls(normalized_matrix(m))

    def det(self) -> float:
        return float(np.linalg.det(self.m))

    def flat(self) -> np.ndarray:
        """Row-major entries (f1 ... f9)."""
        return self.m.reshape(-1)


@dataclass(frozen=True)
class EssentialMatrix:
    """Calibrated two-view model; ideal spectrum is (s, s, 0)."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))

    @classmethod
    def from_array(cls, m: np.ndarray) -> "EssentialMatrix":
        return cls(normalized_matrix(m))

    def det(self) -> float:
        return float(np.linalg.det(self.m))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.m, compute_uv=False)

    def projected(self) -> "EssentialMatrix":
        """Closest matrix with singular values (s, s, 0)."""
        u, s, vt = np.linalg.svd(self.m)
        sigma = 0.5 * (s[0] + s[1])
        return EssentialMatrix.from_array(u @ np.diag([sigma, sigma, 0.0]) @ vt)

    def flat(self) -> np.ndarray:
        return self.m.reshape(-1)


@dataclass(frozen=True)
class FocalModel:
    fundamental: FundamentalMatrix
    focal: float


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array([
            [self.fx, self.skew, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        ])

    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix())

    @classmethod
    def from_matrix(cls, k: np.ndarray) -> "CameraIntrinsics":
        k = np.asarray(k, dtype=float)
        if k.shape != (3, 3) or abs(k[2, 2] - 1.0) > 1e-9 or np.any(np.abs(k[2, :2]) > 1e-9):
            raise ValueError("not an upper-triangular intrinsic matrix with unit last row")
        if abs(k[1, 0]) > 1e-9:
            raise ValueError("lower-triangular entry in intrinsic matrix")
        return cls(fx=float(k[0, 0]), fy=float(k[1, 1]), cx=float(k[0, 2]),
                   cy=float(k[1, 2]), skew=float(k[0, 1]))


@dataclass(frozen=True)
class RelativePose:
    """Rotation plus unit translation direction of camera 2 w.r.t. camera 1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if np.linalg.norm(r @ r.T - np.eye(3)) > 1e-6 or np.linalg.det(r) < 0.0:
            raise ValueError("rotation must be orthonormal with det +1")
        norm = np.linalg.norm(t)
        if norm == 0.0:
            raise ValueError("translation direction undefined for a zero vector")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t / norm)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _as_matrix(model) -> np.ndarray:
    """The 3x3 array of a model: F, E, FocalModel, a frame (F, focal) pair or an array."""
    if isinstance(model, (FundamentalMatrix, EssentialMatrix)):
        return model.m
    if isinstance(model, tuple):
        return model[0]
    if isinstance(model, FocalModel):
        return model.fundamental.m
    return np.asarray(model, dtype=float)


def _line_norms(lines: np.ndarray) -> np.ndarray:
    """sqrt(a^2 + b^2) of lines (..., 3) (a, b, c); squares b in place."""
    norms = np.square(lines[..., 0])
    norms += np.square(lines[..., 1], out=lines[..., 1])
    return np.sqrt(norms, out=norms)


def epipolar_error_stack(p1h: np.ndarray, p2h: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Symmetric epipolar errors (k, n) of matrices (k, 3, 3) on homogeneous points (n, 3).

    The one non-finite rule: a zero residual with exactly one vanishing line
    normal (a point on an epipole) is a consistent pair, error 0; any other
    non-finite error (both normals vanishing, an overflow, a NaN or inf
    model) is inf, so it is never an inlier.

    One (k, n, 3) line buffer holds the lines in image 2 and then those in
    image 1, and the norms square into it: a block of k models allocates one
    line array, not two plus their squares, so glibc does not hand the heap
    back to the kernel and fault it in again on every block.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lines = p1h @ stack.transpose(0, 2, 1)
        residual = np.einsum("ij,kij->ki", p2h, lines)
        np.abs(residual, out=residual)
        n2 = _line_norms(lines)
        n1 = _line_norms(np.matmul(p2h, stack, out=lines))
        err = 0.5 * residual * (1.0 / n1 + 1.0 / n2)
    bad = ~np.isfinite(err)
    if bad.any():
        on_one_epipole = (residual[bad] == 0.0) & ((n1[bad] == 0.0) != (n2[bad] == 0.0))
        err[bad] = np.where(on_one_epipole, 0.0, np.inf)
    return err


def symmetric_epipolar_errors(f, pairs: np.ndarray) -> np.ndarray:
    """Mean point-to-epipolar-line distance in both images, per pair.

    pairs has rows (u1, v1, u2, v2); any other column count is a ValueError.
    Errors and their non-finite rule are epipolar_error_stack's.
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    if pairs.ndim != 2 or pairs.shape[1] != 4:
        raise ValueError(f"pairs must be (n, 4), got shape {pairs.shape}")
    return epipolar_error_stack(homogenize(pairs[:, :2]), homogenize(pairs[:, 2:]),
                                _as_matrix(f)[None])[0]


def rotation_error(r_est: np.ndarray, r_gt: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    acos((trace - 1)/2) loses half the mantissa near zero, so the angle comes
    from atan2 of the antisymmetric part against the trace instead; equal
    inputs give exactly zero.
    """
    rel = np.asarray(r_gt).T @ np.asarray(r_est)
    cos = 0.5 * (np.trace(rel) - 1.0)
    sin = np.linalg.norm(rel - rel.T) / (2.0 * math.sqrt(2.0))
    return math.degrees(math.atan2(sin, cos))


def translation_error(t_est: np.ndarray, t_gt: np.ndarray) -> float:
    """Angle between translation directions in degrees, ignoring the sign of t_est."""
    t_est = np.asarray(t_est, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    n1, n2 = np.linalg.norm(t_est), np.linalg.norm(t_gt)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("translation direction undefined for a zero vector")
    dot = float(t_est @ t_gt)
    sin = np.linalg.norm(np.cross(t_est, t_gt)) / (n1 * n2)
    return math.degrees(math.atan2(sin, abs(dot) / (n1 * n2)))


def relative_focal_error(f_est: float, f_gt: float) -> float:
    if not f_gt > 0.0:
        raise ValueError("ground-truth focal length must be positive")
    return abs(f_est - f_gt) / f_gt


def normalize_points(points: np.ndarray, k) -> np.ndarray:
    """Map pixel points through K^-1; (n, 2) -> (n, 2)."""
    kmat = k.matrix() if isinstance(k, CameraIntrinsics) else np.asarray(k, dtype=float)
    if abs(np.linalg.det(kmat)) < 1e-12:
        raise ValueError("singular intrinsic matrix")
    pts = homogenize(np.atleast_2d(np.asarray(points, dtype=float)))
    out = pts @ np.linalg.inv(kmat).T
    return out[:, :2] / out[:, 2:3]


# ---------------------------------------------------------------------------
# Pose <-> epipolar models
# ---------------------------------------------------------------------------

def essential_from_pose(rotation: np.ndarray, translation: np.ndarray) -> EssentialMatrix:
    """E = [t]_x R for x2 = R x1 + t."""
    return EssentialMatrix.from_array(skew(translation) @ np.asarray(rotation, dtype=float))


def fundamental_from_essential(e, k1, k2) -> FundamentalMatrix:
    k1m = k1.matrix() if isinstance(k1, CameraIntrinsics) else np.asarray(k1, dtype=float)
    k2m = k2.matrix() if isinstance(k2, CameraIntrinsics) else np.asarray(k2, dtype=float)
    return FundamentalMatrix.from_array(
        np.linalg.inv(k2m).T @ _as_matrix(e) @ np.linalg.inv(k1m))


def essential_from_fundamental(f, k1, k2) -> EssentialMatrix:
    k1m = k1.matrix() if isinstance(k1, CameraIntrinsics) else np.asarray(k1, dtype=float)
    k2m = k2.matrix() if isinstance(k2, CameraIntrinsics) else np.asarray(k2, dtype=float)
    return EssentialMatrix.from_array(k2m.T @ _as_matrix(f) @ k1m)


def fundamental_from_pose(rotation, translation, k1, k2) -> FundamentalMatrix:
    return fundamental_from_essential(essential_from_pose(rotation, translation), k1, k2)


def _triangulate_depths(x1: np.ndarray, x2: np.ndarray, rotation: np.ndarray,
                        translation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depths of linearly triangulated points in both camera frames.

    x1, x2 are normalized (calibrated) coordinates, shape (n, 2). Cameras are
    P1 = [I | 0] and P2 = [R | t].
    """
    n = x1.shape[0]
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([rotation, translation.reshape(3, 1)])
    design = np.empty((n, 4, 4))
    design[:, 0] = x1[:, 0, None] * p1[2] - p1[0]
    design[:, 1] = x1[:, 1, None] * p1[2] - p1[1]
    design[:, 2] = x2[:, 0, None] * p2[2] - p2[0]
    design[:, 3] = x2[:, 1, None] * p2[2] - p2[1]
    _, _, vt = np.linalg.svd(design)
    points_h = vt[:, -1, :]
    w = points_h[:, 3]
    w = np.where(np.abs(w) < 1e-14, np.copysign(1e-14, w + (w == 0.0)), w)
    points = points_h[:, :3] / w[:, None]
    z1 = points[:, 2]
    z2 = points @ rotation[2] + translation[2]
    return z1, z2


def decompose_essential(e, pairs: np.ndarray, k1, k2) -> RelativePose:
    """Recover (R, t) from E using the cheirality of the given pixel correspondences.

    The four factorization candidates are ranked by the count of triangulated
    points with positive depth in both cameras; E is projected onto the
    essential manifold first.
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    if pairs.shape[0] < 1:
        raise ValueError("at least one correspondence is required for cheirality")
    x1 = normalize_points(pairs[:, :2], k1)
    x2 = normalize_points(pairs[:, 2:4], k2)

    u, _, vt = np.linalg.svd(_as_matrix(e))
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt) < 0.0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r_a = u @ w @ vt
    r_b = u @ w.T @ vt
    t = u[:, 2]

    best = None
    best_count = 0
    for rotation, translation in ((r_a, t), (r_a, -t), (r_b, t), (r_b, -t)):
        z1, z2 = _triangulate_depths(x1, x2, rotation, translation)
        count = int(np.sum((z1 > 0.0) & (z2 > 0.0)))
        if count > best_count:
            best_count = count
            best = (rotation, translation)
    if best is None:
        raise DegenerateConfigurationError(
            "no pose candidate places any point in front of both cameras")
    return RelativePose(best[0], best[1])


def relative_pose_between(r1: np.ndarray, t1: np.ndarray,
                          r2: np.ndarray, t2: np.ndarray) -> RelativePose:
    """Pose of camera 2 in camera 1's frame from two world-to-camera extrinsics."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    rotation = r2 @ r1.T
    translation = np.asarray(t2, dtype=float) - rotation @ np.asarray(t1, dtype=float)
    return RelativePose(rotation, translation)
