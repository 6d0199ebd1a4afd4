"""Independent reference for checking two-view models, in plain numpy.

Nothing here imports siftpose: the ground truth is rebuilt from a scene's
projection matrices and intrinsics, and the error measures are written out
from their textbook definitions (Hartley and Zisserman, "Multiple View
Geometry", 2nd ed., eq. 9.1 and result 9.19), so a fault in the program's
own geometry helpers cannot hide a fault in its estimates.
"""
from __future__ import annotations

import math

import numpy as np

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def skew(v) -> np.ndarray:
    """[v]x, the matrix with [v]x w = v x w."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def camera_center(p: np.ndarray) -> np.ndarray:
    """Homogeneous centre C of a 3x4 camera, the right null vector of P."""
    _, _, vt = np.linalg.svd(np.asarray(p, dtype=float))
    return vt[-1]


def fundamental_from_projections(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Ground-truth F = [e']x P2 P1^+ with e' = P2 C1, scaled to unit Frobenius norm."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    epipole = p2 @ camera_center(p1)
    f = skew(epipole) @ p2 @ np.linalg.pinv(p1)
    return f / np.linalg.norm(f)


def rotation_from_projection(k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """World-to-camera rotation R of P = s K [R | t], read off K^-1 P."""
    m = np.linalg.solve(np.asarray(k, dtype=float), np.asarray(p, dtype=float))[:, :3]
    return m / np.cbrt(np.linalg.det(m))


def relative_rotation(k1, p1, k2, p2) -> np.ndarray:
    """Rotation of camera 2 relative to camera 1, R2 R1^T."""
    return rotation_from_projection(k2, p2) @ rotation_from_projection(k1, p1).T


def symmetric_epipolar_errors(f: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Mean of the two point-to-epipolar-line distances, per row (u1, v1, u2, v2).

    The distance in image 2 is |x2^T F x1| / |(F x1)_12| and in image 1
    |x2^T F x1| / |(F^T x2)_12|; the result is in the units of the points.
    """
    f = np.asarray(f, dtype=float)
    pairs = np.asarray(pairs, dtype=float)
    ones = np.ones((pairs.shape[0], 1))
    x1 = np.hstack([pairs[:, 0:2], ones])
    x2 = np.hstack([pairs[:, 2:4], ones])
    line2 = x1 @ f.T
    line1 = x2 @ f
    algebraic = np.abs(np.sum(x2 * line2, axis=1))
    return 0.5 * (algebraic / np.hypot(line2[:, 0], line2[:, 1])
                  + algebraic / np.hypot(line1[:, 0], line1[:, 1]))


def rotation_angle_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Angle of the rotation r_a r_b^T, in degrees.

    atan2 of the sine (from the skew part) and the cosine (from the trace)
    stays accurate near zero, where acos of the trace alone loses half the digits.
    """
    r = np.asarray(r_a) @ np.asarray(r_b).T
    sine = 0.5 * math.sqrt((r[2, 1] - r[1, 2]) ** 2 + (r[0, 2] - r[2, 0]) ** 2
                           + (r[1, 0] - r[0, 1]) ** 2)
    cosine = 0.5 * (np.trace(r) - 1.0)
    return math.degrees(math.atan2(sine, cosine))


def essential_rotations(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two rotations U W V^T and U W^T V^T of an essential matrix's SVD."""
    u, _, vt = np.linalg.svd(np.asarray(e, dtype=float))
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt) < 0.0:
        vt = -vt
    return u @ _W @ vt, u @ _W.T @ vt


def essential_rotation_error_deg(e: np.ndarray, r_true: np.ndarray) -> float:
    """Rotation error of an E: the smaller error of its two SVD rotations."""
    return min(rotation_angle_deg(r, r_true) for r in essential_rotations(e))


def singular_values(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
