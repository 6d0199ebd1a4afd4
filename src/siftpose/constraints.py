"""Linear constraint rows on the epipolar geometry and the affinity machinery.

Every row is a 9-vector of coefficients on the row-major entries (f1 ... f9)
of a 3x3 two-view matrix, so that row . vec(F) = 0 for consistent input.
Two row families exist: the bilinear point (epipolar) row and the single
row contributed by the orientation and scale of a covariant feature pair.
The row builders are batched: they take packed arrays and return one row
per correspondence. The affinity machinery gives the scene generator the
local affinities of a homography and the orientations they admit.
"""
from __future__ import annotations

import numpy as np

from .errors import PointAtInfinityError
from .geometry import homogenize


def normalized_residuals(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """|rows . vec| / (|row| |vec|) per row; a zero scale counts as one."""
    scale = np.linalg.norm(rows, axis=1) * np.linalg.norm(vec)
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.abs(rows @ vec) / scale


# ---------------------------------------------------------------------------
# Constraint rows
# ---------------------------------------------------------------------------

def epipolar_rows(pairs: np.ndarray) -> np.ndarray:
    """Bilinear rows for point pairs (u1, v1, u2, v2); shape (n, 9)."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    u1, v1, u2, v2 = pairs[:, 0], pairs[:, 1], pairs[:, 2], pairs[:, 3]
    one = np.ones_like(u1)
    return np.stack([u2 * u1, u2 * v1, u2, v2 * u1, v2 * v1, v2, u1, v1, one], axis=1)


def sift_rows(corr: np.ndarray) -> np.ndarray:
    """Orientation/scale rows for packed correspondences (n, 8).

    Columns of the input are (u1, v1, q1, a1, u2, v2, q2, a2). The last
    coefficient is exactly zero for every input.
    """
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    u1, v1, q1, a1 = corr[:, 0], corr[:, 1], corr[:, 2], corr[:, 3]
    u2, v2, q2, a2 = corr[:, 4], corr[:, 5], corr[:, 6], corr[:, 7]
    if np.any(q1 <= 0.0) or np.any(q2 <= 0.0):
        raise ValueError("feature scales must be positive")
    q = q2 / q1
    c1, s1 = np.cos(a1), np.sin(a1)
    c2, s2 = np.cos(a2), np.sin(a2)
    zero = np.zeros_like(u1)
    return np.stack([
        c2 * q * u1 + c1 * u2,
        c2 * q * v1 + s1 * u2,
        c2 * q,
        s2 * q * u1 + c1 * v2,
        s2 * q * v1 + s1 * v2,
        s2 * q,
        c1,
        s1,
        zero,
    ], axis=1)


# ---------------------------------------------------------------------------
# Affinity machinery
# ---------------------------------------------------------------------------

def affine_jacobians_of_homography(h, points: np.ndarray):
    """Project points through H and linearize the map there.

    Returns (projected (n, 2), jacobians (n, 2, 2)). The Jacobian entries are
    a1 = (h1 - h7 u2)/s, a2 = (h2 - h8 u2)/s, a3 = (h4 - h7 v2)/s,
    a4 = (h5 - h8 v2)/s with projective depth s = u1 h7 + v1 h8 + h9.
    """
    m = np.asarray(h, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    u1, v1 = points[:, 0], points[:, 1]
    s = u1 * m[2, 0] + v1 * m[2, 1] + m[2, 2]
    if np.any(np.abs(s) < 1e-12 * np.linalg.norm(m[2]) * np.max(np.abs(homogenize(points)))):
        raise PointAtInfinityError("projective depth vanished under the homography")
    u2 = (u1 * m[0, 0] + v1 * m[0, 1] + m[0, 2]) / s
    v2 = (u1 * m[1, 0] + v1 * m[1, 1] + m[1, 2]) / s
    jac = np.empty((points.shape[0], 2, 2))
    jac[:, 0, 0] = (m[0, 0] - m[2, 0] * u2) / s
    jac[:, 0, 1] = (m[0, 1] - m[2, 1] * u2) / s
    jac[:, 1, 0] = (m[1, 0] - m[2, 0] * v2) / s
    jac[:, 1, 1] = (m[1, 1] - m[2, 1] * v2) / s
    return np.stack([u2, v2], axis=1), jac


def circle_compatible_angles(affinities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-image orientations for which each affinity admits a feature pair.

    The scale and circle constraints can hold simultaneously only along
    directions d with ||A d|| = sqrt(det A); these are the null directions of
    the indefinite form A^T A - det(A) I, two lines v0 +- t v1 in its
    eigenbasis. Takes orientation-preserving affinities (n, 2, 2) and returns
    (angles (n, 2), free (n,)): the angles of the two lines in [-pi, pi], and
    a mask of the similarities, for which every direction works.
    """
    det = (affinities[:, 0, 0] * affinities[:, 1, 1]
           - affinities[:, 0, 1] * affinities[:, 1, 0])
    form = (np.einsum("nji,njk->nik", affinities, affinities)
            - det[:, None, None] * np.eye(2))
    w, v = np.linalg.eigh(form)
    free = np.abs(w).max(axis=1) < 1e-12 * np.maximum(1.0, np.abs(det))
    ratio = np.sqrt(np.maximum(-w[:, 0], 0.0) / np.maximum(w[:, 1], 1e-300))
    angles = np.empty((affinities.shape[0], 2))
    for col, sign in enumerate((1.0, -1.0)):
        direction = v[:, :, 0] + (sign * ratio)[:, None] * v[:, :, 1]
        angles[:, col] = np.arctan2(direction[:, 1], direction[:, 0])
    return angles, free
