"""Linear constraint rows on the epipolar geometry and the affinity/feature machinery.

Every row is a 9-vector of coefficients on the row-major entries (f1 ... f9)
of a 3x3 two-view matrix, so that row . vec(F) = 0 for consistent input.
Three row families exist: the bilinear point (epipolar) row, the two rows of
an affine correspondence, and the single row contributed by the orientation
and scale of a covariant feature pair. The row builders are batched: they
take packed arrays and return one row block per correspondence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, MirroredFeatureError, PointAtInfinityError
from .geometry import homogenize, wrap_angle


def normalized_residuals(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """|rows . vec| / (|row| |vec|) per row; a zero scale counts as one."""
    scale = np.linalg.norm(rows, axis=1) * np.linalg.norm(vec)
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.abs(rows @ vec) / scale


@dataclass(frozen=True)
class JacobianDecomposition:
    """Rotation-times-upper-triangular split of a 2x2 projection Jacobian."""

    alpha: float
    qu: float
    qv: float
    w: float

    def __post_init__(self):
        if not (self.qu > 0.0 and self.qv > 0.0):
            raise ValueError("axis scales must be positive")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        return np.array([[c, -s], [s, c]]) @ np.array([[self.qu, self.w], [0.0, self.qv]])

    @property
    def uniform_scale(self) -> float:
        """Scale consistent with the determinant: sqrt(qu * qv)."""
        return math.sqrt(self.qu * self.qv)


def decompose_jacobian(j: np.ndarray) -> JacobianDecomposition:
    """Split J into a rotation and an upper-triangular factor with positive diagonal."""
    j = np.asarray(j, dtype=float)
    qu = math.hypot(j[0, 0], j[1, 0])
    if qu < 1e-15:
        raise ValueError("first column of the Jacobian vanishes")
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    if det <= 0.0:
        raise MirroredFeatureError("orientation-reversing Jacobian")
    alpha = math.atan2(j[1, 0], j[0, 0])
    c, s = math.cos(alpha), math.sin(alpha)
    w = c * j[0, 1] + s * j[1, 1]
    qv = det / qu
    return JacobianDecomposition(alpha=alpha, qu=qu, qv=qv, w=w)


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


def affine_rows(pairs: np.ndarray, affinities: np.ndarray) -> np.ndarray:
    """The two rows of each local affinity: pairs (n, 4), affinities (n, 2, 2) -> (n, 2, 9)."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    a = np.asarray(affinities, dtype=float)
    u1, v1, u2, v2 = pairs[:, 0], pairs[:, 1], pairs[:, 2], pairs[:, 3]
    a1, a2, a3, a4 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    zero, one = np.zeros_like(u1), np.ones_like(u1)
    return np.stack([
        np.stack([u2 + a1 * u1, a1 * v1, a1, v2 + a3 * u1, a3 * v1, a3, one, zero, zero], axis=1),
        np.stack([a2 * u1, u2 + a2 * v1, a2, a4 * u1, v2 + a4 * v1, a4, zero, one, zero], axis=1),
    ], axis=1)


# ---------------------------------------------------------------------------
# Affinity <-> feature machinery
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


def sift_from_affine(a: np.ndarray, alpha1: float, q1: float):
    """Second-image orientation and scale induced by an affinity.

    The direction comes from mapping (cos a1, sin a1) through A; the scale is
    fixed by the determinant, q2 = q1 * sqrt(det A). Returns
    (alpha2, q2, circle_residual) where the residual |A d| - sqrt(det A)
    vanishes exactly when A is consistent with a feature pair.
    """
    a = np.asarray(a, dtype=float)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det <= 0.0:
        raise MirroredFeatureError("affinity is orientation-reversing (det <= 0)")
    if not q1 > 0.0:
        raise ValueError("scale must be positive")
    direction = a @ np.array([math.cos(alpha1), math.sin(alpha1)])
    alpha2 = wrap_angle(math.atan2(direction[1], direction[0]))
    root = math.sqrt(det)
    q2 = q1 * root
    residual = float(np.linalg.norm(direction) - root)
    return alpha2, q2, residual


def decomposition_residuals(a, corr) -> tuple[float, float, float]:
    """Residuals of the three constraints tying an affinity to feature parameters.

    Returns (a2 a3 - a1 a4 + q^2, a3 c1 + a4 s1 - s2 q, a1 c1 + a2 s1 - c2 q)
    with q the relative scale.
    """
    a = np.asarray(a, dtype=float)
    alpha1, alpha2, q = _feature_params(corr)
    c1, s1 = math.cos(alpha1), math.sin(alpha1)
    c2, s2 = math.cos(alpha2), math.sin(alpha2)
    r_scale = a[0, 1] * a[1, 0] - a[0, 0] * a[1, 1] + q * q
    r_sin = a[1, 0] * c1 + a[1, 1] * s1 - s2 * q
    r_cos = a[0, 0] * c1 + a[0, 1] * s1 - c2 * q
    return float(r_scale), float(r_sin), float(r_cos)


def legacy_combined_residual(a, corr) -> float:
    """Residual of the older single orientation constraint.

    Equals s2 * r_cos - c2 * r_sin of decomposition_residuals, so it vanishes
    whenever both circle residuals vanish; the converse fails.
    """
    a = np.asarray(a, dtype=float)
    alpha1, alpha2, _ = _feature_params(corr)
    c1, s1 = math.cos(alpha1), math.sin(alpha1)
    c2, s2 = math.cos(alpha2), math.sin(alpha2)
    return float(c1 * s2 * a[0, 0] + s1 * s2 * a[0, 1]
                 - c1 * c2 * a[1, 0] - c2 * s1 * a[1, 1])


def _feature_params(corr) -> tuple[float, float, float]:
    alpha1, alpha2, q = corr
    if not q > 0.0:
        raise ValueError("relative scale must be positive")
    return float(alpha1), float(alpha2), float(q)


# ---------------------------------------------------------------------------
# Consistent-instance sampling (numerical oracle for the derived row)
# ---------------------------------------------------------------------------

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


def make_consistent_sift(f, rng, point_scale: float = 500.0, max_retries: int = 64):
    """Sample a feature correspondence exactly consistent with a rank-2 F.

    p1 is drawn at random, p2 is placed on its epipolar line, the affinity is
    drawn from the two-parameter family satisfying both affine rows with
    det A > 0, and the second-image orientation/scale follow from the
    affinity. Returns (packed row (8,), affinity (2, 2)); the feature,
    point and affine rows of the result annihilate vec(F) to roundoff.
    """
    m = f.m if hasattr(f, "m") else np.asarray(f, dtype=float)
    scale = np.linalg.norm(m)
    for _ in range(max_retries):
        p1 = rng.uniform(-point_scale, point_scale, size=2)
        line2 = m @ np.array([p1[0], p1[1], 1.0])
        norm2 = math.hypot(line2[0], line2[1])
        if norm2 < 1e-9 * scale * max(1.0, point_scale):
            continue  # p1 landed on the epipole
        normal = line2[:2] / norm2
        base = -line2[2] / norm2 * normal
        tangent = np.array([-normal[1], normal[0]])
        p2 = base + rng.uniform(-point_scale, point_scale) * tangent

        line1 = m.T @ np.array([p2[0], p2[1], 1.0])
        # Both affine rows reduce to A^T n2 = -n1 on the line normals.
        system = np.array([
            [line2[0], 0.0, line2[1], 0.0],
            [0.0, line2[0], 0.0, line2[1]],
        ])
        rhs = -line1[:2]
        particular, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
        if rank < 2:
            continue
        _, _, vt = np.linalg.svd(system)
        null_basis = vt[2:]
        for _ in range(max_retries):
            coeff = rng.uniform(-1.0, 1.0, size=2)
            avec = particular + coeff @ null_basis
            a = avec.reshape(2, 2)
            if a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] > 1e-6:
                break
        else:
            continue
        lines, free = circle_compatible_angles(a[None])
        if free[0]:
            alpha1 = rng.uniform(0.0, 2.0 * math.pi)
        else:
            alpha1 = wrap_angle(lines[0, rng.integers(2)] + rng.integers(2) * math.pi)
        q1 = rng.uniform(0.5, 2.0)
        alpha2, q2, _ = sift_from_affine(a, alpha1, q1)
        return np.array([p1[0], p1[1], q1, alpha1, p2[0], p2[1], q2, alpha2]), a
    raise DegenerateSampleError("could not sample a consistent correspondence; "
                                "degenerate region of F")
