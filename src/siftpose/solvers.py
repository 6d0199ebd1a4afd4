"""Minimal and non-minimal relative pose solvers.

Feature-based minimal solvers (fundamental matrix from four oriented/scaled
correspondences, essential matrix from three, fundamental matrix plus a
shared focal length from three) and their point-based baselines (7pt, 8pt,
5pt, 6pt). All solvers are pure functions of their input; none draws random
numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _poly
from .constraints import epipolar_rows, sift_rows
from .errors import (
    DegenerateSampleError,
    IllConditionedSampleError,
    NoValidFocalError,
)
from .geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FundamentalMatrix,
    SiftCorrespondence,
    normalize_pairs,
)

DEGENERACY_RTOL = 1e-12


@dataclass
class SolverOutput:
    """Models plus diagnostics shared by every solver."""

    models: list
    null_space_dim: int
    row_residuals: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return len(self.models)


def as_sift_array(corr) -> np.ndarray:
    """Accept an (n, 8) array or a sequence of SiftCorrespondence."""
    if isinstance(corr, np.ndarray):
        return np.atleast_2d(np.asarray(corr, dtype=float))
    if len(corr) and isinstance(corr[0], SiftCorrespondence):
        return np.stack([c.to_row() for c in corr])
    return np.atleast_2d(np.asarray(corr, dtype=float))


def as_pair_array(pairs) -> np.ndarray:
    """Accept (n, 4) point pairs or an (n, 8) packed correspondence array."""
    pairs = as_sift_array(pairs)
    if pairs.shape[1] == 8:
        return pairs[:, [0, 1, 4, 5]]
    return pairs[:, :4]


def _intrinsics(k) -> CameraIntrinsics:
    return k if isinstance(k, CameraIntrinsics) else CameraIntrinsics.from_matrix(k)


def normalize_sift_correspondences(corr, k1, k2) -> np.ndarray:
    """Map packed correspondences through the inverse intrinsics.

    Points go through K^-1. The feature scale is multiplied by sqrt(det) of
    the upper-left 2x2 of K^-1 and the orientation vector is mapped through
    it; for square pixels this is exact, otherwise the circular feature model
    only approximates the anisotropic mapping.
    """
    corr = as_sift_array(corr)
    out = corr.copy()
    for offset, k in ((0, _intrinsics(k1)), (4, _intrinsics(k2))):
        kinv = k.inverse_matrix()
        pts = np.hstack([corr[:, offset:offset + 2], np.ones((corr.shape[0], 1))])
        mapped = pts @ kinv.T
        out[:, offset:offset + 2] = mapped[:, :2] / mapped[:, 2:3]
        lin = kinv[:2, :2]
        angles = corr[:, offset + 3]
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ lin.T
        out[:, offset + 3] = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
        out[:, offset + 2] = corr[:, offset + 2] * math.sqrt(np.linalg.det(lin))
    return out


# ---------------------------------------------------------------------------
# Shared numerics
# ---------------------------------------------------------------------------

def nullspace(rows: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Trailing right singular vectors spanning an expected null space.

    Raises DegenerateSampleError when the system has more than ``dim``
    near-zero directions relative to the largest singular value.
    """
    rows = np.asarray(rows, dtype=float)
    u, s, vt = np.linalg.svd(rows)
    kept = rows.shape[1] - dim
    if kept > 0 and (s[0] == 0.0 or (len(s) >= kept and s[kept - 1] < DEGENERACY_RTOL * s[0])):
        raise DegenerateSampleError(
            f"constraint system rank below {kept}; sample does not determine the model")
    return vt[rows.shape[1] - dim:], s


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a real vector by the same operations, without its dispatch."""
    return math.sqrt(v.dot(v))


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0 (closed form plus one Newton step)."""
    coeffs = np.array([c3, c2, c1, c0], dtype=float)
    top = np.max(np.abs(coeffs))
    if top == 0.0:
        return []
    c3, c2, c1, c0 = coeffs / top

    roots: list[float]
    if abs(c3) < 1e-14:
        if abs(c2) < 1e-14:
            roots = [] if abs(c1) < 1e-14 else [-c0 / c1]
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                roots = []
            else:
                sq = math.sqrt(disc)
                qq = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else 0.5 * sq
                if qq == 0.0:
                    roots = [0.0]
                else:
                    roots = [qq / c2, c0 / qq]
    else:
        b, c, d = c2 / c3, c1 / c3, c0 / c3
        shift = b / 3.0
        p = c - b * b / 3.0
        q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
        disc = -4.0 * p ** 3 - 27.0 * q * q
        if abs(p) < 1e-14 and abs(q) < 1e-14:
            roots = [-shift]
        elif disc >= 0.0 and p < 0.0:
            # three real roots
            rad = 2.0 * math.sqrt(-p / 3.0)
            arg = 3.0 * q / (p * rad)
            arg = min(1.0, max(-1.0, arg))
            phi = math.acos(arg)
            roots = [rad * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift
                     for k in range(3)]
        else:
            # one real root via Cardano
            rad = math.sqrt(max(q * q / 4.0 + p ** 3 / 27.0, 0.0))
            t = math.copysign(abs(-q / 2.0 + rad) ** (1.0 / 3.0), -q / 2.0 + rad)
            u = math.copysign(abs(-q / 2.0 - rad) ** (1.0 / 3.0), -q / 2.0 - rad)
            roots = [t + u - shift]

    def polish(x: float) -> float:
        val = ((c3 * x + c2) * x + c1) * x + c0
        der = (3.0 * c3 * x + 2.0 * c2) * x + c1
        return x - val / der if der != 0.0 else x

    polished = [polish(x) for x in roots]
    unique: list[float] = []
    for x in polished:
        if all(abs(x - y) > 1e-9 * (1.0 + abs(x)) for y in unique):
            unique.append(x)
    return unique


def _similarity(center, scale: float) -> np.ndarray:
    """The isotropic preconditioning similarity x -> scale * (x - center), as 3x3.

    Hartley, "In defense of the eight-point algorithm" (TPAMI 1997); callers
    differ only in how they pick the centre and the scale.
    """
    return np.array([
        [scale, 0.0, -scale * center[0]],
        [0.0, scale, -scale * center[1]],
        [0.0, 0.0, 1.0],
    ])


def _hartley_similarity(points: np.ndarray) -> np.ndarray:
    """Similarity sending the centroid to the origin and mean radius to sqrt(2)."""
    points = np.asarray(points, dtype=float)
    centroid = points.mean(axis=0)
    spread = np.mean(np.linalg.norm(points - centroid, axis=1))
    return _similarity(centroid, math.sqrt(2.0) / spread if spread > 1e-12 else 1.0)


def _apply_similarity(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    return points @ t[:2, :2].T + t[:2, 2]


def _transform_sift(corr: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Carry packed correspondences through per-image isotropic similarities."""
    out = corr.copy()
    out[:, 0:2] = _apply_similarity(corr[:, 0:2], t1)
    out[:, 4:6] = _apply_similarity(corr[:, 4:6], t2)
    out[:, 2] = corr[:, 2] * t1[0, 0]
    out[:, 6] = corr[:, 6] * t2[0, 0]
    return out


def _trace_det_residual(e: np.ndarray) -> np.ndarray:
    """The nine entries of E E^T E - 0.5 tr(E E^T) E plus det E."""
    eet = e @ e.T
    t = eet @ e - 0.5 * np.trace(eet) * e
    return np.append(t.reshape(-1), np.linalg.det(e))


def essential_residual(e) -> float:
    """Scale-invariant size of the trace and determinant constraint violations."""
    m = e.m if hasattr(e, "m") else np.asarray(e, dtype=float)
    m = m / np.linalg.norm(m)
    r = _trace_det_residual(m)
    return float(np.linalg.norm(r[:9])) + abs(float(r[9]))


def _polish_on_system(system: np.ndarray, start: np.ndarray, mono_fn, grad_fn,
                      iterations: int = 4) -> tuple[np.ndarray, float]:
    """Damped Gauss-Newton on a polynomial system given by coefficient rows.

    system has one row per equation over a fixed monomial basis; mono_fn and
    grad_fn evaluate the basis and its parameter gradient. Returns the
    refined parameters and the final residual norm.
    """
    x = np.asarray(start, dtype=float)
    r = system @ mono_fn(*x)
    size = float(r @ r)
    for _ in range(iterations):
        if size < 1e-30:
            break
        jac = system @ grad_fn(*x)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        for _ in range(6):
            trial = x + scale * step
            r_t = system @ mono_fn(*trial)
            size_t = float(r_t @ r_t)
            if size_t <= size or size_t < 1e-28:
                x, r, size = trial, r_t, size_t
                break
            scale *= 0.5
        else:
            break
    return x, math.sqrt(size)


def _system_residuals(rows: np.ndarray, model_matrix: np.ndarray) -> float:
    vec = model_matrix.reshape(-1)
    scale = np.linalg.norm(rows, axis=1) * np.linalg.norm(vec)
    scale = np.where(scale == 0.0, 1.0, scale)
    return float(np.max(np.abs(rows @ vec) / scale))


# ---------------------------------------------------------------------------
# Batched kernels for the sampling loop
# ---------------------------------------------------------------------------

def _batched_adjugate(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
    out[..., 0, 1] = m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2]
    out[..., 0, 2] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
    out[..., 1, 0] = m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2]
    out[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
    out[..., 1, 2] = m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]
    out[..., 2, 0] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
    out[..., 2, 1] = m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1]
    out[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return out


def rank2_candidates_batch(rows: np.ndarray) -> list:
    """All rank-2 matrices in the two-dimensional null space of each 7x9 system.

    rows has shape (batch, 7, 9). Returns one list of raw 3x3 matrices per
    sample. A list is empty where the sample does not determine the model:
    the system is rank-deficient (all-zero rows included), every pencil
    member is rank-deficient (a dominant-plane sample), or the rank-2 cubic
    has no real root.
    """
    rows = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(rows)
    good = (s[:, 0] > 0.0) & (s[:, 6] >= DEGENERACY_RTOL * s[:, 0])
    f1 = vt[:, 7].reshape(-1, 3, 3)
    f2 = vt[:, 8].reshape(-1, 3, 3)
    a, b = f2, f1 - f2
    adj_a = _batched_adjugate(a)
    adj_b = _batched_adjugate(b)
    c0 = np.linalg.det(a)
    c1 = np.einsum("nij,nji->n", adj_a, b)
    c2 = np.einsum("nij,nji->n", adj_b, a)
    c3 = np.linalg.det(b)
    vacuous = np.maximum.reduce([np.abs(c0), np.abs(c1), np.abs(c2), np.abs(c3)]) < 1e-10
    out = []
    for i in range(rows.shape[0]):
        if not good[i] or vacuous[i]:
            out.append([])
            continue
        roots = real_cubic_roots(c3[i], c2[i], c1[i], c0[i])
        out.append([a[i] + mu * b[i] for mu in roots])
    return out


def essential_candidates_batch(rows: np.ndarray) -> tuple[list, np.ndarray]:
    """Five-point core over samples: rows has shape (batch, 5, 9).

    The four-dimensional null space combination feeds the ten trace and
    determinant equations; an action matrix over the degree-two quotient
    basis yields the candidate roots, refined by damped Gauss-Newton.
    Returns (models, solvable): one list of raw essential matrices per
    sample, and a mask that is False where the system is rank-deficient or
    its leading monomial block is singular. A solvable sample may still
    keep no candidate.
    """
    rows = np.asarray(rows, dtype=float)
    batch = rows.shape[0]
    _, s, vt = np.linalg.svd(rows)
    good = (s[:, 0] > 0.0) & (s[:, 4] >= DEGENERACY_RTOL * s[:, 0])
    pencil = vt[:, 5:9].reshape(batch, 4, 3, 3)

    system = _poly.essential_constraint_system(pencil, _poly.TRIVARIATE)
    lead, rest = system[:, :, :10], system[:, :, 10:]
    reduced = np.full_like(rest, np.nan)
    solvable = good.copy()
    try:
        reduced[good] = np.linalg.solve(lead[good], rest[good])
    except np.linalg.LinAlgError:
        for i in np.nonzero(good)[0]:
            try:
                reduced[i] = np.linalg.solve(lead[i], rest[i])
            except np.linalg.LinAlgError:
                solvable[i] = False

    action = np.zeros((batch, 10, 10))
    # multiplication by z maps the quotient basis [x2 xy xz y2 yz z2 x y z 1]
    # through the reduced rows of the cubic leading monomials
    for row, lead_idx in enumerate((2, 4, 5, 7, 8, 9)):
        action[:, row] = -reduced[:, lead_idx]
    action[:, 6, 2] = 1.0
    action[:, 7, 4] = 1.0
    action[:, 8, 5] = 1.0
    action[:, 9, 8] = 1.0
    action[~solvable] = 0.0
    eigvals, eigvecs = np.linalg.eig(action)

    results = [[] for _ in range(batch)]
    flat_states = []
    owners = []
    for i in range(batch):
        if not solvable[i]:
            continue
        candidates = []
        for j in range(10):
            w = eigvals[i, j]
            if abs(w.imag) > 1e-6 * max(1.0, abs(w.real)):
                continue
            vec = eigvecs[i, :, j]
            pivot = vec[np.argmax(np.abs(vec))]
            vec = (vec * np.conj(pivot) / abs(pivot)).real
            if abs(vec[9]) < 1e-10 * np.linalg.norm(vec):
                continue
            cand = vec[6:9] / vec[9]
            tol = 1e-9 * (1.0 + _norm(cand))
            if all(_norm(cand - prev) > tol for prev in candidates):
                candidates.append(cand)
        for cand in candidates:
            flat_states.append(cand)
            owners.append(i)
    if flat_states:
        states = np.asarray(flat_states)
        systems = system[np.asarray(owners)]
        states, residuals = _polish_trivariate_batch(systems, states, iterations=3)
        per_sample: dict = {}
        for k, i in enumerate(owners):
            x = states[k]
            scale = (x @ x + 1.0) ** 1.5  # orthonormal basis: ||E|| = sqrt(|x|^2 + 1)
            if residuals[k] / scale > 1e-6:
                continue
            kept = per_sample.setdefault(i, [])
            tol = 1e-7 * (1.0 + _norm(x))
            if any(_norm(x - prev) < tol for prev in kept):
                continue
            kept.append(x)
            results[i].append(np.einsum("k,kij->ij", np.append(x, 1.0), pencil[i]))
    return results, solvable


def _trivariate_monomials_batch(states: np.ndarray) -> np.ndarray:
    """The trivariate degree-3 basis at states (m, 3), ordered as TRIVARIATE.exps3."""
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    x2, y2, z2 = x * x, y * y, z * z
    out = np.empty((states.shape[0], 20))
    out[:, 0:3] = x2[:, None] * states
    out[:, 3] = x * y2
    out[:, 4] = x * y * z
    out[:, 5] = x * z2
    out[:, 6:8] = y2[:, None] * states[:, 1:]
    out[:, 8] = y * z2
    out[:, 9] = z2 * z
    out[:, 10:13] = x[:, None] * states
    out[:, 13] = y2
    out[:, 14:16] = z[:, None] * states[:, 1:]
    out[:, 16:19] = states
    out[:, 19] = 1.0
    return out


def _polish_trivariate_batch(systems: np.ndarray, states: np.ndarray,
                             iterations: int = 3):
    """Lockstep damped Gauss-Newton over many (system, start) pairs."""
    states = states.copy()
    r = np.einsum("mij,mj->mi", systems, _trivariate_monomials_batch(states))
    size = np.einsum("mi,mi->m", r, r)
    for _ in range(iterations):
        active = size > 1e-28
        if not np.any(active):
            break
        jac = np.einsum("mij,mjk->mik", systems, _poly.trivariate_gradient(states))
        jtj = np.einsum("mik,mil->mkl", jac, jac)
        jtr = np.einsum("mik,mi->mk", jac, r)
        jtj += 1e-300 * np.eye(3)
        try:
            steps = np.linalg.solve(jtj, -jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        steps[~np.isfinite(steps).all(axis=1)] = 0.0
        steps[~active] = 0.0
        scale = np.ones(states.shape[0])
        remaining = active.copy()
        for _ in range(6):
            if not np.any(remaining):
                break
            trial = states + scale[:, None] * steps
            r_t = np.einsum("mij,mj->mi", systems, _trivariate_monomials_batch(trial))
            size_t = np.einsum("mi,mi->m", r_t, r_t)
            accept = remaining & ((size_t <= size) | (size_t < 1e-28))
            states[accept] = trial[accept]
            r[accept] = r_t[accept]
            size[accept] = size_t[accept]
            remaining &= ~accept
            scale[remaining] *= 0.5
    return states, np.sqrt(size)


# ---------------------------------------------------------------------------
# Fundamental matrix solvers
# ---------------------------------------------------------------------------

def _hartley_pairs(pairs: np.ndarray):
    """Point pairs carried into per-image Hartley frames, plus the two similarities."""
    t1 = _hartley_similarity(pairs[:, :2])
    t2 = _hartley_similarity(pairs[:, 2:4])
    return np.hstack([_apply_similarity(pairs[:, :2], t1),
                      _apply_similarity(pairs[:, 2:4], t2)]), t1, t2


def _rank2_models(rows: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> list:
    """Pixel fundamental matrices from one 7x9 system in the (t1, t2) frames."""
    mats = rank2_candidates_batch(rows[None])[0]
    if not mats:
        raise DegenerateSampleError("sample does not determine a rank-2 model: rank-deficient "
                                    "system, vacuous rank-2 condition or no real root")
    return [FundamentalMatrix.from_array(t2.T @ m @ t1) for m in mats]


def solve_f_7pt(pairs) -> SolverOutput:
    """Fundamental matrix candidates from exactly seven point pairs."""
    pairs = as_pair_array(pairs)
    if pairs.shape[0] != 7:
        raise ValueError("the seven-point solver needs exactly 7 correspondences")
    local, t1, t2 = _hartley_pairs(pairs)
    models = _rank2_models(epipolar_rows(local), t1, t2)
    pixel_rows = epipolar_rows(pairs)
    return SolverOutput(models=models, null_space_dim=2,
                        row_residuals=[_system_residuals(pixel_rows, f.m) for f in models])


def solve_f_4sift(corr, use_best_conditioned: bool = False) -> SolverOutput:
    """Fundamental matrix candidates from four oriented/scaled correspondences.

    Stacks the four point rows with three feature rows (the first three by
    input order, or the best-conditioned triple when requested) and solves
    the rank-2 condition on the two-dimensional null space.
    """
    corr = as_sift_array(corr)
    if corr.shape[0] != 4:
        raise ValueError("this solver needs exactly 4 correspondences")
    t1 = _hartley_similarity(corr[:, 0:2])
    t2 = _hartley_similarity(corr[:, 4:6])
    local = _transform_sift(corr, t1, t2)
    point_rows = epipolar_rows(local[:, [0, 1, 4, 5]])
    feature_rows = sift_rows(local)

    if use_best_conditioned:
        best_rows = None
        best_gap = -1.0
        for drop in range(4):
            keep = [i for i in range(4) if i != drop]
            rows = np.vstack([point_rows, feature_rows[keep]])
            s = np.linalg.svd(rows, compute_uv=False)
            gap = s[6] / s[0] if s[0] > 0 else 0.0
            if gap > best_gap:
                best_gap = gap
                best_rows = rows
        rows = best_rows
    else:
        rows = np.vstack([point_rows, feature_rows[:3]])

    models = _rank2_models(rows, t1, t2)
    pixel_rows = np.vstack([epipolar_rows(corr[:, [0, 1, 4, 5]]), sift_rows(corr)[:3]])
    return SolverOutput(models=models, null_space_dim=2,
                        row_residuals=[_system_residuals(pixel_rows, f.m) for f in models])


def solve_f_8pt(pairs) -> FundamentalMatrix:
    """Normalized least-squares fundamental matrix with spectral rank-2 projection."""
    pairs = as_pair_array(pairs)
    if pairs.shape[0] < 8:
        raise ValueError("at least 8 correspondences are required")
    local, t1, t2 = _hartley_pairs(pairs)
    rows = epipolar_rows(local)
    # vt needs all nine rows, which the reduced SVD of an 8x9 system lacks
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < 9)
    if s[7] < 1e-10 * s[0]:
        raise DegenerateSampleError("design matrix rank-deficient (collinear or repeated points)")
    f = vt[-1].reshape(3, 3)
    u, sig, vts = np.linalg.svd(f)
    f = u @ np.diag([sig[0], sig[1], 0.0]) @ vts
    return FundamentalMatrix.from_array(t2.T @ f @ t1)


# ---------------------------------------------------------------------------
# Essential matrix solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EssentialSolverState:
    """Null-space basis and monomial solution of the three-correspondence solver."""

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    alpha: float
    beta: float
    gamma: float
    y: np.ndarray
    q: np.ndarray
    b: np.ndarray


_ALPHA_PICKS = ((7, None), (0, "cbrt"), (6, 8), (4, 7))
_BETA_PICKS = ((8, None), (1, "cbrt"), (6, 7), (5, 8))


def _monomial_candidates(y: np.ndarray, picks) -> list[float]:
    values = []
    for idx, rule in picks:
        if rule is None:
            values.append(y[idx])
        elif rule == "cbrt":
            values.append(np.cbrt(y[idx]))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                values.append(y[idx] / y[rule])
    return [float(v) for v in values if np.isfinite(v)]


def essential_single_from_rows(rows: np.ndarray) -> tuple[np.ndarray, dict]:
    """Core of the three-correspondence essential solver.

    rows is the 6x9 stacked constraint system in calibrated coordinates. The
    three-dimensional null space combination is substituted into the trace
    and determinant constraints, giving ten equations solved in least squares
    over the monomial vector; candidate coefficients from the monomial
    entries are refined by a short damped Gauss-Newton. Returns the raw 3x3
    matrix and diagnostics.
    """
    basis, _ = nullspace(rows, 3)
    n1, n2, n3 = (basis[i].reshape(3, 3) for i in range(3))

    system = _poly.essential_constraint_system([n1, n2, n3], _poly.BIVARIATE)
    q = system[:, :9]
    b = -system[:, 9]
    y, _, _, sv = np.linalg.lstsq(q, b, rcond=None)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise IllConditionedSampleError("monomial system numerically rank-deficient")

    alphas = _monomial_candidates(y, _ALPHA_PICKS)
    betas = _monomial_candidates(y, _BETA_PICKS)
    if not alphas or not betas:
        raise IllConditionedSampleError("no finite candidate for the null-space coefficients")

    best = None
    best_res = math.inf
    for alpha in alphas:
        for beta in betas:
            mono = _poly.bivariate_monomials(alpha, beta)
            r = system[:9] @ mono
            # basis vectors are orthonormal, so the combination's norm is direct
            res = float(r @ r) / (alpha * alpha + beta * beta + 1.0) ** 3
            if res < best_res:
                best_res = res
                best = (alpha, beta)

    (alpha, beta), _ = _polish_on_system(system, np.array(best),
                                         _poly.bivariate_monomials,
                                         _poly.bivariate_gradient, iterations=4)
    e = alpha * n1 + beta * n2 + n3
    state = EssentialSolverState(n1=n1.reshape(-1), n2=n2.reshape(-1),
                                 n3=n3.reshape(-1), alpha=float(alpha),
                                 beta=float(beta), gamma=1.0, y=y, q=q, b=b)
    return e, {"y": y, "alpha": float(alpha), "beta": float(beta), "state": state}


def solve_e_3sift(corr, k1, k2) -> SolverOutput:
    """Single essential matrix from three oriented/scaled correspondences.

    Points, orientations, and scales are mapped through the inverse
    intrinsics; three point rows and three feature rows then feed the
    null-space plus trace-constraint core.
    """
    corr = as_sift_array(corr)
    if corr.shape[0] != 3:
        raise ValueError("this solver needs exactly 3 correspondences")
    local = normalize_sift_correspondences(corr, k1, k2)
    rows = np.empty((6, 9))
    rows[0::2] = epipolar_rows(local[:, [0, 1, 4, 5]])
    rows[1::2] = sift_rows(local)
    raw, extras = essential_single_from_rows(rows)
    e = EssentialMatrix.from_array(raw)
    extras["trace_residual"] = essential_residual(e)
    return SolverOutput(models=[e], null_space_dim=3,
                        row_residuals=[_system_residuals(rows, e.m)], extras=extras)


def solve_e_5pt(pairs, k1, k2) -> SolverOutput:
    """Essential matrix candidates from five point pairs (action-matrix solver)."""
    pairs = as_pair_array(pairs)
    if pairs.shape[0] != 5:
        raise ValueError("the five-point solver needs exactly 5 correspondences")
    rows = epipolar_rows(normalize_pairs(pairs, k1, k2))
    candidates, solvable = essential_candidates_batch(rows[None])
    if not solvable[0]:
        raise DegenerateSampleError("constraint system rank-deficient or leading monomial "
                                    "block singular; sample does not determine the model")
    models = [EssentialMatrix.from_array(e) for e in candidates[0]]
    return SolverOutput(models=models, null_space_dim=4,
                        row_residuals=[_system_residuals(rows, m.m) for m in models])


# ---------------------------------------------------------------------------
# Semi-calibrated solvers (unknown shared focal length)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FocalModel:
    fundamental: FundamentalMatrix
    focal: float


def _demixed_monomial_vectors(v1: np.ndarray, v2: np.ndarray) -> list[tuple[float, float]]:
    """(x, y) seeds from the two trailing singular vectors of a monomial system.

    Near a double root the null vector is an arbitrary mix of two monomial
    vectors; combinations v1 + t v2 satisfying the consistency x * x = x^2 * 1
    (and its y analogue) split the pair. Monomial indices follow the
    bivariate degree-3 basis [x3 y3 x2y xy2 x2 y2 xy x y 1].
    """
    seeds: list[tuple[float, float]] = []

    def push(vec: np.ndarray):
        if abs(vec[9]) > 1e-10 * np.linalg.norm(vec):
            seeds.append((vec[7] / vec[9], vec[8] / vec[9]))

    push(v1)
    push(v2)
    for sq, lin in ((4, 7), (5, 8)):
        a = v1[lin] ** 2 - v1[sq] * v1[9]
        b = 2.0 * v1[lin] * v2[lin] - (v1[sq] * v2[9] + v2[sq] * v1[9])
        c = v2[lin] ** 2 - v2[sq] * v2[9]
        disc = b * b - 4.0 * a * c
        if disc < 0.0 or abs(c) < 1e-14 * max(abs(a), abs(b), 1e-300):
            continue
        sq_disc = math.sqrt(disc)
        for sign in (1.0, -1.0):
            push(v1 + ((-b + sign * sq_disc) / (2.0 * c)) * v2)
    unique: list[tuple[float, float]] = []
    for x, y in seeds:
        if all(math.hypot(x - px, y - py) > 1e-6 * (1.0 + math.hypot(x, y))
               for px, py in unique):
            unique.append((x, y))
    return unique


def _solve_semicalibrated_rows(rows: np.ndarray):
    """Shared back-end of the 3-feature and 6-point focal solvers.

    rows constrain F in coordinates where the shared principal point is the
    origin. Solves for F(x, y) in the three-dimensional null space and the
    inverse squared focal length w through the quadratic eigenvalue problem
    of the trace constraint, then polishes each root. Returns a list of
    (F 3x3, focal, residual) sorted by residual, at most fifteen entries.
    """
    basis, _ = nullspace(rows, 3)
    n = [basis[i].reshape(3, 3) for i in range(3)]
    m0, m1, m2, det_row = _poly.semicalibrated_constraint_system(n)

    a0 = np.vstack([m0, det_row])
    a1 = np.vstack([m1, np.zeros(10)])
    a2 = np.vstack([m2, np.zeros(10)])
    pencil_a = np.block([[np.zeros((10, 10)), np.eye(10)], [a0, a1]])
    pencil_b = np.block([[np.eye(10), np.zeros((10, 10))],
                         [np.zeros((10, 10)), -a2]])
    eigvals = scipy.linalg.eigvals(pencil_a, pencil_b)

    # keep distinct real-ish eigenvalues; near-double roots may surface with a
    # small imaginary part, so the filter here is loose and the residual check
    # after polishing is what decides
    roots: list[float] = []
    for w in eigvals:
        if not np.isfinite(w) or abs(w.imag) > 5e-2 * max(1.0, abs(w.real)):
            continue
        if w.real <= 0.0:
            continue
        if all(abs(w.real - r) > 1e-3 * max(1.0, abs(r)) for r in roots):
            roots.append(w.real)

    seeds: list[tuple[float, float, float]] = []
    for w in roots:
        mat = a0 + w * a1 + w * w * a2
        _, _, vt = np.linalg.svd(mat)
        for x, y in _demixed_monomial_vectors(vt[-1], vt[-2]):
            if all(math.hypot(x - sx, y - sy) > 1e-4 * (1.0 + math.hypot(x, y))
                   for sx, sy, _ in seeds):
                seeds.append((x, y, w))

    candidates: list[np.ndarray] = []

    def push_candidate(x: float, y: float, w: float):
        cand = np.array([x, y, w])
        if not np.all(np.isfinite(cand)) or w <= 0.0:
            return
        tol = 1e-4 * (1.0 + _norm(cand))
        if all(_norm(cand - prev) > tol for prev in candidates):
            candidates.append(cand)

    for x, y, w in seeds:
        push_candidate(x, y, w)
        # re-solve w from the trace rows at this (x, y); eigenvalues are
        # unreliable when two roots cluster in w
        mono = _poly.BIVARIATE.monomials3(np.array([x, y]))
        quad = np.stack([m2 @ mono, m1 @ mono, m0 @ mono], axis=1)
        _, _, qvt = np.linalg.svd(quad)
        with np.errstate(divide="ignore", invalid="ignore"):
            # rank-2 stack: the null vector is the monomial vector (w^2, w, 1)
            for w_new in (qvt[-1][1] / qvt[-1][2], qvt[-1][0] / qvt[-1][1]):
                if np.isfinite(w_new):
                    push_candidate(x, y, float(w_new))
        # rank-1 stack (all nine quadratics share both roots): the dominant
        # direction carries the shared quadratic's coefficients
        for w_new in real_cubic_roots(0.0, *qvt[0]):
            push_candidate(x, y, float(w_new))

    # polynomial evaluation of residual and exact jacobian: r(x, y, w) =
    # (a0 + w a1 + w^2 a2) mono(x, y), with the degree-3 basis
    # [x3 y3 x2y xy2 x2 y2 xy x y 1]
    def monomials(x, y):
        x2, y2 = x * x, y * y
        return np.array([x2 * x, y2 * y, x2 * y, x * y2, x2, y2, x * y, x, y, 1.0])

    def mono_dx(x, y):
        return np.array([3 * x * x, 0.0, 2 * x * y, y * y, 2 * x, 0.0, y, 1.0, 0.0, 0.0])

    def mono_dy(x, y):
        return np.array([0.0, 3 * y * y, x * x, 2 * x * y, 0.0, 2 * y, x, 0.0, 1.0, 0.0])

    damping = 1e-300 * np.eye(3)

    def polish(cand, iterations=14):
        x, y, w = cand
        mono = monomials(x, y)
        pencil = a0 + w * a1 + (w * w) * a2
        r = pencil @ mono
        size = r @ r
        for _ in range(iterations):
            if size < 1e-30:
                break
            jac = np.stack([pencil @ mono_dx(x, y), pencil @ mono_dy(x, y),
                            (a1 + (2.0 * w) * a2) @ mono], axis=1)
            jtj = jac.T @ jac
            jtr = jac.T @ r
            try:
                step = np.linalg.solve(jtj + damping, -jtr)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            scale = 1.0
            for _ in range(6):
                xt, yt, wt = x + scale * step[0], y + scale * step[1], w + scale * step[2]
                mono_t = monomials(xt, yt)
                pencil_t = a0 + wt * a1 + (wt * wt) * a2
                r_t = pencil_t @ mono_t
                size_t = r_t @ r_t
                if size_t <= size or size_t < 1e-28:
                    x, y, w = xt, yt, wt
                    mono, pencil, r, size = mono_t, pencil_t, r_t, size_t
                    break
                scale *= 0.5
            else:
                break
        return np.array([x, y, w]), math.sqrt(size)

    solutions: list[np.ndarray] = []
    results = []
    for cand in candidates:
        if any(float(np.abs(cand - prev).max()) < 2e-3 * (1.0 + float(np.abs(cand).max()))
               for prev in solutions):
            continue
        sol, res = polish(cand)
        x, y, w = sol
        if not (np.isfinite(w) and w > 1e-14):
            continue
        f = x * n[0] + y * n[1] + n[2]
        norm = np.linalg.norm(f)
        if norm == 0.0:
            continue
        # residual of the unit-norm F: the constraint is cubic in F
        res_size = res / norm ** 3
        if res_size > 1e-8:
            continue
        tol = 1e-7 * (1.0 + _norm(sol))
        if any(_norm(sol - prev) < tol for prev in solutions):
            continue
        solutions.append(sol)
        results.append((f / norm, 1.0 / math.sqrt(w), res_size))

    results.sort(key=lambda item: item[2])
    return results[:15]


def _semicalibrated_setup(points1: np.ndarray, points2: np.ndarray, principal_point):
    """One similarity for both images: the principal point to the origin, unit mean radius."""
    pp = np.asarray(principal_point, dtype=float).reshape(2)
    spread = np.mean(np.linalg.norm(np.vstack([points1 - pp, points2 - pp]), axis=1))
    s = 1.0 / spread if spread > 1e-12 else 1.0
    return _similarity(pp, s), s


def _semicalibrated_output(results, t: np.ndarray, s: float,
                           pixel_rows: np.ndarray) -> SolverOutput:
    if not results:
        raise NoValidFocalError("no real solution with a positive focal length")
    models = [FocalModel(FundamentalMatrix.from_array(t.T @ f @ t), focal / s)
              for f, focal, _ in results]
    return SolverOutput(
        models=models, null_space_dim=3,
        row_residuals=[_system_residuals(pixel_rows, m.fundamental.m) for m in models],
        extras={"constraint_residuals": [r for _, _, r in results]},
    )


def solve_f_focal_3sift(corr, principal_point) -> SolverOutput:
    """Fundamental matrix and shared focal length from three correspondences.

    Points are shifted so the shared principal point is the origin (and
    isotropically scaled for conditioning); three point rows plus three
    feature rows feed the semi-calibrated back-end.
    """
    corr = as_sift_array(corr)
    if corr.shape[0] != 3:
        raise ValueError("this solver needs exactly 3 correspondences")
    t, s = _semicalibrated_setup(corr[:, 0:2], corr[:, 4:6], principal_point)
    local = _transform_sift(corr, t, t)
    rows = np.empty((6, 9))
    rows[0::2] = epipolar_rows(local[:, [0, 1, 4, 5]])
    rows[1::2] = sift_rows(local)
    results = _solve_semicalibrated_rows(rows)
    pixel_rows = np.vstack([epipolar_rows(corr[:, [0, 1, 4, 5]]), sift_rows(corr)])
    return _semicalibrated_output(results, t, s, pixel_rows)


def solve_f_focal_6pt(pairs, principal_point) -> SolverOutput:
    """Fundamental matrix and shared focal length from six point pairs."""
    pairs = as_pair_array(pairs)
    if pairs.shape[0] != 6:
        raise ValueError("the six-point solver needs exactly 6 correspondences")
    t, s = _semicalibrated_setup(pairs[:, :2], pairs[:, 2:4], principal_point)
    local = np.hstack([_apply_similarity(pairs[:, :2], t),
                       _apply_similarity(pairs[:, 2:4], t)])
    rows = epipolar_rows(local)
    results = _solve_semicalibrated_rows(rows)
    return _semicalibrated_output(results, t, s, epipolar_rows(pairs))


# ---------------------------------------------------------------------------
# Registry used by the robust harness and the command line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverInfo:
    solver_id: str
    family: str  # "f", "e", or "ff"
    sample_size: int
    uses_orientation: bool


MINIMAL_SOLVERS = {
    "f4sift": SolverInfo("f4sift", "f", 4, True),
    "f7pt": SolverInfo("f7pt", "f", 7, False),
    "e3sift": SolverInfo("e3sift", "e", 3, True),
    "e5pt": SolverInfo("e5pt", "e", 5, False),
    "ff3sift": SolverInfo("ff3sift", "ff", 3, True),
    "ff6pt": SolverInfo("ff6pt", "ff", 6, False),
}


def solver_info(solver_id: str) -> SolverInfo:
    try:
        return MINIMAL_SOLVERS[solver_id]
    except KeyError:
        raise ValueError(f"unknown solver '{solver_id}'") from None


def run_minimal_solver(solver_id: str, corr, k1=None, k2=None,
                       principal_point=None) -> SolverOutput:
    """Dispatch a packed correspondence sample to a minimal solver by id."""
    info = solver_info(solver_id)
    corr = as_sift_array(corr)
    if corr.shape[0] != info.sample_size:
        raise ValueError(f"{solver_id} needs exactly {info.sample_size} correspondences")
    if info.solver_id == "f4sift":
        return solve_f_4sift(corr)
    if info.solver_id == "f7pt":
        return solve_f_7pt(corr)
    if info.solver_id == "e3sift":
        return solve_e_3sift(corr, _default_k(k1), _default_k(k2))
    if info.solver_id == "e5pt":
        return solve_e_5pt(corr, _default_k(k1), _default_k(k2))
    pp = (0.0, 0.0) if principal_point is None else principal_point
    if info.solver_id == "ff3sift":
        return solve_f_focal_3sift(corr, pp)
    return solve_f_focal_6pt(corr, pp)


def _default_k(k):
    return CameraIntrinsics(1.0, 1.0, 0.0, 0.0) if k is None else k

