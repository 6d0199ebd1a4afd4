"""Minimal and non-minimal relative pose solvers.

Feature-based minimal solvers (fundamental matrix from four oriented/scaled
correspondences, essential matrix from three, fundamental matrix plus a
shared focal length from three) and their point-based baselines (7pt, 8pt,
5pt, 6pt). All solvers are pure functions of their input; none draws random
numbers.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _poly
from .constraints import epipolar_rows, normalized_residuals, sift_rows
from .errors import (
    DegenerateSampleError,
    IllConditionedSampleError,
    NoValidFocalError,
    SolverError,
)
from .geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FundamentalMatrix,
    normalize_pairs,
)

DEGENERACY_RTOL = 1e-12


@dataclass
class SolverOutput:
    """A minimal solver's models and, per model, its largest normalized row residual."""

    models: list
    row_residuals: list


def as_sift_array(corr) -> np.ndarray:
    """Packed correspondences (n, 8) or point pairs (n, 4) as a 2-D float array."""
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

def nullspace(rows: np.ndarray, dim: int) -> np.ndarray:
    """Trailing right singular vectors spanning an expected null space.

    Raises DegenerateSampleError when the system has more than ``dim``
    near-zero directions relative to the largest singular value.
    """
    rows = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(rows)
    kept = rows.shape[1] - dim
    if kept > 0 and (s[0] == 0.0 or (len(s) >= kept and s[kept - 1] < DEGENERACY_RTOL * s[0])):
        raise DegenerateSampleError(
            f"constraint system rank below {kept}; sample does not determine the model")
    return vt[rows.shape[1] - dim:]


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


def _frame_scale(target: float, spread: float) -> float:
    """The scale taking a mean radius `spread` to `target`; 1 for a sample without spread.

    An overflowing spread would collapse every point and feature scale to zero.
    """
    if not math.isfinite(spread):
        raise IllConditionedSampleError(
            "coordinates too large for a solver frame: their spread overflows")
    return target / spread if spread > 1e-12 else 1.0


def _mean_radius(points: np.ndarray, center) -> float:
    """Mean distance of the points from a centre; inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.mean(np.linalg.norm(points - center, axis=1))


def _hartley_similarity(points: np.ndarray) -> np.ndarray:
    """Similarity sending the centroid to the origin and mean radius to sqrt(2)."""
    points = np.asarray(points, dtype=float)
    centroid = points.mean(axis=0)
    return _similarity(centroid, _frame_scale(math.sqrt(2.0), _mean_radius(points, centroid)))


def _apply_similarity(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    return points @ t[:2, :2].T + t[:2, 2]


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


def _polish_batch(systems: np.ndarray, states: np.ndarray, basis, iterations: int):
    """Lockstep damped Gauss-Newton over many (system, start) pairs.

    systems (m, r, k) holds one polynomial system per start as r coefficient
    rows over a k-term monomial basis; basis is a (monomials, gradient) pair
    of batched evaluators from _poly. Every iteration solves the normal
    equations, damped by 1e-300 I, and tries the step and up to five halvings
    of it, taking the first whose squared residual does not grow. A start
    stops once its squared residual is at most 1e-28, its normal equations
    are singular or give a non-finite step, or no trial is taken; the others
    go on, and a stopped start never moves again. Returns the refined states
    and their residual norms (m,).
    """
    monomials, gradient = basis
    states = states.copy()
    r = np.einsum("mij,mj->mi", systems, monomials(states))
    size = np.einsum("mi,mi->m", r, r)
    damping = 1e-300 * np.eye(states.shape[1])
    live = np.ones(states.shape[0], dtype=bool)
    for _ in range(iterations):
        live &= size > 1e-28
        if not live.any():
            break
        jac = np.einsum("mij,mjk->mik", systems, gradient(states))
        jtj = np.einsum("mik,mil->mkl", jac, jac)
        jtr = np.einsum("mik,mi->mk", jac, r)
        jtj += damping
        steps = np.zeros_like(states)
        try:
            steps[live] = np.linalg.solve(jtj[live], -jtr[live, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # a singular start stops alone, as it would when polished by itself
            for i in np.nonzero(live)[0]:
                try:
                    steps[i] = np.linalg.solve(jtj[i:i + 1], -jtr[i:i + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    live[i] = False
        live &= np.isfinite(steps).all(axis=1)
        steps[~live] = 0.0
        # every start still searching has had the same number of halvings
        remaining = live.copy()
        scale = 1.0
        for _ in range(6):
            trial = states + scale * steps
            r_t = np.einsum("mij,mj->mi", systems, monomials(trial))
            size_t = np.einsum("mi,mi->m", r_t, r_t)
            accept = remaining & ((size_t <= size) | (size_t < 1e-28))
            np.copyto(states, trial, where=accept[:, None])
            np.copyto(r, r_t, where=accept[:, None])
            np.copyto(size, size_t, where=accept)
            remaining &= ~accept
            if not remaining.any():
                break
            scale *= 0.5
        live &= ~remaining
    return states, np.sqrt(size)


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
        states, residuals = _polish_batch(systems, states, _poly.TRIVARIATE_BASIS, 3)
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


# ---------------------------------------------------------------------------
# Fundamental matrix solvers
# ---------------------------------------------------------------------------

def _rank2_core(rows: np.ndarray) -> list:
    """rank2_candidates_batch per sample, refusing the samples without a model."""
    return [models if models else DegenerateSampleError(
        "sample does not determine a rank-2 model: rank-deficient system, "
        "vacuous rank-2 condition or no real root") for models in rank2_candidates_batch(rows)]


def solve_f_7pt(pairs) -> SolverOutput:
    """Fundamental matrix candidates from exactly seven point pairs."""
    return run_minimal_solver("f7pt", pairs)


def solve_f_4sift(corr) -> SolverOutput:
    """Fundamental matrix candidates from four oriented/scaled correspondences.

    Stacks the four point rows with the feature rows of the first three
    correspondences and solves the rank-2 condition on the two-dimensional
    null space.
    """
    return run_minimal_solver("f4sift", corr)


def solve_f_8pt(pairs) -> FundamentalMatrix:
    """Normalized least-squares fundamental matrix with spectral rank-2 projection."""
    pairs = as_pair_array(pairs)
    if pairs.shape[0] < 8:
        raise ValueError("at least 8 correspondences are required")
    frame = hartley_frame(pairs)
    rows = epipolar_rows(frame.local(pairs))
    # vt needs all nine rows, which the reduced SVD of an 8x9 system lacks
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < 9)
    if s[7] < 1e-10 * s[0]:
        raise DegenerateSampleError("design matrix rank-deficient (collinear or repeated points)")
    f = vt[-1].reshape(3, 3)
    u, sig, vts = np.linalg.svd(f)
    f = u @ np.diag([sig[0], sig[1], 0.0]) @ vts
    return frame.model(f)


# ---------------------------------------------------------------------------
# Essential matrix solvers
# ---------------------------------------------------------------------------

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


def _e3sift_start(rows: np.ndarray):
    """Front of the e3sift core on one 6x9 sample; raises when it refuses the sample.

    Returns the null-space pencil (3, 3, 3), the constraint system (10, 10),
    the monomial solution y and the Gauss-Newton start (alpha, beta).
    """
    pencil = nullspace(rows, 3).reshape(3, 3, 3)
    system = _poly.essential_constraint_system(pencil, _poly.BIVARIATE)
    y, _, _, sv = np.linalg.lstsq(system[:, :9], -system[:, 9], rcond=None)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise IllConditionedSampleError("monomial system numerically rank-deficient")

    alphas = _monomial_candidates(y, _ALPHA_PICKS)
    betas = _monomial_candidates(y, _BETA_PICKS)
    if not alphas or not betas:
        raise IllConditionedSampleError("no finite candidate for the null-space coefficients")
    grid = np.array([(alpha, beta) for alpha in alphas for beta in betas])
    r = _poly.bivariate_monomials_batch(grid) @ system[:9].T
    # basis vectors are orthonormal, so the combination's norm is direct
    res = np.einsum("gi,gi->g", r, r) / (np.einsum("gi,gi->g", grid, grid) + 1.0) ** 3
    return pencil, system, y, grid[np.argmin(np.where(np.isnan(res), np.inf, res))]


def essential_3sift_batch(rows: np.ndarray) -> list:
    """Core of the three-correspondence essential solver over samples (batch, 6, 9).

    Each sample's rows are the stacked constraints in calibrated
    coordinates. Its three-dimensional null-space combination is substituted
    into the trace and determinant constraints, giving ten equations solved
    in least squares over the monomial vector; the best pair of null-space
    coefficients read from the monomial entries starts a damped Gauss-Newton,
    which runs for every solvable sample of the batch in lockstep. Returns
    one entry per sample: [raw 3x3 matrix], or the exception that refused
    the sample.
    """
    out: list = []
    starts = []
    for sample in np.asarray(rows, dtype=float):
        try:
            starts.append(_e3sift_start(sample))
            out.append(None)
        except (SolverError, np.linalg.LinAlgError) as exc:
            out.append(exc)
    if starts:
        pencils, systems, _, states = zip(*starts)
        states, _ = _polish_batch(np.array(systems), np.array(states), _poly.BIVARIATE_BASIS, 4)
        solved = iter(zip(pencils, states))
        for i, entry in enumerate(out):
            if entry is None:
                (n1, n2, n3), (alpha, beta) = next(solved)
                out[i] = [alpha * n1 + beta * n2 + n3]
    return out


def _five_point_core(rows: np.ndarray) -> list:
    """essential_candidates_batch per sample, refusing the unsolvable ones."""
    models, solvable = essential_candidates_batch(rows)
    return [found if ok else DegenerateSampleError(
        "constraint system rank-deficient or leading monomial block singular; "
        "sample does not determine the model") for found, ok in zip(models, solvable)]


def solve_e_3sift(corr, k1, k2) -> SolverOutput:
    """Single essential matrix from three oriented/scaled correspondences.

    Points, orientations, and scales are mapped through the inverse
    intrinsics; three point rows and three feature rows then feed the
    null-space plus trace-constraint core, as a batch of one.
    """
    return run_minimal_solver("e3sift", corr, k1, k2)


def solve_e_5pt(pairs, k1, k2) -> SolverOutput:
    """Essential matrix candidates from five point pairs (action-matrix solver)."""
    return run_minimal_solver("e5pt", pairs, k1, k2)


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
    of the trace constraint. Candidate (x, y, w) triples from each root are
    polished together by one lockstep Gauss-Newton on the trace and
    determinant rows; in candidate order, a candidate within 2e-3 of an
    accepted solution is dropped, and a polished one is accepted when its w
    is above 1e-14, the residual of its unit-norm F is at most 1e-8 and it
    is no duplicate. Returns a list of (F 3x3, focal, residual) sorted by
    residual, at most fifteen entries.
    """
    basis = nullspace(rows, 3)
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
        mono = _poly.bivariate_monomials_batch(np.array([[x, y]]))[0]
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

    if not candidates:
        return []
    system = np.broadcast_to(np.hstack([a0, a1, a2]), (len(candidates), 10, 30))
    polished, residuals = _polish_batch(system, np.array(candidates),
                                        _poly.SEMICALIBRATED_BASIS, 14)
    solutions: list[np.ndarray] = []
    results = []
    for cand, sol, res in zip(candidates, polished, residuals.tolist()):
        if any(float(np.abs(cand - prev).max()) < 2e-3 * (1.0 + float(np.abs(cand).max()))
               for prev in solutions):
            continue
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


def _semicalibrated_batch(rows: np.ndarray) -> list:
    """Semi-calibrated core over samples (batch, r, 9), one sample at a time.

    Raw models are (F, focal) pairs in the frame; a sample without a real
    positive-focal solution is refused with NoValidFocalError.
    """
    out: list = []
    for sample in rows:
        try:
            results = _solve_semicalibrated_rows(sample)
        except (SolverError, ValueError) as exc:
            out.append(exc)
            continue
        if not results:
            out.append(NoValidFocalError("no real solution with a positive focal length"))
            continue
        out.append([(f, focal) for f, focal, _ in results])
    return out


def solve_f_focal_3sift(corr, principal_point) -> SolverOutput:
    """Fundamental matrix and shared focal length from three correspondences.

    Points are shifted so the shared principal point is the origin (and
    isotropically scaled for conditioning); three point rows plus three
    feature rows feed the semi-calibrated back-end.
    """
    return run_minimal_solver("ff3sift", corr, principal_point=principal_point)


def solve_f_focal_6pt(pairs, principal_point) -> SolverOutput:
    """Fundamental matrix and shared focal length from six point pairs."""
    return run_minimal_solver("ff6pt", pairs, principal_point=principal_point)


# ---------------------------------------------------------------------------
# Frames: the coordinates a solver core works in
# ---------------------------------------------------------------------------

def _as_matrix(model) -> np.ndarray:
    """The 3x3 array of a model: F, E, FocalModel, a frame (F, focal) pair or an array."""
    if isinstance(model, (FundamentalMatrix, EssentialMatrix)):
        return model.m
    if isinstance(model, tuple):
        return model[0]
    return model.fundamental.m if isinstance(model, FocalModel) else model


@dataclass(frozen=True)
class SimilarityFrame:
    """Pixel coordinates through one isotropic similarity per image.

    scale is the factor both similarities share (frame units per pixel), or
    None when each image has its own. Models come back in pixels.
    """

    t1: np.ndarray
    t2: np.ndarray
    scale: float | None = None
    models_in_pixels = True

    def local(self, corr: np.ndarray) -> np.ndarray:
        """Packed correspondences (n, 8) or point pairs (n, 4) in the frame."""
        if corr.shape[1] == 4:
            return np.hstack([_apply_similarity(corr[:, :2], self.t1),
                              _apply_similarity(corr[:, 2:4], self.t2)])
        out = corr.copy()
        out[:, 0:2] = _apply_similarity(corr[:, 0:2], self.t1)
        out[:, 4:6] = _apply_similarity(corr[:, 4:6], self.t2)
        out[:, 2] = corr[:, 2] * self.t1[0, 0]
        out[:, 6] = corr[:, 6] * self.t2[0, 0]
        return out

    def model(self, raw):
        """A frame F as a pixel FundamentalMatrix, a frame (F, focal) as a FocalModel."""
        if isinstance(raw, tuple):
            mat, focal = raw
            return FocalModel(FundamentalMatrix.from_array(self.t2.T @ mat @ self.t1),
                              focal / self.scale)
        return FundamentalMatrix.from_array(self.t2.T @ raw @ self.t1)


@dataclass
class CalibratedFrame:
    """Normalized image coordinates: each image through its inverse intrinsics.

    Models stay in the frame, as essential matrices.
    """

    k1: CameraIntrinsics
    k2: CameraIntrinsics
    models_in_pixels = False

    def __post_init__(self):
        self.k1 = _intrinsics(self.k1)
        self.k2 = _intrinsics(self.k2)

    @property
    def scale(self) -> float:
        """Frame units per pixel: the inverse of the mean of the four focal lengths."""
        return 4.0 / (self.k1.fx + self.k1.fy + self.k2.fx + self.k2.fy)

    def local(self, corr: np.ndarray) -> np.ndarray:
        """Packed correspondences (n, 8) or point pairs (n, 4) in the frame."""
        if corr.shape[1] == 8:
            return normalize_sift_correspondences(corr, self.k1, self.k2)
        return normalize_pairs(corr, self.k1, self.k2)

    def model(self, raw) -> EssentialMatrix:
        return EssentialMatrix.from_array(raw)


def hartley_frame(pairs: np.ndarray) -> SimilarityFrame:
    """Each image's centroid to the origin and its mean radius to sqrt(2)."""
    return SimilarityFrame(_hartley_similarity(pairs[:, :2]), _hartley_similarity(pairs[:, 2:4]))


def common_scale_frame(pairs: np.ndarray) -> SimilarityFrame:
    """Per-image translations with one shared isotropic scale.

    A shared scale keeps the symmetric epipolar error an exact multiple of
    its pixel value, so thresholds transfer by the same factor.
    """
    c1 = pairs[:, :2].mean(axis=0)
    c2 = pairs[:, 2:4].mean(axis=0)
    spread = 0.5 * (_mean_radius(pairs[:, :2], c1) + _mean_radius(pairs[:, 2:4], c2))
    s = _frame_scale(math.sqrt(2.0), spread)
    return SimilarityFrame(_similarity(c1, s), _similarity(c2, s), s)


def semicalibrated_frame(pairs: np.ndarray, principal_point) -> SimilarityFrame:
    """One similarity for both images: the principal point to the origin, unit mean radius."""
    pp = np.asarray(principal_point, dtype=float).reshape(2)
    s = _frame_scale(1.0, _mean_radius(np.vstack([pairs[:, :2], pairs[:, 2:4]]), pp))
    t = _similarity(pp, s)
    return SimilarityFrame(t, t, s)


# ---------------------------------------------------------------------------
# Registry: one entry per minimal solver, run by every caller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverInfo:
    """A minimal solver: its family, sample size, row layout and batched core.

    layout places the feature rows: None (point rows only), "first3" (the
    rows of the first three correspondences after the point rows) or
    "interleaved" (point and feature rows alternate). core maps stacked
    rows (batch, r, 9) in the solver's frame to one entry per sample: its
    raw models, or the exception that refuses the sample.
    """

    solver_id: str
    family: str  # "f", "e", or "ff"
    sample_size: int
    layout: str | None
    core: Callable

    @property
    def uses_orientation(self) -> bool:
        return self.layout is not None

    def rows(self, point_rows: np.ndarray, feature_rows: np.ndarray | None) -> np.ndarray:
        """The core's rows (batch, r, 9) from point and feature rows (batch, m, 9)."""
        if self.layout is None:
            return point_rows
        if self.layout == "first3":
            return np.concatenate([point_rows, feature_rows[:, :3]], axis=1)
        rows = np.empty((point_rows.shape[0], 2 * point_rows.shape[1], 9))
        rows[:, 0::2] = point_rows
        rows[:, 1::2] = feature_rows
        return rows


MINIMAL_SOLVERS = {info.solver_id: info for info in (
    SolverInfo("f4sift", "f", 4, "first3", _rank2_core),
    SolverInfo("f7pt", "f", 7, None, _rank2_core),
    SolverInfo("e3sift", "e", 3, "interleaved", essential_3sift_batch),
    SolverInfo("e5pt", "e", 5, None, _five_point_core),
    SolverInfo("ff3sift", "ff", 3, "interleaved", _semicalibrated_batch),
    SolverInfo("ff6pt", "ff", 6, None, _semicalibrated_batch),
)}


def solver_info(solver_id: str) -> SolverInfo:
    try:
        return MINIMAL_SOLVERS[solver_id]
    except KeyError:
        raise ValueError(f"unknown solver '{solver_id}'") from None


def _stacked_rows(info: SolverInfo, corr: np.ndarray) -> np.ndarray:
    """One sample's rows (1, r, 9) in the solver's layout, from (m, 8) or (m, 4) input."""
    pairs = corr[:, [0, 1, 4, 5]] if corr.shape[1] == 8 else corr
    features = sift_rows(corr)[None] if info.uses_orientation else None
    return info.rows(epipolar_rows(pairs)[None], features)


def run_minimal_solver(solver_id: str, corr, k1=None, k2=None,
                       principal_point=None) -> SolverOutput:
    """Solve one minimal sample with a solver by id, in a frame fitted to the sample.

    The frame is Hartley's for the f family, the inverse intrinsics (identity
    by default) for e and the principal point (the origin by default) for
    ff. Raises the exception with which the core refuses the sample. Row
    residuals are taken in the coordinates of the returned models.
    """
    info = solver_info(solver_id)
    corr = as_sift_array(corr)
    if corr.shape[0] != info.sample_size:
        raise ValueError(f"{solver_id} needs exactly {info.sample_size} correspondences")
    pairs = as_pair_array(corr)
    if not info.uses_orientation:
        corr = pairs
    if info.family == "f":
        frame = hartley_frame(pairs)
    elif info.family == "e":
        identity = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        frame = CalibratedFrame(identity if k1 is None else k1, identity if k2 is None else k2)
    else:
        frame = semicalibrated_frame(pairs, (0.0, 0.0) if principal_point is None
                                     else principal_point)
    rows = _stacked_rows(info, frame.local(corr))
    raw = info.core(rows)[0]
    if isinstance(raw, Exception):
        raise raw
    models = [frame.model(m) for m in raw]
    if frame.models_in_pixels:
        rows = _stacked_rows(info, corr)
    residuals = [float(np.max(normalized_residuals(rows[0], _as_matrix(m).reshape(-1))))
                 for m in models]
    return SolverOutput(models=models, row_residuals=residuals)
