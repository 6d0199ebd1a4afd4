"""Minimal and non-minimal relative pose solvers.

Feature-based minimal solvers (fundamental matrix from four oriented/scaled
correspondences, essential matrix from three, fundamental matrix plus a
shared focal length from three) and their point-based baselines (7pt, 8pt,
5pt, 6pt). All solvers are pure functions of their input; none draws random
numbers.
"""
from __future__ import annotations

import functools
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
)
from .geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FocalModel,
    FundamentalMatrix,
    _as_matrix,
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

def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a real vector by the same operations, without its dispatch."""
    return math.sqrt(v.dot(v))


# the trigonometric cubic roots' angle offsets, and Cardano's two cube-root arguments
_TWO_PI_K = 2.0 * math.pi * np.arange(3)
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def real_cubic_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, one cubic per row (c3, c2, c1, c0).

    coeffs has shape (n, 4). Closed form plus one Newton step, elementwise
    over the rows. Each row is divided by its largest coefficient magnitude
    (an all-zero row has no root) and then solved by the first branch that
    applies:

    - |c3| < 1e-14 and |c2| < 1e-14: the linear root -c0/c1, none when
      |c1| < 1e-14 too;
    - |c3| < 1e-14: the quadratic's two roots by the stable formula, none
      for a negative discriminant, the single root 0 when both vanish;
    - a depressed cubic t^3 + p t + q with |p| and |q| below 1e-14: the
      triple root;
    - discriminant -4p^3 - 27q^2 >= 0 and p < 0: three trigonometric roots;
    - otherwise Cardano's one real root.

    Each root takes one Newton step where the derivative is nonzero and the
    step shrinks |value| (near a multiple root both are at roundoff level,
    and their quotient can throw the root far off); then a root within
    1e-9 (1 + |x|) of an earlier root of its row is dropped
    (_first_of_clusters). Returns the roots (n, 3) and the mask (n, 3) of
    the kept ones; the other slots hold 0.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    top = np.abs(coeffs).max(axis=1)
    roots = np.zeros((coeffs.shape[0], 3))
    found = np.zeros((coeffs.shape[0], 3), dtype=bool)
    # a branch runs on every row once any row takes it, and keeps only its
    # own rows, so the other rows may overflow or divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coeffs = coeffs / top[:, None]
        c3, c2, c1, c0 = coeffs.T
        small = np.abs(coeffs) < 1e-14
        degree_drop = small[:, 0] & (top != 0.0)
        cubic = (top != 0.0) ^ degree_drop
        if np.count_nonzero(degree_drop):
            linear = degree_drop & small[:, 1]
            np.copyto(roots[:, 0], -c0 / c1, where=linear)
            found[:, 0] = linear & ~small[:, 2]
            disc = c1 * c1 - 4.0 * c2 * c0
            quadratic = degree_drop & ~linear & ~(disc < 0.0)
            sq = np.sqrt(disc)
            qq = np.where(c1 != 0.0, -0.5 * (c1 + np.copysign(sq, c1)), 0.5 * sq)
            two = quadratic & (qq != 0.0)
            np.copyto(roots[:, 0], qq / c2, where=two)
            np.copyto(roots[:, 1], c0 / qq, where=two)
            found[:, 0] |= quadratic
            found[:, 1] = two
        if np.count_nonzero(cubic):
            b, c, d = (coeffs[:, 1:] / coeffs[:, :1]).T
            shift = b / 3.0
            p = c - b * b / 3.0
            q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
            p3 = p ** 3
            triple = cubic & (np.maximum(np.abs(p), np.abs(q)) < 1e-14)
            three = cubic & ~triple & (-4.0 * p3 - 27.0 * q * q >= 0.0) & (p < 0.0)
            one = cubic & ~(triple | three)
            np.copyto(roots[:, 0], -shift, where=triple)
            found[:, 0] |= cubic
            if np.count_nonzero(three):
                rad = 2.0 * np.sqrt(-p / 3.0)
                phi = np.arccos(np.minimum(1.0, np.maximum(-1.0, 3.0 * q / (p * rad))))
                trig = rad[:, None] * np.cos((phi[:, None] - _TWO_PI_K) / 3.0) - shift[:, None]
                np.copyto(roots, trig, where=three[:, None])
                found[:, 1:] |= three[:, None]
            if np.count_nonzero(one):
                rad = np.sqrt(np.maximum(q * q / 4.0 + p3 / 27.0, 0.0))
                halves = -q / 2.0 + _PLUS_MINUS * rad
                t, u = np.copysign(np.abs(halves) ** (1.0 / 3.0), halves)
                np.copyto(roots[:, 0], t + u - shift, where=one)
        c3, c2, c1, c0 = np.repeat(coeffs.T[:, :, None], 3, axis=2)
        val = ((c3 * roots + c2) * roots + c1) * roots + c0
        der = (3.0 * c3 * roots + 2.0 * c2) * roots + c1
        step = roots - val / der
        shrinks = np.abs(((c3 * step + c2) * step + c1) * step + c0) < np.abs(val)
        np.copyto(roots, step, where=found & (der != 0.0) & shrinks)
    roots[~found] = 0.0
    if np.count_nonzero(found[:, 1]):
        found = _first_of_clusters(roots[:, :, None], found, 1e-9)
        roots[~found] = 0.0
    return roots, found


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
    centroid = points.mean(axis=0)
    return _similarity(centroid, _frame_scale(math.sqrt(2.0), _mean_radius(points, centroid)))


def _apply_similarity(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    return points @ t[:2, :2].T + t[:2, 2]


def _residuals(systems: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (m, r, 1) of systems (m, r, k) at monomials (m, k), and their squared norms."""
    r = systems @ values[:, :, None]
    return r, (np.swapaxes(r, 1, 2) @ r)[:, 0, 0]


@functools.cache
def _damping(k: int) -> np.ndarray:
    """The read-only (k, k) damping 1e-300 I of the Gauss-Newton normal equations."""
    damping = 1e-300 * np.eye(k)
    damping.flags.writeable = False
    return damping


def _polish_batch(systems: np.ndarray, states: np.ndarray, basis, iterations: int):
    """Lockstep damped Gauss-Newton over many (system, start) pairs.

    systems (m, r, k) holds one polynomial system per start as r coefficient
    rows over a k-term monomial basis; basis is a (monomials, gradient) pair
    of batched evaluators from _poly over two or three variables. Every
    iteration solves the normal equations, damped by 1e-300 I, in closed
    form through their adjugate, and tries the step and up to five halvings
    of it, taking the first whose squared residual does not grow. A start
    stops once its squared residual is at most 1e-28, the determinant of its
    normal equations is zero or not finite, its step is not finite, or no
    trial is taken; the others go on, and a stopped start never moves again.
    Returns the refined states and their residual norms (m,).
    """
    monomials, gradient = basis
    states = states.copy()
    damping = _damping(states.shape[1])
    live = np.ones(states.shape[0], dtype=bool)
    # a non-finite product only stops its start: the determinant and step
    # tests below catch it, and a non-finite residual is never accepted
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = monomials(states)
        r, size = _residuals(systems, values)
        for _ in range(iterations):
            live &= size > 1e-28
            if not live.any():
                break
            jac = systems @ gradient(states, values)
            jac_t = np.swapaxes(jac, 1, 2)
            jtj = jac_t @ jac + damping
            adj = _batched_adjugate(jtj)
            # rounded products summed without fused multiply-adds, so an
            # exactly singular system gives an exactly zero determinant
            det = (adj[:, 0] * jtj[:, :, 0]).sum(axis=1)
            # minus the Gauss-Newton step: negating r negates it exactly
            down = (adj @ (jac_t @ r))[..., 0] / det[:, None]
            live &= (det != 0.0) & np.isfinite(det) & np.isfinite(down).all(axis=1)
            # every start still searching has had the same number of halvings
            remaining = live.copy()
            trial = states - down
            for halving in range(6):
                if halving:
                    trial = states - 0.5 ** halving * down
                values_t = monomials(trial)
                r_t, size_t = _residuals(systems, values_t)
                accept = remaining & ((size_t <= size) | (size_t < 1e-28))
                remaining &= ~accept
                if accept.all():
                    states, values, r, size = trial, values_t, r_t, size_t
                    break
                np.copyto(states, trial, where=accept[:, None])
                np.copyto(values, values_t, where=accept[:, None])
                np.copyto(r, r_t, where=accept[:, None, None])
                np.copyto(size, size_t, where=accept)
                if not remaining.any():
                    break
            live &= ~remaining
    return states, np.sqrt(size)


# ---------------------------------------------------------------------------
# Batched kernels for the sampling loop
# ---------------------------------------------------------------------------

# the 2x2 adjugate [[d, -b], [-c, a]] of [[a, b], [c, d]]: flat picks and signs
_ADJUGATE_2X2 = np.array([3, 1, 2, 0])
_SIGNS_2X2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
# flat (row-major) indices into a 3x3 matrix of the four factors whose
# products form the adjugate: entry [i, k] reads m[k + 1, i + 1] m[k + 2, i + 2]
# - m[k + 2, i + 1] m[k + 1, i + 2] (indices mod 3), so row i of the adjugate
# is the cross product of columns i + 1 and i + 2
_ADJUGATE_FACTORS = np.array([
    [[3 * ((k + r) % 3) + (i + c) % 3 for k in range(3)] for i in range(3)]
    for r, c in ((1, 1), (2, 2), (2, 1), (1, 2))])


def _batched_adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of each 2x2 or 3x3 matrix of a stack: adj(m) m = det(m) I."""
    if m.shape[-1] == 2:
        return np.take(m.reshape(m.shape[:-2] + (4,)), _ADJUGATE_2X2,
                       axis=-1).reshape(m.shape) * _SIGNS_2X2
    f = np.take(m.reshape(m.shape[:-2] + (9,)), _ADJUGATE_FACTORS, axis=-1)
    return f[..., 0, :, :] * f[..., 1, :, :] - f[..., 2, :, :] * f[..., 3, :, :]


def rank2_candidates_batch(basis: np.ndarray) -> list:
    """All rank-2 matrices spanned by each null-space basis (batch, 2, 9) of a 7x9 system.

    The rank-2 condition det(a + mu b) = 0 on the pencil of the two basis
    vectors is one cubic in mu per sample, all solved at once by
    real_cubic_roots. Returns one list of raw 3x3 matrices per sample, in
    root order. A list is empty where the sample does not determine the
    model: every pencil member is rank-deficient (a dominant-plane sample),
    or the rank-2 cubic has no real root.
    """
    f1 = basis[:, 0].reshape(-1, 3, 3)
    f2 = basis[:, 1].reshape(-1, 3, 3)
    a, b = f2, f1 - f2
    # det(a + mu b) = c3 mu^3 + c2 mu^2 + c1 mu + c0
    coeffs = np.empty((basis.shape[0], 4))
    coeffs[:, 0] = np.linalg.det(b)
    coeffs[:, 1] = np.einsum("nij,nji->n", _batched_adjugate(b), a)
    coeffs[:, 2] = np.einsum("nij,nji->n", _batched_adjugate(a), b)
    coeffs[:, 3] = np.linalg.det(a)
    vacuous = np.abs(coeffs).max(axis=1) < 1e-10
    roots, found = real_cubic_roots(coeffs)
    found &= ~vacuous[:, None]
    models = a[:, None] + roots[:, :, None, None] * b[:, None]
    return [list(m[keep]) for m, keep in zip(models, found)]


@functools.cache
def _earlier(k: int) -> np.ndarray:
    """The read-only (k, k) mask of index pairs [j, i] with i < j."""
    mask = np.tri(k, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _first_of_clusters(points: np.ndarray, valid: np.ndarray, rtol: float) -> np.ndarray:
    """Mask of the valid points (batch, k, d) with no earlier valid point of their row near.

    Point j of a row is dropped when a valid point i < j of that row lies
    within rtol (1 + |p_j|) of it. The points must be finite.
    """
    diff = points[:, :, None] - points[:, None]
    dist = np.sqrt(np.einsum("bjid,bjid->bji", diff, diff))
    tol = rtol * (1.0 + np.sqrt(np.einsum("bjd,bjd->bj", points, points)))
    near = (dist <= tol[:, :, None]) & _earlier(points.shape[1]) & valid[:, None]
    return valid & ~np.logical_or.reduce(near, axis=2)


def essential_candidates_batch(basis: np.ndarray) -> tuple[list, np.ndarray]:
    """Five-point core over samples: basis (batch, 4, 9) spans each 5x9 system's null space.

    The four-dimensional null space combination E = x P0 + y P1 + z P2 + P3
    feeds the ten trace and determinant equations; an action matrix over the
    degree-two quotient basis yields the candidate roots (x, y, z), refined
    by damped Gauss-Newton. Everything runs as array operations over the
    samples and their ten eigenvector slots:

    - a slot is a candidate when its eigenvalue w has |Im w| at most
      1e-6 max(1, |Re w|) and its eigenvector, turned real by the phase of
      its largest entry, has |v_9| at least 1e-10 |v|; the root is v_6..8 / v_9;
    - in eigenvalue order, a candidate within 1e-9 (1 + |c|) of an earlier
      candidate of its sample is dropped;
    - after the polish, a root whose residual exceeds 1e-6 (|c|^2 + 1)^1.5
      (the residual of the unit-norm E) is cut, and a root within
      1e-7 (1 + |c|) of an earlier uncut root of its sample is dropped.

    Returns (models, solvable): one list of raw essential matrices per
    sample, in eigenvalue order, and a mask that is False where the leading
    monomial block is singular. A solvable sample may still keep no
    candidate.
    """
    batch = basis.shape[0]
    pencil = basis.reshape(batch, 4, 3, 3)

    system = _poly.essential_constraint_system(pencil, _poly.TRIVARIATE)
    lead, rest = system[:, :, :10], system[:, :, 10:]
    solvable = np.ones(batch, dtype=bool)
    try:
        reduced = np.linalg.solve(lead, rest)
    except np.linalg.LinAlgError:
        # the solve fails on an exactly zero LU pivot, which slogdet reports
        # as sign 0 from the same factorization
        solvable = np.linalg.slogdet(lead)[0] != 0.0
        reduced = np.full_like(rest, np.nan)
        reduced[solvable] = np.linalg.solve(lead[solvable], rest[solvable])

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

    # (batch, slot, entry): one eigenvector per slot
    vecs = np.swapaxes(eigvecs, 1, 2)
    pivot = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=2)[..., None], axis=2)
    vecs = (vecs * np.conj(pivot) / np.abs(pivot)).real
    valid = (solvable[:, None]
             & (np.abs(eigvals.imag) <= 1e-6 * np.maximum(1.0, np.abs(eigvals.real)))
             & (np.abs(vecs[..., 9]) >= 1e-10 * np.linalg.norm(vecs, axis=2)))
    cands = np.divide(vecs[..., 6:9], vecs[..., 9:], out=np.zeros((batch, 10, 3)),
                      where=valid[..., None])
    owners, slots = np.nonzero(_first_of_clusters(cands, valid, 1e-9))
    polished = np.zeros_like(cands)
    kept = np.zeros_like(valid)
    if owners.size:
        states, residuals = _polish_batch(system[owners], cands[owners, slots],
                                          _poly.TRIVARIATE_BASIS, 3)
        # orthonormal basis: ||E|| = sqrt(|x|^2 + 1)
        scale = (np.sum(states * states, axis=1) + 1.0) ** 1.5
        polished[owners, slots] = states
        kept[owners, slots] = ~(residuals / scale > 1e-6)
    owners, slots = np.nonzero(_first_of_clusters(polished, kept, 1e-7))
    weights = np.concatenate([polished[owners, slots], np.ones((owners.size, 1))], axis=1)
    models = np.einsum("mk,mkij->mij", weights, pencil[owners])
    splits = np.cumsum(np.bincount(owners, minlength=batch))[:-1]
    return [list(found) for found in np.split(models, splits)], solvable


# ---------------------------------------------------------------------------
# Fundamental matrix solvers
# ---------------------------------------------------------------------------

def _rank2_core(basis: np.ndarray) -> list:
    """rank2_candidates_batch per sample, refusing the samples without a model."""
    return [models if models else DegenerateSampleError(
        "sample does not determine a rank-2 model: vacuous rank-2 condition or no real root")
        for models in rank2_candidates_batch(basis)]


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
    t1, t2 = _hartley_similarity(pairs[:, :2]), _hartley_similarity(pairs[:, 2:4])
    rows = epipolar_rows(np.hstack([_apply_similarity(pairs[:, :2], t1),
                                    _apply_similarity(pairs[:, 2:4], t2)]))
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

# the four alpha and four beta candidates read from the monomial solution y:
# y[num] / y[den] with y[9] = 1, the cube root taken of the second of each
# (alpha: y7, cbrt y0, y6/y8, y4/y7; beta: y8, cbrt y1, y6/y7, y5/y8)
_PICK_NUMERATORS = np.array([7, 0, 6, 4, 8, 1, 6, 5])
_PICK_DENOMINATORS = np.array([9, 9, 8, 7, 9, 9, 7, 8])
_PICK_CUBE_ROOTS = [1, 5]

# one factory per refusal code of _e3sift_front, in the order it tests them
_E3SIFT_REFUSALS = (
    None,
    functools.partial(IllConditionedSampleError, "monomial system numerically rank-deficient"),
    functools.partial(IllConditionedSampleError,
                      "no finite candidate for the null-space coefficients"),
)


def _monomial_solve(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares monomial vectors y (batch, 9) of bivariate systems (batch, 10, 10).

    Each system's first nine columns multiply y and its last column is the
    constant term. Solved through one batched SVD; the mask (batch,) is False
    where the singular values fall below 1e-12 of the largest (or all
    vanish), and y is then meaningless. Above that cutoff no singular value
    is dropped, so y is the full-rank least-squares solution.
    """
    u, sv, vt = np.linalg.svd(systems[:, :, :9], full_matrices=False)
    conditioned = ~((sv[:, 0] == 0.0) | (sv[:, -1] < 1e-12 * sv[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = (np.swapaxes(u, 1, 2) @ -systems[:, :, 9:])[..., 0] / sv
    return (np.swapaxes(vt, 1, 2) @ coeffs[:, :, None])[..., 0], conditioned


def _e3sift_front(basis: np.ndarray):
    """Constraint system and Gauss-Newton start of e3sift null spaces (batch, 3, 9).

    Returns the null-space pencils (batch, 3, 3, 3), the constraint systems
    (batch, 10, 10), the starts (alpha, beta) (batch, 2) and a refusal code
    per sample (batch,): 0 where the sample is solved, else the index into
    _E3SIFT_REFUSALS of the first refusal that applies (see
    essential_3sift_batch). A refused sample's start is 0.
    """
    batch = basis.shape[0]
    pencil = basis.reshape(batch, 3, 3, 3)
    system = _poly.essential_constraint_system(pencil, _poly.BIVARIATE)
    y, conditioned = _monomial_solve(system)

    # refused samples and candidates far out may divide by zero or overflow;
    # their picks are masked out below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        picks = np.concatenate([y, np.ones((batch, 1))], axis=1)
        picks = picks[:, _PICK_NUMERATORS] / picks[:, _PICK_DENOMINATORS]
        picks[:, _PICK_CUBE_ROOTS] = np.cbrt(picks[:, _PICK_CUBE_ROOTS])
        usable = np.isfinite(picks)
        picks[~usable] = 0.0
        # the 4x4 grid, alpha-major: entry 4 i + j pairs alpha i with beta j
        grid = np.empty((batch, 4, 4, 2))
        grid[..., 0] = picks[:, :4, None]
        grid[..., 1] = picks[:, None, 4:]
        grid = grid.reshape(batch, 16, 2)
        valid = (usable[:, :4, None] & usable[:, None, 4:]).reshape(batch, 16)
        mono = _poly.bivariate_monomials_batch(grid.reshape(-1, 2)).reshape(batch, 16, 10)
        r = mono @ np.swapaxes(system[:, :9], 1, 2)
        # basis vectors are orthonormal, so the combination's norm is direct
        res = (np.einsum("bgi,bgi->bg", r, r)
               / (np.einsum("bgi,bgi->bg", grid, grid) + 1.0) ** 3)
    res[~valid | np.isnan(res)] = np.inf
    best = res.argmin(axis=1)
    # every valid entry at inf (or none valid): the first valid entry
    best = np.where(np.isinf(res[np.arange(batch), best]), valid.argmax(axis=1), best)
    starts = grid[np.arange(batch), best]

    code = np.zeros(batch, dtype=np.intp)
    code[~valid.any(axis=1)] = 2
    code[~conditioned] = 1
    starts[code != 0] = 0.0
    return pencil, system, starts, code


def essential_3sift_batch(basis: np.ndarray) -> list:
    """Core of the three-correspondence essential solver over null spaces (batch, 3, 9).

    Each sample's basis (n1, n2, n3) spans the null space of its six
    constraint rows in calibrated coordinates. The pencil is substituted
    into the trace and determinant constraints, giving ten equations solved
    in least squares over the monomial vector y = [a3 b3 a2b ab2 a2 b2 ab a b].
    Everything runs as array operations over the samples. A sample is
    refused by the first rule that applies:

    1. the monomial system's smallest singular value is below 1e-12 of its
       largest, or all vanish: IllConditionedSampleError;
    2. no alpha or no beta candidate is finite: IllConditionedSampleError.

    The candidates are alpha in (y7, cbrt y0, y6/y8, y4/y7) and beta in
    (y8, cbrt y1, y6/y7, y5/y8), the non-finite ones dropped. Over their
    grid, alpha-major, the start is the first entry with the smallest
    constraint residual of the unit-norm combination (a NaN residual counts
    as inf); where every entry's residual is inf, the first entry. The
    starts of all solved samples run one damped Gauss-Newton in lockstep.
    Returns one entry per sample: [raw 3x3 matrix alpha n1 + beta n2 + n3],
    or the exception that refused the sample.
    """
    pencil, system, states, code = _e3sift_front(basis)
    solved = code == 0
    if solved.any():
        states[solved], _ = _polish_batch(system[solved], states[solved],
                                          _poly.BIVARIATE_BASIS, 4)
    weights = np.concatenate([states, np.ones((states.shape[0], 1))], axis=1)
    models = np.einsum("bk,bkij->bij", weights, pencil)
    return [[m] if c == 0 else _E3SIFT_REFUSALS[c]() for m, c in zip(models, code.tolist())]


def _five_point_core(basis: np.ndarray) -> list:
    """essential_candidates_batch per sample, refusing the unsolvable ones."""
    models, solvable = essential_candidates_batch(basis)
    return [found if ok else DegenerateSampleError(
        "leading monomial block singular; sample does not determine the model")
        for found, ok in zip(models, solvable)]


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


def _same_focal_model(a, b) -> bool:
    """Whether two (unit F, focal, residual) solutions are one model.

    The gauge-free test: the unit-norm F agree up to sign within 1e-4 in
    every entry, and the focal lengths within 1e-4 of the larger. F is
    compared in the solver frame, where it reads 20-100 times the gap of the
    pixel F; pairs this close are one root that the polish left split near a
    double root, while distinct roots of clean samples lie at least 2e-4
    apart in F and 6e-3 in focal.
    """
    gap = min(np.abs(a[0] - b[0]).max(), np.abs(a[0] + b[0]).max())
    return gap <= 1e-4 and abs(a[1] - b[1]) <= 1e-4 * max(a[1], b[1])


def _greedy_keep(near: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Order-keeping greedy de-duplication: the mask of the points kept in a scan.

    Point j is kept when it is valid and no *kept* point i < j is near it;
    near (k, k) holds near[j, i] for the pairs i < j (the rest is ignored).
    A point with no earlier valid point near is kept outright, one near an
    earlier point kept outright is dropped outright, and only the others are
    scanned in order. This is not _first_of_clusters, which drops j when any
    earlier valid point is near: on a chain a ~ b ~ c with a and c apart,
    b is dropped, so it no longer shadows c, and this keeps a and c where
    _first_of_clusters keeps only a. The semi-calibrated core's scans
    have always used this rule, and the other one would drop its models.
    """
    near = near & _earlier(len(valid)) & valid
    shadowed = near.any(axis=1)
    keep = valid & ~shadowed
    undecided = valid & shadowed & ~(near & keep).any(axis=1)
    for j in np.flatnonzero(undecided):
        keep[j] = not (near[j] & keep).any()
    return keep


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """v.dot(v) of every vector of a stack (..., d), by the same BLAS dot.

    A stacked (1, d) @ (d, 1) product reaches the dot kernel per vector, so
    it is bitwise _norm's and np.linalg.norm's square; einsum and a summed
    product round differently.
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _solve_semicalibrated(basis: np.ndarray):
    """Shared back-end of the 3-feature and 6-point focal solvers.

    basis (3, 9) spans the null space of the rows that constrain F in
    coordinates where the shared principal point is the origin. Solves for
    F(x, y) = x n1 + y n2 + n3 and the inverse squared focal length w
    through the quadratic eigenvalue problem of the trace constraint, whose
    pencil has twenty eigenvalues. The steps,
    each over arrays in a fixed order:

    - roots: the finite eigenvalues with |Im w| at most 5e-2 max(1, |Re w|)
      and Re w > 0, in eigenvalue order, kept by a greedy scan
      (_greedy_keep) that drops a root within 1e-3 max(1, |r|) of a kept
      root r;
    - seeds: per root, one SVD of a0 + w a1 + w^2 a2 (all roots in one
      stacked call) and the demixed (x, y) of its two trailing singular
      vectors; a seed within 1e-4 (1 + |(x, y)|) of an earlier seed is
      dropped;
    - candidates: six (x, y, w) slots per seed in seed order: the root's w,
      the two ratios of the rank-2 null vector of the seed's (9, 3) stack of
      quadratics in w (all seeds in one stacked SVD), and the up to three
      real roots of the shared quadratic; a slot is valid when its triple
      is finite with w > 0, and a greedy scan drops a valid candidate
      within 1e-4 (1 + |c_j|) of a kept one;
    - polish: one lockstep Gauss-Newton over the kept candidates on the
      trace and determinant rows;
    - accept: a polished candidate passes when its w is finite and above
      1e-14, its F(x, y) is nonzero and the residual of the unit-norm F is
      at most 1e-8; a greedy scan over the passing ones drops a candidate
      whose start lies within 2e-3 (1 + max|c_j|) in every coordinate of
      an accepted polished state;
    - merge: in acceptance order, an accepted solution that is one model
      with a kept one (_same_focal_model: the (x, y, w) gauge of the null
      space plays no part) replaces it when its residual is smaller, and is
      dropped otherwise.

    Returns a list of (F 3x3, focal, residual) sorted by residual, at most
    fifteen entries.
    """
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
    finite = eigvals[np.isfinite(eigvals)]
    real = finite.real
    roots = real[(np.abs(finite.imag) <= 5e-2 * np.maximum(1.0, np.abs(real))) & (real > 0.0)]
    # the tolerance is the earlier root's
    near = np.abs(roots[:, None] - roots) <= 1e-3 * np.maximum(1.0, np.abs(roots))
    roots = roots[_greedy_keep(near, np.ones(len(roots), dtype=bool))]
    if not len(roots):
        return []

    vt = np.linalg.svd(a0 + roots[:, None, None] * a1 + (roots * roots)[:, None, None] * a2)[2]
    # the demixing and the seed test stay scalar: math.hypot and scalar
    # powers have no bitwise array counterpart
    seeds: list[tuple[float, float, float]] = []
    for w, root_vt in zip(roots, vt):
        for x, y in _demixed_monomial_vectors(root_vt[-1], root_vt[-2]):
            if all(math.hypot(x - sx, y - sy) > 1e-4 * (1.0 + math.hypot(x, y))
                   for sx, sy, _ in seeds):
                seeds.append((x, y, w))
    if not seeds:
        return []
    seeds = np.array(seeds)

    # re-solve w from the trace rows at each seed's (x, y); eigenvalues are
    # unreliable when two roots cluster in w
    mono = _poly.bivariate_monomials_batch(seeds[:, :2])[:, :, None]
    qvt = np.linalg.svd(np.concatenate([m2 @ mono, m1 @ mono, m0 @ mono], axis=2))[2]
    # rank-1 stack (all nine quadratics share both roots): the dominant
    # direction carries the shared quadratic's coefficients
    shared, found = real_cubic_roots(
        np.concatenate([np.zeros((len(seeds), 1)), qvt[:, 0]], axis=1))
    slots = np.empty((len(seeds), 6, 3))
    slots[:, :, :2] = seeds[:, None, :2]
    slots[:, 0, 2] = seeds[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # rank-2 stack: the null vector is the monomial vector (w^2, w, 1)
        slots[:, 1, 2] = qvt[:, -1, 1] / qvt[:, -1, 2]
        slots[:, 2, 2] = qvt[:, -1, 0] / qvt[:, -1, 1]
        slots[:, 3:, 2] = shared
        valid = np.isfinite(slots).all(axis=2) & (slots[:, :, 2] > 0.0)
    valid[:, 3:] &= found
    raw = slots[valid]
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt(_squared_norms(raw[:, None] - raw))
        near = ~(dist > 1e-4 * (1.0 + np.sqrt(_squared_norms(raw)))[:, None])
    candidates = raw[_greedy_keep(near, np.ones(len(raw), dtype=bool))]
    if not len(candidates):
        return []

    system = np.broadcast_to(np.hstack([a0, a1, a2]), (len(candidates), 10, 30))
    polished, residuals = _polish_batch(system, candidates, _poly.SEMICALIBRATED_BASIS, 14)
    x, y, w = polished.T
    with np.errstate(over="ignore", invalid="ignore"):
        f = x[:, None, None] * n[0] + y[:, None, None] * n[1] + n[2]
        norms = np.sqrt(_squared_norms(f.reshape(-1, 9)))
        passing = np.isfinite(w) & (w > 1e-14) & (norms != 0.0)
        # residual of the unit-norm F: the constraint is cubic in F; the
        # cube is a scalar power, which numpy's array power rounds otherwise
        res_size = np.zeros(len(candidates))
        res_size[passing] = residuals[passing] / np.array([v ** 3 for v in norms[passing]])
        passing &= ~(res_size > 1e-8)
        start_gap = np.abs(candidates[:, None] - polished).max(axis=2)
        near = start_gap < 2e-3 * (1.0 + np.abs(candidates).max(axis=1))[:, None]
    results: list = []
    for j in np.flatnonzero(_greedy_keep(near, passing)):
        model = (f[j] / norms[j], 1.0 / math.sqrt(w[j]), res_size[j])
        same = next((k for k, kept in enumerate(results) if _same_focal_model(kept, model)), None)
        if same is None:
            results.append(model)
        elif model[2] < results[same][2]:
            results[same] = model

    results.sort(key=lambda item: item[2])
    return results[:15]


def _semicalibrated_batch(bases: np.ndarray) -> list:
    """Semi-calibrated core over stacked null spaces (batch, 3, 9), one sample at a time.

    Each sample runs _solve_semicalibrated, whose roots, seeds,
    candidates and accepted solutions are arrays with greedy order-keeping
    scans; only the samples are a Python loop. Raw models are (F, focal)
    pairs in the frame, in ascending residual order; a sample without a
    real positive-focal solution is refused with NoValidFocalError, and one
    whose pencil's eigenvalues fail to converge keeps scipy's LinAlgError.
    """
    out: list = []
    for basis in bases:
        try:
            results = _solve_semicalibrated(basis)
        except np.linalg.LinAlgError as exc:
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

@dataclass(frozen=True)
class SimilarityFrame:
    """Pixel coordinates through one isotropic similarity per image.

    Both similarities scale by scale (frame units per pixel); they differ
    in their translations only. Models come back in pixels.
    """

    t1: np.ndarray
    t2: np.ndarray
    scale: float
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


# each family's frame builder takes (pixel pairs (n, 4), k1, k2, principal
# point) and ignores what its family does not use

def common_scale_frame(pairs: np.ndarray, k1=None, k2=None, principal_point=None):
    """Per-image translations with one shared isotropic scale.

    A shared scale keeps the symmetric epipolar error an exact multiple of
    its pixel value, so thresholds transfer by the same factor.
    """
    c1 = pairs[:, :2].mean(axis=0)
    c2 = pairs[:, 2:4].mean(axis=0)
    spread = 0.5 * (_mean_radius(pairs[:, :2], c1) + _mean_radius(pairs[:, 2:4], c2))
    s = _frame_scale(math.sqrt(2.0), spread)
    return SimilarityFrame(_similarity(c1, s), _similarity(c2, s), s)


def calibrated_frame(pairs: np.ndarray, k1, k2, principal_point=None) -> CalibratedFrame:
    """Each image through its inverse intrinsics, which must both be given."""
    if k1 is None or k2 is None:
        raise ValueError("essential-matrix estimation needs both intrinsics")
    return CalibratedFrame(k1, k2)


def semicalibrated_frame(pairs: np.ndarray, k1=None, k2=None, principal_point=None):
    """One similarity for both images: the principal point to the origin, unit mean radius."""
    if principal_point is None:
        raise ValueError("semi-calibrated estimation needs the shared principal point")
    pp = np.asarray(principal_point, dtype=float).reshape(2)
    s = _frame_scale(1.0, _mean_radius(np.vstack([pairs[:, :2], pairs[:, 2:4]]), pp))
    t = _similarity(pp, s)
    return SimilarityFrame(t, t, s)


# ---------------------------------------------------------------------------
# Registry: one entry per minimal solver, run by every caller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverInfo:
    """A minimal solver: its family, sample size, row layout, core, frame and degeneracy rule.

    layout places the feature rows: None (point rows only), "first3" (the
    rows of the first three correspondences after the point rows) or
    "interleaved" (point and feature rows alternate). core, called through
    solve_rows only, maps the null-space bases (batch, 9 - r, 9) of stacked
    rows (batch, r, 9) of rank r in the solver's frame to one entry per
    sample: its raw models, or the exception that refuses the sample. frame
    is the family's frame builder.
    collinear_degenerate is whether RANSAC discards a draw whose points are
    collinear in either image (the uncalibrated families).
    """

    solver_id: str
    family: str  # "f", "e", or "ff"
    sample_size: int
    layout: str | None
    core: Callable
    frame: Callable
    collinear_degenerate: bool

    @property
    def uses_orientation(self) -> bool:
        return self.layout is not None

    def rows(self, point_rows: np.ndarray, feature_rows: np.ndarray | None) -> np.ndarray:
        """The core's rows (..., r, 9) from point and feature rows (..., m, 9)."""
        if self.layout is None:
            return point_rows
        if self.layout == "first3":
            return np.concatenate([point_rows, feature_rows[..., :3, :]], axis=-2)
        rows = np.empty(point_rows.shape[:-2] + (2 * point_rows.shape[-2], 9))
        rows[..., 0::2, :] = point_rows
        rows[..., 1::2, :] = feature_rows
        return rows


MINIMAL_SOLVERS = {info.solver_id: info for info in (
    SolverInfo("f4sift", "f", 4, "first3", _rank2_core, common_scale_frame, True),
    SolverInfo("f7pt", "f", 7, None, _rank2_core, common_scale_frame, True),
    SolverInfo("e3sift", "e", 3, "interleaved", essential_3sift_batch, calibrated_frame, False),
    SolverInfo("e5pt", "e", 5, None, _five_point_core, calibrated_frame, False),
    SolverInfo("ff3sift", "ff", 3, "interleaved", _semicalibrated_batch,
               semicalibrated_frame, True),
    SolverInfo("ff6pt", "ff", 6, None, _semicalibrated_batch, semicalibrated_frame, True),
)}


def solver_info(solver_id: str) -> SolverInfo:
    try:
        return MINIMAL_SOLVERS[solver_id]
    except KeyError:
        raise ValueError(f"unknown solver '{solver_id}'") from None


def _constraint_rows(info: SolverInfo, corr: np.ndarray):
    """Point pairs (n, 4), point rows and feature rows (n, 9) of an (n, 8) or (n, 4) array.

    Feature rows are None without orientation. Rows of coordinates near the
    float range overflow to inf, which solve_rows refuses.
    """
    pairs = corr[:, [0, 1, 4, 5]] if corr.shape[1] == 8 else corr
    with np.errstate(over="ignore", invalid="ignore"):
        return pairs, epipolar_rows(pairs), sift_rows(corr) if info.uses_orientation else None


def frame_rows(info: SolverInfo, corr: np.ndarray, k1=None, k2=None, principal_point=None):
    """A solver's frame fitted to correspondences (n, 8) or pairs (n, 4), and their rows in it.

    The whole array goes into info.frame. Returns (frame, point pairs in
    the frame, point rows, feature rows or None). Raises ValueError when
    the array is not (n, 4) or (n, 8), holds a non-finite value or lacks
    the orientation columns the solver needs.
    """
    if corr.ndim != 2 or corr.shape[1] not in (4, 8):
        raise ValueError(f"correspondences must be (n, 4) or (n, 8), got shape {corr.shape}")
    bad = int(np.count_nonzero(~np.isfinite(corr).all(axis=1)))
    if bad:
        raise ValueError(f"{bad} of {corr.shape[0]} correspondences hold non-finite values")
    if info.uses_orientation and corr.shape[1] != 8:
        raise ValueError(f"{info.solver_id} needs orientation/scale columns")
    frame = info.frame(as_pair_array(corr), k1, k2, principal_point)
    return (frame, *_constraint_rows(info, frame.local(corr)))


def solve_rows(info: SolverInfo, point_rows: np.ndarray, feature_rows) -> list:
    """The core's entry per sample from point and feature rows (batch, m, 9).

    The rows are stacked in the solver's layout, r a sample, and one batched
    SVD takes their null spaces: the core gets the trailing 9 - r right
    singular vectors of the samples left after two refusals. A sample
    holding a non-finite entry gets IllConditionedSampleError (the SVD sees
    zeros in its place, so no LAPACK call meets a NaN or an inf); one whose
    r-th singular value is below DEGENERACY_RTOL of its first, or whose
    rows all vanish, gets DegenerateSampleError. No sample left, no call.
    """
    rows = info.rows(point_rows, feature_rows)
    r = rows.shape[1]
    finite = np.isfinite(rows).all(axis=(1, 2))
    _, s, vt = np.linalg.svd(np.where(finite[:, None, None], rows, 0.0))
    determined = (s[:, 0] > 0.0) & (s[:, r - 1] >= DEGENERACY_RTOL * s[:, 0])
    solved = iter(info.core(vt[determined, r:])) if determined.any() else None
    results = []
    for ok, fin in zip(determined.tolist(), finite.tolist()):
        if ok:
            results.append(next(solved))
        elif fin:
            results.append(DegenerateSampleError(
                f"constraint system rank below {r}; sample does not determine the model"))
        else:
            results.append(IllConditionedSampleError(
                "constraint rows not finite: the sample's coordinates overflow them"))
    return results


def run_minimal_solver(solver_id: str, corr, k1=None, k2=None,
                       principal_point=None) -> SolverOutput:
    """Solve one minimal sample with a solver by id, in its family's frame fitted to the sample.

    The sample runs through frame_rows and solve_rows, as RANSAC's samples
    do: e solvers need k1 and k2, ff solvers the principal point (else
    ValueError). Raises the exception with which the sample is refused. Row
    residuals are taken in the coordinates of the returned models.
    """
    info = solver_info(solver_id)
    corr = as_sift_array(corr)
    if corr.shape[0] != info.sample_size:
        raise ValueError(f"{solver_id} needs exactly {info.sample_size} correspondences")
    frame, _, points, features = frame_rows(info, corr, k1, k2, principal_point)
    raw = solve_rows(info, points[None], None if features is None else features[None])[0]
    if isinstance(raw, Exception):
        raise raw
    models = [frame.model(m) for m in raw]
    if frame.models_in_pixels:
        _, points, features = _constraint_rows(info, corr)
    rows = info.rows(points, features)
    residuals = [float(np.max(normalized_residuals(rows, _as_matrix(m).reshape(-1))))
                 for m in models]
    return SolverOutput(models=models, row_residuals=residuals)
