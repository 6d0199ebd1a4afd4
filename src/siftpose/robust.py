"""Locally optimized random sample consensus over the minimal solvers.

Scoring is truncated-quadratic on the symmetric epipolar error of the point
coordinates only; orientations and scales enter exclusively through the
minimal solvers. Termination adapts to the best inlier ratio found so far,
which is where smaller samples pay off. Local optimization refits on inliers
re-collected at an annealed threshold with a least-squares solver.

Each problem adapter preconditions its data once (a shared similarity for
pixel problems, the inverse intrinsics for calibrated ones) and precomputes
per-correspondence constraint rows, so the sampling loop only stacks rows
and runs the solver cores.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constraints import epipolar_rows, sift_rows
from .errors import SolverError
from .solvers import (
    CalibratedFrame,
    _as_matrix,
    as_sift_array,
    common_scale_frame,
    semicalibrated_frame,
    solve_f_8pt,
    solver_info,
)


LO_MAX_ROUNDS = 10
LO_THRESHOLD_BOOST = 48.0


@dataclass(frozen=True)
class RansacConfig:
    confidence: float = 0.99
    max_iterations: int = 5000
    threshold: float = 0.75
    lo_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not self.threshold > 0.0:
            raise ValueError("threshold must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass
class RansacReport:
    model: object
    inliers: np.ndarray
    iterations_run: int
    models_scored: int
    wall_time: float
    score: float
    success: bool
    warnings: tuple = ()
    lo_rounds: int = 0


def required_iterations(inlier_ratio: float, sample_size: int, confidence: float) -> int:
    """Adaptive iteration bound ceil(log(1 - eta) / log(1 - eps^m))."""
    if inlier_ratio >= 1.0:
        return 0
    if inlier_ratio <= 0.0:
        return np.iinfo(np.int64).max
    miss = 1.0 - inlier_ratio ** sample_size
    if miss >= 1.0:
        return np.iinfo(np.int64).max
    denom = math.log(miss)
    if denom == 0.0:
        return np.iinfo(np.int64).max
    return int(math.ceil(math.log(1.0 - confidence) / denom))


def score_msac(errors: np.ndarray, threshold: float):
    """Truncated quadratic score (lower is better) and strict-inequality inliers.

    errors is one model's vector (n,) or a stack (k, n) of k models. One
    model gives a float score and the inlier indices; a stack gives the
    scores (k,) and a boolean inlier mask (k, n), row j bitwise equal to
    scoring model j alone.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    errors = np.asarray(errors, dtype=float)
    # min(e, t)^2 equals min(e^2, t^2) and cannot overflow
    squared = np.minimum(errors, threshold) ** 2
    scores = np.sum(squared, axis=-1)
    inliers = errors < threshold
    if errors.ndim == 1:
        return float(scores), np.nonzero(inliers)[0]
    return scores, inliers


def _pairwise_distance_squared(points: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowing distance is inf, never degenerate
        delta = points[:, None, :] - points[None, :, :]
        out = delta[..., 0] ** 2 + delta[..., 1] ** 2
    np.fill_diagonal(out, np.inf)
    return out


class _DegeneracyIndex:
    """Precomputed pairwise pixel distances for fast per-sample checks."""

    def __init__(self, pairs: np.ndarray, check_collinear: bool):
        self.d1 = _pairwise_distance_squared(pairs[:, 0:2])
        self.d2 = _pairwise_distance_squared(pairs[:, 2:4])
        self.pairs = pairs
        self.check_collinear = check_collinear

    def block(self, draws: np.ndarray) -> np.ndarray:
        """Vectorized usability mask over a block of index sets (B, m)."""
        rows = draws[:, :, None]
        cols = draws[:, None, :]
        bad = (self.d1[rows, cols].min(axis=(1, 2)) < 1.0)
        bad |= (self.d2[rows, cols].min(axis=(1, 2)) < 1.0)
        # fewer than three points are never collinear
        if self.check_collinear and draws.shape[1] >= 3:
            for offset in (0, 2):
                pts = self.pairs[draws][:, :, offset:offset + 2]
                centered = pts - pts.mean(axis=1, keepdims=True)
                a = np.einsum("bm,bm->b", centered[:, :, 0], centered[:, :, 0])
                b = np.einsum("bm,bm->b", centered[:, :, 0], centered[:, :, 1])
                c = np.einsum("bm,bm->b", centered[:, :, 1], centered[:, :, 1])
                disc = np.sqrt(np.maximum((a - c) ** 2 + 4.0 * b * b, 0.0))
                bad |= np.maximum(0.5 * (a + c - disc), 0.0) < 1e-12
        return ~bad


def sample_is_degenerate(pairs: np.ndarray, check_collinear: bool) -> bool:
    """Coincident points within one pixel in either image, or a collinear sample."""
    pairs = np.asarray(pairs, dtype=float)
    index = _DegeneracyIndex(pairs, check_collinear)
    return not index.block(np.arange(pairs.shape[0])[None])[0]


def _epipolar_errors(p1h: np.ndarray, p2h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Symmetric epipolar errors: (n,) for one matrix (3, 3), (k, n) for a stack (k, 3, 3).

    Non-finite errors (a vanishing or overflowing line normal, a non-finite
    model) map to inf.
    """
    stack = m if m.ndim == 3 else m[None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lines2 = p1h @ stack.transpose(0, 2, 1)
        lines1 = p2h @ stack
        residual = np.abs(np.einsum("ij,kij->ki", p2h, lines2))
        n1 = np.sqrt(lines1[..., 0] ** 2 + lines1[..., 1] ** 2)
        n2 = np.sqrt(lines2[..., 0] ** 2 + lines2[..., 1] ** 2)
        err = 0.5 * residual * (1.0 / n1 + 1.0 / n2)
    err = np.where(np.isfinite(err), err, np.inf)
    return err if m.ndim == 3 else err[0]


# ---------------------------------------------------------------------------
# Problem adapters: data plus solver family behind a uniform surface
# ---------------------------------------------------------------------------

class _EpipolarProblem:
    """Set-up, minimal solves, scoring and finalizing shared by the adapters.

    A subclass names its solver `family` and `min_lo_inliers` and passes a
    frame builder, which fixes the preconditioning from the pixel point
    pairs. The frame carries the data in once, gives `threshold_factor`
    (its scale: frame units per pixel of epipolar error) and maps the best
    raw model back out at finalize. Scoring is the symmetric epipolar error
    on the frame's `pairs`.
    """

    family: str
    min_lo_inliers: int

    def __init__(self, corr, solver_id: str, make_frame):
        info = solver_info(solver_id)
        if info.family != self.family:
            raise ValueError(f"{solver_id} is not a solver of the '{self.family}' family")
        corr = as_sift_array(corr)
        bad = int(np.count_nonzero(~np.isfinite(corr).all(axis=1)))
        if bad:
            raise ValueError(f"{bad} of {corr.shape[0]} correspondences hold non-finite values")
        has_features = corr.shape[1] == 8
        if info.uses_orientation and not has_features:
            raise ValueError(f"{solver_id} needs orientation/scale columns")
        pixel_pairs = corr[:, [0, 1, 4, 5]] if has_features else corr[:, :4]
        self.frame = make_frame(pixel_pairs)
        self.threshold_factor = self.frame.scale
        local = self.frame.local(corr if has_features else pixel_pairs)
        self.pairs = local[:, [0, 1, 4, 5]] if has_features else local
        self.feature_rows = sift_rows(local) if info.uses_orientation else None
        self.point_rows = epipolar_rows(self.pairs)
        ones = np.ones((self.pairs.shape[0], 1))
        self.p1h = np.hstack([self.pairs[:, :2], ones])
        self.p2h = np.hstack([self.pairs[:, 2:4], ones])
        self.info = info
        self.solver_id = solver_id
        self.sample_size = info.sample_size
        # collinear samples are degenerate only for the uncalibrated families
        self.sample_degenerate = _DegeneracyIndex(pixel_pairs, self.family != "e")

    @property
    def size(self) -> int:
        return self.pairs.shape[0]

    def solve_minimal_batch(self, idx_block: np.ndarray):
        """Raw models of each index set of a block (B, m); none where the core refuses it."""
        features = None if self.feature_rows is None else self.feature_rows[idx_block]
        rows = self.info.rows(self.point_rows[idx_block], features)
        return [[] if isinstance(result, Exception) else result
                for result in self.info.core(rows)]

    def errors(self, model) -> np.ndarray:
        return _epipolar_errors(self.p1h, self.p2h, _as_matrix(model))

    def block_errors(self, models) -> np.ndarray:
        """Errors (k, n) of k models in one vectorized pass."""
        return _epipolar_errors(self.p1h, self.p2h,
                                np.stack([_as_matrix(model) for model in models]))

    def finalize(self, model):
        return self.frame.model(model)


class FundamentalProblem(_EpipolarProblem):
    """Uncalibrated estimation; plug-in minimal solver f4sift or f7pt.

    Internally works in a shared-scale similarity frame; models are mapped
    back to pixel coordinates only when the report is finalized.
    """

    family = "f"
    min_lo_inliers = 8

    def __init__(self, corr, solver_id: str = "f4sift"):
        super().__init__(corr, solver_id, common_scale_frame)

    def refit(self, model, inlier_idx):
        if inlier_idx.shape[0] < self.min_lo_inliers:
            return None
        return solve_f_8pt(self.pairs[inlier_idx]).m


class EssentialProblem(_EpipolarProblem):
    """Calibrated estimation in normalized coordinates; e3sift or e5pt plug-in.

    The inlier threshold is divided by the mean of the four focal lengths, and
    all errors are evaluated on normalized point coordinates.
    """

    family = "e"
    min_lo_inliers = 6

    def __init__(self, corr, k1, k2, solver_id: str = "e3sift"):
        super().__init__(corr, solver_id, lambda pairs: CalibratedFrame(k1, k2))

    def refit(self, model, inlier_idx):
        # raw least-squares fit; scoring keeps the raw output and the manifold
        # projection happens once at finalize (a projected fit falls out of
        # the tight inlier band even when the underlying geometry is right)
        if inlier_idx.shape[0] < self.min_lo_inliers:
            return None
        if inlier_idx.shape[0] >= 8:
            return solve_f_8pt(self.pairs[inlier_idx]).m
        _, _, vt = np.linalg.svd(self.point_rows[inlier_idx])
        return vt[-1].reshape(3, 3)

    def finalize(self, model):
        return super().finalize(model).projected()


class FocalProblem(_EpipolarProblem):
    """Semi-calibrated estimation; ff3sift or ff6pt plug-in.

    Models travel as (matrix, focal) pairs in a frame centred on the shared
    principal point until finalized. There is no non-minimal semi-calibrated
    solver to refit with, so local optimization keeps the minimal models: an
    8-point F paired with its seed's focal length is not a consistent model.
    """

    family = "ff"
    min_lo_inliers = 8

    def __init__(self, corr, principal_point, solver_id: str = "ff3sift"):
        super().__init__(corr, solver_id,
                         lambda pairs: semicalibrated_frame(pairs, principal_point))

    def refit(self, model, inlier_idx):
        return None


def make_problem(solver_id: str, corr, k1=None, k2=None, principal_point=None):
    info = solver_info(solver_id)
    if info.family == "f":
        return FundamentalProblem(corr, solver_id)
    if info.family == "e":
        if k1 is None or k2 is None:
            raise ValueError("essential-matrix estimation needs both intrinsics")
        return EssentialProblem(corr, k1, k2, solver_id)
    if principal_point is None:
        raise ValueError("semi-calibrated estimation needs the shared principal point")
    return FocalProblem(corr, principal_point, solver_id)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

def local_optimize(problem, model, inliers: np.ndarray, threshold: float):
    """Iterated least-squares refinement on the re-collected inlier set.

    Each round refits with the non-minimal solver on inliers gathered at an
    annealed threshold (boosted at first, shrinking to the true one), which
    lets a mediocre minimal model recruit enough true inliers to escape its
    starting basin. The best model under the true-threshold score is kept;
    iteration stops at an inlier-set fixpoint or after LO_MAX_ROUNDS. Returns
    (model, score, inliers, rounds, score_history, warning).
    """
    errors = problem.errors(model)
    best_score, best_inliers = score_msac(errors, threshold)
    current = np.nonzero(errors < LO_THRESHOLD_BOOST * threshold)[0]
    if current.shape[0] < problem.min_lo_inliers:
        return model, best_score, best_inliers, 0, [best_score], "insufficient inliers"
    best_model = model
    fit_model = model
    history = [best_score]
    rounds = 0
    previous = None
    for round_idx in range(LO_MAX_ROUNDS):
        if current.shape[0] < problem.min_lo_inliers:
            break
        try:
            refined = problem.refit(fit_model, current)
        except (SolverError, ValueError):
            break
        if refined is None:
            break
        rounds += 1
        errors = problem.errors(refined)
        score, strict_inliers = score_msac(errors, threshold)
        if score < best_score:
            best_score = score
            best_model = refined
            best_inliers = strict_inliers
        history.append(best_score)
        fit_model = refined
        boost = max(1.0, LO_THRESHOLD_BOOST * 0.5 ** (round_idx + 1))
        collected = np.nonzero(errors < boost * threshold)[0]
        if previous is not None and boost == 1.0 and np.array_equal(collected, previous):
            break
        previous = collected
        current = collected
    return best_model, best_score, best_inliers, rounds, history, None


def ransac(problem, config: RansacConfig = RansacConfig()) -> RansacReport:
    """Best truncated-quadratic model with adaptive termination.

    Deterministic for a fixed seed: sampling, scoring order, and the
    best-model update are all sequential.
    """
    n = problem.size
    m = problem.sample_size
    if n < m:
        raise ValueError(f"need at least {m} correspondences, got {n}")
    rng = np.random.default_rng(config.seed)
    threshold = config.threshold * problem.threshold_factor

    start = time.perf_counter()
    best_model = None
    best_score = math.inf
    best_inliers = np.empty(0, dtype=int)
    models_scored = 0
    lo_rounds_total = 0
    warnings = []
    iterations = 0
    needed = config.max_iterations

    block_size = 16
    queue: list = []

    def refill():
        # draw, solve and score a whole block at once; the loop below
        # consumes it sample by sample, in draw order
        keys = rng.random((block_size, n))
        draws = np.argpartition(keys, min(m, n - 1), axis=1)[:, :m]
        usable = problem.sample_degenerate.block(draws)
        solved = [[] for _ in range(block_size)]
        if np.any(usable):
            block = problem.solve_minimal_batch(draws[usable])
            for slot, models in zip(np.nonzero(usable)[0], block):
                solved[slot] = models
        flat = [model for models in solved for model in models]
        if not flat:
            queue.extend([None] * block_size)
            return
        scores, masks = score_msac(problem.block_errors(flat), threshold)
        counts = np.count_nonzero(masks, axis=1)
        entries = []
        start = 0
        for models in solved:
            stop = start + len(models)
            entries.append((models, scores[start:stop], counts[start:stop],
                            masks[start:stop]) if models else None)
            start = stop
        queue.extend(entries[::-1])

    while iterations < min(needed, config.max_iterations):
        iterations += 1
        if not queue:
            refill()
        entry = queue.pop()
        if entry is None:
            continue
        improved = False
        for model, score, count, mask in zip(*entry):
            models_scored += 1
            if score < best_score and count >= m:
                best_model, best_score = model, float(score)
                best_inliers = np.nonzero(mask)[0]
                improved = True
        if improved and config.lo_enabled:
            lo_model, lo_score, lo_inliers, rounds, _, warn = local_optimize(
                problem, best_model, best_inliers, threshold)
            models_scored += rounds
            lo_rounds_total += rounds
            if warn and warn not in warnings:
                warnings.append(warn)
            if lo_score < best_score:
                best_model, best_score, best_inliers = lo_model, lo_score, lo_inliers
        if improved:
            ratio = best_inliers.shape[0] / n
            needed = required_iterations(ratio, m, config.confidence)

    wall = time.perf_counter() - start
    if best_model is None:
        return RansacReport(model=None, inliers=np.empty(0, dtype=int),
                            iterations_run=iterations, models_scored=models_scored,
                            wall_time=wall, score=math.inf, success=False,
                            warnings=("no model found",), lo_rounds=lo_rounds_total)
    return RansacReport(model=problem.finalize(best_model), inliers=best_inliers,
                        iterations_run=iterations, models_scored=models_scored,
                        wall_time=wall, score=best_score, success=True,
                        warnings=tuple(warnings), lo_rounds=lo_rounds_total)
