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

from .errors import SolverError
from .geometry import _as_matrix
from .solvers import as_pair_array, as_sift_array, frame_rows, solve_f_8pt, solve_rows, solver_info


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


def degenerate_draws(pairs: np.ndarray, draws: np.ndarray, check_collinear: bool) -> np.ndarray:
    """Degeneracy mask (B,) of a block of index sets (B, m) into pixel pairs (n, 4).

    A set is degenerate when two of its points, a repeated index included,
    lie within one pixel in either image, or when check_collinear is set and
    its points are collinear in either image: the smaller eigenvalue of
    their scatter is at most 1e-12 of the larger. Only the drawn points are
    read.
    """
    order = np.arange(draws.shape[1])
    first, second = np.nonzero(order[:, None] < order)
    with np.errstate(over="ignore"):  # an overflowing distance is inf, never degenerate
        delta = (pairs[draws[:, first]] - pairs[draws[:, second]]) ** 2
        distance = delta[..., 0::2] + delta[..., 1::2]
    bad = (distance < 1.0).any(axis=(1, 2))
    # fewer than three points are never collinear; even columns hold x, odd ones y
    if check_collinear and draws.shape[1] >= 3:
        pts = pairs[draws]
        centered = pts - pts.mean(axis=1, keepdims=True)
        x, y = centered[:, :, 0::2], centered[:, :, 1::2]
        a = np.einsum("bmk,bmk->bk", x, x)
        b = np.einsum("bmk,bmk->bk", x, y)
        c = np.einsum("bmk,bmk->bk", y, y)
        disc = np.sqrt(np.maximum((a - c) ** 2 + 4.0 * b * b, 0.0))
        bad |= (a + c - disc <= 1e-12 * (a + c + disc)).any(axis=1)
    return bad


def _epipolar_errors(p1h: np.ndarray, p2h: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Symmetric epipolar errors (k, n) of a stack of matrices (k, 3, 3).

    Non-finite errors (a vanishing or overflowing line normal, a non-finite
    model) map to inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lines2 = p1h @ stack.transpose(0, 2, 1)
        lines1 = p2h @ stack
        residual = np.abs(np.einsum("ij,kij->ki", p2h, lines2))
        n1 = np.sqrt(lines1[..., 0] ** 2 + lines1[..., 1] ** 2)
        n2 = np.sqrt(lines2[..., 0] ** 2 + lines2[..., 1] ** 2)
        err = 0.5 * residual * (1.0 / n1 + 1.0 / n2)
    return np.where(np.isfinite(err), err, np.inf)


# ---------------------------------------------------------------------------
# Problem adapters: data plus solver family behind a uniform surface
# ---------------------------------------------------------------------------

class _EpipolarProblem:
    """Set-up, minimal solves, scoring and finalizing shared by the adapters.

    A subclass sets `min_lo_inliers` and may replace the eight-point refit.
    The solver's registry entry fixes the preconditioning:
    solvers.frame_rows carries the data into its frame once and builds the
    constraint rows there. The frame gives `threshold_factor` (its scale:
    frame units per pixel of epipolar error) and maps the best raw model
    back out at finalize. Scoring is the symmetric epipolar error on the
    frame's `pairs`.
    """

    min_lo_inliers: int

    def __init__(self, corr, solver_id: str, k1=None, k2=None, principal_point=None):
        info = solver_info(solver_id)
        if not isinstance(self, _ADAPTERS[info.family]):
            raise ValueError(f"{solver_id} is not a solver of {type(self).__name__}")
        corr = as_sift_array(corr)
        self.frame, self.pairs, self.point_rows, self.feature_rows = frame_rows(
            info, corr, k1, k2, principal_point)
        self.threshold_factor = self.frame.scale
        ones = np.ones((self.pairs.shape[0], 1))
        self.p1h = np.hstack([self.pairs[:, :2], ones])
        self.p2h = np.hstack([self.pairs[:, 2:4], ones])
        self.info = info
        self.sample_size = info.sample_size
        self.pixel_pairs = as_pair_array(corr)

    @property
    def size(self) -> int:
        return self.pairs.shape[0]

    def solve_minimal_batch(self, idx_block: np.ndarray):
        """Raw models of each index set of a block (B, m); none where the core refuses it."""
        features = None if self.feature_rows is None else self.feature_rows[idx_block]
        return [[] if isinstance(result, Exception) else result
                for result in solve_rows(self.info, self.point_rows[idx_block], features)]

    def errors(self, model) -> np.ndarray:
        return self.block_errors([model])[0]

    def block_errors(self, models) -> np.ndarray:
        """Errors (k, n) of k models in one vectorized pass."""
        return _epipolar_errors(self.p1h, self.p2h,
                                np.stack([_as_matrix(model) for model in models]))

    def refit(self, inlier_idx):
        """Least-squares eight-point F of the inliers' frame pairs (at least 8)."""
        return solve_f_8pt(self.pairs[inlier_idx]).m

    def finalize(self, model):
        return self.frame.model(model)


class FundamentalProblem(_EpipolarProblem):
    """Uncalibrated estimation; plug-in minimal solver f4sift or f7pt.

    Internally works in a shared-scale similarity frame; models are mapped
    back to pixel coordinates only when the report is finalized.
    """

    min_lo_inliers = 8


class EssentialProblem(_EpipolarProblem):
    """Calibrated estimation in normalized coordinates; e3sift or e5pt plug-in.

    The inlier threshold is divided by the mean of the four focal lengths, and
    all errors are evaluated on normalized point coordinates.
    """

    min_lo_inliers = 6

    def refit(self, inlier_idx):
        # raw least-squares fit; scoring keeps the raw output and the manifold
        # projection happens once at finalize (a projected fit falls out of
        # the tight inlier band even when the underlying geometry is right);
        # below eight inliers, the unit null vector of their point rows
        if inlier_idx.shape[0] >= 8:
            return super().refit(inlier_idx)
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

    min_lo_inliers = 8

    def refit(self, inlier_idx):
        return None


_ADAPTERS = {"f": FundamentalProblem, "e": EssentialProblem, "ff": FocalProblem}


def make_problem(solver_id: str, corr, k1=None, k2=None, principal_point=None):
    """The adapter of the solver's family; its frame needs k1 and k2 (e) or principal_point (ff)."""
    return _ADAPTERS[solver_info(solver_id).family](corr, solver_id, k1, k2, principal_point)


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
    history = [best_score]
    rounds = 0
    for round_idx in range(LO_MAX_ROUNDS):
        if current.shape[0] < problem.min_lo_inliers:
            break
        try:
            refined = problem.refit(current)
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
        boost = max(1.0, LO_THRESHOLD_BOOST * 0.5 ** (round_idx + 1))
        collected = np.nonzero(errors < boost * threshold)[0]
        # a fixpoint: the refit re-collects the set it was fitted to
        if boost == 1.0 and np.array_equal(collected, current):
            break
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
    while iterations < min(needed, config.max_iterations):
        # draw, solve and score a whole block at once, then take its samples
        # in draw order until the stop condition holds
        keys = rng.random((block_size, n))
        draws = np.argpartition(keys, min(m, n - 1), axis=1)[:, :m]
        usable = ~degenerate_draws(problem.pixel_pairs, draws, problem.info.collinear_degenerate)
        solved = [[] for _ in range(block_size)]
        if usable.any():
            block = problem.solve_minimal_batch(draws[usable])
            for slot, models in zip(np.nonzero(usable)[0], block):
                solved[slot] = models
        flat = [model for models in solved for model in models]
        if flat:
            scores, masks = score_msac(problem.block_errors(flat), threshold)
            counts = np.count_nonzero(masks, axis=1)
        offset = 0
        for models in solved:
            if iterations >= min(needed, config.max_iterations):
                break
            iterations += 1
            improved = False
            for j in range(offset, offset + len(models)):
                models_scored += 1
                if scores[j] < best_score and counts[j] >= m:
                    best_model, best_score = flat[j], float(scores[j])
                    best_inliers = np.nonzero(masks[j])[0]
                    improved = True
            offset += len(models)
            if not improved:
                continue
            if config.lo_enabled:
                lo_model, lo_score, lo_inliers, rounds, _, warn = local_optimize(
                    problem, best_model, best_inliers, threshold)
                models_scored += rounds
                lo_rounds_total += rounds
                if warn and warn not in warnings:
                    warnings.append(warn)
                if lo_score < best_score:
                    best_model, best_score, best_inliers = lo_model, lo_score, lo_inliers
            needed = required_iterations(best_inliers.shape[0] / n, m, config.confidence)

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
