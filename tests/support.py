"""Test support: the affinity -> orientation/scale oracle, scalar references, the fixed-block RANSAC loop and CLI output readers."""
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from siftpose import _poly
from siftpose.constraints import circle_compatible_angles
from siftpose.errors import DegenerateSampleError, IllConditionedSampleError, ParseError
from siftpose.fileio import BENCHMARK_COLUMNS, BenchmarkRow
from siftpose.robust import (
    RansacConfig,
    RansacReport,
    degenerate_draws,
    local_optimize,
    required_iterations,
    score_msac,
)
from siftpose.solvers import (
    DEGENERACY_RTOL,
    _norm,
    _polish_batch,
    _same_focal_model,
    real_cubic_roots,
)

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    a = math.fmod(float(angle), TWO_PI)
    return a + TWO_PI if a < 0.0 else a


class MirroredFeatureError(ValueError):
    """Affine map is orientation-reversing (det <= 0), outside the feature model."""


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


CONSISTENT_SIFT_TRIES = 64  # draws of p1, and of the affinity for each p1


def make_consistent_sift(f, rng, point_scale: float = 500.0):
    """Sample a feature correspondence exactly consistent with a rank-2 F.

    p1 is drawn at random, p2 is placed on its epipolar line, the affinity is
    drawn from the two-parameter family satisfying both affine rows with
    det A > 0, and the second-image orientation/scale follow from the
    affinity. Returns (packed row (8,), affinity (2, 2)); the feature,
    point and affine rows of the result annihilate vec(F) to roundoff.
    """
    m = f.m if hasattr(f, "m") else np.asarray(f, dtype=float)
    scale = np.linalg.norm(m)
    for _ in range(CONSISTENT_SIFT_TRIES):
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
        for _ in range(CONSISTENT_SIFT_TRIES):
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


def scalar_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """One cubic's real roots, branch by branch in Python floats.

    The reference for the batched solvers.real_cubic_roots: the same closed
    form, guarded Newton step and 1e-9 de-duplication, one root at a time.
    """
    coeffs = np.array([c3, c2, c1, c0], dtype=float)
    top = np.max(np.abs(coeffs))
    if top == 0.0:
        return []
    c3, c2, c1, c0 = coeffs / top
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
                roots = [0.0] if qq == 0.0 else [qq / c2, c0 / qq]
    else:
        b, c, d = c2 / c3, c1 / c3, c0 / c3
        shift = b / 3.0
        p = c - b * b / 3.0
        q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
        disc = -4.0 * p ** 3 - 27.0 * q * q
        if abs(p) < 1e-14 and abs(q) < 1e-14:
            roots = [-shift]
        elif disc >= 0.0 and p < 0.0:
            rad = 2.0 * math.sqrt(-p / 3.0)
            phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * rad))))
            roots = [rad * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)]
        else:
            rad = math.sqrt(max(q * q / 4.0 + p ** 3 / 27.0, 0.0))
            t = math.copysign(abs(-q / 2.0 + rad) ** (1.0 / 3.0), -q / 2.0 + rad)
            u = math.copysign(abs(-q / 2.0 - rad) ** (1.0 / 3.0), -q / 2.0 - rad)
            roots = [t + u - shift]
    unique: list[float] = []
    for x in roots:
        val = ((c3 * x + c2) * x + c1) * x + c0
        der = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if der != 0.0:
            step = x - val / der
            if abs(((c3 * step + c2) * step + c1) * step + c0) < abs(val):
                x = step
        if all(abs(x - y) > 1e-9 * (1.0 + abs(x)) for y in unique):
            unique.append(x)
    return unique


def two_buffer_epipolar_errors(p1h: np.ndarray, p2h: np.ndarray,
                               stack: np.ndarray) -> np.ndarray:
    """geometry.epipolar_error_stack as written before it reused one line buffer.

    The reference for that kernel: the same arithmetic on two fresh (k, n, 3)
    line arrays and their squares.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lines2 = p1h @ stack.transpose(0, 2, 1)
        lines1 = p2h @ stack
        residual = np.abs(np.einsum("ij,kij->ki", p2h, lines2))
        n1 = np.sqrt(lines1[..., 0] ** 2 + lines1[..., 1] ** 2)
        n2 = np.sqrt(lines2[..., 0] ** 2 + lines2[..., 1] ** 2)
        err = 0.5 * residual * (1.0 / n1 + 1.0 / n2)
    bad = ~np.isfinite(err)
    if bad.any():
        on_one_epipole = (residual[bad] == 0.0) & ((n1[bad] == 0.0) != (n2[bad] == 0.0))
        err[bad] = np.where(on_one_epipole, 0.0, np.inf)
    return err


def fixed_block_ransac(problem, config: RansacConfig = RansacConfig()) -> RansacReport:
    """robust.ransac as written before its blocks grew with the run.

    The reference for the block schedule: every block draws, solves and
    scores exactly 16 samples, whatever the stop and the data size.
    """
    n = problem.size
    m = problem.sample_size
    if n < m:
        raise ValueError(f"need at least {m} correspondences, got {n}")
    threshold = config.threshold * problem.threshold_factor
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold is {threshold} in the solver frame, not finite and positive")
    rng = np.random.default_rng(config.seed)

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


def nullspace(rows: np.ndarray, dim: int) -> np.ndarray:
    """Trailing right singular vectors spanning an expected null space.

    Raises DegenerateSampleError when the system has more than ``dim``
    near-zero directions relative to the largest singular value. The scalar
    references' null-space step: solvers.solve_rows does it for a batch.
    """
    rows = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(rows)
    kept = rows.shape[1] - dim
    if kept > 0 and (s[0] == 0.0 or (len(s) >= kept and s[kept - 1] < DEGENERACY_RTOL * s[0])):
        raise DegenerateSampleError(
            f"constraint system rank below {kept}; sample does not determine the model")
    return vt[rows.shape[1] - dim:]


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


def scalar_e3sift_start(rows: np.ndarray):
    """Front of the e3sift core on one 6x9 sample; raises when it refuses the sample.

    The reference for the batched solvers._e3sift_front: null space,
    np.linalg.lstsq and the alpha-major candidate grid, one sample at a
    time. Returns the null-space pencil (3, 3, 3), the constraint system
    (10, 10), the monomial solution y and the Gauss-Newton start (alpha, beta).
    The rows must be finite.
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
    with np.errstate(over="ignore", invalid="ignore"):
        r = _poly.bivariate_monomials_batch(grid) @ system[:9].T
        # basis vectors are orthonormal, so the combination's norm is direct
        res = np.einsum("gi,gi->g", r, r) / (np.einsum("gi,gi->g", grid, grid) + 1.0) ** 3
    return pencil, system, y, grid[np.argmin(np.where(np.isnan(res), np.inf, res))]


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


def scalar_semicalibrated_rows(rows: np.ndarray):
    """The seed-demixing semi-calibrated core on one sample, candidate by candidate in Python.

    The oracle for solvers.semicalibrated_candidates_batch: the algorithm
    that core replaced, kept as it was, with each candidate checked against
    every earlier one in a Python loop. It reads its roots from a
    generalized eigenvalue problem and its seeds from demixed singular
    vectors (_demixed_monomial_vectors), where the batched core reads both
    from eigenvectors.

    rows constrain F in coordinates where the shared principal point is the
    origin. Solves for F(x, y) in the three-dimensional null space and the
    inverse squared focal length w through the quadratic eigenvalue problem
    of the trace constraint. Candidate (x, y, w) triples from each root are
    polished together by one lockstep Gauss-Newton on the trace and
    determinant rows. In candidate order, a candidate whose start lies
    within 2e-3 of an accepted polished state is dropped, and a polished one
    is accepted when its w is above 1e-14 and the residual of its unit-norm
    F is at most 1e-8. Accepted solutions that are one model
    (_same_focal_model: the (x, y, w) gauge of the null space plays no
    part) are merged into the one with the smaller residual. Returns a list
    of (F 3x3, focal, residual) sorted by residual, at most fifteen entries.
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

    # re-solve w from the trace rows at each seed's (x, y); eigenvalues are
    # unreliable when two roots cluster in w
    null_vectors = []
    for x, y, _ in seeds:
        mono = _poly.bivariate_monomials_batch(np.array([[x, y]]))[0]
        quad = np.stack([m2 @ mono, m1 @ mono, m0 @ mono], axis=1)
        null_vectors.append(np.linalg.svd(quad)[2])
    # rank-1 stack (all nine quadratics share both roots): the dominant
    # direction carries the shared quadratic's coefficients
    shared, found = real_cubic_roots(
        np.array([np.append(0.0, qvt[0]) for qvt in null_vectors]).reshape(-1, 4))
    for (x, y, w), qvt, roots, keep in zip(seeds, null_vectors, shared, found):
        push_candidate(x, y, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            # rank-2 stack: the null vector is the monomial vector (w^2, w, 1)
            for w_new in (qvt[-1][1] / qvt[-1][2], qvt[-1][0] / qvt[-1][1]):
                if np.isfinite(w_new):
                    push_candidate(x, y, float(w_new))
        for w_new in roots[keep]:
            push_candidate(x, y, float(w_new))

    if not candidates:
        return []
    system = np.broadcast_to(np.hstack([a0, a1, a2]), (len(candidates), 10, 30))
    polished, residuals = _polish_batch(system, np.array(candidates),
                                        _poly.SEMICALIBRATED_BASIS, 14)
    solutions: list[np.ndarray] = []
    results: list = []
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
        solutions.append(sol)
        model = (f / norm, 1.0 / math.sqrt(w), res_size)
        same = next((k for k, kept in enumerate(results) if _same_focal_model(kept, model)), None)
        if same is None:
            results.append(model)
        elif res_size < results[same][2]:
            results[same] = model

    results.sort(key=lambda item: item[2])
    return results[:15]


def read_solutions(path) -> tuple[str, list[dict]]:
    problem = ""
    models: list[dict] = []
    current: dict | None = None
    with open(path) as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            key, _, rest = text.partition(" ")
            if key == "problem":
                problem = rest.strip()
            elif key == "solutions":
                continue
            elif key == "solution":
                current = {}
                models.append(current)
            elif key == "F":
                current["matrix"] = np.array([float(v) for v in rest.split()]).reshape(3, 3)
            else:
                current[key] = float(rest)
    return problem, models


def read_benchmark_rows(path) -> list[BenchmarkRow]:
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if lineno == 1 and text.startswith("pair_id"):
                if text != ",".join(BENCHMARK_COLUMNS):
                    raise ParseError("unexpected benchmark header", path=str(path), line=1)
                continue
            parts = text.split(",")
            try:
                if len(parts) != len(BENCHMARK_COLUMNS):
                    raise ValueError("wrong column count")
                rows.append(BenchmarkRow(parts[0], parts[1], *map(float, parts[2:6]),
                                         *map(int, parts[6:9]), parts[9]))
            except ValueError:
                raise ParseError("malformed benchmark row", path=str(path),
                                 line=lineno) from None
    return rows
