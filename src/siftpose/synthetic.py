"""Fully controlled scene generation, noise injection, and solver studies.

Scenes hold two cameras on a randomly sized origin-centered sphere looking at
the origin, points on two random planes, plane homographies estimated from
four projected points with the normalized DLT, local affinities linearized
from those homographies, and feature orientations/scales derived from a
random first-image frame. Every clean correspondence satisfies the point,
affine, and feature constraint rows of the ground-truth model to roundoff,
which is what makes the scenes usable as test oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constraints import (affine_jacobians_of_homography, circle_compatible_angles,
                          epipolar_rows, normalized_residuals, sift_rows)
from .errors import SolverError
from .geometry import (
    CameraIntrinsics,
    EssentialMatrix,
    FundamentalMatrix,
    RelativePose,
    fundamental_from_essential,
    fundamental_from_pose,
    relative_pose_between,
    symmetric_epipolar_errors,
)
from .parallel import pool_map, resolve_workers
from .solvers import (
    FocalModel,
    _apply_similarity,
    _hartley_similarity,
    _norm,
    run_minimal_solver,
    solver_info,
)

SPHERE_RADIUS_RANGE = (0.1, 10.0)
FOCAL_RANGE = (600.0, 1200.0)
IMAGE_SIZE = (1200.0, 800.0)
MAX_REGEN = 200  # scene draws before generate_scene gives up
PLANE_TRIES = 40  # plane draws before a scene draw is rejected


@dataclass(frozen=True)
class SyntheticConfig:
    plane_count: int = 2
    points_per_plane: int = 10

    def __post_init__(self):
        if self.plane_count < 2:
            raise ValueError("at least two planes are needed for a well-posed model")


@dataclass(frozen=True)
class SyntheticScene:
    config: SyntheticConfig
    k1: CameraIntrinsics
    k2: CameraIntrinsics
    p1: np.ndarray  # 3x4 projection matrices
    p2: np.ndarray
    pose: RelativePose
    f: FundamentalMatrix
    e: EssentialMatrix
    focal: float
    homographies: tuple
    dlt_image1: tuple       # per plane: (4, 2) projections initializing the DLT
    dlt_image2: tuple
    plane_ids: np.ndarray       # (n,)
    correspondences: np.ndarray  # (n, 8) packed (u1 v1 q1 a1 u2 v2 q2 a2)
    affinities: np.ndarray       # (n, 2, 2)
    frame1: np.ndarray           # (n, 4) first-image (alpha, qu, qv, w)
    noise_sigma: float = 0.0     # pixel noise of add_noise

    @property
    def pairs(self) -> np.ndarray:
        return self.correspondences[:, [0, 1, 4, 5]]

    @property
    def principal_point(self) -> np.ndarray:
        return np.array([self.k1.cx, self.k1.cy])


# Scene generation retries planes many times per scene; these 3-vector
# kernels skip the generic dispatch of np.linalg.norm and np.cross and do the
# same floating-point operations.
def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _look_at(center: np.ndarray, rng, target=None) -> tuple[np.ndarray, np.ndarray]:
    """World-to-camera rotation/translation for a camera at `center` facing `target`."""
    aim = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    z = _unit(aim - center)
    while True:
        up = rng.standard_normal(3)
        up -= (up @ z) * z
        norm = np.linalg.norm(up)
        if norm > 1e-6:
            up /= norm
            break
    x = _unit(_cross(up, z))
    y = _cross(z, x)
    rotation = np.stack([x, y, z])
    return rotation, -rotation @ center


def _project(p: np.ndarray, world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = np.hstack([world, np.ones((world.shape[0], 1))]) @ p.T
    return h[:, :2] / h[:, 2:3], h[:, 2]


def _normalized_dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Homography from four (or more) point pairs with Hartley conditioning."""
    t1, t2 = _hartley_similarity(src), _hartley_similarity(dst)
    a = _apply_similarity(src, t1)
    b = _apply_similarity(dst, t2)
    rows = np.zeros((2 * a.shape[0], 9))
    rows[0::2, 0] = a[:, 0]
    rows[0::2, 1] = a[:, 1]
    rows[0::2, 2] = 1.0
    rows[0::2, 6] = -a[:, 0] * b[:, 0]
    rows[0::2, 7] = -a[:, 1] * b[:, 0]
    rows[0::2, 8] = -b[:, 0]
    rows[1::2, 3] = a[:, 0]
    rows[1::2, 4] = a[:, 1]
    rows[1::2, 5] = 1.0
    rows[1::2, 6] = -a[:, 0] * b[:, 1]
    rows[1::2, 7] = -a[:, 1] * b[:, 1]
    rows[1::2, 8] = -b[:, 1]
    _, _, vt = np.linalg.svd(rows)
    h = np.linalg.inv(t2) @ vt[-1].reshape(3, 3) @ t1
    return h / np.linalg.norm(h)


def _rotations(angles: np.ndarray) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty((angles.shape[0], 2, 2))
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


def _compatible_first_angles(affinities: np.ndarray, rng) -> np.ndarray:
    """Random first-image orientations consistent with each affinity.

    Draws one of the two null lines of circle_compatible_angles and one of
    its two directions; similarities impose no restriction.
    """
    lines, free = circle_compatible_angles(affinities)
    n = affinities.shape[0]
    sign = rng.choice([-1.0, 1.0], size=n)
    angles = np.where(sign > 0.0, lines[:, 0], lines[:, 1])
    angles = angles + rng.choice([0.0, math.pi], size=n)
    angles = np.mod(angles, 2.0 * math.pi)
    if np.any(free):
        angles[free] = rng.uniform(0.0, 2.0 * math.pi, int(np.sum(free)))
    return angles


def _second_frame(affinities: np.ndarray, frame1: np.ndarray):
    """Map the first-image feature frame through the affinities.

    frame1 columns are (alpha1, qu1, qv1, w1). Builds J1 from the
    rotation-times-triangular model, forms J2 = A J1, and reads the
    second-image angle off J2's first column; scales come from determinant
    square roots. Returns (alpha2, q1, q2).
    """
    alpha1, qu1, qv1, w1 = frame1.T
    j1 = np.zeros((frame1.shape[0], 2, 2))
    j1[:, 0, 0] = qu1
    j1[:, 0, 1] = w1
    j1[:, 1, 1] = qv1
    j1 = _rotations(alpha1) @ j1
    j2 = affinities @ j1
    alpha2 = np.mod(np.arctan2(j2[:, 1, 0], j2[:, 0, 0]), 2.0 * math.pi)
    q1 = np.sqrt(qu1 * qv1)
    det2 = j2[:, 0, 0] * j2[:, 1, 1] - j2[:, 0, 1] * j2[:, 1, 0]
    q2 = np.sqrt(det2)
    return alpha2, q1, q2


def generate_scene(config: SyntheticConfig, rng) -> SyntheticScene:
    """Draw a scene; regenerates on degenerate draws up to MAX_REGEN times."""
    for _ in range(MAX_REGEN):
        scene = _try_generate(config, rng)
        if scene is not None:
            return scene
    raise SolverError("scene generation exceeded the regeneration cap")


def _try_generate(config: SyntheticConfig, rng):
    radius = rng.uniform(*SPHERE_RADIUS_RANGE)
    c1 = _unit(rng.standard_normal(3)) * radius
    c2 = _unit(rng.standard_normal(3)) * radius
    if np.linalg.norm(c1 - c2) < 1e-3 * radius:
        return None
    # aiming both cameras exactly at one point makes the optical axes
    # intersect, which leaves a shared focal length unobservable; jittered
    # targets keep the scene in view without that degeneracy
    r1, t1 = _look_at(c1, rng, target=rng.uniform(-0.5, 0.5, 3))
    r2, t2 = _look_at(c2, rng, target=rng.uniform(-0.5, 0.5, 3))

    focal = rng.uniform(*FOCAL_RANGE)
    width, height = IMAGE_SIZE
    k = CameraIntrinsics(focal, focal, 0.5 * width, 0.5 * height)
    km = k.matrix()
    p1 = km @ np.hstack([r1, t1[:, None]])
    p2 = km @ np.hstack([r2, t2[:, None]])

    plane_data = []
    for _ in range(config.plane_count):
        plane = _try_plane(config, rng, c1, c2, p1, p2)
        if plane is None:
            return None
        plane_data.append(plane)

    pts1 = np.vstack([p["pts1"] for p in plane_data])
    pts2 = np.vstack([p["pts2"] for p in plane_data])
    affinities = np.vstack([p["jac"] for p in plane_data])
    plane_ids = np.repeat(np.arange(config.plane_count), config.points_per_plane)
    homographies = [p["h"] for p in plane_data]
    dlt_img1 = [p["d1"] for p in plane_data]
    dlt_img2 = [p["d2"] for p in plane_data]
    n = pts1.shape[0]

    # reject draws with an epipole inside the projected point cloud
    for pmat, other_center, pts in ((p1, c2, pts1), (p2, c1, pts2)):
        eh = pmat @ np.append(other_center, 1.0)
        if abs(eh[2]) > 1e-12:
            epipole = eh[:2] / eh[2]
            if np.min(np.linalg.norm(pts - epipole, axis=1)) < 5.0:
                return None

    frame1 = np.stack([
        _compatible_first_angles(affinities, rng),
        rng.uniform(0.5, 2.0, n),
        rng.uniform(0.5, 2.0, n),
        rng.uniform(-0.5, 0.5, n),
    ], axis=1)
    alpha2, q1, q2 = _second_frame(affinities, frame1)

    corr = np.empty((n, 8))
    corr[:, 0:2] = pts1
    corr[:, 2] = q1
    corr[:, 3] = frame1[:, 0]
    corr[:, 4:6] = pts2
    corr[:, 6] = q2
    corr[:, 7] = alpha2

    pose = relative_pose_between(r1, t1, r2, t2)
    f_gt = fundamental_from_pose(pose.rotation, pose.translation, k, k)
    e_gt = EssentialMatrix.from_array(k.matrix().T @ f_gt.m @ k.matrix())

    rows = np.vstack([epipolar_rows(corr[:, [0, 1, 4, 5]]), sift_rows(corr)])
    if np.max(normalized_residuals(rows, f_gt.flat())) > 1e-10:
        return None

    return SyntheticScene(
        config=config, k1=k, k2=k, p1=p1, p2=p2, pose=pose, f=f_gt, e=e_gt,
        focal=focal, homographies=tuple(homographies), dlt_image1=tuple(dlt_img1),
        dlt_image2=tuple(dlt_img2), plane_ids=np.asarray(plane_ids), correspondences=corr,
        affinities=affinities, frame1=frame1,
    )


def _try_plane(config: SyntheticConfig, rng, c1, c2, p1, p2):
    """One plane with visible, well-conditioned points, or None.

    Rejects grazing planes (the affinity noise channel blows up and no real
    detector would fire there), points behind either camera, mirrored
    affinities (cameras on opposite sides), and clustered or near-collinear
    homography quadruples whose re-estimation would be hypersensitive to
    noise.
    """
    for _ in range(PLANE_TRIES):
        normal = _unit(rng.standard_normal(3))
        offset = rng.uniform(0.0, 1.0)
        center = offset * normal
        if any(abs(_unit(cam - center) @ normal) < 0.25 for cam in (c1, c2)):
            continue
        seed_dir = _unit(rng.standard_normal(3))
        while abs(seed_dir @ normal) > 0.99:
            seed_dir = _unit(rng.standard_normal(3))
        b1 = _unit(_cross(normal, seed_dir))
        b2 = _cross(normal, b1)

        uv = rng.uniform(-1.0, 1.0, size=(config.points_per_plane + 4, 2))
        world = center + uv[:, :1] * b1 + uv[:, 1:] * b2
        img1, z1 = _project(p1, world)
        img2, z2 = _project(p2, world)
        if np.any(z1 < 1e-4) or np.any(z2 < 1e-4):
            continue
        d1, d2 = img1[-4:], img2[-4:]
        ok = True
        for quad in (d1, d2):
            spread = quad - quad.mean(axis=0)
            s = np.linalg.svd(spread, compute_uv=False)
            if s[1] < 0.2 * s[0] or s[0] < 1e-9:
                ok = False
        if not ok:
            continue
        h = _normalized_dlt_homography(d1, d2)
        proj, jac = affine_jacobians_of_homography(h, img1[:-4])
        if np.max(np.abs(proj - img2[:-4])) > 1e-6:
            continue  # DLT disagreed with the direct projection
        dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(dets <= 1e-12):
            continue
        return {"pts1": img1[:-4], "pts2": img2[:-4], "jac": jac, "h": h, "d1": d1, "d2": d2}
    return None


def add_noise(scene: SyntheticScene, sigma: float, rng) -> SyntheticScene:
    """Gaussian pixel noise on points; affinities re-derived from a re-estimated DLT.

    The four points initializing each plane homography are noised and the
    homography re-estimated, which perturbs the affine parameters in a
    geometrically consistent way; second-image feature parameters are then
    re-extracted from the noised affinities.
    """
    if sigma < 0.0:
        raise ValueError("noise level must be non-negative")
    if sigma == 0.0:
        return scene

    corr = scene.correspondences.copy()
    n = corr.shape[0]
    corr[:, 0:2] += rng.normal(0.0, sigma, (n, 2))
    corr[:, 4:6] += rng.normal(0.0, sigma, (n, 2))

    affinities = scene.affinities.copy()
    homographies = []
    for j in range(scene.config.plane_count):
        d1 = scene.dlt_image1[j] + rng.normal(0.0, sigma, (4, 2))
        d2 = scene.dlt_image2[j] + rng.normal(0.0, sigma, (4, 2))
        h = _normalized_dlt_homography(d1, d2)
        homographies.append(h)
        mask = scene.plane_ids == j
        _, jac = affine_jacobians_of_homography(h, corr[mask, 0:2])
        affinities[mask] = jac

    dets = affinities[:, 0, 0] * affinities[:, 1, 1] - affinities[:, 0, 1] * affinities[:, 1, 0]
    usable = dets > 1e-12
    # a mirrored noisy affinity (large noise only) keeps its clean feature frame
    affinities[~usable] = scene.affinities[~usable]
    alpha2, q1, q2 = _second_frame(affinities, scene.frame1)
    corr[:, 2] = q1
    corr[:, 6] = q2
    corr[:, 7] = alpha2

    return replace(scene, correspondences=corr, affinities=affinities,
                   homographies=tuple(homographies), noise_sigma=sigma)


# ---------------------------------------------------------------------------
# Solver studies
# ---------------------------------------------------------------------------

HISTOGRAM_EDGES = np.arange(-16.0, 2.5, 0.5)
LOG_FLOOR = 1e-16


def _balanced_sample(rng, plane_ids: np.ndarray, size: int) -> np.ndarray:
    """Random minimal sample spread as evenly as possible across the planes.

    Dominant-plane samples are degenerate for every solver here: single-plane
    draws drop the system rank outright, and near-single-plane draws leave
    the rank-2 pencil vacuous; an even split avoids both.
    """
    planes = np.unique(plane_ids)
    shares = np.full(planes.shape[0], size // planes.shape[0])
    extra = rng.permutation(planes.shape[0])[: size % planes.shape[0]]
    shares[extra] += 1
    picks = []
    for plane, share in zip(planes, shares):
        members = np.nonzero(plane_ids == plane)[0]
        take = min(int(share), members.shape[0])
        picks.append(rng.choice(members, size=take, replace=False))
    idx = np.concatenate(picks)
    rng.shuffle(idx)
    return idx


def heldout_error(scene: SyntheticScene, solver_id: str, model, held: np.ndarray) -> float:
    """Mean symmetric epipolar error of a model on held-out correspondences, in pixels."""
    info = solver_info(solver_id)
    pairs = scene.correspondences[held][:, [0, 1, 4, 5]]
    if info.family == "e":
        f = fundamental_from_essential(model, scene.k1, scene.k2)
    elif isinstance(model, FocalModel):
        f = model.fundamental
    else:
        f = model
    return float(np.mean(symmetric_epipolar_errors(f, pairs)))


def evaluate_trial(scene: SyntheticScene, solver_id: str, rng):
    """One stability/noise trial: sample, solve, score held-out error.

    Returns (log-domain error, focal error or nan) with (nan, nan) on solver
    failure.
    """
    info = solver_info(solver_id)
    idx = _balanced_sample(rng, scene.plane_ids, info.sample_size)
    held = np.setdiff1d(np.arange(scene.correspondences.shape[0]), idx)
    sample = scene.correspondences[idx]
    try:
        output = run_minimal_solver(solver_id, sample, k1=scene.k1, k2=scene.k2,
                                    principal_point=scene.principal_point)
    except (SolverError, ValueError):
        return math.nan, math.nan
    if len(output.models) == 0:
        return math.nan, math.nan
    errors = [heldout_error(scene, solver_id, m, held) for m in output.models]
    best = int(np.argmin(errors))
    focal_err = math.nan
    if info.family == "ff":
        focal_err = abs(output.models[best].focal - scene.focal) / scene.focal
    return errors[best], focal_err


@dataclass
class StabilityResult:
    solver_id: str
    log10_errors: np.ndarray     # nan marks a failed trial
    log10_focal_errors: np.ndarray
    histogram: np.ndarray
    edges: np.ndarray
    failures: int

    @property
    def trials(self) -> int:
        return self.log10_errors.shape[0]


def _clipped_log10(values: np.ndarray) -> np.ndarray:
    out = np.full(values.shape, math.nan)
    ok = np.isfinite(values)
    out[ok] = np.log10(np.maximum(values[ok], LOG_FLOOR))
    return out


def stability_histogram(solver_id: str, trials: int, seed: int = 0,
                        workers: int | None = None) -> StabilityResult:
    """Noise-free error histogram over fresh scenes, one minimal solve per trial."""
    if trials < 1:
        raise ValueError("at least one trial required")
    chunks = pool_map(_trial_chunk, [((solver_id,), (seed, t), 0.0)
                                     for t in range(trials)], resolve_workers(workers))
    values, focals = np.array([errors for (errors,) in chunks]).T

    logs = _clipped_log10(values)
    clipped = np.clip(logs[np.isfinite(logs)], HISTOGRAM_EDGES[0],
                      HISTOGRAM_EDGES[-1] - 1e-9)
    hist, _ = np.histogram(clipped, bins=HISTOGRAM_EDGES)
    return StabilityResult(
        solver_id=solver_id, log10_errors=logs,
        log10_focal_errors=_clipped_log10(focals),
        histogram=hist, edges=HISTOGRAM_EDGES,
        failures=int(np.sum(~np.isfinite(values))),
    )


def noise_sweep(solver_ids, sigmas, trials: int, seed: int = 0,
                workers: int | None = None) -> list[dict]:
    """Mean held-out error per (solver, sigma); shared scenes across solvers.

    Returns one record per (sigma, solver) with keys sigma, solver,
    mean_error, failures, trials.
    """
    solver_ids = list(solver_ids)
    tasks = [(tuple(solver_ids), (seed, s_idx, trial), float(sigma))
             for s_idx, sigma in enumerate(sigmas) for trial in range(trials)]
    results = pool_map(_trial_chunk, tasks, resolve_workers(workers))

    records = []
    per_point = trials
    for s_idx, sigma in enumerate(sigmas):
        block = results[s_idx * per_point:(s_idx + 1) * per_point]
        for col, solver_id in enumerate(solver_ids):
            errs = np.array([row[col][0] for row in block])
            ok = np.isfinite(errs)
            records.append({
                "sigma": float(sigma),
                "solver": solver_id,
                "mean_error": float(np.mean(errs[ok])) if np.any(ok) else math.nan,
                "failures": int(np.sum(~ok)),
                "trials": per_point,
            })
    return records


def _trial_chunk(args):
    """One trial: a fresh scene from SeedSequence(seed_key), noised, then each solver in turn.

    Returns evaluate_trial's (error, focal error) per solver. A zero sigma
    leaves the scene as generated and draws nothing.
    """
    solver_ids, seed_key, sigma = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    scene = add_noise(generate_scene(SyntheticConfig(), rng), sigma, rng)
    return [evaluate_trial(scene, solver_id, rng) for solver_id in solver_ids]
