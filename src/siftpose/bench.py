"""Benchmark orchestration: synthetic studies and the dataset runner.

Emits flat CSV tables; every experiment derives per-trial random streams
from (seed, trial index) so results are identical for any worker count.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np

from .errors import ParseError, SolverError
from .fileio import (BenchmarkRow, PairMetadata, _fmt, open_input, read_correspondences,
                     read_metadata)
from .geometry import (
    CameraIntrinsics,
    decompose_essential,
    essential_from_fundamental,
    relative_focal_error,
    rotation_error,
    translation_error,
)
from .parallel import pool_map, resolve_workers
from .robust import RansacConfig, make_problem, ransac
from .solvers import solver_info
from .synthetic import (
    IMAGE_SIZE,
    SyntheticConfig,
    SyntheticScene,
    add_noise,
    generate_scene,
    noise_sweep,
    stability_histogram,
)

STABILITY_SOLVERS = ("f4sift", "f7pt", "e3sift", "e5pt")
FOCAL_SOLVERS = ("ff3sift", "ff6pt")
NOISE_SOLVERS = ("f4sift", "f7pt", "e3sift", "e5pt", "ff3sift", "ff6pt")
SPEEDUP_SOLVERS = ("e3sift", "e5pt", "f4sift", "f7pt")
SPEEDUP_CORRESPONDENCES = 200
SPEEDUP_SIGMA = 0.5
ROBUST_PLANES = 6  # inlier planes of make_robust_instance


# ---------------------------------------------------------------------------
# Synthetic experiments
# ---------------------------------------------------------------------------

def run_stability_experiment(trials: int, seed: int, out_path, solvers=STABILITY_SOLVERS,
                             column: str = "log10_error") -> None:
    """One row per (solver, trial) of a stability study.

    column names the per-trial StabilityResult field written: "log10_error"
    for the held-out error or "log10_focal_error" for the focal error.
    """
    with open(out_path, "w") as handle:
        handle.write(f"trial,solver,{column}\n")
        for solver_id in solvers:
            result = stability_histogram(solver_id, trials, seed=seed)
            for trial, value in enumerate(getattr(result, column + "s")):
                handle.write(f"{trial},{solver_id},{_fmt(value)}\n")


def run_noise_experiment(trials: int, sigmas, seed: int, out_path) -> None:
    records = noise_sweep(NOISE_SOLVERS, sigmas, trials, seed=seed)
    with open(out_path, "w") as handle:
        handle.write("sigma,solver,mean_error,failures,trials\n")
        for rec in records:
            handle.write(f"{_fmt(rec['sigma'])},{rec['solver']},{_fmt(rec['mean_error'])},"
                         f"{rec['failures']},{rec['trials']}\n")


# ---------------------------------------------------------------------------
# Robust estimation problems with planted outliers
# ---------------------------------------------------------------------------

def make_robust_instance(n_correspondences: int, inlier_ratio: float, sigma: float, rng):
    """A synthetic scene extended with uniform random mismatches.

    Returns (scene, corr, inlier_mask): corr rows are shuffled noised inliers
    followed by planted outliers with random points, orientations, and
    scales. The inliers spread over several planes so no single plane
    dominates the consensus (a dominant plane makes uncalibrated estimation
    ambiguous, which is a degeneracy study of its own, not a speed benchmark).
    """
    n_inliers = int(round(n_correspondences * inlier_ratio))
    n_outliers = n_correspondences - n_inliers
    per_plane = -(-n_inliers // ROBUST_PLANES)
    scene = generate_scene(SyntheticConfig(ROBUST_PLANES, per_plane), rng)
    noisy = add_noise(scene, sigma, rng) if sigma > 0 else scene
    inliers = noisy.correspondences[:n_inliers]

    width, height = IMAGE_SIZE
    outliers = np.empty((n_outliers, 8))
    for offset in (0, 4):
        outliers[:, offset] = rng.uniform(0.0, width, n_outliers)
        outliers[:, offset + 1] = rng.uniform(0.0, height, n_outliers)
        outliers[:, offset + 2] = rng.uniform(0.5, 2.0, n_outliers)
        outliers[:, offset + 3] = rng.uniform(0.0, 2.0 * math.pi, n_outliers)

    corr = np.vstack([inliers, outliers])
    mask = np.zeros(corr.shape[0], dtype=bool)
    mask[:n_inliers] = True
    order = rng.permutation(corr.shape[0])
    return noisy, corr[order], mask[order]


def _ground_truth(scene_or_meta):
    """(k1, k2, principal point, rotation, translation, focal) of a scene or pair metadata.

    Metadata intrinsics come back as CameraIntrinsics; None marks what the
    metadata lacks, and the principal point is K1's.
    """
    if isinstance(scene_or_meta, SyntheticScene):
        scene = scene_or_meta
        return (scene.k1, scene.k2, scene.principal_point, scene.pose.rotation,
                scene.pose.translation, scene.focal)
    meta: PairMetadata = scene_or_meta
    k1, k2 = (None if k is None else CameraIntrinsics.from_matrix(k)
              for k in (meta.k1, meta.k2))
    pp = None if meta.k1 is None else meta.principal_point
    return k1, k2, pp, meta.gt_rotation, meta.gt_translation, meta.gt_focal


def pose_errors(solver_id: str, model, inlier_pairs: np.ndarray,
                scene_or_meta) -> tuple[float, float, float]:
    """(rotation deg, translation deg, relative focal error) against ground truth.

    scene_or_meta is a SyntheticScene or a PairMetadata carrying intrinsics
    and ground truth; nan entries mark unavailable ground truth.
    """
    info = solver_info(solver_id)
    k1, k2, pp, gt_rotation, gt_translation, gt_focal = _ground_truth(scene_or_meta)
    focal_err = math.nan
    if info.family == "ff":
        focal = model.focal
        if gt_focal is not None:
            focal_err = relative_focal_error(focal, float(gt_focal))
        if pp is None:
            return math.nan, math.nan, focal_err
        k_est = CameraIntrinsics(focal, focal, float(pp[0]), float(pp[1]))
        e = essential_from_fundamental(model.fundamental, k_est, k_est)
        pose = decompose_essential(e, inlier_pairs, k_est, k_est)
    elif k1 is None or k2 is None:
        return math.nan, math.nan, math.nan
    else:
        e = model if info.family == "e" else essential_from_fundamental(model, k1, k2)
        pose = decompose_essential(e, inlier_pairs, k1, k2)

    if gt_rotation is None or gt_translation is None:
        return math.nan, math.nan, focal_err
    return (rotation_error(pose.rotation, gt_rotation),
            translation_error(pose.translation, gt_translation), focal_err)


def _ransac_for(solver_id: str, corr: np.ndarray, scene_or_meta, config: RansacConfig):
    k1, k2, pp, *_ = _ground_truth(scene_or_meta)
    problem = make_problem(solver_id, corr, k1=k1, k2=k2, principal_point=pp)
    return problem, ransac(problem, config)


def run_speedup_experiment(trials: int, inlier_ratios, seed: int, out_path,
                           fixed_clock: bool = False) -> None:
    """Mean models-scored and wall time per solver at each planted inlier ratio.

    fixed_clock reports every wall time as zero, for reproducible output.
    """
    tasks = [(seed, r_idx, float(ratio), trial)
             for r_idx, ratio in enumerate(inlier_ratios) for trial in range(trials)]
    rows = pool_map(_speedup_chunk, tasks, resolve_workers())

    records = []
    per_point = trials
    for r_idx, ratio in enumerate(inlier_ratios):
        block = rows[r_idx * per_point:(r_idx + 1) * per_point]
        for col, solver_id in enumerate(SPEEDUP_SOLVERS):
            scored = np.array([b[col][0] for b in block], dtype=float)
            wall = np.array([b[col][1] for b in block], dtype=float)
            records.append({
                "inlier_ratio": float(ratio), "solver": solver_id,
                "mean_models_scored": float(np.mean(scored)),
                "mean_wall_ms": 0.0 if fixed_clock else float(np.mean(wall)) * 1000.0,
                "mean_iterations": float(np.mean([b[col][2] for b in block])),
                "trials": per_point,
            })
    with open(out_path, "w") as handle:
        handle.write("inlier_ratio,solver,mean_models_scored,mean_wall_ms,"
                     "mean_iterations,trials\n")
        for rec in records:
            handle.write(f"{_fmt(rec['inlier_ratio'])},{rec['solver']},"
                         f"{_fmt(rec['mean_models_scored'])},{_fmt(rec['mean_wall_ms'])},"
                         f"{_fmt(rec['mean_iterations'])},{rec['trials']}\n")


def _speedup_chunk(args):
    seed, r_idx, ratio, trial = args
    rng = np.random.default_rng(np.random.SeedSequence((seed, r_idx, trial)))
    scene, corr, _ = make_robust_instance(SPEEDUP_CORRESPONDENCES, ratio, SPEEDUP_SIGMA, rng)
    out = []
    for solver_id in SPEEDUP_SOLVERS:
        config = RansacConfig(seed=int(rng.integers(2 ** 31)))
        _, report = _ransac_for(solver_id, corr, scene, config)
        out.append((report.models_scored, report.wall_time, report.iterations_run))
    return out


# ---------------------------------------------------------------------------
# Dataset runner
# ---------------------------------------------------------------------------

def read_manifest(path) -> list[tuple[str, str]]:
    """Each non-comment line: <correspondence file> <metadata file>, relative to the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open_input(path) as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ParseError("manifest lines need two paths", path=str(path))
            pairs.append((os.path.join(base, parts[0]), os.path.join(base, parts[1])))
    return pairs


def run_dataset_benchmark(manifest_path, solvers, seed: int = 0,
                          fixed_clock: bool = False) -> list[BenchmarkRow]:
    entries = read_manifest(manifest_path)
    tasks = [(idx, corr_path, meta_path, tuple(solvers), seed, fixed_clock)
             for idx, (corr_path, meta_path) in enumerate(entries)]
    groups = pool_map(_dataset_chunk, tasks, resolve_workers(), chunksize=1)

    rows = [row for group in groups for row in group]
    rows += aggregate_rows(rows, solvers)
    return rows


def _dataset_chunk(args):
    idx, corr_path, meta_path, solvers, seed, fixed_clock = args
    rows = []
    pair_id = os.path.splitext(os.path.basename(corr_path))[0]
    try:
        corr = read_correspondences(corr_path)
        meta = read_metadata(meta_path)
        if meta.pair_id:
            pair_id = meta.pair_id
    except ParseError:
        for solver_id in solvers:
            rows.append(BenchmarkRow(pair_id=pair_id, solver=solver_id, status="parse-error"))
        return rows
    for solver_id in solvers:
        config = RansacConfig(seed=int(np.random.default_rng(
            np.random.SeedSequence((seed, idx))).integers(2 ** 31)))
        try:
            start = time.perf_counter()
            _, report = _ransac_for(solver_id, corr, meta, config)
            wall_ms = 0.0 if fixed_clock else (time.perf_counter() - start) * 1000.0
            if not report.success:
                rows.append(BenchmarkRow(pair_id=pair_id, solver=solver_id,
                                         iterations=report.iterations_run,
                                         models_scored=report.models_scored,
                                         wall_ms=wall_ms, status="no-model"))
                continue
            inlier_pairs = corr[report.inliers][:, [0, 1, 4, 5]]
            rot, trans, focal = pose_errors(solver_id, report.model, inlier_pairs, meta)
            rows.append(BenchmarkRow(
                pair_id=pair_id, solver=solver_id, rot_err_deg=rot, trans_err_deg=trans,
                focal_err=focal, wall_ms=wall_ms, iterations=report.iterations_run,
                models_scored=report.models_scored, inliers=int(report.inliers.shape[0]),
                status="ok"))
        except (SolverError, ValueError):
            rows.append(BenchmarkRow(pair_id=pair_id, solver=solver_id, status="error"))
    return rows


def aggregate_rows(rows: list[BenchmarkRow], solvers) -> list[BenchmarkRow]:
    """Mean and median footer rows per solver over successful pairs."""
    footer = []
    for solver_id in solvers:
        good = [r for r in rows if r.solver == solver_id and r.status == "ok"]
        for name, stat in (("aggregate_mean", np.mean), ("aggregate_median", np.median)):
            if good:
                footer.append(BenchmarkRow(
                    pair_id=name, solver=solver_id,
                    rot_err_deg=float(stat([r.rot_err_deg for r in good])),
                    trans_err_deg=float(stat([r.trans_err_deg for r in good])),
                    focal_err=float(stat([r.focal_err for r in good])),
                    wall_ms=float(stat([r.wall_ms for r in good])),
                    iterations=int(round(float(stat([r.iterations for r in good])))),
                    models_scored=int(round(float(stat([r.models_scored for r in good])))),
                    inliers=int(round(float(stat([r.inliers for r in good])))),
                    status="aggregate"))
            else:
                footer.append(BenchmarkRow(pair_id=name, solver=solver_id,
                                           status="aggregate"))
    return footer
