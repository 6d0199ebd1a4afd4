"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy robust-estimation experiment is shared between the
economics and parity criteria.
"""
import concurrent.futures
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from siftpose.bench import make_robust_instance, _ransac_for, pose_errors
from siftpose.constraints import sift_rows
from siftpose.parallel import limit_worker_threads, worker_thread_limit
from siftpose.robust import RansacConfig
from siftpose.solvers import (
    run_minimal_solver,
    solve_e_3sift,
    solve_f_4sift,
    solve_f_7pt,
)
from siftpose.synthetic import (
    SyntheticConfig,
    generate_scene,
    noise_sweep,
    stability_histogram,
)

from conftest import spanning_indices
from support import decomposition_residuals, legacy_combined_residual, make_consistent_sift
from test_constraints import consistent_affinity
from test_geometry import random_rank2
from test_solvers import best_gap

WORKERS = max(1, min(4, os.cpu_count() or 1))
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------------------
# Criterion 1: constraint elimination oracle
# --------------------------------------------------------------------------

def test_criterion_1_elimination_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    clean = np.empty(10_000)
    perturbed = np.empty(10_000)
    fs = [random_rank2(rng) for _ in range(50)]
    for i in range(10_000):
        f = fs[i % len(fs)]
        packed, _ = make_consistent_sift(f, rng)
        row = sift_rows(packed[None])[0]
        clean[i] = abs(row @ f.flat()) / np.linalg.norm(row)
        packed[7] += 1e-3
        moved = sift_rows(packed.reshape(1, 8))[0]
        perturbed[i] = abs(moved @ f.flat()) / np.linalg.norm(moved)
    elapsed = time.perf_counter() - start
    ok = (np.max(clean) < 1e-10 and np.median(perturbed) > 1e-5 and elapsed < 10.0)
    report("criterion-1 elimination-oracle", ok,
           f"max clean residual {np.max(clean):.2e}, "
           f"median perturbed {np.median(perturbed):.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: solver stability at scale
# --------------------------------------------------------------------------

def test_criterion_2_solver_stability():
    start = time.perf_counter()
    f_hist = stability_histogram("f4sift", trials=10_000, seed=202, workers=WORKERS)
    e_hist = stability_histogram("e3sift", trials=10_000, seed=203, workers=WORKERS)
    elapsed = time.perf_counter() - start

    f_log = f_hist.log10_errors[np.isfinite(f_hist.log10_errors)]
    e_log = e_hist.log10_errors[np.isfinite(e_hist.log10_errors)]
    f_fail = f_hist.failures / f_hist.trials
    e_fail = e_hist.failures / e_hist.trials
    ok = (np.median(f_log) <= -9.0 and np.quantile(f_log, 0.99) <= -5.0
          and np.median(e_log) <= -6.0 and np.quantile(e_log, 0.99) <= -4.0
          and f_fail < 0.01 and e_fail < 0.01 and elapsed < 120.0)
    report("criterion-2 solver-stability", ok,
           f"f4sift median {np.median(f_log):.1f} p99 {np.quantile(f_log, 0.99):.1f} "
           f"fail {f_fail:.3%}; e3sift median {np.median(e_log):.1f} "
           f"p99 {np.quantile(e_log, 0.99):.1f} fail {e_fail:.3%}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# Criterion 3: focal stability
# --------------------------------------------------------------------------

def test_criterion_3_focal_stability():
    start = time.perf_counter()
    medians = {}
    for solver_id, seed in (("ff3sift", 301), ("ff6pt", 302)):
        hist = stability_histogram(solver_id, trials=2000, seed=seed, workers=WORKERS)
        finite = hist.log10_focal_errors[np.isfinite(hist.log10_focal_errors)]
        medians[solver_id] = 10.0 ** np.median(finite)
    elapsed = time.perf_counter() - start
    ok = (medians["ff3sift"] <= 1e-6 and medians["ff6pt"] <= 1e-6 and elapsed < 120.0)
    report("criterion-3 focal-stability", ok,
           f"median focal error ff3sift {medians['ff3sift']:.2e}, "
           f"ff6pt {medians['ff6pt']:.2e}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# Criterion 4: noise behavior
# --------------------------------------------------------------------------

def test_criterion_4_noise_behavior():
    sigmas = (0.0, 0.5, 1.0, 2.0)
    solvers = ("f4sift", "f7pt", "e3sift", "e5pt", "ff3sift", "ff6pt")
    records = noise_sweep(solvers, sigmas, trials=1000, seed=404, workers=WORKERS)
    table = {}
    for rec in records:
        table.setdefault(rec["solver"], {})[rec["sigma"]] = rec["mean_error"]
    monotone = all(
        all(table[s][a] < table[s][b] for a, b in zip(sigmas, sigmas[1:]))
        for s in solvers)
    ratio = table["f4sift"][1.0] / table["f7pt"][1.0]
    ok = monotone and ratio <= 3.0
    detail = "; ".join(
        f"{s}: " + "/".join(f"{table[s][x]:.2g}" for x in sigmas) for s in solvers)
    report("criterion-4 noise-behavior", ok,
           f"monotone={monotone}, f4sift/f7pt at sigma=1: {ratio:.2f}; {detail}")


# --------------------------------------------------------------------------
# Criteria 5 and 6: one shared robust-estimation experiment
# --------------------------------------------------------------------------

RANSAC_SOLVERS = ("e3sift", "e5pt", "f4sift", "f7pt")


def _robust_trial(trial: int):
    rng = np.random.default_rng(np.random.SeedSequence((556, trial)))
    scene, corr, _ = make_robust_instance(200, 0.6, 0.5, rng)
    out = {}
    for solver_id in RANSAC_SOLVERS:
        _, rep = _ransac_for(solver_id, corr, scene, RansacConfig(seed=trial))
        rot = math.nan
        if rep.success and rep.inliers.shape[0] >= 1:
            inlier_pairs = corr[rep.inliers][:, [0, 1, 4, 5]]
            try:
                rot, _, _ = pose_errors(solver_id, rep.model, inlier_pairs, scene)
            except Exception:
                pass
        out[solver_id] = (rep.models_scored, rep.wall_time, rot)
    return out


@pytest.fixture(scope="module")
def robust_experiment():
    start = time.perf_counter()
    trials = 500
    thread_limit = "single process"
    if WORKERS > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=WORKERS, initializer=limit_worker_threads) as pool:
            results = list(pool.map(_robust_trial, range(trials),
                                    chunksize=max(1, trials // (8 * WORKERS))))
            thread_limit = str(pool.submit(worker_thread_limit).result())
    else:
        results = [_robust_trial(t) for t in range(trials)]
    elapsed = time.perf_counter() - start
    table = {s: {"scored": np.array([r[s][0] for r in results], dtype=float),
                 "wall": np.array([r[s][1] for r in results]),
                 "rot": np.array([r[s][2] for r in results])}
             for s in RANSAC_SOLVERS}
    return table, elapsed, thread_limit


def test_criterion_5_sample_size_economics(robust_experiment):
    table, elapsed, thread_limit = robust_experiment
    scored_ratio_e = np.mean(table["e5pt"]["scored"]) / np.mean(table["e3sift"]["scored"])
    wall_ratio_e = np.mean(table["e5pt"]["wall"]) / np.mean(table["e3sift"]["wall"])
    scored_ratio_f = np.mean(table["f7pt"]["scored"]) / np.mean(table["f4sift"]["scored"])
    ok = (scored_ratio_e >= 2.0 and wall_ratio_e >= 1.5 and scored_ratio_f >= 1.3
          and elapsed < 300.0)
    report("criterion-5 sample-size-economics", ok,
           f"models-scored 5pt/3sift {scored_ratio_e:.2f} (need >= 2.0), "
           f"wall 5pt/3sift {wall_ratio_e:.2f} (need >= 1.5), "
           f"7pt/4sift {scored_ratio_f:.2f} (need >= 1.3); {elapsed:.0f}s on "
           f"{WORKERS} workers, BLAS threads {thread_limit}")


def test_criterion_6_pose_accuracy_parity(robust_experiment):
    table, _, _ = robust_experiment
    medians = {s: np.nanmedian(table[s]["rot"]) for s in RANSAC_SOLVERS}
    gap_e = abs(medians["e3sift"] - medians["e5pt"])
    gap_f = abs(medians["f4sift"] - medians["f7pt"])
    ok = gap_e <= 0.3 and gap_f <= 0.3
    report("criterion-6 pose-parity", ok,
           f"median rotation: e3sift {medians['e3sift']:.3f} vs e5pt "
           f"{medians['e5pt']:.3f} (|gap| {gap_e:.3f}); f4sift {medians['f4sift']:.3f} "
           f"vs f7pt {medians['f7pt']:.3f} (|gap| {gap_f:.3f})")


# --------------------------------------------------------------------------
# Criterion 7: the older combined constraint misses instances
# --------------------------------------------------------------------------

def test_criterion_7_legacy_constraint_gap():
    rng = np.random.default_rng(707)
    shown = 0
    for _ in range(1000):
        alpha1 = rng.uniform(0, 2 * math.pi)
        alpha2 = rng.uniform(0, 2 * math.pi)
        a = consistent_affinity(alpha1, alpha2, rng.uniform(0.5, 2.0),
                                rng.uniform(-0.5, 0.5))
        from support import sift_from_affine

        alpha2_got, q2, _ = sift_from_affine(a, alpha1, 1.0)
        c1, s1 = math.cos(alpha1), math.sin(alpha1)
        c2, s2 = math.cos(alpha2_got), math.sin(alpha2_got)
        eps = rng.uniform(0.01, 0.2)
        tweaked = a.copy()
        tweaked[1, 0] += s2 * eps * c1
        tweaked[1, 1] += s2 * eps * s1
        tweaked[0, 0] += c2 * eps * c1
        tweaked[0, 1] += c2 * eps * s1
        sift = (alpha1, alpha2_got, q2)
        _, r_sin, r_cos = decomposition_residuals(tweaked, sift)
        combined = legacy_combined_residual(tweaked, sift)
        assert abs(combined) < 1e-10
        if abs(r_sin) > eps / 4 and abs(r_cos) > eps / 4:
            shown += 1
    ok = shown >= 500
    report("criterion-7 legacy-constraint-gap", ok,
           f"{shown}/1000 instances with vanished combined residual but "
           f"both circle residuals nonzero")


# --------------------------------------------------------------------------
# Criterion 8: CLI determinism
# --------------------------------------------------------------------------

def _run_cli(args, workers=None, cwd=None):
    env = os.environ.copy()
    if workers is not None:
        env["SIFTPOSE_WORKERS"] = str(workers)
    result = subprocess.run([sys.executable, "-m", "siftpose.cli", *args],
                            capture_output=True, env=env, cwd=cwd)
    assert result.returncode == 0, result.stderr.decode()
    return result


def test_criterion_8_cli_determinism(tmp_path):
    checks = []

    solve_args = ["solve", "--problem", "e3sift",
                  "--input", os.path.join(FIXTURES, "e3sift_clean.csv")]
    a = _run_cli(solve_args).stdout
    b = _run_cli(solve_args).stdout
    checks.append(("solve", a == b))

    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        _run_cli(["ransac", "--problem", "f4sift",
                  "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                  "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                  "--seed", "5", "--fixed-clock", "--output", str(path)])
        outs.append(path.read_bytes())
    checks.append(("ransac", outs[0] == outs[1]))

    blobs = []
    for name, workers in (("w1", 1), ("w2", 2)):
        out_dir = tmp_path / name
        _run_cli(["bench-synthetic", "--experiment", "stability", "--trials", "40",
                  "--seed", "6", "--out-dir", str(out_dir)], workers=workers)
        blobs.append((out_dir / "stability.csv").read_bytes())
    checks.append(("bench-synthetic workers 1 vs 2", blobs[0] == blobs[1]))

    manifest = tmp_path / "manifest.txt"
    src = os.path.join(FIXTURES, "mini_dataset")
    lines = [f"{os.path.join(src, f'pair_{i:03d}.csv')} "
             f"{os.path.join(src, f'pair_{i:03d}.meta')}" for i in range(4)]
    manifest.write_text("\n".join(lines) + "\n")
    rows = []
    for name, workers in (("d1.csv", 1), ("d2.csv", 2)):
        out = tmp_path / name
        _run_cli(["bench-dataset", "--pairs", str(manifest), "--problem", "e",
                  "--solvers", "e3sift,e5pt", "--seed", "7", "--fixed-clock",
                  "--out", str(out)], workers=workers)
        rows.append(out.read_bytes())
    checks.append(("bench-dataset workers 1 vs 2", rows[0] == rows[1]))

    ok = all(flag for _, flag in checks)
    report("criterion-8 cli-determinism", ok,
           ", ".join(f"{name}: {'ok' if flag else 'DIFFERS'}" for name, flag in checks))


# --------------------------------------------------------------------------
# Criterion 9: structural invariants at scale
# --------------------------------------------------------------------------

def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(909)

    # returned-model postconditions over >= 1e3 solved samples
    config = SyntheticConfig()
    det_ok = spectral_ok = True
    solved = 0
    attempts = 0
    scenes = [generate_scene(config, rng) for _ in range(120)]
    from siftpose.errors import SolverError

    while solved < 1000 and attempts < 3000:
        attempts += 1
        scene = scenes[attempts % len(scenes)]
        try:
            idx = spanning_indices(scene, 4, rng)
            for model in solve_f_4sift(scene.correspondences[idx]).models:
                det_ok &= abs(model.det()) < 1e-10
            idx = spanning_indices(scene, 3, rng)
            out = solve_e_3sift(scene.correspondences[idx], scene.k1, scene.k2)
        except SolverError:
            continue  # a degenerate draw is a legitimate solver refusal
        s = out.models[0].projected().singular_values()
        spectral_ok &= (s[0] - s[1]) < 1e-10 and s[2] < 1e-10
        solved += 2

    # structural zero of the orientation/scale row over >= 1e3 inputs
    corr = np.empty((2000, 8))
    corr[:, [0, 1, 4, 5]] = rng.uniform(-1000, 1000, (2000, 4))
    corr[:, [2, 6]] = rng.uniform(0.05, 20.0, (2000, 2))
    corr[:, [3, 7]] = rng.uniform(0, 2 * math.pi, (2000, 2))
    rows = sift_rows(corr)
    f9_ok = bool(np.all(rows[:, 8] == 0.0))

    # scale-pair homogeneity over >= 1e3 inputs
    lam = rng.uniform(0.1, 10.0, 2000)
    scaled = corr.copy()
    scaled[:, 2] *= lam
    scaled[:, 6] *= lam
    homogeneity_ok = bool(np.allclose(sift_rows(scaled), rows, rtol=1e-9, atol=1e-12))

    # translation equivariance of the point solver over >= 1e3 samples
    equivariance_ok = True
    checked = 0
    rng_eq = np.random.default_rng(910)
    while checked < 1000:
        scene = scenes[checked % len(scenes)]
        shift = rng_eq.uniform(-80, 80, 2)
        t_inv = np.array([[1.0, 0.0, -shift[0]], [0.0, 1.0, -shift[1]], [0.0, 0.0, 1.0]])
        idx = spanning_indices(scene, 7, rng_eq)
        base = solve_f_7pt(scene.pairs[idx])
        shifted = solve_f_7pt(scene.pairs[idx] + np.tile(shift, 2))
        for model in base.models:
            expected = t_inv.T @ model.m @ t_inv
            expected /= np.linalg.norm(expected)
            gap = min(best_gap(shifted.models, expected),
                      best_gap(shifted.models, -expected))
            equivariance_ok &= gap < 1e-6
            checked += 1

    ok = det_ok and spectral_ok and f9_ok and homogeneity_ok and equivariance_ok
    report("criterion-9 structural-invariants", ok,
           f"det {det_ok}, spectrum {spectral_ok}, f9-zero {f9_ok}, "
           f"q-homogeneity {homogeneity_ok}, equivariance {equivariance_ok}")
