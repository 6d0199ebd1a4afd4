"""Command-line surface.

Exit codes: 0 success, 2 usage (including wrong sample size), 3 malformed
input file, 4 degenerate sample / no model from `solve`; `ransac` reports no
model as a `failed` row and exits 0. Every command that consumes
randomness takes --seed; worker counts come from the SIFTPOSE_WORKERS
environment variable. --fixed-clock reports timing fields as zero so output
files are bitwise reproducible.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bench
from .errors import ParseError, SolverError
from .fileio import (
    BENCHMARK_COLUMNS,
    BenchmarkRow,
    read_correspondences,
    read_metadata,
    write_benchmark_rows,
    write_solutions,
)
from .geometry import CameraIntrinsics
from .robust import RansacConfig, make_problem, ransac
from .solvers import MINIMAL_SOLVERS, FocalModel, run_minimal_solver, solver_info

PROBLEMS = tuple(MINIMAL_SOLVERS)

USAGE_EXIT = 2
PARSE_EXIT = 3
DEGENERATE_EXIT = 4


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftpose",
        description="Two-view relative pose from oriented/scaled feature correspondences")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one minimal solver on an exact sample")
    solve.add_argument("--problem", required=True, choices=PROBLEMS)
    solve.add_argument("--input", required=True)
    solve.add_argument("--meta", default=None,
                       help="optional metadata file with intrinsics")
    solve.add_argument("--output", default=None, help="default: stdout")

    rns = sub.add_parser("ransac", help="robust estimation over a correspondence file")
    rns.add_argument("--problem", required=True, choices=PROBLEMS)
    rns.add_argument("--input", required=True)
    rns.add_argument("--meta", default=None)
    rns.add_argument("--threshold", type=float, default=0.75)
    rns.add_argument("--confidence", type=float, default=0.99)
    rns.add_argument("--max-iters", type=int, default=5000)
    rns.add_argument("--seed", type=int, default=0)
    rns.add_argument("--lo", choices=("on", "off"), default="on")
    rns.add_argument("--fixed-clock", action="store_true",
                     help="report wall_ms as 0 for reproducible output")
    rns.add_argument("--output", default=None)

    bs = sub.add_parser("bench-synthetic", help="synthetic stability/noise/speedup studies")
    bs.add_argument("--experiment", required=True,
                    choices=("stability", "noise", "focal-stability", "ransac-speedup"))
    bs.add_argument("--trials", type=int, default=1000)
    bs.add_argument("--seed", type=int, default=0)
    bs.add_argument("--out-dir", required=True)
    bs.add_argument("--sigmas", default="0,0.5,1,2",
                    help="noise experiment levels, comma separated")
    bs.add_argument("--inlier-ratio", type=float, default=0.6)
    bs.add_argument("--fixed-clock", action="store_true")

    bd = sub.add_parser("bench-dataset", help="run solvers over a pair manifest")
    bd.add_argument("--pairs", required=True, help="manifest file")
    bd.add_argument("--problem", required=True, choices=("f", "e", "ff"))
    bd.add_argument("--solvers", required=True, help="comma-separated solver ids")
    bd.add_argument("--seed", type=int, default=0)
    bd.add_argument("--fixed-clock", action="store_true")
    bd.add_argument("--out", required=True)
    return parser


def _intrinsics(meta):
    """(k1, k2, principal_point) of the metadata, None where it lacks them.

    The principal point is K1's.
    """
    if meta is None:
        return None, None, None
    return meta.k1, meta.k2, None if meta.k1 is None else meta.principal_point


def cmd_solve(args) -> int:
    corr = read_correspondences(args.input)
    info = solver_info(args.problem)
    if corr.shape[0] != info.sample_size:
        raise UsageError(f"{args.problem} needs exactly {info.sample_size} records, "
                         f"got {corr.shape[0]}")
    k1, k2, pp = _intrinsics(read_metadata(args.meta) if args.meta else None)
    if info.family == "e" and (k1 is not None or k2 is not None):
        if k1 is None or k2 is None:
            raise UsageError("essential-matrix estimation needs both intrinsics; the metadata "
                             + ("has K1 but no K2" if k2 is None else "has K2 but no K1"))
        try:
            k1, k2 = CameraIntrinsics.from_matrix(k1), CameraIntrinsics.from_matrix(k2)
        except ValueError as exc:  # malformed intrinsics in the metadata
            raise UsageError(str(exc)) from None
    if info.family == "ff" and k1 is None and k2 is not None:
        raise UsageError("semi-calibrated estimation takes the principal point from K1; "
                         "the metadata has K2 but no K1")
    # without --meta: solver-native coordinates (README)
    identity = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    output = run_minimal_solver(args.problem, corr, k1=identity if k1 is None else k1,
                                k2=identity if k2 is None else k2,
                                principal_point=(0.0, 0.0) if pp is None else pp)
    if len(output.models) == 0:
        raise SolverError("no model produced")

    entries = []
    for i, model in enumerate(output.models):
        if isinstance(model, FocalModel):
            entries.append({"matrix": model.fundamental.m, "focal": model.focal,
                            "residual_max": output.row_residuals[i]})
        else:
            entries.append({"matrix": model.m, "focal": None,
                            "residual_max": output.row_residuals[i]})
    if args.output is None:
        write_solutions(sys.stdout, args.problem, entries)
    else:
        with open(args.output, "w") as handle:
            write_solutions(handle, args.problem, entries)
    return 0


def cmd_ransac(args) -> int:
    try:
        config = RansacConfig(confidence=args.confidence, max_iterations=args.max_iters,
                              threshold=args.threshold, lo_enabled=args.lo == "on",
                              seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    corr = read_correspondences(args.input)
    info = solver_info(args.problem)
    if corr.shape[0] < info.sample_size:
        raise UsageError(f"{args.problem} needs at least {info.sample_size} records")
    meta = read_metadata(args.meta) if args.meta else None
    if info.family in ("e", "ff") and meta is None:
        raise UsageError("essential/semi-calibrated estimation requires --meta intrinsics")
    k1, k2, pp = _intrinsics(meta)
    try:
        problem = make_problem(args.problem, corr, k1=k1, k2=k2, principal_point=pp)
    except (ValueError, SolverError) as exc:  # missing or malformed intrinsics, no frame
        raise UsageError(str(exc)) from None
    try:
        report = ransac(problem, config)
    except ValueError as exc:  # the threshold is not finite and positive in the solver frame
        raise UsageError(str(exc)) from None
    wall_ms = 0.0 if args.fixed_clock else report.wall_time * 1000.0

    rot = trans = focal = math.nan
    if report.success and meta is not None:
        try:
            inlier_pairs = corr[report.inliers][:, [0, 1, 4, 5]]
            rot, trans, focal = bench.pose_errors(args.problem, report.model,
                                                  inlier_pairs, meta)
        except (SolverError, ValueError):
            pass

    pair_id = os.path.splitext(os.path.basename(args.input))[0]
    row = BenchmarkRow(pair_id=pair_id, solver=args.problem, rot_err_deg=rot,
                       trans_err_deg=trans, focal_err=focal, wall_ms=wall_ms,
                       iterations=report.iterations_run,
                       models_scored=report.models_scored,
                       inliers=int(report.inliers.shape[0]),
                       status="ok" if report.success else "failed")
    lines = [",".join(BENCHMARK_COLUMNS), row.to_csv(),
             "# inliers: " + " ".join(str(i) for i in report.inliers)]
    if report.warnings:
        lines.append("# warnings: " + "; ".join(report.warnings))
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
    return 0


def _sigma_levels(text: str) -> list[float]:
    try:
        sigmas = [float(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise UsageError(f"--sigmas takes comma-separated numbers, got '{text}'") from None
    if not all(math.isfinite(s) and s >= 0.0 for s in sigmas):
        raise UsageError("noise levels must be finite and non-negative")
    return sigmas


def cmd_bench_synthetic(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if not 0.0 < args.inlier_ratio <= 1.0:
        raise UsageError("--inlier-ratio must lie in (0, 1]")
    sigmas = _sigma_levels(args.sigmas)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.experiment == "stability":
        bench.run_stability_experiment(args.trials, args.seed,
                                       os.path.join(args.out_dir, "stability.csv"))
    elif args.experiment == "focal-stability":
        bench.run_stability_experiment(args.trials, args.seed,
                                       os.path.join(args.out_dir, "focal_stability.csv"),
                                       solvers=bench.FOCAL_SOLVERS,
                                       column="log10_focal_error")
    elif args.experiment == "noise":
        bench.run_noise_experiment(args.trials, sigmas, args.seed,
                                   os.path.join(args.out_dir, "noise.csv"))
    else:
        bench.run_speedup_experiment(args.trials, [args.inlier_ratio], args.seed,
                                     os.path.join(args.out_dir, "ransac_speedup.csv"),
                                     fixed_clock=args.fixed_clock)
    return 0


def cmd_bench_dataset(args) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers:
        raise UsageError("--solvers names no solver")
    for solver_id in solvers:
        if solver_id not in MINIMAL_SOLVERS:
            raise UsageError(f"unknown solver '{solver_id}'; choose from {', '.join(PROBLEMS)}")
        if solver_info(solver_id).family != args.problem:
            raise UsageError(f"solver {solver_id} does not estimate problem "
                             f"family '{args.problem}'")
    rows = bench.run_dataset_benchmark(args.pairs, solvers, seed=args.seed,
                                       fixed_clock=args.fixed_clock)
    write_benchmark_rows(args.out, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "ransac": cmd_ransac,
                "bench-synthetic": cmd_bench_synthetic,
                "bench-dataset": cmd_bench_dataset}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return DEGENERATE_EXIT


if __name__ == "__main__":
    sys.exit(main())
