#!/usr/bin/env python3
"""Interleaved in-process A/B of solver time between two source trees, per call and per block.

Usage: python3 scripts/solver_timings.py <src_a> <src_b> [--scenes N] [--rounds R]
                                         [--solvers f4sift,e3sift,...] [--seed S]

Each of src_a and src_b is a directory holding a siftpose package, such as
the src/ directory of a checkout. Both copies are imported into one
process under distinct module names, so they share the interpreter, the
BLAS (pinned to one thread, as the benchmark runs it) and the state of the
machine. Copy A generates N default synthetic scenes and one clean
plane-balanced minimal sample per scene and solver. Two timings run per
solver, each interleaved the same way:

- call: every round calls the public solver of each copy once per sample,
  alternating from sample to sample which copy goes first. A refused sample
  is timed like any other.
- block: the samples' point and feature rows, as copy A's
  robust.make_problem builds them on each sample alone, are stacked into
  blocks of 16 (RANSAC's block size; the last block wraps round to the
  first samples), and every round runs each copy's solvers.solve_rows once
  per block, alternating from block to block which copy goes first. That
  is the path RANSAC runs: the solver's row layout, the non-finite screen
  and the batched core.

Prints, per solver and timing: the median and mean time of each copy in ms
(per sample for blocks: the block time over 16), the ratio of the medians
(b/a), the range of the per-round median ratios, and the number of refused
samples of each copy: refused calls, or block entries that solve_rows
returns as an exception.
"""
import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

BLOCK = 16

# each call takes a copy's solvers module, the sample and the scene's (k1, k2, pp)
CALLS = {
    "f4sift": lambda s, corr, k1, k2, pp: s.solve_f_4sift(corr),
    "f7pt": lambda s, corr, k1, k2, pp: s.solve_f_7pt(corr[:, [0, 1, 4, 5]]),
    "e3sift": lambda s, corr, k1, k2, pp: s.solve_e_3sift(corr, k1, k2),
    "e5pt": lambda s, corr, k1, k2, pp: s.solve_e_5pt(corr[:, [0, 1, 4, 5]], k1, k2),
    "ff3sift": lambda s, corr, k1, k2, pp: s.solve_f_focal_3sift(corr, pp),
    "ff6pt": lambda s, corr, k1, k2, pp: s.solve_f_focal_6pt(corr[:, [0, 1, 4, 5]], pp),
}


def load(src: str, alias: str):
    """Import the siftpose package under src as the top-level package alias."""
    package = os.path.join(os.path.abspath(src), "siftpose")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def time_call(solvers, call, sample) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        call(solvers, *sample)
        refused = False
    except (solvers.SolverError, ValueError):
        refused = True
    return time.perf_counter() - start, refused


def time_block(solvers, info, block) -> tuple[float, int]:
    start = time.perf_counter()
    out = solvers.solve_rows(info, *block)
    elapsed = time.perf_counter() - start
    return elapsed / BLOCK, sum(isinstance(entry, Exception) for entry in out)


def interleaved(rounds: int, items: list, runs) -> tuple[list, list, list]:
    """Times of both copies and per-round median ratios (b/a).

    runs[side](item) returns (seconds, refused count); every round runs each item
    on both copies, alternating from item to item which copy goes first.
    """
    times = [[], []]
    round_ratios = []
    refused = [0, 0]
    for round_index in range(rounds):
        this_round = [[], []]
        for i, item in enumerate(items):
            order = (0, 1) if (round_index + i) % 2 == 0 else (1, 0)
            for side in order:
                elapsed, failed = runs[side](item)
                this_round[side].append(elapsed)
                refused[side] += failed
        round_ratios.append(statistics.median(this_round[1])
                            / statistics.median(this_round[0]))
        for side in (0, 1):
            times[side].extend(this_round[side])
    return times, round_ratios, refused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--scenes", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--solvers", default=",".join(CALLS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    solver_ids = [s.strip() for s in args.solvers.split(",") if s.strip()]
    unknown = sorted(set(solver_ids) - set(CALLS))
    if unknown:
        parser.error(f"unknown solvers: {', '.join(unknown)}")

    copies = [load(args.src_a, "siftpose_a"), load(args.src_b, "siftpose_b")]
    importlib.import_module("siftpose_a.parallel").limit_worker_threads()
    solvers = [importlib.import_module(f"{copy.__name__}.solvers") for copy in copies]
    synthetic = importlib.import_module("siftpose_a.synthetic")
    robust = importlib.import_module("siftpose_a.robust")

    rng = np.random.default_rng(args.seed)
    scenes = [synthetic.generate_scene(synthetic.SyntheticConfig(), rng)
              for _ in range(args.scenes)]
    # each copy gets intrinsics of its own CameraIntrinsics class
    intrinsics = [[tuple(copy.geometry.CameraIntrinsics.from_matrix(k.matrix())
                         for k in (scene.k1, scene.k2)) for scene in scenes] for copy in copies]
    samples = {}
    for solver_id in solver_ids:
        size = solvers[0].solver_info(solver_id).sample_size
        samples[solver_id] = [
            (scene.correspondences[synthetic._balanced_sample(rng, scene.plane_ids, size)],
             scene.principal_point) for scene in scenes]

    print(f"a: {os.path.abspath(args.src_a)}\nb: {os.path.abspath(args.src_b)}")
    print(f"{args.scenes} samples per solver, {args.rounds} rounds, times in ms per sample; "
          f"blocks of {BLOCK} samples")
    print(f"{'solver':8} {'timing':6} {'a median':>9} {'b median':>9} {'b/a':>6} "
          f"{'round b/a':>12} {'a mean':>8} {'b mean':>8} {'refused a/b':>12}")
    for solver_id in solver_ids:
        call = CALLS[solver_id]
        items = [(corr, pp, i) for i, (corr, pp) in enumerate(samples[solver_id])]
        calls = [lambda item, side=side: time_call(
            solvers[side], call, (item[0], *intrinsics[side][item[2]], item[1]))
            for side in (0, 1)]
        info = solvers[0].solver_info(solver_id)
        problems = []
        for (corr, pp), scene in zip(samples[solver_id], scenes):
            kwargs = {"e": {"k1": scene.k1, "k2": scene.k2},
                      "ff": {"principal_point": pp}}.get(info.family, {})
            problems.append(robust.make_problem(solver_id, corr if info.uses_orientation
                                                else corr[:, [0, 1, 4, 5]], **kwargs))
        blocks = []
        for start in range(0, len(problems), BLOCK):
            block = [problems[(start + k) % len(problems)] for k in range(BLOCK)]
            blocks.append((np.stack([p.point_rows for p in block]),
                           np.stack([p.feature_rows for p in block])
                           if info.uses_orientation else None))
        cores = [lambda block, side=side: time_block(
            solvers[side], solvers[side].solver_info(solver_id), block) for side in (0, 1)]
        for timing, (times, round_ratios, refused) in (
                ("call", interleaved(args.rounds, items, calls)),
                ("block", interleaved(args.rounds, blocks, cores))):
            med = [1e3 * statistics.median(t) for t in times]
            mean = [1e3 * statistics.fmean(t) for t in times]
            print(f"{solver_id:8} {timing:6} {med[0]:9.3f} {med[1]:9.3f} {med[1] / med[0]:6.3f} "
                  f"{min(round_ratios):5.3f}-{max(round_ratios):5.3f} "
                  f"{mean[0]:8.3f} {mean[1]:8.3f} {refused[0]:>6}/{refused[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
