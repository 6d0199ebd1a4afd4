#!/usr/bin/env python3
"""Write every deterministic CLI output on the bundled fixtures into one directory.

Usage: python3 scripts/fixed_clock_outputs.py <out_dir>

Runs the siftpose found in src/ next to this script. To compare two
checkouts, copy this script into the other checkout's scripts/ directory,
run it there with a second output directory, and check the pair with
`python3 scripts/compare_outputs.py <out_a> <out_b>` (or `diff -r` for
bytes only). Outputs:

- ransac --fixed-clock on the demo pair for f4sift, f7pt, e3sift, e5pt and
  ff3sift, with local optimization on and off, seeds 1 and 5;
- a seeded robust instance of 1000 correspondences (90% inliers, 0.5 px
  noise) written with its intrinsics and pose as robust_1000.csv/.meta, and
  ransac --fixed-clock on it for f4sift and e3sift, seed 1 (the fixtures
  hold 200 correspondences a pair);
- bench-dataset --fixed-clock on the mini dataset for the e, f and ff
  families, two solvers each (ff6pt RANSAC takes about 0.7 s a pair on a
  2-CPU machine);
- bench-synthetic stability, focal-stability and noise at small trial counts,
  and ransac-speedup --fixed-clock;
- solve on the three clean minimal-sample fixtures (e3sift, f4sift, ff3sift),
  and on seeded clean samples for e5pt, f7pt and ff6pt, written in each
  solver's native coordinates as scripts/make_fixtures.py writes the
  fixtures: calibrated for e5pt, pixels for f7pt and the principal point
  at the origin for ff6pt (<solver>_clean.csv).
"""
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from siftpose.bench import make_robust_instance  # noqa: E402
from siftpose.cli import main  # noqa: E402
from siftpose.fileio import PairMetadata, write_correspondences, write_metadata  # noqa: E402
from siftpose.solvers import normalize_sift_correspondences  # noqa: E402
from siftpose.synthetic import SyntheticConfig, generate_scene  # noqa: E402

from make_fixtures import spanning  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")
RANSAC_SOLVERS = ("f4sift", "f7pt", "e3sift", "e5pt", "ff3sift")
DATASET_FAMILIES = (("e", "e3sift,e5pt"), ("f", "f4sift,f7pt"), ("ff", "ff3sift,ff6pt"))
LARGE_SOLVERS = ("f4sift", "e3sift")
FIXTURE_SOLVERS = ("e3sift", "f4sift", "ff3sift")
POINT_SAMPLE_SEED = 2025


def run(argv) -> None:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: siftpose {' '.join(argv)}")


def write_point_samples(out_dir: str) -> None:
    """Clean e5pt, f7pt and ff6pt samples of one seeded scene, as <solver>_clean.csv."""
    rng = np.random.default_rng(POINT_SAMPLE_SEED)
    scene = generate_scene(SyntheticConfig(), rng)
    e5pt = normalize_sift_correspondences(scene.correspondences[spanning(scene, 5, rng)],
                                          scene.k1, scene.k2)
    f7pt = scene.correspondences[spanning(scene, 7, rng)]
    ff6pt = scene.correspondences[spanning(scene, 6, rng)].copy()
    ff6pt[:, 0:2] -= scene.principal_point
    ff6pt[:, 4:6] -= scene.principal_point
    for solver_id, sample in (("e5pt", e5pt), ("f7pt", f7pt), ("ff6pt", ff6pt)):
        write_correspondences(os.path.join(out_dir, f"{solver_id}_clean.csv"), sample)


def write_outputs(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)

    def out(name):
        return os.path.join(out_dir, name)

    for solver_id in RANSAC_SOLVERS:
        for lo in ("on", "off"):
            for seed in ("1", "5"):
                run(["ransac", "--problem", solver_id,
                     "--input", os.path.join(FIXTURES, "ransac_f_demo.csv"),
                     "--meta", os.path.join(FIXTURES, "ransac_f_demo.meta"),
                     "--lo", lo, "--seed", seed, "--fixed-clock",
                     "--output", out(f"ransac_{solver_id}_lo-{lo}_seed{seed}.csv")])
    scene, corr, _ = make_robust_instance(1000, 0.9, 0.5, np.random.default_rng(1000))
    write_correspondences(out("robust_1000.csv"), corr)
    write_metadata(out("robust_1000.meta"),
                   PairMetadata(k1=scene.k1.matrix(), k2=scene.k2.matrix(),
                                gt_rotation=scene.pose.rotation,
                                gt_translation=scene.pose.translation,
                                gt_focal=scene.focal, dataset="synthetic",
                                sequence="large", pair_id="robust_1000"))
    for solver_id in LARGE_SOLVERS:
        run(["ransac", "--problem", solver_id, "--input", out("robust_1000.csv"),
             "--meta", out("robust_1000.meta"), "--seed", "1", "--fixed-clock",
             "--output", out(f"ransac_{solver_id}_n1000_seed1.csv")])
    for family, solvers in DATASET_FAMILIES:
        run(["bench-dataset", "--pairs", os.path.join(FIXTURES, "mini_dataset", "manifest.txt"),
             "--problem", family, "--solvers", solvers, "--seed", "0", "--fixed-clock",
             "--out", out(f"dataset_{family}.csv")])
    for experiment, trials in (("stability", "40"), ("focal-stability", "20"),
                               ("noise", "10"), ("ransac-speedup", "3")):
        run(["bench-synthetic", "--experiment", experiment, "--trials", trials,
             "--seed", "0", "--fixed-clock", "--out-dir", out_dir])
    write_point_samples(out_dir)
    for solver_id in ("e3sift", "e5pt", "f4sift", "f7pt", "ff3sift", "ff6pt"):
        folder = FIXTURES if solver_id in FIXTURE_SOLVERS else out_dir
        run(["solve", "--problem", solver_id,
             "--input", os.path.join(folder, f"{solver_id}_clean.csv"),
             "--output", out(f"solve_{solver_id}.txt")])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.strip().splitlines()[2])
    write_outputs(sys.argv[1])
