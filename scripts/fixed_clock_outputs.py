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
- bench-dataset --fixed-clock on the mini dataset for the e, f and ff
  families (ff3sift only: ff6pt RANSAC takes about 16 s a pair);
- bench-synthetic stability, focal-stability and noise at small trial counts,
  and ransac-speedup --fixed-clock;
- solve on the three clean minimal-sample fixtures.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from siftpose.cli import main  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")
RANSAC_SOLVERS = ("f4sift", "f7pt", "e3sift", "e5pt", "ff3sift")
DATASET_FAMILIES = (("e", "e3sift,e5pt"), ("f", "f4sift,f7pt"), ("ff", "ff3sift"))


def run(argv) -> None:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: siftpose {' '.join(argv)}")


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
    for family, solvers in DATASET_FAMILIES:
        run(["bench-dataset", "--pairs", os.path.join(FIXTURES, "mini_dataset", "manifest.txt"),
             "--problem", family, "--solvers", solvers, "--seed", "0", "--fixed-clock",
             "--out", out(f"dataset_{family}.csv")])
    for experiment, trials in (("stability", "40"), ("focal-stability", "20"),
                               ("noise", "10"), ("ransac-speedup", "3")):
        run(["bench-synthetic", "--experiment", experiment, "--trials", trials,
             "--seed", "0", "--fixed-clock", "--out-dir", out_dir])
    for solver_id in ("e3sift", "f4sift", "ff3sift"):
        run(["solve", "--problem", solver_id,
             "--input", os.path.join(FIXTURES, f"{solver_id}_clean.csv"),
             "--output", out(f"solve_{solver_id}.txt")])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.strip().splitlines()[2])
    write_outputs(sys.argv[1])
