#!/usr/bin/env python3
"""Regenerate the bundled fixtures under fixtures/, or under another directory.

Usage: python3 scripts/make_fixtures.py [out_dir]

Deterministic: clean minimal samples for each solver in its native
coordinates, a robust-estimation demo pair, and a 20-pair mini dataset with
planted outliers for the dataset runner. out_dir defaults to the fixtures/
directory of this checkout; writing elsewhere lets the committed fixtures be
checked against a fresh copy with scripts/compare_outputs.py.
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from siftpose.bench import make_robust_instance
from siftpose.fileio import PairMetadata, write_correspondences, write_metadata
from siftpose.solvers import normalize_sift_correspondences
from siftpose.synthetic import SyntheticConfig, generate_scene

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def spanning(scene, size, rng):
    first = np.nonzero(scene.plane_ids == 0)[0]
    second = np.nonzero(scene.plane_ids == 1)[0]
    take = size // 2 + size % 2
    idx = np.concatenate([rng.permutation(first)[:take],
                          rng.permutation(second)[:size - take]])
    return rng.permutation(idx)


def minimal_samples(out):
    rng = np.random.default_rng(2024)
    scene = generate_scene(SyntheticConfig(), rng)

    # e3sift consumes calibrated coordinates when no metadata is given
    idx = spanning(scene, 3, rng)
    local = normalize_sift_correspondences(scene.correspondences[idx], scene.k1, scene.k2)
    write_correspondences(os.path.join(out, "e3sift_clean.csv"), local)

    idx = spanning(scene, 4, rng)
    write_correspondences(os.path.join(out, "f4sift_clean.csv"),
                          scene.correspondences[idx])

    # ff3sift assumes the principal point at the origin without metadata
    idx = spanning(scene, 3, rng)
    shifted = scene.correspondences[idx].copy()
    shifted[:, 0:2] -= scene.principal_point
    shifted[:, 4:6] -= scene.principal_point
    write_correspondences(os.path.join(out, "ff3sift_clean.csv"), shifted)


def ransac_demo(out):
    rng = np.random.default_rng(77)
    scene, corr, _ = make_robust_instance(200, 0.6, 0.5, rng)
    write_correspondences(os.path.join(out, "ransac_f_demo.csv"), corr)
    meta = PairMetadata(k1=scene.k1.matrix(), k2=scene.k2.matrix(),
                        gt_rotation=scene.pose.rotation,
                        gt_translation=scene.pose.translation,
                        gt_focal=scene.focal, dataset="synthetic",
                        sequence="demo", pair_id="ransac_f_demo")
    write_metadata(os.path.join(out, "ransac_f_demo.meta"), meta)


def mini_dataset(out, pairs=20):
    root = os.path.join(out, "mini_dataset")
    os.makedirs(root, exist_ok=True)
    lines = []
    for index in range(pairs):
        rng = np.random.default_rng(5000 + index)
        scene, corr, _ = make_robust_instance(200, 0.6, 0.5, rng)
        pair_id = f"pair_{index:03d}"
        corr_name = f"{pair_id}.csv"
        meta_name = f"{pair_id}.meta"
        write_correspondences(os.path.join(root, corr_name), corr)
        meta = PairMetadata(k1=scene.k1.matrix(), k2=scene.k2.matrix(),
                            gt_rotation=scene.pose.rotation,
                            gt_translation=scene.pose.translation,
                            gt_focal=scene.focal, dataset="synthetic-mini",
                            sequence="seq0", pair_id=pair_id)
        write_metadata(os.path.join(root, meta_name), meta)
        lines.append(f"{corr_name} {meta_name}")
    with open(os.path.join(root, "manifest.txt"), "w") as handle:
        handle.write("# correspondence_file metadata_file\n")
        handle.write("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", nargs="?", default=OUT)
    out = parser.parse_args(argv).out_dir
    os.makedirs(out, exist_ok=True)
    minimal_samples(out)
    ransac_demo(out)
    mini_dataset(out)
    print(f"fixtures written under {os.path.abspath(out)}")


if __name__ == "__main__":
    main()
