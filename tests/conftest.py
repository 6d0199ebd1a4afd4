import os

import numpy as np
import pytest

from siftpose.synthetic import SyntheticConfig, generate_scene

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Child processes running `python -m siftpose.cli` import this checkout's src/."""
    with pytest.MonkeyPatch.context() as patch:
        paths = [SRC, os.environ.get("PYTHONPATH")]
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture(scope="session")
def scenes():
    """A reusable batch of clean synthetic scenes."""
    rng = np.random.default_rng(20240817)
    return [generate_scene(SyntheticConfig(), rng) for _ in range(20)]


@pytest.fixture()
def scene(scenes):
    return scenes[0]


def spanning_indices(scene, size, rng):
    """A minimal-sample index set spread over both planes."""
    planes = scene.plane_ids
    first = rng.permutation(np.nonzero(planes == 0)[0])
    second = rng.permutation(np.nonzero(planes == 1)[0])
    take_first = size // 2 + size % 2
    idx = np.concatenate([first[:take_first], second[:size - take_first]])
    return rng.permutation(idx)
