"""Tests of the span recorder. Run from the root of a checkout: python3 -m pytest posebench"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import spans  # noqa: E402

robust = pytest.importorskip("siftpose.robust")
import siftpose  # noqa: E402
import siftpose.bench  # noqa: E402,F401
import siftpose.synthetic as synthetic  # noqa: E402


def test_uninstall_restores_the_program():
    before = {(holder, attr): getattr(sys.modules[holder], attr)
              for (_, attr) in spans.FUNCTIONS
              for holder in ("siftpose", "siftpose.robust", "siftpose.bench")
              if hasattr(sys.modules[holder], attr)}
    own = {cls: dict(vars(getattr(robust, cls))) for cls in spans.ADAPTERS}
    tracer = spans.Tracer()
    tracer.install()
    assert robust.ransac is not before[("siftpose.robust", "ransac")]
    tracer.uninstall()
    for (holder, attr), value in before.items():
        assert getattr(sys.modules[holder], attr) is value
    for cls, attrs in own.items():
        assert dict(vars(getattr(robust, cls))) == attrs


def test_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer()
    tracer.install()
    try:
        op = tracer.open(spans.OP)
        scene = synthetic.generate_scene(synthetic.SyntheticConfig(), np.random.default_rng(1))
        problem = siftpose.make_problem("f4sift", scene.correspondences)
        report = siftpose.ransac(problem, robust.RansacConfig(seed=1, max_iterations=20))
        tracer.close(op)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("synthetic.generate_scene", "constraints.rows", "robust.make_problem",
                 "robust.ransac", "robust.solve", "robust.score"):
        assert name in names
    ransac_span = names.index("robust.ransac")
    assert tracer.spans[ransac_span][3] == op
    assert all(parent >= 0 for _, _, _, parent in tracer.spans[op + 1:])
    self_s = tracer.self_times()
    assert np.all(self_s >= -1e-9)
    whole = tracer.spans[op][2] - tracer.spans[op][1]
    assert np.sum(self_s) == pytest.approx(whole, rel=1e-9)
    assert tracer.counts["robust.ransac.iterations"] == report.iterations_run
