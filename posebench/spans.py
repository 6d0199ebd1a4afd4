"""Spans around siftpose's public entry points, wrapped from outside the program.

install() replaces each traced function in every siftpose module namespace
that holds it (and each traced method on the problem adapter classes) with
a wrapper that records a span: name, start, end and the index of the
enclosing span. uninstall() puts the originals back, so untraced rounds run
the program's own code objects. Spans stay in memory until write().
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

OP = "op"  # the benchmark's span around one whole operation


def _solver_span(args, kwargs) -> str:
    return "solvers." + (args[0] if args else kwargs["solver_id"])


def _count_solve(counts, args, result):
    counts["robust.solve.samples"] += len(args[1])
    counts["robust.solve.models"] += sum(len(models) for models in result)


def _count_lo(counts, args, result):
    # local_optimize returns (model, score, inliers, rounds, history, warning);
    # history[0] is the seed model's score
    counts["robust.lo.calls"] += 1
    counts["robust.lo.improved"] += int(result[1] < result[4][0])


def _count_ransac(counts, args, result):
    counts["robust.ransac.iterations"] += result.iterations_run
    counts["robust.ransac.models_scored"] += result.models_scored
    counts["robust.ransac.lo_rounds"] += result.lo_rounds


def _count_solver(counts, args, result):
    counts[_solver_span(args, {}) + ".models"] += len(result.models)


# (module, function) -> (span name or a function of the call's arguments, counter)
FUNCTIONS = {
    ("siftpose.synthetic", "generate_scene"): ("synthetic.generate_scene", None),
    ("siftpose.synthetic", "add_noise"): ("synthetic.add_noise", None),
    ("siftpose.bench", "make_robust_instance"): ("bench.make_robust_instance", None),
    ("siftpose.constraints", "epipolar_rows"): ("constraints.rows", None),
    ("siftpose.constraints", "sift_rows"): ("constraints.rows", None),
    ("siftpose.robust", "make_problem"): ("robust.make_problem", None),
    ("siftpose.robust", "score_msac"): ("robust.score", None),
    ("siftpose.robust", "local_optimize"): ("robust.lo", _count_lo),
    ("siftpose.robust", "ransac"): ("robust.ransac", _count_ransac),
    ("siftpose.solvers", "run_minimal_solver"): (_solver_span, _count_solver),
}
# methods of each problem adapter class in siftpose.robust
ADAPTERS = ("FundamentalProblem", "EssentialProblem", "FocalProblem")
METHODS = {
    "solve_minimal_batch": ("robust.solve", _count_solve),
    "block_errors": ("robust.score", None),
    "refit": ("robust.lo.refit", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[span + ".failed"] += 1
                raise
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [module for key, module in sys.modules.items()
                   if key == "siftpose" or key.startswith("siftpose.")]
        for (module, attr), (name, count) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name, count)
            for holder in modules:
                if vars(holder).get(attr) is original:
                    self._patch(holder, attr, wrapper)
        robust = sys.modules["siftpose.robust"]
        for cls_name in ADAPTERS:
            cls = getattr(robust, cls_name)
            for attr, (name, count) in METHODS.items():
                self._patch(cls, attr, self._wrap(getattr(cls, attr), name, count))

    def _patch(self, owner, attr, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, had_own, old in reversed(self._patches):
            if had_own:
                setattr(owner, attr, old)
            else:  # an inherited method: drop the override
                delattr(owner, attr)
        self._patches.clear()

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        starts = np.array([span[1] for span in self.spans])
        ends = np.array([span[2] for span in self.spans])
        parents = np.array([span[3] for span in self.spans], dtype=int)
        duration = ends - starts
        covered = np.zeros_like(duration)
        child = parents >= 0
        np.add.at(covered, parents[child], duration[child])
        return duration - covered

    def write(self, path, summary: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"summary": summary,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, handle, separators=(",", ":"))
