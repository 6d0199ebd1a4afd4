"""siftpose benchmark: per-solver pair latency and solver-study throughput.

Usage, from the root of a checkout:

    python3 posebench/run.py --workload pairs-200 --seed 1 --seconds 36 --trace 0

Workloads (see README.md for why each exists):

    pairs-200   make_problem + LO-MSAC ransac, 200 correspondences, 60% inliers
    pairs-1000  the same operation, 1000 correspondences, 90% inliers
    stability   noise-free generate_scene + one run_minimal_solver call

Every run attempts whole rounds (one operation per solver) until --seconds
have passed, then checks every output against posebench/reference.py. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run runs each round untraced and then
traced, and writes its spans to posebench/out/.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

PAIR_SOLVERS = ("e3sift", "e5pt", "f4sift", "f7pt")
ALL_SOLVERS = ("f4sift", "f7pt", "e3sift", "e5pt", "ff3sift", "ff6pt")
TIMED_SOLVERS = PAIR_SOLVERS  # the solvers every workload runs
SETUP_REPEATS = 3
PAIR_POOL = 48  # robust instances per run; later rounds cycle with fresh RANSAC seeds
NOISE_PX = 0.5
ROUNDOFF = 1e-6  # relative slack when re-deciding inliers in pixels
RANK_TOL = 1e-9  # s3 / s1 of a returned F, and of a projected E
RAW_E_TOL = 1e-6  # spectrum of an unprojected minimal-solver E on clean data
MAX_MEDIAN_ROTATION_DEG = 1.0
# log10 held-out error bounds (median, 99th percentile), after acceptance criterion 2
HELDOUT_BOUNDS = {"f": (-9.0, -5.0), "ff": (-9.0, -4.0), "e": (-6.0, -4.0)}
MAX_MEDIAN_FOCAL_ERROR = 1e-6  # acceptance criterion 3
MAX_REFUSED_SHARE = 0.05  # typed SolverError refusals per stability solver


def import_program():
    """siftpose from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import siftpose
    except ImportError as exc:
        raise SystemExit(f"posebench: cannot import siftpose from {SRC}: {exc}")
    if not os.path.abspath(siftpose.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"posebench: siftpose resolved to {siftpose.__file__}, not {SRC}")


import_program()

import numpy as np  # noqa: E402

import reference  # noqa: E402
from spans import OP, Tracer  # noqa: E402

import siftpose.bench as bench  # noqa: E402
import siftpose.robust as robust  # noqa: E402
import siftpose.solvers as solvers  # noqa: E402
import siftpose.synthetic as synthetic  # noqa: E402
from siftpose.errors import SolverError  # noqa: E402
from siftpose.parallel import limit_worker_threads  # noqa: E402


def family(solver_id: str) -> str:
    return solvers.solver_info(solver_id).family


# ---------------------------------------------------------------------------
# Workloads: prepare() draws an operation's inputs (untimed), execute() is the
# timed call into the program, check() compares outputs with the reference.
# ---------------------------------------------------------------------------

class PairsWorkload:
    """make_problem + ransac on robust instances, one per round and solver."""

    solvers = PAIR_SOLVERS

    def __init__(self, n: int, inlier_ratio: float):
        self.n = n
        self.inlier_ratio = inlier_ratio

    def make_inputs(self, seed: int):
        instances = []
        for i in range(PAIR_POOL):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            scene, corr, _ = bench.make_robust_instance(self.n, self.inlier_ratio,
                                                        NOISE_PX, rng)
            instances.append((scene, corr))
        return seed, instances

    def prepare(self, inputs, round_index: int, slot: int):
        seed, instances = inputs
        scene, corr = instances[round_index % len(instances)]
        ransac_seed = int(np.random.SeedSequence((seed, round_index, slot, 1))
                          .generate_state(1)[0])
        kwargs = {"k1": scene.k1, "k2": scene.k2} if family(self.solvers[slot]) == "e" else {}
        return self.solvers[slot], corr, kwargs, robust.RansacConfig(seed=ransac_seed), scene

    @staticmethod
    def execute(args):
        solver_id, corr, kwargs, config, _ = args
        problem = robust.make_problem(solver_id, corr, **kwargs)
        return robust.ransac(problem, config)

    def check(self, ops) -> tuple[int, list[str]]:
        failed, problems = 0, []
        rotation_errors = {s: [] for s in self.solvers}
        for args, report in ops:
            solver_id, corr, _, config, scene = args
            if isinstance(report, BaseException) or not report.success:
                failed += 1
                continue
            k1, k2 = scene.k1.matrix(), scene.k2.matrix()
            if family(solver_id) == "e":
                e = report.model.m
                s = reference.singular_values(e)
                if (s[0] - s[1]) / s[0] > RANK_TOL or s[2] / s[0] > RANK_TOL:
                    problems.append(f"{solver_id}: E spectrum {s}")
            else:
                f = report.model.m
                s = reference.singular_values(f)
                if s[2] / s[0] > RANK_TOL:
                    problems.append(f"{solver_id}: F not rank 2, s3/s1 = {s[2] / s[0]:.3g}")
                errors = reference.symmetric_epipolar_errors(f, corr[:, [0, 1, 4, 5]])
                inlier = np.zeros(corr.shape[0], dtype=bool)
                inlier[report.inliers] = True
                if np.any(errors[inlier] >= config.threshold * (1.0 + ROUNDOFF)):
                    problems.append(f"{solver_id}: reported inlier beyond the threshold, "
                                    f"max {np.max(errors[inlier]):.6g} px")
                if np.any(errors[~inlier] < config.threshold * (1.0 - ROUNDOFF)):
                    problems.append(f"{solver_id}: unreported inlier within the threshold, "
                                    f"min {np.min(errors[~inlier]):.6g} px")
                e = k2.T @ f @ k1
            truth = reference.relative_rotation(k1, scene.p1, k2, scene.p2)
            rotation_errors[solver_id].append(reference.essential_rotation_error_deg(e, truth))
        for solver_id, values in rotation_errors.items():
            if values and statistics.median(values) > MAX_MEDIAN_ROTATION_DEG:
                problems.append(f"{solver_id}: median rotation error "
                                f"{statistics.median(values):.3f} deg")
        return failed, problems


class StabilityWorkload:
    """Noise-free generate_scene + one minimal solve on a sample across both planes."""

    solvers = ALL_SOLVERS

    def __init__(self):
        self.config = synthetic.SyntheticConfig()
        per_plane = self.config.points_per_plane
        self.planes = [np.arange(p * per_plane, (p + 1) * per_plane)
                       for p in range(self.config.plane_count)]

    def make_inputs(self, seed: int):
        return seed

    def prepare(self, seed, round_index: int, slot: int):
        solver_id = self.solvers[slot]
        size = solvers.solver_info(solver_id).sample_size
        pick = np.random.default_rng(np.random.SeedSequence((seed, round_index, slot, 1)))
        shares = np.full(len(self.planes), size // len(self.planes))
        shares[pick.permutation(len(self.planes))[: size % len(self.planes)]] += 1
        idx = np.concatenate([pick.choice(members, share, replace=False)
                              for members, share in zip(self.planes, shares)])
        pick.shuffle(idx)
        scene_rng = np.random.default_rng(np.random.SeedSequence((seed, round_index, slot)))
        return solver_id, idx, scene_rng

    def execute(self, args):
        solver_id, idx, scene_rng = args
        scene = synthetic.generate_scene(self.config, scene_rng)
        kind = family(solver_id)
        if kind == "e":
            kwargs = {"k1": scene.k1, "k2": scene.k2}
        elif kind == "ff":
            kwargs = {"principal_point": scene.principal_point}
        else:
            kwargs = {}
        try:
            output = solvers.run_minimal_solver(solver_id, scene.correspondences[idx], **kwargs)
        except SolverError as exc:  # a typed refusal of the sample, counted apart
            output = exc
        return scene, output

    def check(self, ops) -> tuple[int, list[str]]:
        failed, problems = 0, []
        heldout = {s: [] for s in self.solvers}
        focal = {s: [] for s in self.solvers}
        refused = {s: 0 for s in self.solvers}
        expected_planes = np.concatenate([np.full(p.shape[0], j)
                                          for j, p in enumerate(self.planes)])
        for (solver_id, idx, _), result in ops:
            if isinstance(result, BaseException):
                failed += 1
                continue
            scene, output = result
            if isinstance(output, SolverError):
                refused[solver_id] += 1
                continue
            if not output.models:
                failed += 1
                continue
            kind = family(solver_id)
            k1, k2 = scene.k1.matrix(), scene.k2.matrix()
            pairs = scene.correspondences[:, [0, 1, 4, 5]]
            if not np.array_equal(scene.plane_ids, expected_planes):
                problems.append("stability: scene planes not in the expected layout")
                continue
            truth = reference.fundamental_from_projections(scene.p1, scene.p2)
            scene_error = np.max(reference.symmetric_epipolar_errors(truth, pairs))
            if scene_error > 1e-6:
                problems.append(f"stability: clean scene {scene_error:.3g} px off its ground truth")
            held = np.setdiff1d(np.arange(pairs.shape[0]), idx)
            best, best_focal = math.inf, math.nan
            for model in output.models:
                if kind == "e":
                    s = reference.singular_values(model.m)
                    if (s[0] - s[1]) / s[0] > RAW_E_TOL or s[2] / s[0] > RAW_E_TOL:
                        problems.append(f"{solver_id}: E spectrum {s}")
                    f = np.linalg.inv(k2).T @ model.m @ np.linalg.inv(k1)
                else:
                    f = model.fundamental.m if kind == "ff" else model.m
                    s = reference.singular_values(f)
                    if s[2] / s[0] > RANK_TOL:
                        problems.append(f"{solver_id}: F not rank 2, s3/s1 = {s[2] / s[0]:.3g}")
                error = float(np.mean(reference.symmetric_epipolar_errors(f, pairs[held])))
                if error < best:
                    best = error
                    if kind == "ff":
                        best_focal = abs(model.focal - scene.focal) / scene.focal
            heldout[solver_id].append(best)
            focal[solver_id].append(best_focal)
        for solver_id in self.solvers:
            attempted = len(heldout[solver_id]) + refused[solver_id]
            if attempted and refused[solver_id] > MAX_REFUSED_SHARE * attempted:
                problems.append(f"{solver_id}: {refused[solver_id]} of {attempted} samples refused")
            if not heldout[solver_id]:
                continue
            logs = np.log10(np.maximum(heldout[solver_id], 1e-16))
            median_bound, p99_bound = HELDOUT_BOUNDS[family(solver_id)]
            if np.median(logs) > median_bound or np.quantile(logs, 0.99) > p99_bound:
                problems.append(f"{solver_id}: log10 held-out error median {np.median(logs):.2f}, "
                                f"p99 {np.quantile(logs, 0.99):.2f}")
            if family(solver_id) == "ff" and np.median(focal[solver_id]) > MAX_MEDIAN_FOCAL_ERROR:
                problems.append(f"{solver_id}: median focal error "
                                f"{np.median(focal[solver_id]):.3g}")
        return failed, problems


WORKLOADS = {
    "pairs-200": lambda: PairsWorkload(200, 0.6),
    "pairs-1000": lambda: PairsWorkload(1000, 0.9),
    "stability": StabilityWorkload,
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def set_up(workload, seed: int):
    """Inputs plus one warm-up operation; returns (inputs, seconds)."""
    start = time.perf_counter()
    inputs = workload.make_inputs(seed)
    workload.execute(workload.prepare(inputs, 0, 0))
    return inputs, time.perf_counter() - start


def run_round(workload, inputs, round_index: int, ops: list, times: dict, tracer=None) -> float:
    """One operation per solver; appends to ops and times, returns the round's wall time."""
    start = time.perf_counter()
    for slot, solver_id in enumerate(workload.solvers):
        args = workload.prepare(inputs, round_index, slot)
        span = tracer.open(OP) if tracer is not None else None
        begin = time.perf_counter()
        try:
            result = workload.execute(args)
        except Exception as exc:  # counted as a failed operation
            print(f"posebench: {solver_id} raised {exc!r}", file=sys.stderr)
            result = exc
        times[solver_id].append(time.perf_counter() - begin)
        if span is not None:
            tracer.close(span)
        ops.append((args, result))
    return time.perf_counter() - start


def timed_phase(workload, inputs, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.

    Returns (ops, op times per solver, ops per second, untraced ops per
    second). With a tracer every round runs twice on the same inputs, first
    untraced and then traced, so both rates see the same work under the
    same machine load; the op times and the first rate are then the traced
    ones.
    """
    ops, times = [], {solver_id: [] for solver_id in workload.solvers}
    untraced_ops, untraced_times = [], {solver_id: [] for solver_id in workload.solvers}
    busy = untraced_busy = 0.0
    start = time.perf_counter()
    round_index = 0
    while round_index == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            untraced_busy += run_round(workload, inputs, round_index, untraced_ops,
                                       untraced_times)
            tracer.install()
        busy += run_round(workload, inputs, round_index, ops, times, tracer)
        if tracer is not None:
            tracer.uninstall()
        round_index += 1
    if tracer is None:
        rate = len(ops) / (time.perf_counter() - start)
        return ops, times, rate, rate
    return ops + untraced_ops, times, len(ops) / busy, len(untraced_ops) / untraced_busy


def end_to_end(setup_s: float, times: dict, ops_per_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (ops_per_s, "1/s")}
    for solver_id in TIMED_SOLVERS:
        metrics[f"{solver_id}_ms.p50"] = (1e3 * statistics.median(times[solver_id]), "ms")
    return metrics


def per_layer(tracer: Tracer, phase_start: int, untraced_rate: float,
              traced_rate: float) -> tuple[dict, dict]:
    """Per-layer metrics, and each layer's share of the traced operations' time.

    Times are self times per call over every span, set-up included; counts
    are per operation of the traced rounds.
    """
    names = [span[0] for span in tracer.spans]
    self_s = tracer.self_times()
    total, calls, phase_calls, phase_self = {}, {}, {}, {}
    for index, (name, value) in enumerate(zip(names, self_s)):
        total[name] = total.get(name, 0.0) + value
        calls[name] = calls.get(name, 0) + 1
        if index >= phase_start:
            phase_calls[name] = phase_calls.get(name, 0) + 1
            phase_self[name] = phase_self.get(name, 0.0) + value
    counts = tracer.counts
    ops = phase_calls.get(OP, 0)

    def ms(name):
        return 1e3 * total[name] / calls[name] if calls.get(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ransac_calls = phase_calls.get("robust.ransac", 0)
    op_time = sum(end - start for name, start, end, _ in tracer.spans[phase_start:]
                  if name == OP)
    shares = {name: value / op_time for name, value in phase_self.items()}
    metrics = {
        "synthetic.generate_scene.ms": (ms("synthetic.generate_scene"), "ms"),
        "synthetic.generate_scene.calls":
            (ratio(phase_calls.get("synthetic.generate_scene", 0), ops), "count"),
        "synthetic.add_noise.ms": (ms("synthetic.add_noise"), "ms"),
        "bench.make_robust_instance.ms": (ms("bench.make_robust_instance"), "ms"),
        "robust.make_problem.ms": (ms("robust.make_problem"), "ms"),
        "constraints.rows.ms": (ms("constraints.rows"), "ms"),
        "robust.solve.ms": (ms("robust.solve"), "ms"),
        "robust.solve.samples": (ratio(counts["robust.solve.samples"], ops), "count"),
        "robust.solve.models_per_sample":
            (ratio(counts["robust.solve.models"], counts["robust.solve.samples"]), "count"),
        "robust.score.ms": (ms("robust.score"), "ms"),
        "robust.lo.ms": (ms("robust.lo"), "ms"),
        "robust.lo.refit.ms": (ms("robust.lo.refit"), "ms"),
        "robust.lo.improved_share":
            (ratio(counts["robust.lo.improved"], counts["robust.lo.calls"]), "share"),
        "robust.ransac.self_ms": (ms("robust.ransac"), "ms"),
    }
    for name in ("iterations", "models_scored", "lo_rounds"):
        metrics[f"robust.ransac.{name}"] = (
            ratio(counts[f"robust.ransac.{name}"], ransac_calls), "count")
    for solver_id in ALL_SOLVERS:
        span = f"solvers.{solver_id}"
        metrics[f"{span}.ms"] = (ms(span), "ms")
        metrics[f"{span}.models"] = (ratio(counts[f"{span}.models"],
                                           phase_calls.get(span, 0)), "count")
        metrics[f"{span}.failed"] = (counts[f"{span}.failed"], "count")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    # the op span's own self time is the benchmark's code inside an operation
    metrics["trace.self_time_coverage"] = (1.0 - shares[OP], "share")
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    thread_limit = limit_worker_threads()
    import_s = time.perf_counter() - _T0
    print(f"posebench: BLAS threads {thread_limit}", file=sys.stderr)
    workload = WORKLOADS[args.workload]()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, seconds = set_up(workload, args.seed)
        setups.append(seconds)
    setup_s = import_s + statistics.median(setups)

    phase_start = 0
    if tracer is not None:
        tracer.uninstall()
        tracer.counts.clear()
        phase_start = len(tracer.spans)
    ops, times, rate, untraced_rate = timed_phase(workload, inputs, args.seconds, tracer)

    failed, problems = workload.check(ops)
    for problem in problems:
        print(f"posebench: check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(setup_s, times, rate)
    else:
        metrics, shares = per_layer(tracer, phase_start, untraced_rate, rate)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"metrics": {name: value for name, (value, _) in metrics.items()},
                            "op_time_share": shares})
        print(f"posebench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
        for name, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"posebench: share of op time in {name}: {share:.3f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"posebench: {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
