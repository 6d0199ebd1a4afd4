"""Text file formats: correspondence tables, pair metadata, solution and benchmark files.

All formats are line-oriented text. Floats are written with 17 significant
digits so that emit/parse round-trips are exact.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

FLOAT_FMT = "%.17g"

BENCHMARK_COLUMNS = ("pair_id", "solver", "rot_err_deg", "trans_err_deg", "focal_err",
                     "wall_ms", "iterations", "models_scored", "inliers", "status")


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def open_input(path):
    """The text of an input file as a line stream.

    A path that cannot be opened, or bytes that are not UTF-8, is a ParseError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return io.StringIO(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot open: {exc.strerror or exc}", path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", path=str(path)) from None


# ---------------------------------------------------------------------------
# Correspondence files: "# units=rad|deg" header, then 8 comma-separated
# columns (u1, v1, scale1, angle1, u2, v2, scale2, angle2) per record.
# ---------------------------------------------------------------------------

def write_correspondences(path, corr: np.ndarray, units: str = "rad") -> None:
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    if units not in ("rad", "deg"):
        raise ValueError("units must be 'rad' or 'deg'")
    out = corr.copy()
    if units == "deg":
        out[:, [3, 7]] = np.degrees(out[:, [3, 7]])
    with open(path, "w") as handle:
        handle.write(f"# units={units}\n")
        for row in out:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def read_correspondences(path) -> np.ndarray:
    """Parse a correspondence file into a packed (n, 8) array, angles in radians."""
    rows = []
    units = None
    with open_input(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text.lstrip("#").strip()
                if body.startswith("units="):
                    units = body[len("units="):].strip()
                continue
            parts = text.split(",")
            if len(parts) != 8:
                raise ParseError(f"expected 8 comma-separated values, got {len(parts)}",
                                 path=str(path), line=lineno)
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ParseError("non-numeric token", path=str(path), line=lineno) from None
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite value", path=str(path), line=lineno)
            rows.append(values)
    if units is None:
        raise ParseError("missing '# units=rad|deg' header", path=str(path))
    if units not in ("rad", "deg"):
        raise ParseError(f"unknown angle unit '{units}'", path=str(path))
    if not rows:
        raise ParseError("no correspondence records", path=str(path))
    corr = np.array(rows)
    if units == "deg":
        corr[:, [3, 7]] = np.radians(corr[:, [3, 7]])
    corr[:, [3, 7]] = np.mod(corr[:, [3, 7]], 2.0 * math.pi)
    if np.any(corr[:, [2, 6]] <= 0.0):
        raise ParseError("feature scales must be positive", path=str(path))
    return corr


# ---------------------------------------------------------------------------
# Pair metadata: "key value..." lines; 3x3 matrices as 9 row-major numbers.
# ---------------------------------------------------------------------------

@dataclass
class PairMetadata:
    k1: np.ndarray | None = None
    k2: np.ndarray | None = None
    gt_rotation: np.ndarray | None = None
    gt_translation: np.ndarray | None = None
    gt_focal: float | None = None
    dataset: str = ""
    sequence: str = ""
    pair_id: str = ""

    @property
    def principal_point(self) -> np.ndarray:
        if self.k1 is None:
            raise ValueError("metadata lacks intrinsics")
        return np.array([self.k1[0, 2], self.k1[1, 2]])


_MATRIX_KEYS = {"K1": ("k1", 9), "K2": ("k2", 9), "gt_R": ("gt_rotation", 9),
                "gt_t": ("gt_translation", 3)}
_TEXT_KEYS = {"dataset", "sequence", "pair"}


def write_metadata(path, meta: PairMetadata) -> None:
    with open(path, "w") as handle:
        if meta.dataset:
            handle.write(f"dataset {meta.dataset}\n")
        if meta.sequence:
            handle.write(f"sequence {meta.sequence}\n")
        if meta.pair_id:
            handle.write(f"pair {meta.pair_id}\n")
        for key, (attr, _) in _MATRIX_KEYS.items():
            value = getattr(meta, attr)
            if value is not None:
                flat = np.asarray(value, dtype=float).reshape(-1)
                handle.write(key + " " + " ".join(_fmt(v) for v in flat) + "\n")
        if meta.gt_focal is not None:
            handle.write("gt_focal " + _fmt(meta.gt_focal) + "\n")


def read_metadata(path) -> PairMetadata:
    meta = PairMetadata()
    with open_input(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, _, rest = text.partition(" ")
            if key in _TEXT_KEYS:
                attr = "pair_id" if key == "pair" else key
                setattr(meta, attr, rest.strip())
                continue
            if key == "gt_focal":
                try:
                    meta.gt_focal = float(rest)
                except ValueError:
                    raise ParseError("non-numeric focal", path=str(path), line=lineno) from None
                if not math.isfinite(meta.gt_focal):
                    raise ParseError("non-finite value", path=str(path), line=lineno)
                continue
            if key in _MATRIX_KEYS:
                attr, count = _MATRIX_KEYS[key]
                try:
                    values = [float(v) for v in rest.split()]
                except ValueError:
                    raise ParseError("non-numeric matrix entry", path=str(path),
                                     line=lineno) from None
                if len(values) != count:
                    raise ParseError(f"{key} needs {count} numbers, got {len(values)}",
                                     path=str(path), line=lineno)
                if not all(map(math.isfinite, values)):
                    raise ParseError("non-finite value", path=str(path), line=lineno)
                shape = (3, 3) if count == 9 else (3,)
                setattr(meta, attr, np.array(values).reshape(shape))
                continue
            raise ParseError(f"unknown key '{key}'", path=str(path), line=lineno)
    return meta


# ---------------------------------------------------------------------------
# Solution files ("solve" output): key/value structured text.
# ---------------------------------------------------------------------------

def write_solutions(handle, problem: str, models: list[dict]) -> None:
    """models: dicts with 'matrix' (3x3), optional 'focal', diagnostics floats."""
    handle.write(f"problem {problem}\n")
    handle.write(f"solutions {len(models)}\n")
    for i, model in enumerate(models):
        handle.write(f"solution {i}\n")
        flat = np.asarray(model["matrix"], dtype=float).reshape(-1)
        handle.write("F " + " ".join(_fmt(v) for v in flat) + "\n")
        if model.get("focal") is not None:
            handle.write("focal " + _fmt(model["focal"]) + "\n")
        for key in sorted(model):
            if key in ("matrix", "focal"):
                continue
            handle.write(f"{key} " + _fmt(model[key]) + "\n")


# ---------------------------------------------------------------------------
# Benchmark CSV.
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkRow:
    pair_id: str
    solver: str
    rot_err_deg: float = math.nan
    trans_err_deg: float = math.nan
    focal_err: float = math.nan
    wall_ms: float = 0.0
    iterations: int = 0
    models_scored: int = 0
    inliers: int = 0
    status: str = "ok"

    def to_csv(self) -> str:
        return ",".join([
            self.pair_id, self.solver, _fmt(self.rot_err_deg), _fmt(self.trans_err_deg),
            _fmt(self.focal_err), _fmt(self.wall_ms), str(self.iterations),
            str(self.models_scored), str(self.inliers), self.status,
        ])


def write_benchmark_rows(path, rows: list[BenchmarkRow]) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(BENCHMARK_COLUMNS) + "\n")
        for row in rows:
            handle.write(row.to_csv() + "\n")
