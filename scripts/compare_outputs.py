#!/usr/bin/env python3
"""Compare two output directories of scripts/fixed_clock_outputs.py, file by file.

Usage: python3 scripts/compare_outputs.py <dir_a> <dir_b>

Each file is reported as identical (same bytes), roundoff-only or changed.
Lines are split into fields at commas and whitespace and compared in order:

- integer, status and text fields must be equal;
- float fields may differ by at most 1e-9 relative; "nan" equals "nan";
- values at the roundoff floor are exempt: in a log10 column, two values
  both at or below -9; in an error or residual column (its name holds
  "err" or "resid"), two values less than 1e-9 apart, such as pixel errors
  of noise-free samples and constraint residuals near 1e-20.

A CSV row takes its column name from the header, any other line from its
first field. When the lines differ in order only, each line is matched to
a distinct line of the other file by the same rules, and the file is
reported as roundoff-only and reordered: models tied at a residual near
1e-20 are listed in an order that roundoff decides. A file only one
directory holds is changed; a subdirectory both hold is compared the same
way, file by file. Exits 1 when any file changed, 0 otherwise.
"""
import math
import os
import re
import sys

RELATIVE = 1e-9
FLOOR = 1e-9
LOG10_FLOOR = -9.0
FLOOR_COLUMNS = ("err", "resid")
INTEGER = re.compile(r"[+-]?\d+")
SPLIT = re.compile(r"[,\s]+")


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_field(a: str, b: str, column: str):
    """(reason two fields differ or None, their relative change; 0 at the floor)."""
    if a == b:
        return None, 0.0
    if INTEGER.fullmatch(a) or INTEGER.fullmatch(b):
        return f"integer {a} != {b}", 0.0
    x, y = _float(a), _float(b)
    if x is None or y is None:
        return f"text {a!r} != {b!r}", 0.0
    if math.isnan(x) and math.isnan(y):
        return None, 0.0
    change = abs(x - y) / max(abs(x), abs(y))
    if change <= RELATIVE:
        return None, change
    if column.startswith("log10") and x <= LOG10_FLOOR and y <= LOG10_FLOOR:
        return None, 0.0
    if any(key in column for key in FLOOR_COLUMNS) and abs(x - y) < FLOOR:
        return None, 0.0
    return f"float {a} != {b}", change


def _fields(line: str) -> list[str]:
    return [field for field in SPLIT.split(line.strip()) if field]


def compare_lines(line_a: str, line_b: str, header):
    """(first difference of two lines or None, largest relative float change)."""
    fields_a, fields_b = _fields(line_a), _fields(line_b)
    if len(fields_a) != len(fields_b):
        return f"{len(fields_a)} fields != {len(fields_b)}", 0.0
    worst = 0.0
    for k, (a, b) in enumerate(zip(fields_a, fields_b)):
        column = header[k] if header and len(header) == len(fields_a) else fields_a[0]
        reason, change = compare_field(a, b, column)
        if reason is not None:
            return f"{column}: {reason}", change
        worst = max(worst, change)
    return None, worst


def compare_text(text_a: str, text_b: str):
    """(first difference or None, largest relative float change, reordered)."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines != {len(lines_b)} lines", 0.0, False
    header = _fields(lines_a[0]) if lines_a and "," in lines_a[0] else None
    worst = 0.0
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        reason, change = compare_lines(line_a, line_b, header)
        if reason is not None:
            break
        worst = max(worst, change)
    else:
        return None, worst, False
    first = f"line {number}, {reason}"
    worst = 0.0
    unused = list(range(len(lines_b)))
    for line_a in lines_a:
        for j in unused:
            reason, change = compare_lines(line_a, lines_b[j], header)
            if reason is None:
                unused.remove(j)
                worst = max(worst, change)
                break
        else:
            return first, 0.0, False
    return None, worst, True


def compare_dirs(dir_a: str, dir_b: str, prefix: str = "") -> bool:
    """Print one verdict per file, subdirectories included; True when no file changed."""
    ok = True
    for base in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        path_a, path_b = os.path.join(dir_a, base), os.path.join(dir_b, base)
        name = prefix + base
        if os.path.isdir(path_a) and os.path.isdir(path_b):
            ok = compare_dirs(path_a, path_b, name + "/") and ok
            continue
        if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
            print(f"changed        {name}: only in {dir_a if os.path.isfile(path_a) else dir_b}")
            ok = False
            continue
        with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
            bytes_a, bytes_b = handle_a.read(), handle_b.read()
        if bytes_a == bytes_b:
            print(f"identical      {name}")
            continue
        reason, worst, reordered = compare_text(bytes_a.decode(), bytes_b.decode())
        if reason is None:
            print(f"roundoff-only  {name}: largest relative change {worst:.1e}"
                  f"{', lines reordered' if reordered else ''}")
        else:
            print(f"changed        {name}: {reason}")
            ok = False
    return ok


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.strip().splitlines()[2])
    sys.exit(0 if compare_dirs(sys.argv[1], sys.argv[2]) else 1)
