"""Golden-file comparison for the benchmark outputs.

A sweep CSV passes when its header equals the golden header, it has one row
per requested grid point, each row's parameter is the requested grid value,
and every cell lies within ``ATOL`` of the golden row at the same lattice
point. Byte identity is not required: cells such as ``chain_max_deviation``
hold rounding noise near 1e-16, and ``critical_noise`` carries the root
search's truncation, so a legitimate reordering of floating-point work or a
different root search may change their bytes. Byte changes are counted
separately, for information.

Run ``python3 benchmarks/compare.py`` to self-test the comparator.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import workloads

ATOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CHECK_ALL_GOLDEN = GOLDEN_DIR / "check_all.json"
MAX_REPORTED = 5


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


class GoldenSweep:
    """Golden rows of one sweep, keyed by lattice index of the parameter."""

    def __init__(self, header: list[str], rows: list[list[str]], lattice: int):
        self.header = header
        self.lattice = lattice
        self.rows = {round(float(row[0]) * lattice): row for row in rows}

    @classmethod
    def load(cls, name: str, lattice: int) -> "GoldenSweep":
        return cls(*read_csv(GOLDEN_DIR / name), lattice)


def _cell_ok(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= ATOL


def compare_rows(
    header: list[str],
    rows: list[list[str]],
    golden: GoldenSweep,
    start: float,
    stop: float,
    points: int,
) -> tuple[list[str], bool]:
    """Return (failures, bytes_changed) for one sweep's parsed CSV."""
    failures: list[str] = []
    if header != golden.header:
        failures.append(f"header {header} != golden {golden.header}")
        return failures, True
    if len(rows) != points:
        failures.append(f"{len(rows)} rows, expected {points}")
        return failures, True
    changed = False
    for i, row in enumerate(rows):
        if len(row) != len(header):
            failures.append(f"row {i}: {len(row)} cells, expected {len(header)}")
            changed = True
            continue
        want_x = start + i * (stop - start) / (points - 1)
        try:
            x = float(row[0])
        except ValueError:
            x = math.nan
        target = golden.rows.get(round(x * golden.lattice)) if math.isfinite(x) else None
        if target is None or abs(x - want_x) > ATOL:
            failures.append(f"row {i}: parameter {row[0]} is not grid point {want_x!r}")
            changed = True
            continue
        changed = changed or row != target
        for column, got, want in zip(header, row, target):
            if not _cell_ok(got, want):
                failures.append(f"row {i} ({header[0]}={row[0]}): {column}={got}, golden {want}")
    return failures, changed


def compare_sweep_csv(path: Path, golden: GoldenSweep, start: float, stop: float,
                      points: int) -> tuple[list[str], bool]:
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, csv.Error) as exc:
        return [f"unreadable CSV {path.name}: {exc}"], True
    return compare_rows(header, rows, golden, start, stop, points)


def compare_checks(
    results: list[tuple[str, float, float, bool]],
) -> tuple[int, int, list[str]]:
    """Compare ``(name, max_deviation, threshold, passed)`` rows with the golden list.

    Returns (rows attempted, rows failed, failure messages); a missing or
    extra row counts as a failed row.
    """
    golden = json.loads(CHECK_ALL_GOLDEN.read_text(encoding="utf-8"))
    failures: list[str] = []
    failed = 0
    attempted = max(len(golden), len(results))
    for i in range(attempted):
        if i >= len(results):
            failed += 1
            failures.append(f"missing check row {golden[i]['name']}")
            continue
        name, dev, threshold, passed = results[i]
        if i >= len(golden):
            failed += 1
            failures.append(f"unexpected check row {name}")
            continue
        want = golden[i]
        problems = []
        if name != want["name"]:
            problems.append(f"name {name} != golden {want['name']}")
        if threshold != want["threshold"]:
            problems.append(f"threshold {threshold} != golden {want['threshold']}")
        if not passed:
            problems.append(f"FAIL at deviation {dev:.3e}")
        if not abs(dev - want["max_deviation"]) <= ATOL:
            problems.append(f"deviation {dev:.3e} vs golden {want['max_deviation']:.3e}")
        if problems:
            failed += 1
            failures.append(f"{name}: " + "; ".join(problems))
    return attempted, failed, failures


def self_test() -> list[str]:
    """Check the comparator on a golden file; return the cases it got wrong."""
    lattice = workloads.LATTICE
    golden = GoldenSweep.load("two_qubit-prob-depolarizing.csv", lattice)
    header = list(golden.header)
    rows = [list(golden.rows[k]) for k in range(0, lattice + 1, 2)]
    grid = (0.0, 1.0, len(rows))
    wrong = []
    if compare_rows(header, rows, golden, *grid)[0]:
        wrong.append("an unchanged CSV was rejected")
    nudged = [list(r) for r in rows]
    nudged[40][3] = repr(float(nudged[40][3]) + 1e-10)
    if compare_rows(header, nudged, golden, *grid)[0]:
        wrong.append("a 1e-10 change was rejected")
    nudged[40][3] = repr(float(rows[40][3]) + 1e-8)
    if not compare_rows(header, nudged, golden, *grid)[0]:
        wrong.append("a 1e-8 change was accepted")
    dropped = [r[:3] + r[4:] for r in rows]
    if not compare_rows(header[:3] + header[4:], dropped, golden, *grid)[0]:
        wrong.append("a dropped column was accepted")
    if not compare_rows(header, rows[:-1], golden, *grid)[0]:
        wrong.append("a missing row was accepted")
    shifted = [rows[i][:1] + rows[i + 1][1:] for i in range(len(rows) - 1)]
    if not compare_rows(header, shifted, golden, 0.0, 0.99, len(shifted))[0]:
        wrong.append("values of the neighbouring grid point were accepted")
    return wrong


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("comparator self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
