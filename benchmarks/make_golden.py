"""Regenerate the golden files in ``benchmarks/golden``.

Each sweep the benchmark can run gets one golden CSV covering the whole
lattice of its swept parameter (``workloads.LATTICE`` points per unit), so
the grid of any seed is a subset of its rows. ``check_all.json`` holds the
rows of ``run_checks("all")`` at the default identity-suite seed.

Regenerate only from a commit whose outputs are trusted:

    PYTHONPATH=src python3 benchmarks/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import compare
import workloads


def golden_sweeps() -> list[workloads.Sweep]:
    combos = workloads.QUBIT_SWEEPS + [
        ("qudit", "prob", c) for c in ("depolarizing", "amplitude_damping")
    ]
    out = []
    for protocol, mode, channel in combos:
        stop = workloads.LATTICE_STOP[channel]
        points = round(stop * workloads.LATTICE) + 1
        fixed = range(len(workloads.CANONICAL_FIXED)) if channel == "canonical" else [0]
        for index in fixed:
            out.append(workloads.make_sweep(
                protocol, mode, channel, 0.0, stop, points, index,
                compare.GOLDEN_DIR, svg=False,
            ))
    return out


def main() -> int:
    import edss.checks
    import edss.cli

    compare.GOLDEN_DIR.mkdir(exist_ok=True)
    for sweep in golden_sweeps():
        with contextlib.redirect_stdout(io.StringIO()):
            code = edss.cli.main(list(sweep.argv))
        print(f"{sweep.golden}: exit {code}")
        if code != 0:
            return 1
    seed = workloads.identity_seed(workloads.DEFAULT_SEED)
    results = edss.checks.run_checks("all", identity={"seed": seed})
    rows = [
        {"name": r.name, "max_deviation": r.max_deviation, "threshold": r.threshold}
        for r in results
    ]
    if not all(r.passed for r in results):
        print("check all has failing rows; golden files not trusted", file=sys.stderr)
        return 1
    compare.CHECK_ALL_GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"{compare.CHECK_ALL_GOLDEN.name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
