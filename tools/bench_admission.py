"""Stacked channel admission against one point at a time, then the benchmark on two checkouts.

    python3 tools/bench_admission.py --parent DIR --out BENCH.json \\
        [--run WORKLOAD:SEED:PAIRS ...] [--seconds 20] [--repeat 7]

Two parts, both written to ``--out`` as JSON:

* ``micro``: microseconds per grid point of ``protocols._admit`` on a batch of
  ``B`` depolarizing points, each its own channel object as in a sweep, for
  the two-qubit and GHZ protocols at B = 1, 16 and 101 and the qudit protocol
  at d = 3..6 with B = 1. ``parent_one_point_us`` is the parent checkout's
  admission, one point per call; ``one_point_us`` is this checkout's, one
  point per call; ``stacked_us`` is this checkout's, the whole batch in one
  call. Each checkout is timed in its own interpreter; each timing is the
  minimum of ``--repeat`` repeats, with the median and maximum as its spread.
* ``end_to_end``: ``benchmarks/run.py`` of the parent checkout ``--parent``
  and of this checkout in alternating order, through the runner of
  ``tools/bench_spectra.py`` (default: ``qubit_sweeps`` at seed 0 for ten
  pairs, the other two workloads for four).

BLAS and OpenMP pools are pinned to one thread. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_spectra import ROOT, THREAD_VARS, end_to_end, parse_run, timed

CASES = [("two_qubit", 2, b) for b in (1, 16, 101)] + [("ghz", 2, b) for b in (1, 16, 101)]
CASES += [("qudit", d, 1) for d in range(3, 7)]
DEFAULT_RUNS = [("qubit_sweeps", 0, 10), ("qudit_d6_sweeps", 0, 4), ("check_all", 0, 4)]


def micro_here(repeat: int) -> list[dict]:
    """Admission timings of the ``edss`` on ``sys.path``; a parent checkout
    admits one point per call, ``_admit(spec, channels, d)``."""
    import inspect

    import numpy as np

    from edss.channels import noise_channel
    from edss.protocols import SPECS, _admit

    stacked = "batch" in inspect.signature(_admit).parameters
    rows = []
    for protocol, d, points in CASES:
        spec = SPECS[protocol, "probabilistic"]
        batch = [
            (noise_channel("depolarizing", d, x),) * len(spec.channel_roles)
            for x in np.linspace(0.0, 1.0, points)
        ]
        number = max(1, 2000 // points)
        calls = {"one_point_us": lambda: [_admit(spec, p, d) for p in batch]}
        if stacked:
            calls = {
                "one_point_us": lambda: [_admit(spec, [p], d) for p in batch],
                "stacked_us": lambda: _admit(spec, batch, d),
            }
        per_point = {
            name: {k: v / points * 1e6 for k, v in timed(fn, repeat, number).items()}
            for name, fn in calls.items()
        }
        rows.append({"protocol": protocol, "d": d, "points": points, **per_point})
    return rows


def micro(parent: Path, repeat: int) -> list[dict]:
    """Both checkouts' timings, merged per case."""
    sides = {}
    for name, checkout in (("parent", parent), ("change", ROOT)):
        proc = subprocess.run(
            [sys.executable, __file__, "--micro-only", "--repeat", str(repeat)],
            env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True, check=True,
        )
        sides[name] = json.loads(proc.stdout)
    rows = []
    for parent_row, row in zip(sides["parent"], sides["change"]):
        row = {**row, "parent_one_point_us": parent_row["one_point_us"]}
        row["speedup_min"] = row["parent_one_point_us"]["min"] / row["stacked_us"]["min"]
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--run", type=parse_run, action="append",
                        help="WORKLOAD:SEED:PAIRS; repeatable")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--micro-only", action="store_true",
                        help="print the micro timings of the edss on PYTHONPATH and exit")
    args = parser.parse_args()
    if any(os.environ.get(name) != "1" for name in THREAD_VARS):
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.micro_only:
        print(json.dumps(micro_here(args.repeat)))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")
    if not (args.parent / "benchmarks" / "run.py").is_file():
        print(f"error: no benchmarks/run.py under {args.parent}", file=sys.stderr)
        return 2
    report = {"micro": {"repeat": args.repeat, "per_case": micro(args.parent, args.repeat)}}
    records, summary = end_to_end(args.parent, args.run or DEFAULT_RUNS, args.seconds)
    report.update({"seconds": args.seconds, "end_to_end": records, "summary": summary})
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
