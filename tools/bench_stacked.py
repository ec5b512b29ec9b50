"""Stacked driver passes against one-point runs, then the benchmark on two checkouts.

    python3 tools/bench_stacked.py --parent DIR --out BENCH.json \\
        [--run WORKLOAD:SEED:PAIRS ...] [--seconds 20] [--repeat 7]

Two parts, both written to ``--out`` as JSON:

* ``micro``: seconds per grid point of one stacked ``protocols._drive``
  pass over a chunk of depolarizing points, against the same points run one
  at a time, for the two-qubit and GHZ protocols and the qudit protocol at
  d = 2..10. A chunk holds as many points as the driver's chunk loop
  ``protocols._runs`` stacks at that register side
  (``protocols._chunk_points``), at most ``MAX_POINTS``. Each timing
  is the minimum of ``--repeat`` repeats, with the median and maximum as
  its spread. Both loops run in one process, so every repeat after the
  first hits the cached block plans (``tensor._plan``, one per pattern).
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
import sys
from pathlib import Path

from bench_spectra import ROOT, THREAD_VARS, end_to_end, parse_run, timed

MAX_POINTS = 101
CASES = [("two_qubit", 2), ("ghz", 2)] + [("qudit", d) for d in range(2, 11)]
DEFAULT_RUNS = [("qubit_sweeps", 0, 10), ("qudit_d6_sweeps", 0, 4), ("check_all", 0, 4)]


def micro(repeat: int) -> list[dict]:
    import numpy as np

    from edss.channels import noise_channel
    from edss.protocols import SPECS, _chunk_points, _drive

    rows = []
    for protocol, d in CASES:
        spec = SPECS[protocol, "probabilistic"]
        side = d ** len(spec.subsystems)
        points = min(MAX_POINTS, _chunk_points(spec, d))
        batch = [
            (noise_channel("depolarizing", d, x),) * len(spec.channel_roles)
            for x in np.linspace(0.0, 1.0, points)
        ]
        number = max(1, 200 // (points * d))
        stacked = timed(lambda: _drive(spec, batch, d), repeat, number)
        single = timed(lambda: [_drive(spec, [t], d) for t in batch], repeat, number)
        per_point = {
            name: {k: v / points for k, v in t.items()}
            for name, t in (("stacked_s", stacked), ("one_point_s", single))
        }
        rows.append({
            "protocol": protocol, "d": d, "side": side, "points": points, **per_point,
            "speedup_min": per_point["one_point_s"]["min"] / per_point["stacked_s"]["min"],
        })
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run", type=parse_run, action="append",
                        help="WORKLOAD:SEED:PAIRS; repeatable")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    if any(os.environ.get(name) != "1" for name in THREAD_VARS):
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (args.parent / "benchmarks" / "run.py").is_file():
        print(f"error: no benchmarks/run.py under {args.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    report = {"micro": {"repeat": args.repeat, "per_case": micro(args.repeat)}}
    records, summary = end_to_end(args.parent, args.run or DEFAULT_RUNS, args.seconds)
    report.update({"seconds": args.seconds, "end_to_end": records, "summary": summary})
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
