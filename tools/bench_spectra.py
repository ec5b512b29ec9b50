"""Block-split against dense spectra, then the benchmark on two checkouts.

    python3 tools/bench_spectra.py --parent DIR --out BENCH.json \\
        [--run WORKLOAD:SEED:PAIRS ...] [--seconds 20] [--repeat 7]

Four parts, all written to ``--out`` as JSON:

* ``micro``: for d = 2..8, every partial transpose that one depolarizing
  ``run_qudit`` (p = 0.5) records, solved by ``hermitian_eigenvalues`` (the
  block route, at every side) and by a dense solve (``is_hermitian`` plus
  one ``eigvalsh``). Each timing is the minimum of ``--repeat`` repeats,
  with the median and maximum as its spread. Repeats after the first hit
  the cached block plans.
* ``plans``: ``measures._batch_negativities`` on the final state stack of a
  one-point two-qubit run (side 8) and of a 21-point d = 6 qudit sweep
  (side 216), as a batch of one, with the block plan cache emptied before
  every call (a miss) and kept (a hit), timed as in ``micro``.
* ``drives``: warm one-point ``protocols._drive`` runs (depolarizing,
  p = 0.5) of the qudit protocol at d = 2..6 and of the GHZ protocol, on the
  parent checkout and on this one, each in a fresh interpreter: seconds per
  drive (min, median and max of ``--repeat``), and the ``np.linalg.eigvalsh``
  calls of one drive, channel admission included. ``checks`` holds, from the
  same interpreters, ``run_checks("all")``: its first call, with every cache
  cold, and then ``--repeat`` more calls (min, median and max).
* ``end_to_end``: ``benchmarks/run.py`` of the parent checkout ``--parent``
  and of this checkout, run in alternating order, ``PAIRS`` pairs per
  ``--run`` entry (default: each workload at seed 0, two pairs). Each run
  keeps the result line (the last stdout line) and the environment line
  before it; ``summary`` gives each side's ``wall_s`` median and quartiles
  and how many pairs the change won.

BLAS and OpenMP pools are pinned to one thread, as ``benchmarks/run.py``
pins them for its passes. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("qubit_sweeps", "qudit_d6_sweeps", "check_all")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
DIMS = range(2, 9)


def timed(fn, repeat: int, number: int) -> dict[str, float]:
    """Seconds per call of ``fn``: min, median and max over ``repeat`` repeats."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return {"min": min(samples), "median": statistics.median(samples), "max": max(samples)}


def recorded_partial_transposes(d: int) -> list:
    """Every partial transpose ``run_qudit(d, depolarizing 0.5)`` solves: each
    step against its recorded sides, each branch post state against the
    finish sides."""
    from edss.channels import noise_channel
    from edss.protocols import SPECS, run_qudit
    from edss.tensor import Bipartition, partial_transpose

    spec = SPECS["qudit", "probabilistic"]
    trace = run_qudit(d, noise_channel("depolarizing", d, 0.5))
    recorded = [
        partial_transpose(state, Bipartition.split(side, 3))
        for step, (_, state) in zip(spec.steps, trace.steps)
        for side in (spec.exchange, *step.record)
    ]
    recorded += [
        partial_transpose(branch.post_state, Bipartition.split(side, 2))
        for branch in trace.branches
        if branch.post_state is not None
        for side in spec.finish
    ]
    return recorded


def micro(repeat: int) -> dict:
    import numpy as np

    from edss import tensor

    def dense(h):
        if not tensor.is_hermitian(h):
            raise ValueError("input is not Hermitian within tolerance")
        return np.linalg.eigvalsh(h)

    def largest_block(h):
        labels = tensor._component_labels(tensor._Entries.of(h, (h.shape[-1],)))
        return int(np.bincount(labels).max())

    rows = []
    for d in DIMS:
        pts = recorded_partial_transposes(d)
        number = max(1, 64 // d**2)
        row = {
            "d": d,
            "partial_transposes": len(pts),
            "sides": sorted({h.shape[0] for h in pts}),
            "largest_block": max(largest_block(h) for h in pts),
            "max_abs_eig_diff": max(
                float(np.max(np.abs(tensor.hermitian_eigenvalues(h) - np.linalg.eigvalsh(h))))
                for h in pts
            ),
            "hermitian_eigenvalues_s": timed(
                lambda: [tensor.hermitian_eigenvalues(h) for h in pts], repeat, number
            ),
            "dense_s": timed(lambda: [dense(h) for h in pts], repeat, number),
        }
        row["speedup_min"] = row["dense_s"]["min"] / row["hermitian_eigenvalues_s"]["min"]
        rows.append(row)
    return {
        "workload": "partial transposes of one run_qudit(d, depolarizing p=0.5)",
        "repeat": repeat,
        "per_d": rows,
    }


def plans(repeat: int) -> list[dict]:
    import numpy as np

    from edss import tensor
    from edss.channels import noise_channel
    from edss.measures import _batch_negativities
    from edss.protocols import SPECS, _evolve
    from edss.tensor import Bipartition

    rows = []
    for protocol, d, points in (("two_qubit", 2, 1), ("qudit", 6, 21)):
        spec = SPECS[protocol, "probabilistic"]
        batch = [
            (noise_channel("depolarizing", d, x),) * len(spec.channel_roles)
            for x in np.linspace(0.0, 1.0, points)
        ]
        dims = (d,) * len(spec.subsystems)
        stack = _evolve(spec, batch, dims)[-1][1]
        part = Bipartition.split({0}, len(dims))
        number = max(1, 2000 // len(stack.rows))

        def cold():
            tensor._PLANS.clear()
            return _batch_negativities([(stack, part)])

        rows.append({
            "protocol": protocol, "d": d, "side": d ** len(dims), "points": points,
            "entries": len(stack.rows),
            "miss_s": timed(cold, repeat, number),
            "hit_s": timed(lambda: _batch_negativities([(stack, part)]), repeat, number),
        })
        rows[-1]["hit_speedup_min"] = rows[-1]["miss_s"]["min"] / rows[-1]["hit_s"]["min"]
    return rows


DRIVES = [("qudit", d) for d in range(2, 7)] + [("ghz", 2)]


def drive_rows(repeat: int) -> list[dict]:
    """The ``drives`` rows of the ``edss`` on ``sys.path``."""
    from unittest.mock import patch

    import numpy as np

    from edss.channels import noise_channel
    from edss.protocols import SPECS, _drive

    rows = []
    for protocol, d in DRIVES:
        spec = SPECS[protocol, "probabilistic"]
        batch = [(noise_channel("depolarizing", d, 0.5),) * len(spec.channel_roles)]
        _drive(spec, batch, d)  # warm: block plans built, transfer tensors kept
        with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            _drive(spec, batch, d)
        rows.append({
            "protocol": protocol, "d": d, "eigvalsh_calls": spy.call_count,
            "drive_s": timed(lambda: _drive(spec, batch, d), repeat, 50),
        })
    return rows


def checks_row(repeat: int) -> dict:
    """Seconds of ``run_checks("all")`` of the ``edss`` on ``sys.path``: the
    first call in this interpreter, then ``repeat`` more."""
    from edss.checks import run_checks

    start = time.perf_counter()
    run_checks("all")
    first = time.perf_counter() - start
    return {"first_s": first, "repeat_s": timed(lambda: run_checks("all"), repeat, 1)}


def drives(parent: Path, repeat: int) -> tuple[dict[str, list[dict]], dict[str, dict]]:
    """``drive_rows`` and ``checks_row`` of the parent checkout and of this one,
    each in a fresh interpreter with that checkout's sources first on
    ``sys.path``; ``checks_row`` runs first, so its first call is cold."""
    rows, checks = {}, {}
    for side, checkout in (("parent", parent), ("change", ROOT)):
        code = (
            f"import json, sys; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(ROOT / 'tools')!r}]; import bench_spectra; "
            f"checks = bench_spectra.checks_row({repeat}); "
            f"print(json.dumps([bench_spectra.drive_rows({repeat}), checks]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=600, check=True)
        rows[side], checks[side] = json.loads(proc.stdout.strip().splitlines()[-1])
    return rows, checks


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=seconds + 300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"environment": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def end_to_end(parent: Path, runs: list[tuple[str, int, int]], seconds: int) -> tuple[list, list]:
    records, summary = [], []
    for workload, seed, pairs in runs:
        walls = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = bench_run(parent if side == "parent" else ROOT, workload, seed, seconds)
                metrics = out["result"]["metrics"]
                walls[side].append(metrics["wall_s"]["value"])
                records.append({"workload": workload, "seed": seed, "pair": pair,
                                "side": side, **out})
                print(f"{workload} seed {seed} pair {pair} {side}: "
                      f"wall_s {metrics['wall_s']['value']:.3f}, "
                      f"failed {out['result']['failed']}", flush=True)
        wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
        summary.append({
            "workload": workload, "seed": seed, "pairs": pairs,
            "wall_s": {side: {"runs": v, **quartiles(v)} for side, v in walls.items()},
            "change_wins": wins,
        })
    return records, summary


def parse_run(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    if workload not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {workload!r}")
    return workload, int(seed), int(pairs)


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
    runs = args.run or [(w, 0, 2) for w in WORKLOADS]
    report = {"micro": micro(args.repeat), "plans": plans(args.repeat)}
    report["drives"], report["checks"] = drives(args.parent.resolve(), args.repeat)
    for part in ("plans", "drives", "checks"):
        print(json.dumps(report[part], indent=1), flush=True)
    records, summary = end_to_end(args.parent, runs, args.seconds)
    report.update({"seconds": args.seconds, "end_to_end": records, "summary": summary})
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
