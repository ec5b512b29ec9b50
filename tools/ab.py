"""A/B runs of the benchmark: a parent checkout against this one.

    python3 tools/ab.py --parent DIR --out BENCH.json \\
        [--run WORKLOAD:SEED:PAIRS ...] [--seconds 20] [--repeat 7]

Sections of ``--out`` (JSON): ``end_to_end``, ``benchmarks/run.py`` of both
sides in alternating order, PAIRS pairs per ``--run`` (default: each workload
at seed 0, two pairs); ``summary``, per ``--run`` each side's ``wall_s``
quartiles and the pairs the change won (a tie counts for neither);
``layers``, per side and workload one ``benchmarks/run.py --trace 1`` run;
and ``in_process``, per side a list of ``ROUNDS`` rounds, each side in fresh
interpreters with its ``src`` first on ``sys.path`` and the side that goes
first alternating between rounds, as in ``end_to_end``. A round reads public
names only: each workload's entry calls as a benchmark pass makes them (the
first call, then min, median and max of ``--repeat``), and warm one-point
depolarizing runs of ``run_qudit`` (d = 2..6 and 24) and ``run_ghz``, and an
amplitude-damping ``run_qudit`` at d = 24, with the ``np.linalg.eigvalsh``
calls of one. ``in_process_summary`` gives per workload
each side's per-round minimum of the repeated entry calls and the rounds the
change won. ``outputs`` holds per side, in a fresh interpreter, the sha256 of
every CSV and SVG that each sweep workload writes and, for every
``run_checks("all")`` row, its position, its ``max_deviation`` and threshold by
``float.hex`` and its pass flag, and per workload the names
whose digest differs between the sides (or that one side lacks), at every
``WORKLOAD:SEED`` that ``--run`` names and at seed 0 for a workload it does not
name. ``layers`` and ``in_process`` run a workload at its first seed. BLAS and
OpenMP pools are pinned to one thread.
Before any timing each side gets a fresh bytecode directory of its own
(``PYTHONPYCACHEPREFIX``), its ``src`` compiled into it, which every later run
of that side reads, so ``setup_s`` compares code with code, not the state of
each checkout's ``__pycache__``. Run from the repository root.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from typing import NamedTuple
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("qubit_sweeps", "qudit_d6_sweeps", "check_all")
# In-process rounds; the side that goes first alternates, so an even count is balanced.
ROUNDS = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def timed(fn, repeat: int, number: int) -> dict[str, float]:
    """Seconds per call of ``fn``: min, median and max over ``repeat`` repeats."""
    samples = [t / number for t in timeit.repeat(fn, "gc.enable()", repeat=repeat, number=number)]
    return {"min": min(samples), "median": statistics.median(samples), "max": max(samples)}


def entry_calls(workload: str, seed: int, repeat: int) -> dict:
    """One workload's entry calls, through the edss and ``workloads`` on ``sys.path``."""
    import workloads
    from edss.checks import run_checks
    from edss.cli import main as edss_main

    with tempfile.TemporaryDirectory() as out:
        sweeps = [] if workload == "check_all" else workloads.sweeps(workload, seed, Path(out))
        identity = {"seed": workloads.identity_seed(seed)}

        def call():
            if not sweeps:
                run_checks("all", identity=identity)
            elif any(codes := [edss_main(list(sweep.argv)) for sweep in sweeps]):
                raise RuntimeError(f"edss sweep exited {codes}")

        return {"first_s": timed(call, 1, 1)["min"], "repeat_s": timed(call, repeat, 1)}


def check_digest(position: int, row) -> str:
    """One ``run_checks`` row's digest in ``outputs``: what a change must keep."""
    return f"{position}:{row.max_deviation.hex()}:{row.threshold.hex()}:{row.passed}"


def outputs(workload: str, seed: int) -> dict[str, str]:
    """Name -> digest of one workload's outputs through the edss on ``sys.path``:
    the sha256 of each file a sweep workload writes, or each ``run_checks("all")``
    row's position, ``max_deviation`` and threshold by ``float.hex`` and pass flag,
    so a reordered, re-thresholded or re-judged row differs too."""
    import workloads
    from edss.checks import run_checks
    from edss.cli import main as edss_main

    if workload == "check_all":
        rows = run_checks("all", identity={"seed": workloads.identity_seed(seed)})
        return {row.name: check_digest(i, row) for i, row in enumerate(rows)}
    with tempfile.TemporaryDirectory() as out:
        sweeps = workloads.sweeps(workload, seed, Path(out))
        if any(codes := [edss_main(list(sweep.argv)) for sweep in sweeps]):
            raise RuntimeError(f"edss sweep exited {codes}")
        files = sorted(Path(out).iterdir())
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


def output_targets(runs: list[tuple[str, int, int]]) -> list[tuple[str, int]]:
    """The ``(workload, seed)`` of each ``--run`` in order, once each, then seed 0
    of every workload that no ``--run`` names."""
    named = dict.fromkeys((w, s) for w, s, _ in runs)
    covered = {w for w, _ in named}
    return [*named, *((w, 0) for w in WORKLOADS if w not in covered)]


def output_digests(sides: dict[str, Checkout], targets: list[tuple[str, int]]) -> dict[str, dict]:
    """Per side and ``WORKLOAD:SEED`` of ``targets`` the ``outputs`` digests, each in a
    fresh interpreter, and per ``WORKLOAD:SEED`` the names whose digests differ
    between the sides."""
    digests = {side: {f"{w}:{s}": in_process(checkout, f"outputs({w!r}, {s})") for w, s in targets}
               for side, checkout in sides.items()}
    parent, change = digests["parent"], digests["change"]
    differ = {t: sorted(name for name in parent[t].keys() | change[t].keys()
                        if parent[t].get(name) != change[t].get(name)) for t in parent}
    return {"digests": digests, "differ": differ}


def warm_runs(repeat: int) -> dict[str, dict]:
    """Warm one-point runs through the edss on ``sys.path``, each with its
    number of calls per repeat: the d = 24 runs take tens of ms a call."""
    import numpy as np

    from edss import amplitude_damping, depolarizing, run_ghz, run_qudit

    runs = {f"qudit d={d}": (functools.partial(run_qudit, d, depolarizing(d, 0.5)), 50)
            for d in range(2, 7)}
    runs["ghz"] = functools.partial(run_ghz, depolarizing(2, 0.5)), 50
    for name, channel in (("depolarizing", depolarizing), ("amplitude_damping", amplitude_damping)):
        runs[f"qudit d=24 {name}"] = functools.partial(run_qudit, 24, channel(24, 0.5)), 3
    rows = {}
    for name, (run, number) in runs.items():
        run()  # warm: block plans built, transfer tensors kept
        with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            run()
        rows[name] = {"eigvalsh_calls": spy.call_count, "run_s": timed(run, repeat, number)}
    return rows


class Checkout(NamedTuple):
    """One side: its source tree, and the bytecode directory every run of it reads."""

    root: Path
    pycache: Path


def precompiled(root: Path, pycache: Path) -> Checkout:
    """``root`` with the fresh bytecode directory ``pycache``, its ``src`` compiled into it."""
    pycache.mkdir()
    checkout = Checkout(root, pycache)
    child([sys.executable, "-m", "compileall", "-q", str(root / "src")], checkout, 300)
    return checkout


def child(cmd: list[str], checkout: Checkout, timeout: int) -> list[str]:
    """Stdout lines of ``cmd`` run in ``checkout`` with its bytecode directory; a
    nonzero exit raises. Bytecode writing is on there, so the modules outside
    ``src`` (numpy, the standard library) are compiled into it at their first
    import and read back after, as an installed package's are."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(checkout.pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=checkout.root, capture_output=True, text=True,
                          timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.root}: exited {proc.returncode}: {proc.stderr[-1000:]}")
    return proc.stdout.strip().splitlines()


def in_process(checkout: Checkout, call: str) -> object:
    """``ab.<call>`` in a fresh interpreter, ``checkout``'s sources first on ``sys.path``."""
    root = checkout.root
    paths = [str(root / "src"), str(root / "benchmarks"), str(ROOT / "tools")]
    code = f"import json, sys; sys.path[:0] = {paths!r}; import ab; print(json.dumps(ab.{call}))"
    return json.loads(child([sys.executable, "-c", code], checkout, 900)[-1])


def in_process_rounds(sides: dict[str, Checkout], seeds: dict[str, int], repeat: int,
                      rounds: int) -> dict[str, list]:
    """Per side, ``rounds`` rounds of ``entry_calls`` and ``warm_runs``, each in
    fresh interpreters; the parent goes first in even rounds, the change in odd."""
    out: dict[str, list] = {side: [] for side in sides}
    for r in range(rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            checkout = sides[side]
            calls = {w: in_process(checkout, f"entry_calls({w!r}, {s}, {repeat})")
                     for w, s in seeds.items()}
            warm = in_process(checkout, f"warm_runs({repeat})")
            out[side].append({"round": r, "entry_calls": calls, "warm_runs": warm})
    return out


def in_process_summary(rounds: dict[str, list]) -> dict[str, dict]:
    """Per workload, each side's per-round minimum of the repeated entry calls,
    and the rounds the change won (a tie counts for neither)."""
    summary = {}
    for workload in rounds["parent"][0]["entry_calls"]:
        mins = {side: [r["entry_calls"][workload]["repeat_s"]["min"] for r in runs]
                for side, runs in rounds.items()}
        wins = sum(c < p for p, c in zip(mins["parent"], mins["change"]))
        summary[workload] = {"repeat_s_min": mins, "change_wins": wins}
    return summary


def bench_run(checkout: Checkout, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    lines = child([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                  checkout, seconds + 300)
    return {"environment": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def end_to_end(sides: dict[str, Checkout], runs: list[tuple[str, int, int]],
               seconds: int) -> tuple[list, list]:
    records, summary = [], []
    for workload, seed, pairs in runs:
        walls = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = bench_run(sides[side], workload, seed, seconds)
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
    workload, _, rest = text.partition(":")
    try:
        seed, pairs = map(int, rest.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD:SEED:PAIRS") from None
    if workload not in WORKLOADS or pairs < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: need a workload of {WORKLOADS}, PAIRS >= 1")
    return workload, seed, pairs


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
    if not (args.parent / "benchmarks" / "run.py").is_file():
        print(f"error: no benchmarks/run.py under {args.parent}", file=sys.stderr)
        return 2
    if any(os.environ.get(name) != "1" for name in THREAD_VARS):
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    runs = args.run or [(w, 0, 2) for w in WORKLOADS]
    seeds = {w: next(s for v, s, _ in runs if v == w) for w, _, _ in runs}
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as pycache:
        roots = {"parent": args.parent.resolve(), "change": ROOT}
        sides = {side: precompiled(root, Path(pycache) / side) for side, root in roots.items()}
        records, summary = end_to_end(sides, runs, args.seconds)
        report = {"seconds": args.seconds, "repeat": args.repeat, "rounds": ROUNDS,
                  "end_to_end": records, "summary": summary, "layers": {}}
        for side, checkout in sides.items():
            report["layers"][side] = {w: bench_run(checkout, w, s, args.seconds, trace=1)
                                      for w, s in seeds.items()}
        report["in_process"] = in_process_rounds(sides, seeds, args.repeat, ROUNDS)
        report["in_process_summary"] = in_process_summary(report["in_process"])
        report["outputs"] = output_digests(sides, output_targets(runs))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"end_to_end": summary, "in_process": report["in_process_summary"],
                      "outputs_differ": report["outputs"]["differ"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
