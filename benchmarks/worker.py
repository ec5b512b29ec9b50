"""One timed pass of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line. The
timed region covers only the calls into the public entry points
(``edss.cli.main`` per sweep, ``edss.checks.run_checks`` for the check
suite); importing edss and checking the outputs happen outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import compare
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run_sweeps(edss, sweeps):
    """Call ``edss sweep`` once per spec; return (wall seconds, exit codes, stderr)."""
    codes, errors = [], []
    sink = io.StringIO()
    start = time.perf_counter()
    for sweep in sweeps:
        err = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            try:
                codes.append(edss.cli.main(list(sweep.argv)))
            except Exception as exc:  # a crash is a failed operation, not a dead benchmark
                codes.append(f"raised {exc!r}")
        errors.append(err.getvalue())
    return time.perf_counter() - start, codes, errors


def _check_sweeps(sweeps, codes, errors):
    """Return (failed operations, failure messages, CSVs whose bytes changed)."""
    failed, messages, changed = 0, [], 0
    for sweep, code, err in zip(sweeps, codes, errors):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[:300]}")
        golden = compare.GoldenSweep.load(sweep.golden, workloads.LATTICE)
        cell_problems, bytes_changed = compare.compare_sweep_csv(
            sweep.csv_path, golden, sweep.start, sweep.stop, sweep.points
        )
        problems.extend(cell_problems)
        changed += bytes_changed
        if sweep.svg_path is not None:
            try:
                if not ElementTree.parse(sweep.svg_path).getroot().tag.endswith("svg"):
                    problems.append("SVG root element is not <svg>")
            except (OSError, ElementTree.ParseError) as exc:
                problems.append(f"unreadable SVG: {exc}")
        if problems:
            failed += 1
            messages.extend(f"{sweep.name}: {p}" for p in problems[: compare.MAX_REPORTED])
    return failed, messages, changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for CSV/SVG output")
    parser.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    args = parser.parse_args()

    import edss
    import edss.checks
    import edss.cli

    if Path(edss.__file__).resolve().parent != ROOT / "src" / "edss":
        print(f"imported edss from {edss.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    changed = 0
    if args.workload == "check_all":
        seed = workloads.identity_seed(args.seed)
        start = time.perf_counter()
        try:
            results = edss.checks.run_checks("all", identity={"seed": seed})
            error = None
        except Exception as exc:  # a crash fails every row
            results, error = [], exc
        wall = time.perf_counter() - start
        rows = [(r.name, r.max_deviation, r.threshold, r.passed) for r in results]
        attempted, failed, messages = compare.compare_checks(rows)
        if error is not None:
            messages.insert(0, f"run_checks raised {error!r}")
    else:
        sweeps = workloads.sweeps(args.workload, args.seed, args.out)
        wall, codes, errors = _run_sweeps(edss, sweeps)
        attempted = len(sweeps)
        failed, messages, changed = _check_sweeps(sweeps, codes, errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "csv_files_byte_changed": changed,
    }
    if tracer is not None:
        layers, shares, root_s = tracer.summary()
        tracer.write(args.spans)
        result.update(layers=layers, shares=shares, root_s=root_s, spans=len(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
