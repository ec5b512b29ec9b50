"""``tools/ab.py`` without starting a benchmark: the pair order, the in-process
round order, the summaries, the output digests, the bytecode directories, the
``--run`` parser, the parent-checkout check and the public-name rule."""

import argparse
import ast
import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
BENCHMARKS = TOOLS.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def fake_bench_runs(monkeypatch, parent, walls):
    """Stand in for ``ab.bench_run``: each call logs its side and returns that
    side's next ``wall_s`` from ``walls``."""
    sides = []

    def bench_run(checkout, workload, seed, seconds):
        sides.append("parent" if checkout == parent else "change")
        value = walls[sides[-1]][sides.count(sides[-1]) - 1]
        return {"environment": {}, "result": {"metrics": {"wall_s": {"value": value}}, "failed": 0}}

    monkeypatch.setattr(ab, "bench_run", bench_run)
    return sides


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path):
    sides = fake_bench_runs(monkeypatch, tmp_path, {"parent": [1.0] * 4, "change": [1.0] * 4})
    records, _ = ab.end_to_end({"parent": tmp_path, "change": ab.ROOT}, [("check_all", 0, 4)], 5)
    assert sides == ["parent", "change", "change", "parent"] * 2
    assert [(r["pair"], r["side"]) for r in records] == [
        (pair, side) for pair in range(4) for side in sides[2 * pair : 2 * pair + 2]
    ]


def test_summary_counts_wins_and_a_tie_for_neither_side(monkeypatch, tmp_path):
    walls = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.5, 2.0, 3.5, 1.0, 5.0]}
    fake_bench_runs(monkeypatch, tmp_path, walls)
    _, (row,) = ab.end_to_end({"parent": tmp_path, "change": ab.ROOT}, [("qubit_sweeps", 3, 5)], 5)
    assert (row["workload"], row["seed"], row["pairs"]) == ("qubit_sweeps", 3, 5)
    assert row["change_wins"] == 2  # pairs 0 and 3 won, 1 and 4 tied, 2 lost
    assert row["wall_s"]["parent"] == {"runs": walls["parent"], "q1": 1.5, "median": 3.0, "q3": 4.5}


def fake_in_process(monkeypatch, parent, mins):
    """Stand in for ``ab.in_process``: each call logs its side and function, and an
    ``entry_calls`` call returns that side's next repeated minimum from ``mins``."""
    calls = []

    def in_process(checkout, call):
        side = "parent" if checkout == parent else "change"
        calls.append((side, call.partition("(")[0]))
        if call.startswith("warm_runs"):
            return {"qudit d=2": {}}
        count = sum(1 for s, c in calls if s == side and c == "entry_calls")
        return {"first_s": 0.0, "repeat_s": {"min": mins[side][count - 1]}}

    monkeypatch.setattr(ab, "in_process", in_process)
    return calls


def test_in_process_rounds_alternate_which_side_goes_first(monkeypatch, tmp_path):
    calls = fake_in_process(monkeypatch, tmp_path, {"parent": [1.0] * 4, "change": [1.0] * 4})
    sides = {"parent": tmp_path, "change": ab.ROOT}
    rounds = ab.in_process_rounds(sides, {"qubit_sweeps": 7}, 3, 4)
    # per side and round: the workload's entry calls, then the warm runs, each fresh
    assert calls == [
        (side, call)
        for order in [("parent", "change"), ("change", "parent")] * 2
        for side in order
        for call in ("entry_calls", "warm_runs")
    ]
    for side in sides:
        assert [r["round"] for r in rounds[side]] == [0, 1, 2, 3]
        assert all(set(r) == {"round", "entry_calls", "warm_runs"} for r in rounds[side])


def test_in_process_summary_counts_rounds_won(monkeypatch, tmp_path):
    mins = {"parent": [2.0, 3.0, 1.0], "change": [1.0, 3.0, 1.5]}
    fake_in_process(monkeypatch, tmp_path, mins)
    rounds = ab.in_process_rounds({"parent": tmp_path, "change": ab.ROOT}, {"check_all": 0}, 3, 3)
    summary = ab.in_process_summary(rounds)
    assert summary == {"check_all": {"repeat_s_min": mins, "change_wins": 1}}


def test_output_digests_name_what_differs_between_the_sides(monkeypatch, tmp_path):
    digests = {
        "parent": {
            "check_all:0": {"a": "0x1p-52", "b": "0x1p-53"},
            "check_all:7": {"a": "0x1p-52", "b": "0x1p-53"},
            "qubit_sweeps:7": {"x.csv": "1"},
        },
        "change": {
            "check_all:0": {"a": "0x1p-52", "b": "0x1p-53"},
            "check_all:7": {"a": "0x1p-52", "b": "0x1p-52"},
            "qubit_sweeps:7": {"y.csv": "1"},
        },
    }
    calls = []

    def in_process(checkout, call):
        side = "parent" if checkout == tmp_path else "change"
        calls.append((side, call))
        workload, seed = call.split("'")[1], call.split(", ")[1].rstrip(")")
        return digests[side][f"{workload}:{seed}"]

    monkeypatch.setattr(ab, "in_process", in_process)
    targets = [("check_all", 0), ("check_all", 7), ("qubit_sweeps", 7)]
    out = ab.output_digests({"parent": tmp_path, "change": ab.ROOT}, targets)
    assert calls == [(side, f"outputs({w!r}, {s})") for side in digests for w, s in targets]
    differ = {"check_all:0": [], "check_all:7": ["b"], "qubit_sweeps:7": ["x.csv", "y.csv"]}
    assert out == {"digests": digests, "differ": differ}


def test_outputs_are_taken_at_every_seed_a_run_names():
    runs = [("check_all", 0, 10), ("check_all", 7, 10), ("qubit_sweeps", 7, 2), ("check_all", 0, 1)]
    assert ab.output_targets(runs) == [
        ("check_all", 0), ("check_all", 7), ("qubit_sweeps", 7), ("qudit_d6_sweeps", 0)
    ]
    assert ab.output_targets([]) == [(w, 0) for w in ab.WORKLOADS]


def test_outputs_are_the_check_rows_by_hex(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from edss.checks import DEFAULT_SEED, run_checks

    rows = run_checks("all", identity={"seed": DEFAULT_SEED})
    assert ab.outputs("check_all", 0) == {
        row.name: f"{i}:{row.max_deviation.hex()}:{row.threshold.hex()}:{row.passed}"
        for i, row in enumerate(rows)
    }


def test_a_reordered_or_rejudged_check_row_is_a_difference(monkeypatch):
    """Keyed by name, deviations alone would compare a reordered row list equal."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import edss.checks

    rows = edss.checks.run_checks("all", identity={"seed": edss.checks.DEFAULT_SEED})
    variants = {
        "reordered": [rows[1], rows[0], *rows[2:]],
        "failed": [dataclasses.replace(rows[0], passed=False), *rows[1:]],
        "threshold": [dataclasses.replace(rows[0], threshold=1.0), *rows[1:]],
    }
    digests = {}
    for name, variant in {"same": rows, **variants}.items():
        monkeypatch.setattr(edss.checks, "run_checks", lambda *a, v=variant, **k: v)
        digests[name] = ab.outputs("check_all", 0)
    same = digests.pop("same")
    for name, digest in digests.items():
        differ = [row for row in same if digest[row] != same[row]]
        want = [rows[0].name, rows[1].name] if name == "reordered" else [rows[0].name]
        assert differ == want, name


def test_outputs_hash_every_csv_and_svg_of_a_sweep_workload(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    sweeps = workloads.sweeps("qubit_sweeps", 7, tmp_path)
    files = [path for sweep in sweeps for path in (sweep.csv_path, sweep.svg_path) if path]
    digests = ab.outputs("qubit_sweeps", 7)
    assert sorted(digests) == sorted(path.name for path in files)
    assert any(name.endswith(".svg") for name in digests)
    assert all(len(digest) == 64 for digest in digests.values())
    assert ab.outputs("qubit_sweeps", 7) == digests


def test_each_side_runs_on_its_own_precompiled_bytecode(monkeypatch, tmp_path):
    runs = []

    def run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        runs.append((cwd, cmd, prefix, sorted(prefix.iterdir()), env))
        stdout = '{}\n{"metrics": {}}\n' if "benchmarks/run.py" in cmd else "{}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    roots = {"parent": tmp_path / "parent", "change": ab.ROOT}
    sides = {side: ab.precompiled(root, tmp_path / f"{side}-pycache") 
             for side, root in roots.items()}
    for checkout in sides.values():
        ab.bench_run(checkout, "check_all", 0, 5)
        ab.in_process(checkout, "outputs('check_all', 0)")
    # first each side's src compiled into a fresh directory of its own
    assert [(cwd, cmd[1:], prefix, held) for cwd, cmd, prefix, held, _ in runs[:2]] == [
        (root, ["-m", "compileall", "-q", str(root / "src")], tmp_path / f"{side}-pycache", [])
        for side, root in roots.items()
    ]
    # then every run of a side reads that directory, and may write to it
    assert [(cwd, prefix) for cwd, _, prefix, _, _ in runs[2:]] == [
        (root, tmp_path / f"{side}-pycache") for side, root in roots.items() for _ in range(2)
    ]
    assert all("PYTHONDONTWRITEBYTECODE" not in env for *_, env in runs)


def test_quartiles():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.25, "median": 2.5, "q3": 3.75}
    assert ab.quartiles([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0}


def test_run_entry_parses():
    assert ab.parse_run("qudit_d6_sweeps:7:10") == ("qudit_d6_sweeps", 7, 10)


@pytest.mark.parametrize(
    "text",
    ["check_al:0:2", "bogus:0:2", "check_all:0", "check_all:0:2:1", "check_all:x:2",
     "check_all:0:0", "check_all", ""],
)
def test_run_entry_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        ab.parse_run(text)


@pytest.mark.parametrize(
    "extra,message",
    [((), "no benchmarks/run.py under"), (("--run", "qubit:0:2"), "need a workload of")],
)
def test_refusals_exit_2_before_any_run(tmp_path, extra, message):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "ab.py"), "--parent", str(tmp_path), "--out", str(out),
         *extra],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_tools_read_no_underscore_prefixed_name(path):
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            names += [part for name in dotted for part in name.split(".")]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    assert not [n for n in names if n.startswith("_") and not n.startswith("__")]
