"""The driver's one-pass negativity solve against one solve per record.

``protocols._drive`` queues every negativity a batch of traces records and
solves the queue through ``measures._batch_negativities``: per block size,
one hermiticity check and one batched ``eigvalsh`` over every record. The
reference is the per-record loop it replaced, one batch of one (``solo``)
per stack and partition; the arithmetic of each spectrum is unchanged, so
every recorded value must be equal bit for bit.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import edss
from edss import protocols
from edss.channels import amplitude_damping, depolarizing, identity_channel
from edss.measures import _batch_negativities
from edss.protocols import SPECS, _branches, _drive, partition_name
from edss.tensor import Bipartition, DensityOperator, _partial_trace, _plans

from explicit_forms import evolve_batch

CASES = [(key, d) for key in SPECS for d in ((2, 3, 4, 5) if SPECS[key].takes_d else (2,))]


def zero_start(spec, d):
    """``spec`` from the all-zero product state: a noiseless exchange then
    leaves only the all-zero outcome, and every other branch is null."""
    dims = (d,) * len(spec.subsystems)
    start = np.zeros((d ** len(dims),) * 2, dtype=complex)
    start[0, 0] = 1.0
    return replace(spec, initial=lambda d: DensityOperator(start, dims))


def batches(spec, d):
    """(spec, batch) pairs: the paper's start state under three channels; the
    zero start with one noisy and one noiseless point, whose branches past
    the first are null on the second point only; and the zero start with
    noiseless points alone, whose branches past the first are null at every
    point."""
    roles = len(spec.channel_roles)
    noisy, quiet = (depolarizing(d, 0.5),) * roles, (identity_channel(d),) * roles
    zero = zero_start(spec, d)
    return [
        (spec, [noisy, quiet, (amplitude_damping(d, 1.0),) * roles]),
        (zero, [noisy, quiet]),
        (zero, [quiet, quiet]),
    ]


def solo(stack, part):
    """Negativity values of the entry stack ``stack`` across ``part``, solved alone."""
    return _batch_negativities([(stack, part)])[0]


def one_item_records(spec, batch, d):
    """What ``_drive`` records for each point of ``batch``, from one ``solo``
    solve per stack and partition: per point, the partition negativities in
    key order, the branch negativities, and the deterministic negativity
    (``None`` in the probabilistic mode)."""
    dims, n = (d,) * len(spec.subsystems), len(batch)
    states = evolve_batch(spec, batch, dims)
    parts = [{} for _ in batch]
    for step, (label, stack) in zip(spec.steps, states):
        for side in (spec.exchange, *step.record):
            values = solo(stack, Bipartition.split(side, len(dims)))
            for b, value in enumerate(np.broadcast_to(values, (n,)).tolist()):
                parts[b][f"{partition_name(spec.subsystems, side)}@{label}"] = value
    final = states[-1][1]
    if spec.deterministic is not None:
        out = spec.deterministic(final)
        values = np.broadcast_to(solo(out, Bipartition.split((0,), 2)), (n,))
        return [(p, [], value) for p, value in zip(parts, values.tolist())]
    rest = [label for label in spec.subsystems if label not in spec.measured]
    branch_values = [[] for _ in batch]
    for k, (_, probs, posts) in enumerate(_branches(spec, final)):
        live = np.flatnonzero(probs > 0.0)
        posts = posts[live]
        values = {
            partition_name(rest, side): solo(posts, Bipartition.split(side, len(rest))).tolist()
            for side in spec.finish
        } if len(posts) else {}
        for b in range(n):
            branch_values[b].append({})
        for row, b in enumerate(live.tolist()):
            branch_values[b][-1] = {name: v[row] for name, v in values.items()}
            if k == 0:
                parts[b].update((f"{name}@success", v[row]) for name, v in values.items())
        for pair in spec.success_pairs if k == 0 and len(posts) else ():
            reduced = _partial_trace(posts, pair)
            pt = Bipartition.split((0,), 2)
            for row, value in enumerate(solo(reduced, pt).tolist()):
                parts[live[row]][f"{''.join(rest[i] for i in pair)}_pair@success"] = value
    return [(p, v, None) for p, v in zip(parts, branch_values)]


@pytest.mark.parametrize("key,d", CASES, ids=[f"{'-'.join(k)}-d{d}" for k, d in CASES])
def test_batched_records_equal_one_item_solves_bit_for_bit(monkeypatch, key, d):
    queued = []

    def spy(items):
        queued.append(list(items))
        return _batch_negativities(items)

    monkeypatch.setattr(protocols, "_batch_negativities", spy)
    for spec, batch in batches(SPECS[key], d):
        queued.clear()
        traces = _drive(spec, batch, d)
        assert len(queued) == 1  # one pass per drive
        assert all(len(stack) for stack, _ in queued[0])  # no null branch is queued
        for trace, (parts, branch_values, det) in zip(
            traces, one_item_records(spec, batch, d), strict=True
        ):
            assert list(trace.partition_negativities.items()) == list(parts.items())
            assert trace.branch_negativities == branch_values
            if det is not None:
                assert trace.deterministic_output.negativity == det
            for name, total in trace.averages.items():
                want = 0.0
                for branch, values in zip(trace.branches, branch_values):
                    want += branch.probability * values.get(name, 0.0)
                assert total == want
        if spec is not SPECS[key] and spec.measured:
            # the zero start: the noiseless last point has null branches
            assert any(b.post_state is None for b in traces[-1].branches)


def drive_queue(key, d):
    """The queue of a two-point drive of ``key`` at ``d``."""
    spec = SPECS[key]
    roles = len(spec.channel_roles)
    batch = [(depolarizing(d, 0.3),) * roles, (amplitude_damping(d, 0.6),) * roles]
    with patch.object(protocols, "_batch_negativities", wraps=_batch_negativities) as spy:
        _drive(spec, batch, d)
    return spy.call_args.args[0]


def test_one_non_hermitian_record_fails_the_pass_before_any_solve():
    items = drive_queue(("qudit", "probabilistic"), 4)
    assert len(items) > 1
    # the record with the largest block, perturbed there: every smaller size
    # is checked before it, and none may be solved yet
    plans = _plans([(stack, part.side_a) for stack, part in items])
    largest = max(plan[-1][0] for plan in plans)
    at = next(i for i, plan in enumerate(plans) if plan[-1][0] == largest)
    stack, part = items[at]
    take = plans[at][-1][2]
    values = stack.values.copy()
    values[-1, take[0]] += 1e-6j
    items[at] = (edss.tensor._Entries(stack.rows, stack.cols, values, stack.dims), part)
    with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
            _batch_negativities(items)
    assert spy.call_count == 0


@pytest.mark.parametrize(
    "key,d,most",
    [(("qudit", "probabilistic"), 6, None), (("ghz", "probabilistic"), 2, 2)],
    ids=["qudit-d6", "ghz"],
)
def test_one_eigvalsh_per_block_size(monkeypatch, key, d, most):
    """A one-point drive solves its negativities with at most one ``eigvalsh``
    per distinct block size above 1 (1 x 1 blocks read the real diagonal)."""
    counts, sizes = [], set()

    def counting(items):
        plans = _plans([(stack, part.side_a) for stack, part in items])
        sizes.update(block[0] for plan in plans for block in plan)
        with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            values = _batch_negativities(items)
        counts.append(spy.call_count)
        return values

    monkeypatch.setattr(protocols, "_batch_negativities", counting)
    spec = SPECS[key]
    _drive(spec, [(depolarizing(d, 0.3),) * len(spec.channel_roles)], d)
    assert len(counts) == 1
    assert counts[0] <= len(sizes - {1})
    if most is not None:
        assert counts[0] <= most


def test_no_pass_imports_numpy_ma(tmp_path):
    # numpy's np.unique without return_inverse imports numpy.ma on first use;
    # a fresh process keeps the test runner's own imports out
    script = f"""
import sys
from edss.checks import run_checks
from edss.sweep import SweepSpec, run_sweep
run_sweep(SweepSpec("qudit", "depolarizing", "p", {str(tmp_path / "q.csv")!r}, d=3, points=5))
run_checks("all")
print("numpy.ma" in sys.modules)
"""
    src = str(Path(edss.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
