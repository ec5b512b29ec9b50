"""A negativity pass's block plans, built together, against one-pattern builds.

``tensor._plans`` builds the plans a pass lacks on the disjoint union of their
partially transposed patterns and splits the union plan back per pattern. The
oracle is the one-pattern build: the partial transpose, its component labels
and ``_block_plan`` on that pattern alone. Every plan of a pass must equal its
oracle byte for byte (``size``, ``count``, ``take`` and ``at``), whatever the
pass mixes, whatever the cache holds, and however small its byte bound.
"""

from unittest.mock import patch

import numpy as np
import pytest

import edss.tensor
from edss import protocols
from edss.channels import amplitude_damping, depolarizing
from edss.protocols import SPECS, _drive
from edss.tensor import (
    _block_plan,
    _component_labels,
    _Entries,
    _partial_transpose,
    _plan_bytes,
    _plans,
)

from explicit_forms import fresh_plan_cache


def queue(key, d, channel):
    """The ``(stack, side_a)`` items of one two-point drive's negativity pass."""
    roles = len(SPECS[key].channel_roles)
    batch = [(channel(d, p),) * roles for p in (0.3, 0.8)]
    with patch.object(protocols, "_batch_negativities", wraps=protocols._batch_negativities) as spy:
        _drive(SPECS[key], batch, d)
    return [(stack, part.side_a) for stack, part in spy.call_args.args[0]]


def one_component():
    """A dense Hermitian matrix of side 4 with no zero entry: one component."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return _Entries.of(a @ a.conj().T, (4,)), ()


def side_one_blocks():
    """A diagonal pattern with a zero row: side-1 blocks, one of them holding no entry."""
    return _Entries.of(np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex), (2, 2)), (0,)


def mixed_pass():
    """Items of qudit, GHZ and two-qubit registers, a one-component pattern and
    side-1 blocks, with keys repeated inside the pass and across its parts."""
    qudit = queue(("qudit", "probabilistic"), 3, depolarizing)
    items = [
        *qudit,
        *queue(("ghz", "probabilistic"), 2, amplitude_damping),
        *queue(("two_qubit", "deterministic"), 2, depolarizing),
        one_component(),
        side_one_blocks(),
        qudit[0],
    ]
    e, side_a = qudit[1]  # the same pattern with other values is the same key
    return items + [(_Entries(e.rows, e.cols, 2 * e.values, e.dims), side_a)]


def one_pattern_build(e, side_a):
    pt = _partial_transpose(e, sorted(side_a))
    return _block_plan(pt.rows, pt.cols, _component_labels(pt))


def assert_plans_are_one_pattern_builds(items, plans):
    assert len(plans) == len(items)
    for (e, side_a), plan in zip(items, plans):
        want = one_pattern_build(e, side_a)
        assert [(size, count) for size, count, _, _ in plan] == [b[:2] for b in want]
        for (size, count, take, at), (_, _, want_take, want_at) in zip(plan, want):
            assert type(size) is type(count) is int
            assert take.dtype == want_take.dtype and take.tobytes() == want_take.tobytes()
            assert at.dtype == want_at.dtype and at.tobytes() == want_at.tobytes()


def test_a_mixed_pass_covers_every_case():
    items = mixed_pass()
    assert len({e.dims for e, _ in items}) >= 5
    keys = [(e.dims, side_a, e.rows.tobytes(), e.cols.tobytes()) for e, side_a in items]
    assert len(set(keys)) < len(keys)
    plans = [one_pattern_build(*item) for item in items]
    assert any(len(plan) == 1 and plan[0][:2] == (4, 1) for plan in plans)
    assert any(plan[0][0] == 1 and plan[0][1] > len(plan[0][2]) for plan in plans)


def test_a_cold_pass_labels_once_and_equals_one_pattern_builds(monkeypatch):
    items = mixed_pass()
    fresh_plan_cache(monkeypatch)
    with patch.object(edss.tensor, "_component_labels", wraps=_component_labels) as spy:
        plans = _plans(items)
        assert spy.call_count == 1
        assert_plans_are_one_pattern_builds(items, plans)
        again = _plans(items)
        assert spy.call_count == 1  # every plan a hit
    assert all(a is b for a, b in zip(plans, again))
    assert len(edss.tensor._PLANS) == len({id(plan) for plan in plans})


def test_a_pass_over_a_partly_filled_cache_builds_only_its_misses(monkeypatch):
    items = mixed_pass()
    fresh_plan_cache(monkeypatch)
    held = _plans(items[::3])
    with patch.object(edss.tensor, "_partial_transpose", wraps=_partial_transpose) as spy:
        plans = _plans(items)
    assert all(a is b for a, b in zip(plans[::3], held))
    assert spy.call_count == len({id(plan) for plan in plans}) - len({id(plan) for plan in held})
    assert_plans_are_one_pattern_builds(items, plans)


@pytest.mark.parametrize("share", [0, 3], ids=["one-byte", "a-third"])
def test_a_bound_that_evicts_mid_pass_still_returns_every_plan(monkeypatch, share):
    items = mixed_pass()
    fresh_plan_cache(monkeypatch)
    _plans(items)
    everything = sum(map(_plan_bytes, edss.tensor._PLANS.items()))
    budget = everything // share if share else 1
    fresh_plan_cache(monkeypatch)
    monkeypatch.setattr(edss.tensor, "PLAN_CACHE_BYTES", budget)
    plans = _plans(items)
    assert_plans_are_one_pattern_builds(items, plans)
    held = sum(map(_plan_bytes, edss.tensor._PLANS.items()))
    assert len(edss.tensor._PLANS) >= 1 and (held <= budget or len(edss.tensor._PLANS) == 1)
    assert edss.tensor._held == held
