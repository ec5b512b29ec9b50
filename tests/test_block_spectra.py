"""Differential oracle for the block-split spectra of ``hermitian_eigenvalues``.

The dense ``np.linalg.eigvalsh`` of the whole matrix is the reference:
eigenvalues agree within 1e-12 and every reported negativity quantity
within 1e-9. Every side takes the block route, so NaN and inf must be
refused there before any solve.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edss.measures
import edss.tensor
from edss.channels import KrausChannel, _embed, apply_to_subsystem, identity_channel
from edss.measures import _batch_negativities, negativity
from edss.protocols import SPECS, Cnot, _drive, partition_name, qudit_states, run_qudit
from edss.states import qudit_initial_state
from edss.tensor import (
    Bipartition,
    _batch_spectra,
    _component_labels,
    _Entries,
    _plans,
    hermitian_eigenvalues,
    partial_transpose,
)

from explicit_forms import cnot_gather, fresh_plan_cache, noise_channel, stinespring_kraus, z_twirl

EIG_ATOL = 1e-12
REPORTED_ATOL = 1e-9
NOISE_LEVELS = np.linspace(0.0, 1.0, 21)
ONE_VS_REST = [Bipartition.split({side}, 3) for side in range(3)]


def assert_matches_dense(rho, part, dense_spectra):
    """Compare against one dense ``eigvalsh``, kept in ``dense_spectra`` for
    partial transposes that repeat across noise levels."""
    pt = partial_transpose(rho, part)
    key = pt.tobytes()
    if key not in dense_spectra:
        dense_spectra[key] = np.linalg.eigvalsh(pt)
    dense = dense_spectra[key]
    assert np.max(np.abs(hermitian_eigenvalues(pt) - dense)) <= EIG_ATOL
    got = negativity(rho, part)
    with patch.object(edss.measures, "_batch_spectra", lambda items: [dense]):
        want = negativity(rho, part)
    assert abs(got.value - want.value) <= REPORTED_ATOL
    assert abs(got.trace_norm - want.trace_norm) <= REPORTED_ATOL
    assert len(got.negative_eigenvalues) == len(want.negative_eigenvalues)
    assert np.allclose(
        got.negative_eigenvalues, want.negative_eigenvalues, atol=REPORTED_ATOL, rtol=0
    )
    return pt


def labels_of(h):
    """Component labels of the joint nonzero pattern of the dense stack ``h``."""
    return _component_labels(_Entries.of(h, (h.shape[-1],)))


def largest_block(pt):
    return int(np.bincount(labels_of(pt)).max())


def dense_steps(d, ch):
    """The qudit step states under ``ch`` from the dense start state, through
    the dense CNOT gather and the dense channel contraction."""
    dims, state, states = (d,) * 3, qudit_initial_state(d).matrix, []
    for step in SPECS["qudit", "probabilistic"].steps:
        for op in step.ops:
            if isinstance(op, Cnot):
                state = cnot_gather(state, dims, op.control, op.target, op.inverse)
            else:
                state = _embed(ch.transfer_tensor(), state, dims, op.target)
        states.append(state)
    return states


def recorded_pairs(trace):
    """(recorded value, state, partition) for every negativity a qudit trace
    records: each step against its recorded sides, then each branch post
    state against the finish sides."""
    spec = SPECS["qudit", "probabilistic"]
    pairs = []
    for step, (label, state) in zip(spec.steps, trace.steps):
        for side in (spec.exchange, *step.record):
            key = f"{partition_name(spec.subsystems, side)}@{label}"
            pairs.append((trace.partition_negativities[key], state, Bipartition.split(side, 3)))
    rest = [name for name in spec.subsystems if name not in spec.measured]
    for branch, values in zip(trace.branches, trace.branch_negativities):
        if branch.post_state is not None:
            for side in spec.finish:
                part = Bipartition.split(side, len(rest))
                pairs.append((values[partition_name(rest, side)], branch.post_state, part))
    return pairs


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
@pytest.mark.parametrize("d", range(2, 9))
def test_every_qudit_partial_transpose_matches_dense(d, kind):
    dense_spectra = {}
    for x in NOISE_LEVELS:
        ch = noise_channel(kind, d, x)
        trace = run_qudit(d, ch)
        for (_, rho), want in zip(trace.steps, dense_steps(d, ch), strict=True):
            assert np.max(np.abs(rho.matrix - want)) <= EIG_ATOL
        pairs = recorded_pairs(trace)
        assert len(pairs) == 8 + d
        for recorded, rho, part in pairs:
            pt = assert_matches_dense(rho, part, dense_spectra)
            dense = dense_spectra[pt.tobytes()]
            entries = rho._entries()
            eigs = _batch_spectra([(_plans([(entries, part.side_a)])[0], entries.values)])[0]
            assert np.max(np.abs(eigs - dense)) <= EIG_ATOL
            with patch.object(edss.measures, "_batch_spectra", lambda items: [dense]):
                assert abs(recorded - negativity(rho, part).value) <= REPORTED_ATOL
            assert largest_block(pt) <= d


def after_channel(d, ops):
    post_cnot = qudit_states(d, identity_channel(d))[1][1]
    return apply_to_subsystem(KrausChannel(tuple(ops)), post_cnot, target=2)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_phase_covariant_channels_take_the_block_route(d, seed):
    rho = after_channel(d, z_twirl(stinespring_kraus(seed, d), d))
    for part in ONE_VS_REST:
        pt = assert_matches_dense(rho, part, {})
        assert labels_of(pt).any()
        blocks = hermitian_eigenvalues(pt)
        assert np.max(np.abs(blocks - np.linalg.eigvalsh(pt))) <= EIG_ATOL


@settings(max_examples=15, deadline=None)
@given(d=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_random_kraus_channels_match_dense(d, seed):
    rho = after_channel(d, stinespring_kraus(seed, d))
    for part in ONE_VS_REST:
        assert_matches_dense(rho, part, {})


@pytest.mark.parametrize("side", [2, 4, 8, 64, 216])
def test_one_component_equals_dense_eigvalsh_bit_for_bit(side):
    rng = np.random.default_rng(61)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    h = g + g.conj().T
    assert not labels_of(h).any()
    assert hermitian_eigenvalues(h).tobytes() == np.linalg.eigvalsh(h).tobytes()


def test_split_pattern_skips_the_whole_matrix_check():
    rho = qudit_states(4, noise_channel("depolarizing", 4, 0.3))[-1][1]
    pt = partial_transpose(rho, ONE_VS_REST[0])
    with patch.object(edss.tensor, "is_hermitian", wraps=edss.tensor.is_hermitian) as spy:
        hermitian_eigenvalues(pt)
    assert spy.call_count == 0


class TestNonHermitianInput:
    """The block route rejects what the dense check rejects, with its message."""

    @pytest.fixture
    def pt(self):
        rho = qudit_states(4, noise_channel("depolarizing", 4, 0.3))[-1][1]
        pt = partial_transpose(rho, ONE_VS_REST[0])
        assert labels_of(pt).any()
        return pt

    def test_perturbation_inside_a_block(self, pt):
        labels = labels_of(pt)
        i, j = next((i, j) for i, j in zip(*np.nonzero(pt)) if i != j)
        assert labels[i] == labels[j]
        pt[i, j] += 1e-6
        with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
            hermitian_eigenvalues(pt)

    def test_one_sided_entry_between_blocks(self, pt):
        labels = labels_of(pt)
        i, j = 0, int(np.flatnonzero(labels != labels[0])[0])
        assert pt[i, j] == 0 and pt[j, i] == 0
        pt[i, j] = 1e-6
        with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
            hermitian_eigenvalues(pt)


def final_states(d):
    """The final qudit states under four channels whose patterns differ."""
    channels = [
        identity_channel(d),
        noise_channel("depolarizing", d, 0.3),
        noise_channel("amplitude_damping", d, 1.0),
        KrausChannel(tuple(z_twirl(stinespring_kraus(d, d), d))),
    ]
    return [qudit_states(d, ch)[-1][1] for ch in channels]


def joint_stack(d, part):
    """Partial transposes across ``part`` of ``final_states``, stacked one row
    per channel."""
    return np.stack([partial_transpose(rho, part) for rho in final_states(d)])


@pytest.mark.parametrize("d", [4, 5])
def test_joint_pattern_stack_matches_each_row_dense(d):
    for part in ONE_VS_REST:
        stack = joint_stack(d, part)
        assert len({labels_of(row).tobytes() for row in stack}) > 1
        joint = labels_of(stack)
        assert np.array_equal(joint, labels_of(np.logical_or.reduce(stack != 0)))
        assert joint.any()
        spectra = hermitian_eigenvalues(stack)
        for row, eigs in zip(stack, spectra):
            assert np.max(np.abs(eigs - np.linalg.eigvalsh(row))) <= EIG_ATOL


def test_stacked_drive_labels_each_stack_once(monkeypatch):
    fresh_plan_cache(monkeypatch)
    batch = [(noise_channel("depolarizing", 4, p),) for p in (0.1, 0.3, 0.5, 0.7)]
    with patch.object(
        edss.tensor, "_component_labels", wraps=edss.tensor._component_labels
    ) as spy:
        _drive(SPECS["qudit", "probabilistic"], batch, 4)
        # 12 solves: one c|ab at each of the four steps, a|bc and b|ac after
        # the channel and after Bob's CNOT, and a|b on each of the four
        # outcomes' post states, which are entry stacks as well; the post
        # states of outcomes 1 to 3 share one pattern. Their 10 plans are
        # labelled together, once for the pass
        assert spy.call_count == 1
        assert sum(key[0] == "block" for key in edss.tensor._PLANS) == 10
        _drive(SPECS["qudit", "probabilistic"], batch, 4)
        assert spy.call_count == 1  # every pattern again: all plan hits


def entry_stack(d):
    """``final_states`` as one entry stack on their joint pattern."""
    states = np.stack([rho.matrix for rho in final_states(d)])
    return _Entries.of(states, (d,) * 3)


@pytest.mark.parametrize("d", [4, 5])
def test_plan_hit_spectra_equal_a_cold_solve_bit_for_bit(monkeypatch, d):
    e = entry_stack(d)
    for part in ONE_VS_REST:
        stack = joint_stack(d, part)  # the dense partial transposes of e
        solves = [
            lambda: hermitian_eigenvalues(stack),
            lambda: _batch_spectra([(_plans([(e, part.side_a)])[0], e.values)])[0],
            lambda: _batch_negativities([(e, part)])[0],
        ]
        fresh_plan_cache(monkeypatch)
        cold = [solve() for solve in solves]
        assert len(edss.tensor._PLANS) == 2
        hit = [solve() for solve in solves]
        assert len(edss.tensor._PLANS) == 2
        for got, want in zip(hit, cold):
            assert got.tobytes() == want.tobytes()
        for row, eigs in zip(stack, cold[1]):
            assert np.max(np.abs(eigs - np.linalg.eigvalsh(row))) <= EIG_ATOL


def test_plan_hit_refuses_non_hermitian_values():
    e = entry_stack(4)
    part = ONE_VS_REST[0]
    take = next(block[2] for block in _plans([(e, part.side_a)])[0] if block[0] > 1)
    values = e.values.copy()
    values[2, take[0]] += 1e-6j  # one entry of a block, on one point
    bad = _Entries(e.rows, e.cols, values, e.dims)
    with patch.object(edss.tensor, "_component_labels") as spy:
        with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
            _batch_negativities([(bad, part)])
    assert spy.call_count == 0


def test_plan_cache_stays_in_its_bound_and_holds_no_values(monkeypatch):
    batch = [(noise_channel("amplitude_damping", 3, g),) for g in (0.2, 0.6)]

    def held():
        return sum(map(edss.tensor._plan_bytes, edss.tensor._PLANS.items()))

    fresh_plan_cache(monkeypatch)
    _drive(SPECS["qudit", "probabilistic"], batch, 3)
    budget, unbounded = held() // 3, len(edss.tensor._PLANS)
    fresh_plan_cache(monkeypatch)
    monkeypatch.setattr(edss.tensor, "PLAN_CACHE_BYTES", budget)
    seen = []
    cached = edss.tensor._cached

    def bounded(key, build):  # every plan a drive finds or builds, its block plans included
        assert held() <= budget
        seen.append(key[0])
        return cached(key, build)

    monkeypatch.setattr(edss.tensor, "_cached", bounded)
    _drive(SPECS["qudit", "probabilistic"], batch, 3)
    assert seen.count("block") > 5 and held() <= budget and len(edss.tensor._PLANS) < unbounded
    for plan in edss.tensor._PLANS.values():
        for size, count, take, at in plan:
            assert isinstance(size, int) and isinstance(count, int)
            assert take.dtype.kind == at.dtype.kind == "i"


def test_one_sided_entry_between_joint_components_of_a_stack():
    stack = joint_stack(4, ONE_VS_REST[0])[1:]
    labels = labels_of(stack)
    i, j = 0, int(np.flatnonzero(labels != labels[0])[0])
    assert not stack[:, i, j].any() and not stack[:, j, i].any()
    stack[1, i, j] = 1e-6
    with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
        hermitian_eigenvalues(stack)


@pytest.mark.parametrize("route", ["hermitian_eigenvalues", "entry_stack"])
@pytest.mark.parametrize("d", [2, 4], ids=["side8", "side64"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_input_is_refused_before_any_solve(route, d, bad):
    # a diagonal entry stays on the diagonal under every partial transpose; its
    # hermiticity defect is NaN, which must fail the check as is_hermitian fails it
    rho = qudit_initial_state(d).matrix
    stack = np.stack([rho] * 3)
    i = int(np.flatnonzero(np.diag(rho))[-1])
    stack[1, i, i] = bad
    with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
            if route == "hermitian_eigenvalues":
                hermitian_eigenvalues(stack[1])
            else:
                _batch_negativities([(_Entries.of(stack, (d,) * 3), ONE_VS_REST[0])])
    assert spy.call_count == 0
