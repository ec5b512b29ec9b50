"""Index plans of the driver, and the identity suite's stacked draws.

Each entry kernel keeps its index plan under its tag and arguments plus the
pattern it reads, so a drive that meets a pattern again does only the
numeric pass. That pass must give the same bits as building every plan
afresh, including where a sum of exactly zero drops a position. The
identity suite draws its random canonical channels in blocks, admitted by
one stacked CPT test; it must draw the channels that one-at-a-time
``random_cp_canonical`` calls do.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edss.channels
import edss.checks
import edss.tensor
from edss import protocols
from edss.channels import (
    _PAULI_BASIS,
    CanonicalChannel,
    KrausChannel,
    _canonical_tensors,
    _cpt_reports,
    canonical_channel,
)
from edss.checks import DEFAULT_SEED, identity_suite, random_cp_canonical
from edss.protocols import SPECS, _drive
from edss.states import cnot, ghz_initial_state, measure_computational
from edss.tensor import DensityOperator, hermitian_eigenvalues, partial_trace

from explicit_forms import (
    evolve_batch,
    fresh_plan_cache,
    noise_channel,
    stinespring_kraus,
    z_twirl,
)

HADAMARD = KrausChannel((np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),))


def drawn_by_identity_suite(monkeypatch, seed):
    """The canonical parameter rows ``identity_suite`` hands the driver, in order."""
    drawn, runs = [], edss.checks._runs

    def spy(spec, kind, d, params, *args):
        assert (kind, d) == ("canonical", 2)
        drawn.extend(params)
        return runs(spec, kind, d, params, *args)

    monkeypatch.setattr(edss.checks, "_runs", spy)
    identity_suite(seed=seed)
    return drawn


def params_hex(ch):
    return row_hex((ch.lambda1, ch.lambda2, ch.lambda3, ch.t3))


def row_hex(row):
    return tuple(float(x).hex() for x in row)


@pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED])
def test_block_draws_equal_one_at_a_time_draws(monkeypatch, seed):
    drawn = drawn_by_identity_suite(monkeypatch, seed)
    assert len(drawn) == 60  # 50 two-qubit draws, then 10 GHZ draws
    rng = np.random.default_rng(seed)
    one_at_a_time = [random_cp_canonical(rng) for _ in drawn]
    assert list(map(row_hex, drawn)) == list(map(params_hex, one_at_a_time))


def one_candidate_at_a_time(rng):
    """The rejection loop with one CPT test per candidate."""
    while True:
        ch = canonical_channel(*rng.uniform(-1.0, 1.0, size=4))
        if _cpt_reports(ch.transfer_tensor()[None], edss.checks.RANDOM_CP_TOL)[0]:
            return ch


@pytest.mark.parametrize("seed", range(4))
def test_one_channel_per_call_leaves_the_stream_where_the_loop_does(seed):
    rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert params_hex(random_cp_canonical(rng)) == params_hex(one_candidate_at_a_time(loop))
        assert rng.uniform() == loop.uniform()


def test_draws_give_up_after_max_tries(monkeypatch):
    monkeypatch.setattr(edss.checks, "MAX_TRIES", 5)
    refused = []

    def refuse_all(t4, tol):
        refused.append(len(t4))
        return [False] * len(t4)

    with patch.object(edss.checks, "_cpt_reports", refuse_all):
        with pytest.raises(RuntimeError, match="could not sample a CP canonical channel"):
            random_cp_canonical(np.random.default_rng(0))
    assert refused == [1] * 5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 4), min_size=1, max_size=64
    )
)
def test_stacked_canonical_tensors_equal_the_one_channel_build(rows):
    stacked = _canonical_tensors(np.array(rows))
    for row, t4 in zip(rows, stacked):
        assert t4.tobytes() == CanonicalChannel(*row).transfer_tensor().tobytes()
        # the per-channel formula the stacked kernel replaced, term for term
        r = np.diag([1.0, *row[:3]])
        r[3, 0] = row[3]
        old = 0.5 * np.einsum("mn,mij,nlk->ijkl", r, _PAULI_BASIS, _PAULI_BASIS)
        assert t4.tobytes() == old.tobytes()


def trace_bits(trace):
    """Every number and state of a trace, as exact bytes."""
    hexed = lambda values: {k: float(v).hex() for k, v in values.items()}  # noqa: E731
    bits = [
        hexed(trace.partition_negativities),
        hexed(trace.averages),
        [(label, rho.matrix.tobytes()) for label, rho in trace.steps],
        [hexed(negs) for negs in trace.branch_negativities],
        [
            (b.outcome, float(b.probability).hex(), None if b.post_state is None
             else b.post_state.matrix.tobytes())
            for b in trace.branches
        ],
        trace.warnings,
    ]
    out = trace.deterministic_output
    if out is not None:
        bits.append((out.state.matrix.tobytes(), out.negativity.hex(), out.concurrence.hex()))
    return bits


def drive_cases():
    for key, spec in SPECS.items():
        roles = len(spec.channel_roles)
        for d in range(2, 7) if spec.takes_d else (2,):
            for kind in ("depolarizing", "amplitude_damping"):
                batch = [(noise_channel(kind, d, x),) * roles for x in (0.0, 0.3, 0.7, 1.0)]
                yield pytest.param(key, d, batch, id=f"{'-'.join(key)}-d{d}-{kind}")
        if not spec.takes_d:  # the Hadamard's sums drop positions (see test below)
            batch = [(HADAMARD,) * roles, (noise_channel("depolarizing", 2, 0.4),) * roles]
            yield pytest.param(key, 2, batch, id=f"{'-'.join(key)}-hadamard")


@pytest.mark.parametrize("key,d,batch", list(drive_cases()))
def test_plan_hit_drive_equals_a_cold_drive_bit_for_bit(monkeypatch, key, d, batch):
    spec = SPECS[key]
    # the batch, then each of its points alone: a drive on an emptied cache, then the same
    # drive again, which finds every plan
    for points in [batch, *([channels] for channels in batch)]:
        fresh_plan_cache(monkeypatch)
        cold = list(map(trace_bits, _drive(spec, points, d)))
        planned = len(edss.tensor._PLANS)
        hit = list(map(trace_bits, _drive(spec, points, d)))
        assert planned and len(edss.tensor._PLANS) == planned
        assert hit == cold


def test_a_sum_of_zero_drops_its_position_from_the_next_plan(monkeypatch):
    fresh_plan_cache(monkeypatch)
    spec = SPECS["two_qubit", "probabilistic"]
    stacks = [stack for _, stack in evolve_batch(spec, [(HADAMARD,)], (2, 2, 2))]
    plans = edss.tensor._PLANS
    # the Hadamard's four terms cancel on some positions of the channel step
    summed = next(plan for key, plan in plans.items() if key[0] == "embed")[2]
    assert len(stacks[2].rows) < len(summed[0])
    # Bob's CNOT plans for the pattern that is left
    left = stacks[2].rows.tobytes(), stacks[2].cols.tobytes()
    assert any(key[0] == "cnot" and key[-2:] == left for key in plans)


def test_a_repeated_pattern_builds_no_plan():
    spec = SPECS["qudit", "probabilistic"]
    _drive(spec, [(noise_channel("depolarizing", 4, 0.2),)], 4)
    size = len(edss.tensor._PLANS)
    with (
        patch.object(np, "unique", wraps=np.unique) as unique,
        patch.object(edss.tensor, "_component_labels") as labels,
    ):
        _drive(spec, [(noise_channel("depolarizing", 4, 0.6),)], 4)
    assert unique.call_count == labels.call_count == 0
    assert len(edss.tensor._PLANS) == size


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: cnot(rho, 0, 2),
        lambda rho: partial_trace(rho, [1, 2]),
        lambda rho: measure_computational(rho, 4),
    ],
    ids=["cnot", "partial_trace", "measure_computational"],
)
def test_a_public_one_state_call_reuses_its_index_plan(monkeypatch, call):
    fresh_plan_cache(monkeypatch)
    rho = DensityOperator(ghz_initial_state().matrix, (2,) * 5)  # dense, as a caller's state is
    first = result_bits(call(rho))
    assert len(edss.tensor._PLANS) == 1
    with patch.object(np, "unique", wraps=np.unique) as unique:
        second = result_bits(call(rho))
    assert unique.call_count == 0 and len(edss.tensor._PLANS) == 1
    assert second == first


def result_bits(result):
    """A state's matrix, or each branch of a measurement, as exact bytes."""
    if isinstance(result, DensityOperator):
        return result.matrix.tobytes()
    return [
        (b.outcome, float(b.probability).hex(), b.post_state and b.post_state.matrix.tobytes())
        for b in result
    ]


def leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def test_index_plan_cache_stays_in_its_bound_and_holds_no_values(monkeypatch):
    def drives():
        _drive(SPECS["ghz", "probabilistic"], [(noise_channel("amplitude_damping", 2, 0.3),) * 2])
        for d in (3, 4):
            _drive(SPECS["qudit", "probabilistic"], [(noise_channel("depolarizing", d, 0.5),)], d)

    fresh_plan_cache(monkeypatch)
    drives()
    # one cache holds every kernel's plans
    assert {key[0] for key in edss.tensor._PLANS} == {"cnot", "embed", "measure", "trace", "block"}
    for key, plan in edss.tensor._PLANS.items():
        assert all(isinstance(leaf, (str, int, bytes)) for leaf in leaves(key))
        for leaf in leaves(plan):  # a block plan's sizes and counts are ints
            assert isinstance(leaf, int) or isinstance(leaf, np.ndarray) and leaf.dtype.kind in "bi"
    unbounded = held_bytes()
    count = len(edss.tensor._PLANS)
    fresh_plan_cache(monkeypatch)
    monkeypatch.setattr(edss.tensor, "PLAN_CACHE_BYTES", unbounded // 4)
    drives()
    assert held_bytes() <= unbounded // 4 and len(edss.tensor._PLANS) < count
    assert edss.tensor._held == held_bytes()


def held_bytes():
    """Bytes of every key and plan in the cache, counted afresh."""
    return sum(map(edss.tensor._plan_bytes, edss.tensor._PLANS.items()))


def test_public_calls_on_distinct_patterns_stay_in_the_byte_budget(monkeypatch):
    # each state has its own zero row, so each call keys a new side-216 pattern of ~0.75 MB
    fresh_plan_cache(monkeypatch)
    rng = np.random.default_rng(5)
    calls = 24
    for row in range(calls):
        a = rng.standard_normal((216, 216)) + 1j * rng.standard_normal((216, 216))
        a[row] = 0.0
        rho = a @ a.conj().T
        reduced = partial_trace(DensityOperator(rho / np.trace(rho), (6, 6, 6)), [0, 1])
        assert reduced.dims == (6, 6)
        assert held_bytes() <= edss.tensor.PLAN_CACHE_BYTES
    assert 1 < len(edss.tensor._PLANS) < calls
    assert edss.tensor._held == held_bytes()


class Filling:
    """A trace-preserving map whose transfer tensor fills the admissible mask
    at ``d``: a random channel, Z-twirled at d > 2, where it keeps
    rounding-level entries off the phase-covariant mask for the driver to drop."""

    def __init__(self, d, seed):
        ops = stinespring_kraus(seed, d)
        self.t4 = KrausChannel(tuple(ops if d == 2 else z_twirl(ops, d))).transfer_tensor()

    def transfer_tensor(self):
        return self.t4


@pytest.mark.parametrize(
    "key,d",
    [(key, d) for key, spec in SPECS.items() for d in (range(2, 7) if spec.takes_d else (2,))],
)
def test_chunk_bound_is_the_largest_stack_a_filling_channel_reaches(key, d):
    spec = SPECS[key]
    batch = [(Filling(d, 11 + i),) * len(spec.channel_roles) for i in range(2)]
    dims = (d,) * len(spec.subsystems)
    most = max(len(stack.rows) for _, stack in evolve_batch(spec, batch, dims))
    assert protocols._chunk_points(spec, d) == max(1, protocols.STACK_BYTES // (16 * most))


def test_the_entry_count_is_found_once_per_spec_and_d(monkeypatch):
    spec = SPECS["ghz", "probabilistic"]
    first = protocols._chunk_points(spec, 2)
    with patch.object(protocols, "_embed") as embed:
        assert protocols._chunk_points(spec, 2) == first
        monkeypatch.setattr(protocols, "STACK_BYTES", 32 * protocols.STACK_BYTES)
        assert protocols._chunk_points(spec, 2) > first  # the bytes are read at each call
    assert embed.call_count == 0


def test_a_d10_qudit_chunk_holds_eight_points():
    # 1900 entries at most; the fan-out product bound counted 2800 and allowed 5
    assert protocols._chunk_points(SPECS["qudit", "probabilistic"], 10) == 8


@pytest.mark.parametrize("n", [1, 2, 27])
def test_full_pattern_spectra_are_the_dense_solve_bit_for_bit(monkeypatch, n):
    fresh_plan_cache(monkeypatch)
    rng = np.random.default_rng(n)
    a = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    h = a + a.conj().swapaxes(1, 2)
    h[1, 0, n - 1] = h[1, n - 1, 0] = 0.0  # zero in one matrix: the joint pattern stays full
    assert hermitian_eigenvalues(h).tobytes() == np.linalg.eigvalsh(h).tobytes()
    assert hermitian_eigenvalues(h[0]).tobytes() == np.linalg.eigvalsh(h[0]).tobytes()
    # one plan, found by the side alone once it is built
    assert ("full", n) in edss.tensor._PLANS and len(edss.tensor._PLANS) == 1
    with patch.object(np, "flatnonzero") as scan:
        hermitian_eigenvalues(h)
    assert scan.call_count == 0 and len(edss.tensor._PLANS) == 1


def test_canonical_channel_factory_builds_through_the_stacked_kernel():
    ch = canonical_channel(0.3, -0.2, 0.1, 0.05)
    with patch.object(
        edss.channels, "_canonical_tensors", wraps=edss.channels._canonical_tensors
    ) as kernel:
        ch.transfer_tensor()
    assert kernel.call_count == 1
