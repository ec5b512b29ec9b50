"""The stacked driver against one point at a time.

``protocols._drive`` evolves, transposes, solves and measures a batch of
channel tuples as one stack. Every trace it returns must match the trace of
the same tuple run alone: recorded values, averages and branch
probabilities within 1e-12, states within 1e-14, and identical warnings,
chains and null branches.
"""

import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edss.checks
from edss import protocols, states, tensor
from edss.channels import (
    CanonicalChannel,
    DepolarizingChannel,
    KrausChannel,
    amplitude_damping,
    depolarizing,
    identity_channel,
)
from edss.checks import identity_suite, random_cp_canonical
from edss.measures import _batch_negativities
from edss.protocols import SPECS, _drive, run_ghz, run_qudit, run_two_qubit
from edss.states import qudit_initial_state
from edss.sweep import SweepError, SweepSpec, run_sweep, sweep_table
from edss.tensor import Bipartition, DensityOperator, _Entries, hermitian_eigenvalues

from explicit_forms import evolve_batch, stinespring_kraus, table_rows, z_twirl

VALUE_ATOL = 1e-12
STATE_ATOL = 1e-14
GHZ_CHUNK = protocols._chunk_points(SPECS["ghz", "probabilistic"], 2)
# one full GHZ chunk, then one more point
GHZ_POINTS = GHZ_CHUNK + 1

seed = st.integers(0, 2**32 - 1)
probability = st.floats(0.0, 1.0)


def qubit_channel():
    """Depolarizing, amplitude damping (often at its end point gamma = 1),
    random CP canonical, non-covariant Kraus."""
    return st.one_of(
        probability.map(lambda p: depolarizing(2, p)),
        st.one_of(st.just(1.0), probability).map(lambda g: amplitude_damping(2, g)),
        seed.map(lambda s: random_cp_canonical(np.random.default_rng(s))),
        seed.map(lambda s: KrausChannel(tuple(stinespring_kraus(s, 2)))),
    )


def qudit_channel(d):
    """The admitted qudit class at d > 2: depolarizing, amplitude damping and
    Z-twirled random channels."""
    return st.one_of(
        probability.map(lambda p: depolarizing(d, p)),
        st.one_of(st.just(1.0), probability).map(lambda g: amplitude_damping(d, g)),
        seed.map(lambda s: KrausChannel(tuple(z_twirl(stinespring_kraus(s, d), d)))),
    )


@st.composite
def batches(draw, key):
    """(d, batch) for one SPECS entry: 1 to 7 channel tuples."""
    spec = SPECS[key]
    d = draw(st.sampled_from([2, 3, 4])) if spec.takes_d else 2
    channel = qubit_channel() if d == 2 else qudit_channel(d)
    batch = []
    for _ in range(draw(st.integers(1, 7))):
        ch = draw(channel)
        if len(spec.channel_roles) == 2:
            # the same channel object on both exchange qubits, or a distinct pair
            batch.append((ch, draw(st.one_of(st.just(ch), channel))))
        else:
            batch.append((ch,))
    return d, batch


def assert_close(a, b, atol):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= atol


def assert_same_trace(got, want):
    assert got.warnings == want.warnings
    assert got.identity_chains == want.identity_chains
    assert got.exchange_keys == want.exchange_keys
    assert got.noise == want.noise
    assert list(got.partition_negativities) == list(want.partition_negativities)
    for key, value in want.partition_negativities.items():
        assert_close(got.partition_negativities[key], value, VALUE_ATOL)
    assert [label for label, _ in got.steps] == [label for label, _ in want.steps]
    for (_, a), (_, b) in zip(got.steps, want.steps):
        assert a.dims == b.dims
        assert_close(a.matrix, b.matrix, STATE_ATOL)
    assert list(got.averages) == list(want.averages)
    for name, value in want.averages.items():
        assert_close(got.averages[name], value, VALUE_ATOL)
    for key in ("average_negativity", "success_probability"):
        if getattr(want, key) is None:
            assert getattr(got, key) is None
        else:
            assert_close(getattr(got, key), getattr(want, key), VALUE_ATOL)
    assert [b.outcome for b in got.branches] == [b.outcome for b in want.branches]
    assert [b.post_state is None for b in got.branches] == [
        b.post_state is None for b in want.branches
    ]
    for a, b in zip(got.branches, want.branches):
        assert_close(a.probability, b.probability, VALUE_ATOL)
        if b.post_state is not None:
            assert a.post_state.dims == b.post_state.dims
            assert_close(a.post_state.matrix, b.post_state.matrix, STATE_ATOL)
    assert [list(v) for v in got.branch_negativities] == [
        list(v) for v in want.branch_negativities
    ]
    for a, b in zip(got.branch_negativities, want.branch_negativities):
        for name, value in b.items():
            assert_close(a[name], value, VALUE_ATOL)
    if want.deterministic_output is None:
        assert got.deterministic_output is None
    else:
        a, b = got.deterministic_output, want.deterministic_output
        assert_close(a.negativity, b.negativity, VALUE_ATOL)
        assert_close(a.concurrence, b.concurrence, VALUE_ATOL)
        assert_close(a.state.matrix, b.state.matrix, STATE_ATOL)


@pytest.mark.parametrize("key", list(SPECS), ids=["-".join(key) for key in SPECS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_stacked_traces_match_one_point_runs(key, data):
    d, batch = data.draw(batches(key))
    stacked = _drive(SPECS[key], batch, d)
    assert len(stacked) == len(batch)
    for got, channels in zip(stacked, batch):
        assert_same_trace(got, _drive(SPECS[key], [channels], d)[0])


@pytest.mark.parametrize("protocol", ["two_qubit", "ghz"])
def test_null_branches_differ_across_one_batch(protocol):
    # From the all-zero product state, a noiseless exchange leaves only the
    # all-zero outcome, while depolarizing noise reaches every outcome.
    spec = SPECS[protocol, "probabilistic"]
    side = 2 ** len(spec.subsystems)
    start = np.zeros((side, side), dtype=complex)
    start[0, 0] = 1.0
    spec = replace(spec, initial=lambda d: DensityOperator(start, (2,) * len(spec.subsystems)))
    roles = len(spec.channel_roles)
    batch = [(depolarizing(2, 0.5),) * roles, (identity_channel(2),) * roles]
    traces = _drive(spec, batch)
    nulls = [[b.post_state is None for b in t.branches] for t in traces]
    assert not any(nulls[0]) and nulls[1] == [False] + [True] * (len(nulls[1]) - 1)
    for got, channels in zip(traces, batch):
        assert_same_trace(got, _drive(spec, [channels])[0])


def test_ghz_sweep_spans_chunks_and_matches_point_by_point(monkeypatch):
    spec = SweepSpec("ghz", "amplitude_damping", "gamma", "", points=GHZ_POINTS)
    sizes = []

    def counting(entry, batch, *args):
        sizes.append(len(batch))
        return _drive(entry, batch, *args)

    monkeypatch.setattr(protocols, "_drive", counting)
    rows = table_rows(sweep_table(spec))
    assert len(sizes) > 1 and sum(sizes) == GHZ_POINTS
    assert max(sizes) == GHZ_CHUNK
    monkeypatch.setattr(protocols, "STACK_BYTES", 0)  # one point per chunk
    sizes.clear()
    single = table_rows(sweep_table(spec))
    assert sizes == [1] * GHZ_POINTS
    for got, want in zip(rows, single):
        assert list(got) == list(want)
        for column, value in want.items():
            assert abs(got[column] - value) <= VALUE_ATOL


def test_qudit_sweep_builds_no_dense_state(monkeypatch):
    # every stack and trace state is an entry list: at d = 6 the 21 points fit
    # one chunk, and the 101-point two-qubit and GHZ sweeps scatter nothing either
    sizes, scattered = [], []
    scatter = tensor._scatter

    def counting(entry, batch, *args):
        sizes.append(len(batch))
        return _drive(entry, batch, *args)

    monkeypatch.setattr(protocols, "_drive", counting)
    for module in (tensor, states, protocols):
        monkeypatch.setattr(module, "_scatter", lambda e: scattered.append(e) or scatter(e))
    table = sweep_table(SweepSpec("qudit", "depolarizing", "p", "", d=6, points=21))
    # the grid, then the root search's second round: the grid holds the first's probes
    assert len(table["p"]) == 21 and sizes == [21, 2]
    for protocol in ("two_qubit", "ghz"):
        table = sweep_table(SweepSpec(protocol, "depolarizing", "p", "", points=101))
        assert len(table["p"]) == 101
    assert len(scattered) == 0
    # the spy sees a dense read of an entry state
    run_qudit(6, depolarizing(6, 0.3)).steps[-1][1].matrix
    assert len(scattered) == 1


def ghz_chunk_and_one_draws(monkeypatch):
    """The identity suite with GHZ_CHUNK + 1 GHZ draws: one full chunk, then one more."""
    draws = SPECS["ghz", "probabilistic"].random_divisor * (GHZ_CHUNK + 1)
    monkeypatch.setattr(edss.checks, "RANDOM_CHANNELS", draws)
    identity_suite()


@pytest.mark.parametrize(
    "run",
    [
        lambda _: sweep_table(SweepSpec("ghz", "depolarizing", "p", "", points=GHZ_POINTS)),
        ghz_chunk_and_one_draws,
    ],
    ids=["sweep_table", "identity_suite"],
)
def test_no_trace_outlives_its_chunk(monkeypatch, run):
    chunks = []

    def tracking(entry, batch, *args):
        alive = sum(ref() is not None for chunk in chunks for ref in chunk)
        assert not alive, f"{alive} chunks or traces of earlier chunks alive as a chunk starts"
        traces = _drive(entry, batch, *args)
        chunks.append([weakref.ref(traces), *(weakref.ref(trace) for trace in traces)])
        return traces

    monkeypatch.setattr(protocols, "_drive", tracking)
    run(monkeypatch)
    assert GHZ_CHUNK + 1 in map(len, chunks[:-1])  # a full GHZ chunk and its traces, then more


def test_ghz_stacks_hold_no_more_entries_than_the_chunk_assumes():
    # At d = 2 any CPT channel is admitted, and a Hadamard conjugation spreads
    # each entry over all four positions of its target qubit.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hadamard, noisy = KrausChannel((h,)), depolarizing(2, 0.3)
    batch = [(hadamard, hadamard), (hadamard, noisy), (noisy, noisy)]
    for label, stack in evolve_batch(SPECS["ghz", "probabilistic"], batch, (2,) * 5):
        assert 16 * len(stack.rows) * GHZ_CHUNK <= protocols.STACK_BYTES, label


@pytest.mark.parametrize("d", [2, 4])
def test_one_perturbed_matrix_fails_the_stacked_solve(d):
    # sides 8 and 64, each stack labelled once from its joint pattern
    rho = qudit_initial_state(d).matrix
    stack = np.stack([rho] * 5)
    part = Bipartition.split({0}, 3)
    assert _batch_negativities([(_Entries.of(stack, (d,) * 3), part)])[0].shape == (5,)
    i, j = np.argwhere(np.abs(rho) > 0)[-1]
    j = (j + 1) % rho.shape[0] if i == j else j
    stack[3, i, j] += 1e-6
    with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
        hermitian_eigenvalues(stack)
    with pytest.raises(ValueError, match="input is not Hermitian within tolerance"):
        _batch_negativities([(_Entries.of(stack, (d,) * 3), part)])


def test_unit_trace_checked_per_stack(monkeypatch):
    def unchecked(spec, batch, d, label):  # every channel admitted, none warned of
        t4 = np.array([channels[0].transfer_tensor() for channels in batch])
        return t4, np.arange(len(batch))[:, None], np.zeros((len(batch), 1), dtype=bool)

    monkeypatch.setattr(protocols, "_admit", unchecked)
    # entry stacks of side 8 and side 64
    for key, d in ((("two_qubit", "probabilistic"), 2), (("qudit", "probabilistic"), 4)):
        leaky = KrausChannel((np.sqrt(0.5) * np.eye(d, dtype=complex),))
        batch = [(depolarizing(d, 0.1),), (leaky,), (depolarizing(d, 0.3),)]
        with pytest.raises(ValueError, match="density operator must have unit trace"):
            _drive(SPECS[key], batch, d)


def test_non_cpt_point_mid_batch_is_named(tmp_path):
    # CP needs |lambda1 + lambda2| <= 1 + lambda3 here: it fails from lambda1 = 0.75
    spec = SweepSpec(
        "two_qubit", "canonical", "lambda1", tmp_path / "out.csv", points=5,
        channel_args={"lambda2": 0.5, "lambda3": 0.0},
    )
    with pytest.raises(SweepError) as excinfo:
        run_sweep(spec)
    assert str(excinfo.value).startswith("lambda1=0.75: communication channel is not a CPT map")
    assert not spec.csv_path.exists()


class TestTransferTensorCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        built = Counter()
        for cls in (CanonicalChannel, KrausChannel, DepolarizingChannel):
            original = cls._tensors

            def counting(group, original=original):
                built.update(id(ch) for ch in group)
                return original(group)

            monkeypatch.setattr(cls, "_tensors", staticmethod(counting))
        return built

    def test_one_build_per_distinct_channel_per_run(self, builds):
        ch = amplitude_damping(2, 0.3)
        run_two_qubit(ch)
        assert builds == {id(ch): 1}
        run_two_qubit(ch, mode="deterministic")
        assert builds[id(ch)] == 1 and max(builds.values()) == 1
        builds.clear()
        shared, other = depolarizing(2, 0.2), amplitude_damping(2, 0.6)
        run_ghz(shared)
        assert builds == {id(shared): 1}
        run_ghz(shared, other)
        assert builds == {id(shared): 1, id(other): 1}
        builds.clear()
        qutrit = depolarizing(3, 0.4)
        run_qudit(3, qutrit)
        assert builds == {id(qutrit): 1}

    def test_sweep_builds_each_point_once(self, builds):
        sweep_table(SweepSpec("ghz", "depolarizing", "p", "", points=21))
        assert len(builds) == 21 and set(builds.values()) == {1}

    def test_read_only_and_kept_out_of_the_fields(self):
        ch = amplitude_damping(3, 0.5)
        fields = dict(vars(ch))
        t4 = ch.transfer_tensor()
        assert ch.transfer_tensor() is t4
        assert not t4.flags.writeable
        with pytest.raises(ValueError):
            t4[0, 0, 0, 0] = 2.0
        assert vars(ch).keys() == fields.keys()
