"""Sweep grids as columns: the driver's chunk columns against its per-point traces.

``protocols._drive`` returns a ``_Chunk``: every trace key as one float column,
and the traces as per-point views. ``sweep.sweep_table`` and the identity suite
read the columns; the rows they make must be, bit for bit, the rows that the
per-point traces give through ``value_of``, ``verify_identity_chain`` and
``separability_audit``. The chunk loop ``protocols._runs`` makes a chunk's
channels and its transfer tensors, in one stacked build, only when the chunk is
taken; each tensor must be the one-channel build, byte for byte.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from edss import channels, protocols
from edss.channels import (
    CHANNEL_PARAMS,
    CanonicalChannel,
    DepolarizingChannel,
    KrausChannel,
    _built,
    amplitude_damping,
    canonical_channel,
    depolarizing,
)
from edss.protocols import (
    CRITICAL_NOISE,
    SPECS,
    _drive,
    _runs,
    critical_noise,
    separability_audit,
    verify_identity_chain,
)
from edss.reference import FORMULAS
from edss.tensor import DensityOperator
from edss.sweep import CANONICAL_DEFAULTS, SweepError, SweepSpec, sweep_table

from explicit_forms import stinespring_kraus, table_rows, z_twirl

PARAM = {"depolarizing": "p", "amplitude_damping": "gamma", "canonical": "lambda3"}
# 101-point grids: [0, 1] reaches p = 1 and gamma = 1, and the canonical grids
# shift z by t3 != 0; the qudit grid at d = 5 spans two chunks
GRIDS = [
    (protocol, mode, kind, d)
    for (protocol, mode), entry in SPECS.items()
    for kind in PARAM
    for d in ((2, 3, 5) if entry.takes_d and kind != "canonical" else (2,))
]


def grid_spec(protocol, mode, kind, d):
    fixed = {"lambda1": 0.4, "lambda2": 0.3, "t3": 0.1} if kind == "canonical" else {}
    stop = 0.8 if kind == "canonical" else 1.0
    return SweepSpec(
        protocol, kind, PARAM[kind], "", mode=mode, d=d, points=101, stop=stop,
        channel_args=fixed,
    ).validate()


def trace_row(spec, x, trace, crit):
    """A sweep row from one point's trace, as rows were built per point, with
    ``crit`` as its ``critical_noise`` unless it is None."""
    entry = SPECS[spec.protocol, spec.mode]
    row = {spec.param: x, **{column: trace.value_of(key) for column, key in entry.columns}}
    row["exchange_negativity_max"] = separability_audit(trace).max_negativity
    row["chain_max_deviation"] = verify_identity_chain(trace).max_deviation
    if crit is not None:
        row["critical_noise"] = crit
    values = {"d": spec.d, spec.param: x}
    for fid, columns in entry.formulas(spec.channel).items():
        formula = FORMULAS[fid]
        row[f"ref_{columns[0]}"] = float(formula.fn(*(values[n] for n in formula.params)))
    return row


def bits(row):
    return [(column, type(value), float(value).hex()) for column, value in row.items()]


@pytest.mark.parametrize("grid", GRIDS, ids=["-".join(map(str, g)) for g in GRIDS])
def test_columnar_rows_equal_rows_from_per_point_traces(grid):
    spec = grid_spec(*grid)
    entry = SPECS[spec.protocol, spec.mode]
    xs = [float(x) for x in spec.grid()]
    fixed = {**CANONICAL_DEFAULTS, **spec.channel_args}
    rows = [[{**fixed, spec.param: x}[name] for name in CHANNEL_PARAMS[spec.channel]] for x in xs]
    traces = [trace for chunk in _runs(entry, spec.channel, spec.d, rows) for trace in chunk]
    crit = None
    if CRITICAL_NOISE in entry.formulas(spec.channel).values():  # the scalar search, a probe a call
        crit = critical_noise(lambda x: entry.average_only(spec.channel, x, spec.d))
    want = [bits(trace_row(spec, x, trace, crit)) for x, trace in zip(xs, traces, strict=True)]
    assert [bits(row) for row in table_rows(sweep_table(spec))] == want


def basis_start(key, index=0):
    """``SPECS[key]`` from basis state ``index``. From the all-zero state a
    noiseless exchange leaves only the all-zero outcome, so every other branch
    is null; from GHZ state 3, the exchange qubits at 1, it leaves only the
    outcome (1, 1), so the success branch is null."""
    spec = SPECS[key]

    def initial(d):
        start = np.zeros((d ** len(spec.subsystems),) * 2, dtype=complex)
        start[index, index] = 1.0
        return DensityOperator(start, (d,) * len(spec.subsystems))

    return replace(spec, initial=initial)


def ghz_mixed_batch():
    """Distinct channels on d1 and d2, the same channel in two objects, one
    object in both roles."""
    ad, dep = amplitude_damping(2, 1.0), depolarizing(2, 0.3)
    return [
        (ad, dep), (dep, ad), (dep, depolarizing(2, 0.3)), (dep, dep),
        (amplitude_damping(2, 0.4), canonical_channel(0.5, 0.4, 0.3, 0.05)),
        (ad, ad), (canonical_channel(1.0, 1.0, 1.0), ad),
    ]


def quiet_or_noisy(d, roles):
    """Noiseless and noisy points in turn: from the zero start, every branch
    past the first is null on the noiseless points only."""
    quiet, noisy = channels.identity_channel(d), amplitude_damping(d, 0.6)
    return [(quiet,) * roles, (noisy,) * roles, (quiet,) * roles, (depolarizing(d, 1.0),) * roles]


CASES = {
    "ghz-mixed": (SPECS["ghz", "probabilistic"], ghz_mixed_batch(), 2),
    "ghz-null": (basis_start(("ghz", "probabilistic")), quiet_or_noisy(2, 2), 2),
    "ghz-null-success": (basis_start(("ghz", "probabilistic"), 3), quiet_or_noisy(2, 2), 2),
    "ghz-null-success-everywhere": (
        basis_start(("ghz", "probabilistic"), 3), [(channels.identity_channel(2),) * 2] * 2, 2,
    ),
    "two_qubit-null": (basis_start(("two_qubit", "probabilistic")), quiet_or_noisy(2, 1), 2),
    "two_qubit-det": (
        SPECS["two_qubit", "deterministic"], [(amplitude_damping(2, g),) for g in (0, 0.5, 1)], 2,
    ),
    "qudit-null-d3": (basis_start(("qudit", "probabilistic")), quiet_or_noisy(3, 1), 3),
    "qudit-d5-twirled": (
        SPECS["qudit", "probabilistic"],
        [(KrausChannel(tuple(z_twirl(stinespring_kraus(s, 5), 5))),) for s in range(3)],
        5,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_every_column_is_its_trace_value(case):
    spec, batch, d = CASES[case]
    chunk = _drive(spec, batch, d)
    assert len(chunk) == len(batch)
    spreads, traces = chunk.chain_spread().tolist(), list(chunk)
    for b, trace in enumerate(traces):
        for column_key, column in chunk.columns.items():
            assert float(column[b]).hex() == trace.value_of(column_key).hex(), column_key
        assert spreads[b].hex() == verify_identity_chain(trace).max_deviation.hex()
        exchange = max(chunk.columns[k][b] for k in trace.exchange_keys)
        assert float(exchange).hex() == separability_audit(trace).max_negativity.hex()
    if case == "ghz-mixed":
        # the symmetry chain counts only where both roles hold the same channel
        assert chunk.same.tolist() == [False, False, True, True, False, True, False]
        assert [not any("differ" in w for w in t.warnings) for t in traces] == chunk.same.tolist()
    if "null" in case:
        # a null branch has no state and no values
        assert any(b.post_state is None for t in traces for b in t.branches)
        for trace in traces:
            for branch, values in zip(trace.branches, trace.branch_negativities):
                assert (branch.post_state is None) == (branch.probability <= 0.0) == (not values)
    if case.startswith("ghz-null-success"):
        # where the success branch is null, no @success key is recorded and its columns read 0
        null = [b for b, t in enumerate(traces) if t.success_probability == 0.0]
        assert null == ([0, 1] if case.endswith("everywhere") else [0, 2])
        for b in null:
            assert not any(k.endswith("@success") for k in traces[b].partition_negativities)
            assert chunk.columns["ab_pair@success"][b] == chunk.columns["a|bc@success"][b] == 0.0


def test_indexing_is_the_per_point_traces():
    batch = [(depolarizing(3, p),) for p in (0.1, 0.5, 0.9)]
    chunk = _drive(SPECS["qudit", "probabilistic"], batch, 3)
    assert [t.noise["noise_param"] for t in chunk] == [0.1, 0.5, 0.9]
    assert chunk[-1].noise == chunk[2].noise == {"kind": "depolarizing", "dim": 3,
                                                 "noise_param": 0.9, "d": 3}
    with pytest.raises(IndexError):
        chunk[3]


def test_a_refused_point_in_a_later_chunk_names_its_value():
    # two GHZ chunks; CP needs |lambda1 + lambda2| <= 1 + lambda3, which fails
    # from lambda1 = 0.705 on, point 141, in the second chunk
    spec = SweepSpec(
        "ghz", "canonical", "lambda1", "", points=201,
        channel_args={"lambda2": 0.3, "lambda3": 0.0},
    ).validate()
    assert protocols._chunk_points(SPECS["ghz", "probabilistic"], 2) <= 141
    with pytest.raises(SweepError, match=r"^lambda1=0\.705: channel on d1 is not a CPT map"):
        sweep_table(spec)


def kraus_tensor(ch):
    """The one-channel Kraus formula the stacked kernel replaced."""
    ops = np.stack(ch.kraus_ops)
    return np.einsum("mik,mjl->ijkl", ops, ops.conj())


def depolarizing_tensor(ch):
    """The one-channel depolarizing formula the stacked kernel replaced."""
    d, p = ch.d, ch.p
    eye = np.eye(d)
    t4 = (1.0 - p) * np.einsum("ik,jl->ijkl", eye, eye).astype(complex)
    t4 += (p / d) * np.einsum("kl,ij->ijkl", eye, eye)
    return t4


def stacked_pool():
    """Channels of every class, several per stacked group: Kraus at d = 2..6
    with one, two and d Kraus operators, depolarizing at d = 3..6 and canonical
    channels with t3 != 0."""
    rng = np.random.default_rng(11)
    pool = [amplitude_damping(d, g) for d in range(2, 7) for g in (0.0, 0.35, 1.0)]
    pool += [
        KrausChannel(tuple(stinespring_kraus(int(rng.integers(1 << 30)), d, count=count)))
        for d in range(2, 7) for count in (1, 2, 2)
    ]
    pool += [DepolarizingChannel(d, p) for d in range(3, 7) for p in (0.0, 0.3, 1.0)]
    pool += [canonical_channel(*row) for row in rng.uniform(-0.5, 0.5, size=(9, 4))]
    return pool


def test_stacked_tensors_equal_one_channel_builds_byte_for_byte(monkeypatch):
    calls = []
    for cls in (CanonicalChannel, KrausChannel, DepolarizingChannel):
        build = cls._tensors
        monkeypatch.setattr(
            cls, "_tensors", staticmethod(lambda g, build=build: calls.append(len(g)) or build(g))
        )
    # the pool in stackable groups, one class, dimension and Kraus count each
    groups = {}
    for ch in stacked_pool():
        groups.setdefault((type(ch), ch.dim, len(getattr(ch, "kraus_ops", ()))), []).append(ch)
    pool, stacked = [], []
    for group in groups.values():
        pool += group
        stacked += _built(group)
    assert calls == [len(group) for group in groups.values()] and max(calls) > 2
    for ch, t4 in zip(pool, stacked, strict=True):
        assert ch.transfer_tensor() is t4 and not t4.flags.writeable
        alone = type(ch)(**vars(ch)).transfer_tensor()  # an equal channel, built alone
        assert t4.tobytes() == alone.tobytes()
        if isinstance(ch, KrausChannel):
            assert t4.tobytes() == kraus_tensor(ch).tobytes()
        elif isinstance(ch, DepolarizingChannel):
            assert t4.tobytes() == depolarizing_tensor(ch).tobytes()
        else:
            params = np.array([[ch.lambda1, ch.lambda2, ch.lambda3, ch.t3]])
            assert t4.tobytes() == channels._canonical_tensors(params)[0].tobytes()


def test_runs_makes_a_chunk_only_when_next_reaches_it(monkeypatch):
    """No chunk's channels or tensors exist before ``next`` reaches it, and the
    channels of a chunk the caller dropped are gone before the next chunk's
    tensors are built."""
    spec, d = SPECS["qudit", "probabilistic"], 5
    size = protocols._chunk_points(spec, d)
    # per chunk, weak references to its channels; per build, its size and, per
    # earlier chunk, whether that chunk's channels are gone
    made, builds = [], []
    make, build = protocols._channels, KrausChannel._tensors

    def making(*args):
        points = make(*args)
        made.append([weakref.ref(ch) for ch in points])
        return points

    def building(group):
        dropped = [all(ref() is None for ref in refs) for refs in made[:-1]]
        builds.append((len(group), dropped))
        return build(group)

    monkeypatch.setattr(protocols, "_channels", making)
    monkeypatch.setattr(KrausChannel, "_tensors", staticmethod(building))
    runs = _runs(spec, "amplitude_damping", d, np.linspace(0.0, 1.0, 2 * size + 1)[:, None])
    assert made == builds == []
    sizes = [size, size, 1]
    for n, points in enumerate(sizes, 1):
        assert len(next(runs)) == points
        assert [len(refs) for refs in made] == sizes[:n]
        assert builds == [(p, [True] * i) for i, p in enumerate(sizes[:n])]
    with pytest.raises(StopIteration):
        next(runs)


def test_a_sweep_chunk_builds_its_tensors_in_one_call_per_class(monkeypatch):
    calls = []
    build = KrausChannel._tensors
    monkeypatch.setattr(
        KrausChannel, "_tensors", staticmethod(lambda g: calls.append(len(g)) or build(g))
    )
    sweep_table(SweepSpec("qudit", "amplitude_damping", "gamma", "", d=5, points=101).validate())
    size = protocols._chunk_points(SPECS["qudit", "probabilistic"], 5)
    assert calls == [size, 101 - size]
