"""End-to-end distribution protocol drivers with full per-step traces.

Three variants are covered:

* ``two_qubit``: one exchange qubit c mediates entanglement between a and b;
  finished either by measuring c (probabilistic) or by a local channel on
  (b, c) plus discarding c (deterministic).
* ``ghz``: two exchange qubits d1, d2 mediate a three-party GHZ state
  between a, b, c (probabilistic only).
* ``qudit``: the d-level generalization of the two-qubit variant, finished
  with an inverse CNOT on (b, c) before measuring c.

Each (protocol, mode) pair is one :class:`ProtocolSpec` in ``SPECS``: its
register, its ordered CNOT and channel steps, the partitions recorded at
each step, its finish, its identity chains and its CSV columns with their
closed forms. One driver walks an entry; sweeps, check suites and the
``edss describe`` text (:func:`describe`) read the same table.

The driver runs a batch of points at once: each state is a stack with one
matrix per point, and every operation acts on the whole stack. A stack is an
entry list (``tensor._Entries``): one pattern of positions that every point
shares, and one row of values per point. The states of a trace build their
dense matrix only when it is read, and can then be checked elementwise
against analytic block forms. The negativities a pass records (each step's
partitions, each live branch's finish sides, the GHZ success pairs and the
deterministic output) are queued as the pass reaches them and solved
together at its end, one batched ``eigvalsh`` per block size, into one
column per trace key; a trace is a per-point view of the pass (``_Chunk``).
"""

from __future__ import annotations

import functools
import textwrap
from dataclasses import dataclass, field, replace
from itertools import chain, compress, count
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channels import CHANNEL_PARAMS, QuditChannel, _built, _channels, _covariant, _cpt_reports
from .channels import _embed, _off_sectors
from .measures import _batch_negativities, _concurrences
from .reference import CLOSED_FORM_KINDS, FORMULAS
from .states import (
    MeasurementBranch,
    _bob_deterministic,
    _cnot,
    _measure,
    edss_initial_two_qubit,
    ghz_initial_state,
    qudit_initial_state,
)
from .tensor import (
    Bipartition,
    DensityOperator,
    _check_unit_trace,
    _dimension,
    _Entries,
    _integer,
    _partial_trace,
    _scatter,
)

# Where the paper's identities hold, chain spreads and exchange negativities are ~1e-15.
CHAIN_ATOL = 1e-9
SEPARABILITY_ATOL = 1e-9
# Channels whose tensors agree this closely count as one (for the symmetry chains).
SAME_CHANNEL_ATOL = 1e-12
# critical_noise's zero: far above ~1e-16 rounding; the root bias it makes, atol / |slope|,
# stays under 1e-9 up to d ~ 500.
ROOT_ZERO_ATOL = 1e-12
# critical_noise stops at a bracket this wide, a thousandth of CLOSED_FORM_ATOL.
ROOT_TOL = 1e-12
# A qudit state held as entries has at most 396 of them at d = 6 (see _chunk_points); what caps d
# is the dense d^4 transfer tensor, with amplitude damping's d^5 Kraus build. Against a budget of
# 0.25 s and 100 MB peak RSS, one warm qudit_average_only (one BLAS thread) takes 18-50 ms and
# 54-60 MB at d = 24, and 45-155 ms and 101-116 MB at d = 32; the Kraus build is 35 and 113 ms.
# _register holds every run and sweep to it.
MAX_DIM_CEILING = 24
# The first subsystem against the second, of a two-subsystem register.
_PAIR_SIDE = Bipartition.split((0,), 2)
# Bytes per stacked state of one driver pass (see _chunk_points). Over one-point
# chunks, 256 KiB adds 0.5 MB peak RSS on qubit_sweeps, 1 MiB 4.6 MB.
STACK_BYTES = 256 * 1024


def partition_name(labels: Sequence[str], side_a: Sequence[int]) -> str:
    side = set(side_a)
    a = "".join(labels[i] for i in sorted(side))
    b = "".join(labels[i] for i in range(len(labels)) if i not in side)
    return f"{a}|{b}"


@dataclass
class DeterministicOutcome:
    """Output of the deterministic finish: final pair plus its entanglement."""

    state: DensityOperator
    negativity: float
    concurrence: float


@dataclass
class ProtocolTrace:
    """Everything a protocol run produced.

    ``partition_negativities`` is keyed ``"<partition>@<step>"``; branch
    averages live in ``averages`` keyed by the post-measurement partition.
    ``identity_chains`` names groups of those keys whose values coincide for
    admissible channels (``"avg:<partition>"`` refers into ``averages``).
    """

    protocol: str
    mode: str
    noise: dict[str, object]
    subsystems: tuple[str, ...]
    steps: list[tuple[str, DensityOperator]]
    branches: list[MeasurementBranch] = field(default_factory=list)
    branch_negativities: list[dict[str, float]] = field(default_factory=list)
    partition_negativities: dict[str, float] = field(default_factory=dict)
    averages: dict[str, float] = field(default_factory=dict)
    average_negativity: float | None = None
    success_probability: float | None = None
    deterministic_output: DeterministicOutcome | None = None
    identity_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    exchange_keys: tuple[str, ...] = ()
    warnings: list[str] = field(default_factory=list)

    def value_of(self, key: str) -> float:
        """Value behind a trace key.

        Keys are ``success_probability``, ``average_negativity``,
        ``deterministic:<field>``, ``avg:<partition>`` or
        ``<partition>@<step>``; a ``@success`` key reads 0 when the success
        branch has probability zero.
        """
        if key in ("success_probability", "average_negativity"):
            return getattr(self, key)
        if key.startswith("deterministic:"):
            return getattr(self.deterministic_output, key.split(":", 1)[1])
        if key.startswith("avg:"):
            return self.averages[key[4:]]
        if key.endswith("@success"):
            return self.partition_negativities.get(key, 0.0)
        return self.partition_negativities[key]


class Cnot(NamedTuple):
    """Generalized CNOT; ``inverse`` subtracts the control digit instead."""

    control: int
    target: int
    inverse: bool = False


class Noise(NamedTuple):
    """Channel number ``channel`` of the run acts on subsystem ``target``."""

    target: int
    channel: int = 0


class Step(NamedTuple):
    """A labelled step: its operations, then the one-vs-rest sides recorded
    there besides the exchange side, which is recorded at every step."""

    label: str
    ops: tuple[Cnot | Noise, ...] = ()
    record: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True, eq=False, kw_only=True)
class ProtocolSpec:
    """Declarative description of one (protocol, mode) pair.

    Each fact is stated once. The exchange subsystems are the targets of the
    ``Noise`` steps, and a probabilistic finish measures them; closed forms
    and critical noise levels are the ``reference.FORMULAS`` ids the spec's
    protocol and columns name. The trace keys a run records are those of
    ``layout``, and :func:`describe` renders the ``edss describe`` text from
    the entries alone. ``initial`` and ``average_only`` call module-level
    functions by name, so wrappers installed on those names (profilers,
    tracers) see every call.
    """

    protocol: str
    mode: str
    subsystems: tuple[str, ...]
    # d -> start state; the first step holds it unchanged
    initial: Callable[[int], DensityOperator]
    steps: tuple[Step, ...]
    # one role per channel of a run, in ``Noise.channel`` order
    channel_roles: tuple[str, ...]
    # (kind, x, d) -> the a|b branch average whose root a critical_formula
    # level predicts; x a float, or a 1-D array taken in one pass
    average_only: Callable[..., float] | None = None
    # one-vs-rest sides of the post-measurement register; the first one
    # carries the distributed entanglement
    finish: tuple[tuple[int, ...], ...] = ((0,),)
    # pairs of the post-measurement register recorded on the success branch
    success_pairs: tuple[tuple[int, int], ...] = ()
    # local map replacing the measurement in the deterministic mode, from a
    # stack of final states to a stack of (2, 2) pair states
    deterministic: Callable[[_Entries], _Entries] | None = None
    identity_chains: dict[str, tuple[str, ...]]
    # chains that need the same channel on every exchange subsystem
    symmetry_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # CSV column -> trace key (see ProtocolTrace.value_of)
    columns: tuple[tuple[str, str], ...]
    # groups of columns one closed form predicts; the formula id is
    # <protocol>_<kind>_<first column>
    closed_forms: tuple[tuple[str, ...], ...]
    # the register dimension d is a parameter of the protocol
    takes_d: bool = False
    # the identity suite draws checks.RANDOM_CHANNELS // random_divisor random
    # canonical channels for this entry (0: none)
    random_divisor: int = 0

    @functools.cached_property
    def exchange(self) -> tuple[int, ...]:
        """The subsystems the channels act on, in step order; this side must
        stay PPT with the rest at every step."""
        return tuple(op.target for step in self.steps for op in step.ops if isinstance(op, Noise))

    @functools.cached_property
    def measured(self) -> tuple[str, ...]:
        """Labels of the subsystems measured at the finish, in order: the
        exchange, unless a deterministic map replaces the measurement."""
        if self.deterministic is not None:
            return ()
        return tuple(self.subsystems[i] for i in self.exchange)

    @functools.cached_property
    def layout(self) -> tuple[list[dict[str, Bipartition]], dict[str, Bipartition], dict]:
        """What a run records, built once per entry: per step, trace key ->
        bipartition of the exchange, then of each ``step.record`` side; the
        post-measurement register's ``finish`` bipartitions by partition name;
        and its success pairs by trace key."""
        n = len(self.subsystems)
        steps = [
            {
                f"{partition_name(self.subsystems, side)}@{step.label}": Bipartition.split(side, n)
                for side in (self.exchange, *step.record)
            }
            for step in self.steps
        ]
        rest = [label for label in self.subsystems if label not in self.measured]
        parts = {partition_name(rest, s): Bipartition.split(s, len(rest)) for s in self.finish}
        pairs = {f"{''.join(rest[i] for i in p)}_pair@success": p for p in self.success_pairs}
        return steps, parts, pairs

    @functools.cached_property
    def exchange_keys(self) -> tuple[str, ...]:
        """Per step, the trace key of the exchange's bipartition: its first in ``layout``."""
        return tuple(next(iter(sides)) for sides in self.layout[0])

    def formulas(self, kind: str) -> dict[str, tuple[str, ...]]:
        """Per-point formula id -> predicted columns for a ``kind`` sweep."""
        if kind not in CLOSED_FORM_KINDS:
            return {}
        return {f"{self.protocol}_{kind}_{cols[0]}": cols for cols in self.closed_forms}

    def critical_formula(self, kind: str) -> str | None:
        """Formula id of the noise level where a ``kind`` sweep's average
        vanishes, if ``reference.FORMULAS`` has one for this protocol."""
        fid = f"{self.protocol}_{kind}_critical_noise"
        return fid if fid in FORMULAS else None


def _noise_summary(*channels: QuditChannel) -> dict[str, object]:
    each = [{"kind": ch.kind, "dim": ch.dim, "noise_param": ch.noise_param} for ch in channels]
    return each[0] if len(each) == 1 else {f"channel_{i}": s for i, s in enumerate(each, 1)}


def _evolve(
    spec: ProtocolSpec, t4: np.ndarray, index: np.ndarray, dims: tuple[int, ...]
) -> list[tuple[str, _Entries]]:
    """Labelled state stacks of ``spec`` on the register ``dims``, row b evolved
    under the transfer tensors ``t4[index[b]]`` of its roles (see ``_admit``), with
    ``t4`` zeroed in place off its Choi sectors at d > 2 (``channels._off_sectors``).
    Until the first channel every point holds the same state, so those stacks
    keep one row; the channel step broadcasts to the batch."""
    if dims[0] > 2:  # admitted within _COVARIANCE_ATOL there; finite, so exactly zero
        t4 -= _off_sectors(t4)
    state = spec.initial(dims[0])._entries()[None]
    states = []
    for step in spec.steps:
        for op in step.ops:
            if isinstance(op, Cnot):
                state = _cnot(state, op.control, op.target, op.inverse)
            else:
                state = _embed(t4[index[:, op.channel]], state, dims, op.target)
            _check_unit_trace(state)
        states.append((step.label, state))
    return states


def _register(spec: ProtocolSpec, d: int) -> tuple[int, ...]:
    d = _dimension(d)
    if not spec.takes_d and d != 2:
        raise ValueError(f"protocol {spec.protocol} works with qubits; drop d={d}")
    if d > MAX_DIM_CEILING:
        raise ValueError(f"dimension {d} outside the allowed range [2, {MAX_DIM_CEILING}]")
    return (d,) * len(spec.subsystems)


def _branches(
    spec: ProtocolSpec, final: _Entries
) -> list[tuple[tuple[int, ...], np.ndarray, _Entries]]:
    """Measure ``spec.measured`` in order on the stack ``final``: per outcome
    tuple the probabilities and post states (see ``states._measure``). A
    branch is null where its probability is 0."""
    labels = list(spec.subsystems)
    branches = [((), np.ones(len(final)), final)]
    for name in spec.measured:
        target = labels.index(name)
        labels.pop(target)
        branches = [
            (outcome + (m,), prob * p, post)
            for outcome, prob, state in branches
            for m, (p, post) in enumerate(_measure(state, target))
        ]
    return branches


def _admit(
    spec: ProtocolSpec, batch: Sequence[Sequence[QuditChannel]], d: int, label: Callable = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct channels' transfer tensors, stacked in a fresh, writable array; per
    point and role the index of its channel there, and whether that channel is warned
    of (not phase-covariant, at d = 2). One stacked CPT test and covariance test
    (``channels._covariant``) check them all; the first point and role the
    protocol refuses, in batch order, raises, prefixed with ``label(b)``."""
    channels = dict(zip(dict.fromkeys(chain.from_iterable(batch)), count()))
    index = np.fromiter(map(channels.__getitem__, chain.from_iterable(batch)), int)
    index = index.reshape(len(batch), len(spec.channel_roles))
    fits = [ch.dim == d for ch in channels]
    t4 = np.array([ch.transfer_tensor() for ch in compress(channels, fits)]).reshape(-1, d, d, d, d)
    covariant = _covariant(t4)
    reports = _cpt_reports(t4, covariant=covariant)
    if all(fits) and all(reports) and (d == 2 or covariant.all()):
        return t4, index, ~covariant[index]
    checked = iter(zip(reports, covariant.tolist()))
    verdicts = [next(checked) if fit else ch.dim for ch, fit in zip(channels, fits)]
    for b, row in enumerate(index.tolist()):
        at = f"{label(b)}: " if label else ""
        for role, verdict in zip(spec.channel_roles, map(verdicts.__getitem__, row)):
            if isinstance(verdict, int):
                raise ValueError(f"{at}{role} has dimension {verdict}; the register needs {d}")
            report, covariant = verdict
            if not report:
                raise ValueError(
                    f"{at}{role} is not a CPT map (min Choi eigenvalue "
                    f"{report.min_choi_eigenvalue:.3e}, trace defect "
                    f"{report.trace_preservation_error:.3e})"
                )
            if not covariant and d > 2:
                raise ValueError(f"{at}{role} is not phase-covariant, which d > 2 requires")


def _same(t4: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per point, whether its roles' tensors ``t4[index[b]]`` agree within ``SAME_CHANNEL_ATOL``;
    one comparison per distinct index row, none where one channel fills every role."""
    same, close = np.ones(len(index), dtype=bool), {}
    for b in np.flatnonzero((index != index[:, :1]).any(axis=1)).tolist():
        if (row := tuple(index[b].tolist())) not in close:
            first, *others = [t4[j] for j in dict.fromkeys(row)]
            close[row] = all(np.allclose(first, t, atol=SAME_CHANNEL_ATOL, rtol=0) for t in others)
        same[b] = close[row]
    return same


@dataclass(eq=False)
class _Chunk:
    """One driver pass over a batch. ``columns`` holds each ``ProtocolTrace.value_of``
    key as one float array, a value per point (a ``@success`` or pair key reads 0
    where the success branch is null). Indexed, the chunk is the sequence of
    per-point traces, each built from the columns and stacks as it is read."""

    spec: ProtocolSpec
    batch: Sequence[Sequence[QuditChannel]]
    d: int
    warned: np.ndarray  # per point and role: the channel is not phase-covariant
    same: np.ndarray
    states: list[tuple[str, _Entries]]
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    branches: list[tuple] = field(default_factory=list)  # outcome, probs, live posts, columns
    out: _Entries | None = None  # the deterministic finish's pair states

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, b: int) -> ProtocolTrace:
        b, spec, (steps, parts, pairs) = range(len(self))[b], self.spec, self.spec.layout
        targets = " and ".join(spec.subsystems[i] for i in spec.exchange)
        value = {key: float(column[b]) for key, column in self.columns.items()}
        trace = ProtocolTrace(
            protocol=spec.protocol,
            mode=spec.mode,
            noise=_noise_summary(*self.batch[b]) | ({"d": self.d} if spec.takes_d else {}),
            subsystems=spec.subsystems,
            steps=[(label, DensityOperator._trusted(s[b % len(s)])) for label, s in self.states],
            partition_negativities={key: value[key] for sides in steps for key in sides},
            identity_chains=spec.identity_chains | (spec.symmetry_chains if self.same[b] else {}),
            exchange_keys=spec.exchange_keys,
            warnings=[
                f"{role} is not Bloch-diagonal or otherwise phase-covariant; identity chains "
                "are not guaranteed" for role in compress(spec.channel_roles, self.warned[b])
            ] + [f"channels on {targets} differ; the symmetry relations are not guaranteed"]
            * (not self.same[b]),
        )
        if self.out is not None:
            state = DensityOperator._trusted(self.out[b])
            fields = (value[f"deterministic:{name}"] for name in ("negativity", "concurrence"))
            trace.deterministic_output = DeterministicOutcome(state, *fields)
            return trace
        for outcome, probs, posts, negs in self.branches:
            state, live = None, probs > 0.0
            if live[b]:  # the posts hold the live points only
                state = DensityOperator._trusted(posts[np.count_nonzero(live[:b])])
            trace.branches.append(MeasurementBranch(outcome, float(probs[b]), state))
            trace.branch_negativities.append({k: float(v[b]) for k, v in negs.items() if live[b]})
        if trace.branches[0].probability > 0.0:
            success = [f"{name}@success" for name in parts] + list(pairs)
            trace.partition_negativities.update((key, value[key]) for key in success)
        trace.averages = {name: value[f"avg:{name}"] for name in parts}
        trace.average_negativity = value["average_negativity"]
        trace.success_probability = value["success_probability"]
        return trace

    def chain_spread(self) -> np.ndarray:
        """Per point, the ``max_deviation`` of ``verify_identity_chain``: the
        largest max - min over a chain's member columns, a symmetry chain
        counted where the channels are the same."""
        worst, spec = np.zeros(len(self)), self.spec
        for chains, where in (spec.identity_chains, True), (spec.symmetry_chains, self.same):
            for keys in chains.values():
                members = np.array([self.columns[key] for key in keys])
                worst = np.where(where, np.maximum(worst, members.max(0) - members.min(0)), worst)
        return worst


def _drive(
    spec: ProtocolSpec,
    batch: Sequence[Sequence[QuditChannel]],
    d: int = 2,
    label: Callable[[int], str] | None = None,
) -> _Chunk:
    """Run ``spec`` once per channel tuple in ``batch``, with every partition,
    branch and chain recorded: a ``_Chunk`` of one trace per tuple, in order.

    The points are evolved, transposed, solved and measured together, as stacks
    with one row per point; every negativity is queued as its stack comes up and
    solved in one pass (``measures._batch_negativities``). Every channel is
    admitted, in point order, before any state is built; a refusal is prefixed
    with ``label(b)`` of its point when a label is given."""
    dims = _register(spec, d)
    t4, index, warned = _admit(spec, batch, dims[0], label)
    chunk = _Chunk(spec, batch, dims[0], warned, _same(t4, index), _evolve(spec, t4, index, dims))
    del t4  # not held through the negativity solve
    queue: list[tuple[_Entries, Bipartition, np.ndarray | slice]] = []

    # the matrices of ``stack`` are the points ``rows`` picks; one matrix holds for every point
    def queued(stack: _Entries, part: Bipartition, rows: np.ndarray | slice = slice(None)) -> int:
        queue.append((stack, part, rows))
        return len(queue) - 1

    step_sides, parts, pairs = spec.layout
    recorded = {}  # trace key -> queue index; None reads 0 at every point
    for sides, (_, stack) in zip(step_sides, chunk.states):
        recorded.update((key, queued(stack, part)) for key, part in sides.items())
    final = chunk.states[-1][1]
    if spec.deterministic is not None:
        chunk.out = spec.deterministic(final)
        _check_unit_trace(chunk.out)
        recorded["deterministic:negativity"] = queued(chunk.out, _PAIR_SIDE)
    for n, (outcome, probs, posts) in enumerate(_branches(spec, final) if spec.measured else ()):
        live = probs > 0.0
        posts = posts[live]
        _check_unit_trace(posts)
        # a branch null at every point queues nothing
        names = {name: queued(posts, s, live) for name, s in parts.items() if len(posts)}
        if n == 0:  # the success branch
            recorded.update(dict.fromkeys([f"{name}@success" for name in parts] + list(pairs)))
            recorded.update((f"{name}@success", i) for name, i in names.items())
            for key, pair in pairs.items() if len(posts) else ():
                reduced = _partial_trace(posts, pair)
                _check_unit_trace(reduced)
                recorded[key] = queued(reduced, _PAIR_SIDE, live)
        outcome = outcome[0] if len(spec.measured) == 1 else outcome
        chunk.branches.append((outcome, probs, posts, names))

    full, zeros = [np.zeros(len(batch)) for _ in queue], np.zeros(len(batch))
    solved = _batch_negativities([(stack, part) for stack, part, _ in queue])
    for values, (_, _, rows), column in zip(solved, queue, full):
        column[rows] = values
    chunk.columns = {key: zeros if i is None else full[i] for key, i in recorded.items()}
    if chunk.out is not None:
        chunk.columns["deterministic:concurrence"] = _concurrences(_scatter(chunk.out))
        return chunk
    averages = {name: np.zeros(len(batch)) for name in parts}
    for n, (outcome, probs, posts, names) in enumerate(chunk.branches):
        chunk.branches[n] = outcome, probs, posts, {name: full[i] for name, i in names.items()}
        for name, i in names.items():  # average_negativity's sum, term for term in branch order
            np.add(averages[name], probs * full[i], out=averages[name], where=probs > 0.0)
    chunk.columns.update((f"avg:{name}", values) for name, values in averages.items())
    chunk.columns["average_negativity"] = averages[next(iter(parts))]
    chunk.columns["success_probability"] = chunk.branches[0][1]
    return chunk


def _chunk_points(spec: ProtocolSpec, d: int) -> int:
    """Points per pass: as many as fit in ``STACK_BYTES`` per stacked state, and
    at least one (see ``_most_entries``)."""
    return max(1, STACK_BYTES // (16 * _most_entries(spec, _register(spec, d)[0])))


@functools.cache
def _most_entries(spec: ProtocolSpec, d: int) -> int:
    """The most entries of any step's stack of ``spec`` at ``d``, exactly: the
    start pattern, with positive values, evolved under a tensor of ones on every
    admissible entry. At d > 2, where only phase-covariant channels are
    admitted, those are the Choi sectors, ``i - j = k - l (mod d)``: the tensor
    is zeroed off them as ``_evolve`` zeroes an admitted one. At d = 2, where
    any CPT channel is, every entry is admissible."""
    dims = (d,) * len(spec.subsystems)
    ones = np.ones((1,) + (d,) * 4)
    t4 = ones - _off_sectors(ones) if d > 2 else ones
    start = spec.initial(d)._entries()
    state = _Entries(start.rows, start.cols, np.ones(len(start.rows)), dims)
    most = len(state.rows)
    for op in (op for step in spec.steps for op in step.ops):
        state = _cnot(state, *op) if isinstance(op, Cnot) else _embed(t4, state, dims, op.target)
        most = max(most, len(state.rows))
    return most


def _runs(
    spec: ProtocolSpec,
    kind: str,
    d: int,
    params: Sequence[Sequence[float]],
    label: Callable[[int], str] | None = None,
) -> Iterator[_Chunk]:
    """``_drive``'s chunks over one ``kind`` channel per row of ``params`` (values of
    ``CHANNEL_PARAMS[kind]``), in every role of its point, ``_chunk_points`` rows each.
    A chunk's channels (one ``channels._channels`` call) and transfer tensors (one
    stacked ``channels._built``) are made once the previous chunk is taken, so a
    consumer that keeps no chunk holds one chunk's channels and states at a time.
    ``label(b)`` names row b of ``params`` in a refusal."""
    size = _chunk_points(spec, d)
    for start in range(0, len(params), size):
        _built(points := _channels(kind, d, params[start : start + size]))
        batch = [(ch,) * len(spec.channel_roles) for ch in points]
        yield _drive(spec, batch, d, label and (lambda b, start=start: label(start + b)))
        del batch  # the taken chunk's tensors go before the next chunk's are built


def _states(
    spec: ProtocolSpec, channels: Sequence[QuditChannel], d: int
) -> list[tuple[str, DensityOperator]]:
    """The labelled states of one run's trace, each rebuilt with its full check."""
    steps = _drive(spec, [channels], d)[0].steps
    return [(label, DensityOperator(rho.matrix, rho.dims)) for label, rho in steps]


def two_qubit_states(ch: QuditChannel) -> list[tuple[str, DensityOperator]]:
    """State sequence of the two-qubit protocol under channel ``ch`` on c."""
    return _states(SPECS["two_qubit", "probabilistic"], (ch,), 2)


def ghz_states(ch1: QuditChannel, ch2: QuditChannel) -> list[tuple[str, DensityOperator]]:
    """State sequence of the GHZ protocol; ``ch1`` acts on d1, ``ch2`` on d2."""
    return _states(SPECS["ghz", "probabilistic"], (ch1, ch2), 2)


def qudit_states(d: int, ch: QuditChannel) -> list[tuple[str, DensityOperator]]:
    """State sequence of the d-level protocol under channel ``ch`` on c."""
    return _states(SPECS["qudit", "probabilistic"], (ch,), d)


def run_two_qubit(ch: QuditChannel, mode: str = "probabilistic") -> ProtocolTrace:
    """Run the two-qubit protocol under ``ch``.

    ``mode`` is ``"probabilistic"`` (measure c, keep all branches) or
    ``"deterministic"`` (local channel on b, c and trace c out). Non-CPT
    channels are refused.
    """
    if ("two_qubit", mode) not in SPECS:
        raise ValueError(f"unknown mode {mode!r}")
    return _drive(SPECS["two_qubit", mode], [(ch,)])[0]


def run_ghz(ch1: QuditChannel, ch2: QuditChannel | None = None) -> ProtocolTrace:
    """Run the GHZ protocol with channels on the two exchange qubits.

    With one argument the same channel acts on both. Distinct channels are
    allowed but flagged, since the cross-partition symmetry argument assumes
    identical independent noise.
    """
    return _drive(SPECS["ghz", "probabilistic"], [(ch1, ch1 if ch2 is None else ch2)])[0]


def run_qudit(d: int, ch: QuditChannel) -> ProtocolTrace:
    """Run the d-level pair distribution protocol under ``ch`` on c.

    ``d`` is an integer in [2, ``MAX_DIM_CEILING``], which bounds the d^3-sided
    matrices. For d > 2, a channel that is not phase-covariant (see
    ``channels.has_canonical_form``) is refused before any state is built.
    """
    return _drive(SPECS["qudit", "probabilistic"], [(ch,)], d)[0]


def _average_only(
    spec: ProtocolSpec, kind: str, d: int, x: float | np.ndarray, partition: str
) -> float | np.ndarray:
    """The ``avg:<partition>`` column of ``spec`` under one ``kind`` channel in every
    role: a float for a float ``x``, else a value per entry of the 1-D array ``x``,
    from one driver pass per chunk (``_runs``)."""
    if len(CHANNEL_PARAMS.get(kind, ())) != 1:
        raise ValueError(f"unknown one-parameter channel kind {kind!r}")
    if (xs := np.asarray(x, dtype=float)).ndim > 1:
        raise ValueError(f"x must be a float or a 1-D array, got shape {xs.shape}")
    runs = _runs(spec, kind, d, xs.reshape(-1, 1))
    column = np.concatenate([chunk.columns[f"avg:{partition}"] for chunk in runs] or [[]])
    return float(column[0]) if xs.ndim == 0 else column


def qudit_average_only(d: int, kind: str, x: float | np.ndarray) -> float | np.ndarray:
    """Branch-averaged a|b negativity of qudit runs, for d up to ``MAX_DIM_CEILING``;
    ``x`` a float or a 1-D array, as for each ``*_average_only`` (``_average_only``)."""
    return _average_only(SPECS["qudit", "probabilistic"], kind, d, x, "a|b")


def ghz_average_only(kind: str, x: float | np.ndarray, side: int) -> float | np.ndarray:
    """Branch-averaged GHZ negativity across a|bc, b|ac or c|ab (``side`` 0, 1, 2)."""
    spec = SPECS["ghz", "probabilistic"]
    return _average_only(spec, kind, 2, x, list(spec.layout[1])[_integer(side, "side", 0, 2)])


def two_qubit_average_only(kind: str, x: float | np.ndarray) -> float | np.ndarray:
    """Branch-averaged a|b negativity of the two-qubit protocol."""
    return _average_only(SPECS["two_qubit", "probabilistic"], kind, 2, x, "a|b")


_TWO_QUBIT = ProtocolSpec(
    protocol="two_qubit",
    mode="probabilistic",
    subsystems=("a", "b", "c"),
    initial=lambda d: edss_initial_two_qubit(),
    steps=(
        Step("initial"),
        Step("alice_cnot", (Cnot(0, 2),)),
        Step("channel", (Noise(2),), record=((0,),)),
        Step("bob_cnot", (Cnot(1, 2),), record=((0,), (1,))),
    ),
    channel_roles=("communication channel",),
    identity_chains={
        "distribution": ("avg:a|b", "a|bc@channel", "a|bc@bob_cnot", "b|ac@bob_cnot")
    },
    columns=(
        ("success_probability", "success_probability"),
        ("success_negativity", "a|b@success"),
        ("average_negativity", "average_negativity"),
        ("negativity_a_bc_channel", "a|bc@channel"),
        ("negativity_a_bc_final", "a|bc@bob_cnot"),
        ("negativity_b_ac_final", "b|ac@bob_cnot"),
    ),
    closed_forms=(("success_probability",), ("success_negativity",), ("average_negativity",)),
    random_divisor=1,
)

SPECS: dict[tuple[str, str], ProtocolSpec] = {
    ("two_qubit", "probabilistic"): _TWO_QUBIT,
    ("two_qubit", "deterministic"): replace(
        _TWO_QUBIT,
        mode="deterministic",
        deterministic=_bob_deterministic,
        identity_chains={"distribution": ("a|bc@channel", "a|bc@bob_cnot", "b|ac@bob_cnot")},
        columns=(
            ("deterministic_negativity", "deterministic:negativity"),
            ("deterministic_concurrence", "deterministic:concurrence"),
            *_TWO_QUBIT.columns[3:],
        ),
        closed_forms=(("deterministic_negativity",),),
        random_divisor=0,
    ),
    ("ghz", "probabilistic"): ProtocolSpec(
        protocol="ghz",
        mode="probabilistic",
        subsystems=("a", "b", "c", "d1", "d2"),
        initial=lambda d: ghz_initial_state(),
        steps=(
            Step("initial"),
            Step("alice_cnots", (Cnot(0, 3), Cnot(0, 4))),
            Step("channels", (Noise(3, 0), Noise(4, 1)), record=((0,), (1,), (2,))),
            Step("bob_charlie_cnots", (Cnot(1, 3), Cnot(2, 4)), record=((0,), (1,), (2,))),
        ),
        channel_roles=("channel on d1", "channel on d2"),
        finish=((0,), (1,), (2,)),
        success_pairs=((0, 1), (1, 2), (0, 2)),
        identity_chains={
            "a_side": ("avg:a|bc", "a|bcd1d2@bob_charlie_cnots", "a|bcd1d2@channels"),
            "b_side": ("avg:b|ac", "b|acd1d2@bob_charlie_cnots"),
            "c_side": ("avg:c|ab", "c|abd1d2@bob_charlie_cnots"),
        },
        symmetry_chains={
            "bc_symmetry": ("b|acd1d2@bob_charlie_cnots", "c|abd1d2@bob_charlie_cnots")
        },
        columns=(
            ("success_probability", "success_probability"),
            ("negativity_a_bc", "a|bc@success"),
            ("negativity_b_ac", "b|ac@success"),
            ("negativity_c_ab", "c|ab@success"),
            ("pairwise_ab", "ab_pair@success"),
            ("pairwise_bc", "bc_pair@success"),
            ("pairwise_ac", "ac_pair@success"),
            ("average_a_bc", "avg:a|bc"),
            ("average_b_ac", "avg:b|ac"),
            ("average_c_ab", "avg:c|ab"),
            ("negativity_a_bcd1d2_channel", "a|bcd1d2@channels"),
            ("negativity_a_bcd1d2_final", "a|bcd1d2@bob_charlie_cnots"),
            ("negativity_b_acd1d2_final", "b|acd1d2@bob_charlie_cnots"),
            ("negativity_c_abd1d2_final", "c|abd1d2@bob_charlie_cnots"),
        ),
        closed_forms=(
            ("success_probability",),
            ("negativity_a_bc",),
            ("negativity_b_ac", "negativity_c_ab"),
            ("average_a_bc",),
            ("average_b_ac", "average_c_ab"),
        ),
        random_divisor=5,
    ),
    ("qudit", "probabilistic"): replace(
        _TWO_QUBIT,
        protocol="qudit",
        initial=lambda d: qudit_initial_state(d),
        steps=(
            Step("initial"),
            Step("alice_cnot", (Cnot(0, 2),)),
            Step("channel", (Noise(2),), record=((0,), (1,))),
            Step("bob_inverse_cnot", (Cnot(1, 2, inverse=True),), record=((0,), (1,))),
        ),
        average_only=lambda kind, x, d=2: qudit_average_only(d, kind, x),
        identity_chains={
            "distribution": (
                "avg:a|b",
                "a|bc@channel",
                "a|bc@bob_inverse_cnot",
                "b|ac@bob_inverse_cnot",
            )
        },
        columns=(
            *_TWO_QUBIT.columns[:4],
            ("negativity_a_bc_final", "a|bc@bob_inverse_cnot"),
            ("negativity_b_ac_final", "b|ac@bob_inverse_cnot"),
        ),
        takes_d=True,
        random_divisor=0,
    ),
}

PROTOCOLS = tuple(dict.fromkeys(protocol for protocol, _ in SPECS))


def _op_text(spec: ProtocolSpec, op: Cnot | Noise) -> str:
    labels = spec.subsystems
    if isinstance(op, Noise):
        return f"noise on {labels[op.target]} ({spec.channel_roles[op.channel]})"
    return f"{'inverse ' * op.inverse}CNOT {labels[op.control]} -> {labels[op.target]}"


def _wrapped(text: str) -> list[str]:
    return textwrap.wrap(
        text, 79, initial_indent="  ", subsequent_indent="      ",
        break_long_words=False, break_on_hyphens=False,
    )


def describe(protocol: str) -> str:
    """The ``edss describe`` text of ``protocol``, rendered from its ``SPECS``
    entries: the register, one numbered row per step (the modes share their
    steps), then per mode its finish, the trace keys it records, its identity
    and symmetry chains and its closed-form formula ids."""
    modes = [spec for (name, _), spec in SPECS.items() if name == protocol]
    if not modes:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}")
    first, labels = modes[0], modes[0].subsystems
    exchange = ", ".join(labels[i] for i in first.exchange)
    targets = ", ".join(labels[i] for i in range(len(labels)) if i not in first.exchange)
    levels = "d levels each" if first.takes_d else "qubits"
    lines = [f"{protocol}: targets {targets}; exchange {exchange}; {levels}", ""]
    for i, step in enumerate(first.steps):
        numeral = ("I", "II", "III", "IV", "V", "VI")[i]
        ops = "; ".join(_op_text(first, op) for op in step.ops) or "start state"
        lines.append(f"  {numeral:<5}{step.label:<18}{ops}")
    for spec in modes:
        steps, parts, pairs = spec.layout
        keys = [key for sides in steps for key in sides]
        if spec.deterministic is not None:
            finish = f"a local map replaces the measurement of {exchange}"
        else:
            count = "d" if spec.takes_d else 2 ** len(spec.measured)
            zero = "0" if len(spec.measured) == 1 else str((0,) * len(spec.measured))
            finish = f"measure {', '.join(spec.measured)}; {count} outcomes, success on {zero}"
            keys += [f"{name}@success" for name in parts] + list(pairs)
        lines += ["", f"{spec.mode}:", f"  finish: {finish}"]
        lines += _wrapped(" ".join(["records:", *keys]))
        for kind, chains in ("identity", spec.identity_chains), ("symmetry", spec.symmetry_chains):
            for name, members in chains.items():
                lines += _wrapped(f"{kind} chain {name}: {' = '.join(members)}")
        forms = [fid for kind in CLOSED_FORM_KINDS for fid in spec.formulas(kind)]
        forms += filter(None, map(spec.critical_formula, CLOSED_FORM_KINDS))
        lines += _wrapped(" ".join(["closed forms:", *forms]))
    return "\n".join(lines) + "\n"


@dataclass
class ChainReport:
    """Spread of the identity-chain members of a trace."""

    max_deviation: float
    per_chain: dict[str, float]
    values: dict[str, dict[str, float]]
    passed: bool
    warnings: tuple[str, ...]


def verify_identity_chain(trace: ProtocolTrace) -> ChainReport:
    """Check that each identity chain of the trace collapses to one value,
    within ``CHAIN_ATOL``."""
    per_chain: dict[str, float] = {}
    values: dict[str, dict[str, float]] = {}
    for chain_name, keys in trace.identity_chains.items():
        members = {key: trace.value_of(key) for key in keys}
        values[chain_name] = members
        spread = max(members.values()) - min(members.values()) if members else 0.0
        per_chain[chain_name] = spread
    max_dev = max(per_chain.values(), default=0.0)
    return ChainReport(
        max_deviation=max_dev,
        per_chain=per_chain,
        values=values,
        passed=max_dev <= CHAIN_ATOL,
        warnings=tuple(trace.warnings),
    )


@dataclass
class SeparabilityReport:
    """Exchange-vs-rest negativities at every protocol step."""

    max_negativity: float
    entries: dict[str, float]
    passed: bool


def separability_audit(trace: ProtocolTrace) -> SeparabilityReport:
    """Check the exchange subsystem stays PPT with the rest at every step, within
    ``SEPARABILITY_ATOL``."""
    entries = {key: trace.partition_negativities[key] for key in trace.exchange_keys}
    worst = max(entries.values(), default=0.0)
    return SeparabilityReport(worst, entries, worst <= SEPARABILITY_ATOL)


def critical_noise(fn: Callable[[float], float]) -> float:
    """Boundary in [0, 1] above which a nonincreasing nonnegative curve is (numerically) zero.

    Returns 1 if the curve is above ``ROOT_ZERO_ATOL`` at 1, 0 if it is not at 0,
    else a point within ``ROOT_TOL/2`` of the boundary. ``fn`` is mapped over
    rounds of probes: 1, 0 and the first step's bisection, then each a secant
    guess through the last two positive iterates, aimed at ``ROOT_ZERO_ATOL``
    (probes ``ROOT_TOL`` apart differ by ~1e-13 against rounding noise of ~1e-16,
    too little to aim by). The guess is probed once while the miss it predicts
    (step^2 / previous step) exceeds ``ROOT_TOL/2``; below that, and right after a
    bisection, at guess ± ``ROOT_TOL/2``, and it stands once ``fn`` straddles
    ``ROOT_ZERO_ATOL`` there. Guesses outside the bracket and all rounds after
    three failed pairs bisect. The first non-finite value in probe order raises.
    """
    return _critical_noise(lambda xs: [fn(x) for x in xs.tolist()])


def _critical_noise(curve, grid=((), ())) -> float:
    """``critical_noise`` with each round's probes handed to ``curve`` as one 1-D
    array, the values returned in order; each ``*_average_only`` takes a round in
    one driver pass per chunk. A probe in ``xs`` of ``grid``, ``(xs, values)`` of a
    sweep the caller made, is read from there, not driven; no value depends on its
    batch, so the root is the one found without ``grid``, bit for bit."""
    zero, tol, known = ROOT_ZERO_ATOL, ROOT_TOL, dict(zip(*grid))

    def f(probes: tuple[float, ...]) -> list[float]:
        missing = np.array([x for x in probes if x not in known], dtype=float)
        driven = iter(np.asarray(curve(missing) if len(missing) else (), dtype=float).tolist())
        values = [float(known[x]) if x in known else next(driven) for x in probes]
        if bad := [(x, value) for x, value in zip(probes, values) if not np.isfinite(value)]:
            raise ValueError("curve value at x=%r is not finite: %r" % bad[0])
        return values

    at_hi, at_lo, *ahead = f((1.0, 0.0, 0.5))
    if at_hi > zero:
        return 1.0
    if at_lo <= zero:
        return 0.0
    # The last two points where the curve > zero; both start at 0, so step one
    # bisects, at the midpoint the first round has probed.
    prev = last = (0.0, at_lo)
    low, high, failed, bisected = 0.0, 1.0, 0, True
    while high - low > tol:
        (x0, f0), (x1, f1) = prev, last
        # The kinked GHZ averages fail at most two pairs; a concave curve fails every one.
        guess = x1 + (zero - f1) * (x1 - x0) / (f1 - f0) if failed < 3 and f1 != f0 else low
        if not low < guess < high:
            probes = ((low + high) / 2,)
        elif bisected or (guess - x1) ** 2 <= tol / 2 * (x1 - x0):
            probes = (guess - tol / 2, guess + tol / 2)
        else:
            probes = (guess,)
        bisected = not low < guess < high
        values, ahead = ahead or f(probes), None
        if len(probes) == 2 and values[0] > zero >= values[1]:
            return guess
        high = min([high] + [x for x, value in zip(probes, values) if value <= zero])
        if above := [(x, value) for x, value in zip(probes, values) if value > zero]:
            prev, last = last, above[-1]
            low = max(low, last[0])
        failed += len(probes) == 2
    return 0.5 * (low + high)
