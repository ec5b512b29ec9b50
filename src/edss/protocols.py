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
together at its end, one batched ``eigvalsh`` per block size.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field, replace
from itertools import islice
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channels import QuditChannel, _covariant, _cpt_reports, _embed, noise_channel
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
    _Entries,
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
# A qudit state held as entries has at most d^3 + d^2 - d of them; what caps d
# is channel admission: at d = 32 one transfer tensor is 16 MB and its CPT
# eigensolve takes about 0.5 s. _register holds every run and sweep to it.
MAX_DIM_CEILING = 10
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

    def step_state(self, label: str) -> DensityOperator:
        for name, state in self.steps:
            if name == label:
                return state
        raise KeyError(f"no step labeled {label!r}")


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
    ``recorded`` and ``outcome_sides``, and :func:`describe` renders the
    ``edss describe`` text from the entries alone. ``initial`` and
    ``average_only`` call module-level functions by name, so wrappers
    installed on those names (profilers, tracers) see every call.
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
    # level predicts
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
    # the identity suite draws random_channels // random_divisor random
    # canonical channels for this entry (0: none)
    random_divisor: int = 0

    @property
    def exchange(self) -> tuple[int, ...]:
        """The subsystems the channels act on, in step order; this side must
        stay PPT with the rest at every step."""
        return tuple(op.target for step in self.steps for op in step.ops if isinstance(op, Noise))

    @property
    def measured(self) -> tuple[str, ...]:
        """Labels of the subsystems measured at the finish, in order: the
        exchange, unless a deterministic map replaces the measurement."""
        if self.deterministic is not None:
            return ()
        return tuple(self.subsystems[i] for i in self.exchange)

    def recorded(self, step: Step) -> dict[str, tuple[int, ...]]:
        """Trace key -> side of each partition recorded at ``step``: the exchange,
        then ``step.record``."""
        sides = (self.exchange, *step.record)
        return {f"{partition_name(self.subsystems, side)}@{step.label}": side for side in sides}

    def outcome_sides(self) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, int]]]:
        """The post-measurement register's ``finish`` partitions (name -> side)
        and its success pairs (trace key -> pair)."""
        rest = [label for label in self.subsystems if label not in self.measured]
        parts = {partition_name(rest, side): side for side in self.finish}
        pairs = {f"{''.join(rest[i] for i in p)}_pair@success": p for p in self.success_pairs}
        return parts, pairs

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
    if len(channels) == 1:
        ch = channels[0]
        return {"kind": ch.kind, "dim": ch.dim, "noise_param": ch.noise_param}
    return {
        f"channel_{i + 1}": {"kind": ch.kind, "dim": ch.dim, "noise_param": ch.noise_param}
        for i, ch in enumerate(channels)
    }


def _evolve(
    spec: ProtocolSpec, batch: Sequence[Sequence[QuditChannel]], dims: tuple[int, ...]
) -> list[tuple[str, _Entries]]:
    """Labelled state stacks of ``spec`` on the register ``dims``, row b evolved
    under the channels ``batch[b]``. Until the first channel every point holds the
    same state, so those stacks keep one row; the channel step broadcasts to the batch."""
    state = spec.initial(dims[0])._entries()[None]
    states = []
    for step in spec.steps:
        for op in step.ops:
            if isinstance(op, Cnot):
                state = _cnot(state, op.control, op.target, op.inverse)
            else:
                t4 = np.stack([channels[op.channel].transfer_tensor() for channels in batch])
                state = _embed(t4, state, dims, op.target)
            _check_unit_trace(state)
        states.append((step.label, state))
    return states


def _register(spec: ProtocolSpec, d: int) -> tuple[int, ...]:
    if not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension d must be an integer, got {d!r}")
    if not spec.takes_d and d != 2:
        raise ValueError(f"protocol {spec.protocol} works with qubits; drop d={d}")
    if not 2 <= d <= MAX_DIM_CEILING:
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
    spec: ProtocolSpec, batch: Sequence[Sequence[QuditChannel]], d: int, labels: Sequence[str] = ()
) -> list[list[str]]:
    """Warnings of each point's channels, in batch order; the first channel the
    protocol refuses raises, prefixed with ``labels[b]`` when labels are given.
    Each distinct channel of dimension ``d`` is checked once: all of them by one
    stacked CPT test and one stacked covariance mask, before the points are walked."""
    distinct = list(dict.fromkeys(ch for channels in batch for ch in channels if ch.dim == d))
    t4 = np.array([ch.transfer_tensor() for ch in distinct]).reshape(-1, d, d, d, d)
    checked = dict(zip(distinct, zip(_cpt_reports(t4), _covariant(t4).tolist())))
    admitted = []
    for b, channels in enumerate(batch):
        at, warnings = f"{labels[b]}: " if labels else "", []
        for role, ch in zip(spec.channel_roles, channels):
            if ch.dim != d:
                raise ValueError(f"{at}{role} has dimension {ch.dim}; the register needs {d}")
            report, covariant = checked[ch]
            if not report:
                raise ValueError(
                    f"{at}{role} is not a CPT map (min Choi eigenvalue "
                    f"{report.min_choi_eigenvalue:.3e}, trace defect "
                    f"{report.trace_preservation_error:.3e})"
                )
            if covariant:
                continue
            if d > 2:
                raise ValueError(f"{at}{role} is not phase-covariant, which d > 2 requires")
            warnings.append(
                f"{role} is not Bloch-diagonal or otherwise phase-covariant; identity chains "
                "are not guaranteed"
            )
        admitted.append(warnings)
    return admitted


def _new_trace(
    spec: ProtocolSpec, channels: Sequence[QuditChannel], d: int, warnings: list[str]
) -> ProtocolTrace:
    """An empty trace of one point, with its identity chains and warnings."""
    noise = _noise_summary(*channels)
    if spec.takes_d:
        noise["d"] = d
    exchange = partition_name(spec.subsystems, spec.exchange)
    trace = ProtocolTrace(
        protocol=spec.protocol,
        mode=spec.mode,
        noise=noise,
        subsystems=spec.subsystems,
        steps=[],
        identity_chains=dict(spec.identity_chains),
        exchange_keys=tuple(f"{exchange}@{step.label}" for step in spec.steps),
        warnings=warnings,
    )
    first = channels[0].transfer_tensor()
    if all(
        ch is channels[0]
        or np.allclose(first, ch.transfer_tensor(), atol=SAME_CHANNEL_ATOL, rtol=0.0)
        for ch in channels[1:]
    ):
        trace.identity_chains.update(spec.symmetry_chains)
    else:
        targets = " and ".join(spec.subsystems[i] for i in spec.exchange)
        trace.warnings.append(
            f"channels on {targets} differ; the symmetry relations are not guaranteed"
        )
    return trace


def _drive(
    spec: ProtocolSpec,
    batch: Sequence[Sequence[QuditChannel]],
    d: int = 2,
    labels: Sequence[str] = (),
) -> list[ProtocolTrace]:
    """Run ``spec`` once per channel tuple in ``batch``, with every partition,
    branch and chain recorded; one trace per tuple, in order.

    The points are evolved, transposed, solved and measured together, as
    stacks with one row per point. Every negativity the traces record is
    queued as its stack comes up, and the queue is solved in one pass
    (``measures._batch_negativities``) before any value is recorded. Every
    channel is admitted, in point order, before any state is built; a refusal
    is prefixed with ``labels[b]`` when labels are given.
    """
    dims = _register(spec, d)
    traces = [_new_trace(spec, ch, d, w) for ch, w in zip(batch, _admit(spec, batch, d, labels))]
    states = _evolve(spec, batch, dims)
    queue: list[tuple[_Entries, Bipartition]] = []

    def queued(stack: _Entries, side: Sequence[int]) -> int:
        queue.append((stack, Bipartition.split(side, len(stack.dims))))
        return len(queue) - 1

    recorded = {}  # step key -> queue index; a stack of one row holds for every point
    for step, (label, stack) in zip(spec.steps, states):
        for b, trace in enumerate(traces):
            trace.steps.append((label, DensityOperator._trusted(stack[b % len(stack)])))
        for key, side in spec.recorded(step).items():
            recorded[key] = queued(stack, side)

    final = states[-1][1]
    if spec.deterministic is not None:
        out = spec.deterministic(final)
        _check_unit_trace(out)
        queued(out, (0,))  # the last item
    else:
        parts, pairs = spec.outcome_sides()
        measured = []  # per branch: outcome, probabilities, live posts, queue indices
        for n, (outcome, probs, posts) in enumerate(_branches(spec, final)):
            posts = posts[probs > 0.0]
            _check_unit_trace(posts)
            names, success = {}, {}  # a branch null at every point queues nothing
            if len(posts):
                names = {name: queued(posts, s) for name, s in parts.items()}
            if len(posts) and n == 0:  # the success branch
                success = {f"{name}@success": i for name, i in names.items()}
                for key, pair in pairs.items():
                    reduced = _partial_trace(posts, pair)
                    _check_unit_trace(reduced)
                    success[key] = queued(reduced, (0,))
            measured.append((outcome, probs, posts, names, success))

    solved = _batch_negativities(queue)
    for key, i in recorded.items():
        for trace, value in zip(traces, np.broadcast_to(solved[i], (len(traces),)).tolist()):
            trace.partition_negativities[key] = value
    if spec.deterministic is not None:
        concurrences = _concurrences(_scatter(out)).tolist()
        values = zip(np.broadcast_to(solved[-1], (len(traces),)).tolist(), concurrences)
        for b, (trace, (value, conc)) in enumerate(zip(traces, values)):
            state = DensityOperator._trusted(out[b])
            trace.deterministic_output = DeterministicOutcome(state, value, conc)
        return traces

    for trace in traces:
        trace.averages = dict.fromkeys(parts, 0.0)
    for outcome, probs, posts, names, success in measured:
        outcome = outcome[0] if len(spec.measured) == 1 else outcome
        negs_of = {name: solved[i].tolist() for name, i in names.items()}
        success_of = {key: solved[i].tolist() for key, i in success.items()}
        rows = iter(range(len(posts)))  # live points only
        for trace, prob in zip(traces, probs.tolist()):
            state, negs = None, {}
            if prob > 0.0:
                i = next(rows)
                state = DensityOperator._trusted(posts[i])
                negs = {name: value[i] for name, value in negs_of.items()}
                trace.partition_negativities.update((k, v[i]) for k, v in success_of.items())
            trace.branches.append(MeasurementBranch(outcome, prob, state))
            trace.branch_negativities.append(negs)
            # average_negativity's sum, term for term in branch order
            for name, value in negs.items():
                trace.averages[name] += prob * value
    for trace in traces:
        trace.average_negativity = trace.averages[next(iter(parts))]
        trace.success_probability = trace.branches[0].probability
    return traces


def _chunk_points(spec: ProtocolSpec, d: int) -> int:
    """Points per pass: as many as fit in ``STACK_BYTES`` per stacked state, and
    at least one. A state holds at most side^2 entries per point, and at most the
    start state's entry count times, for each channel step, the entries one entry
    can fan out to: d at d > 2, where only phase-covariant channels are admitted
    and map |k><l| into the d entries with i - j = k - l (mod d), and d^2 at
    d = 2, where any CPT channel is admitted."""
    side = prod(_register(spec, d))
    steps = sum(isinstance(op, Noise) for step in spec.steps for op in step.ops)
    fan_out = d if d > 2 else d * d
    values = min(side * side, len(spec.initial(d)._entries().rows) * fan_out**steps)
    return max(1, STACK_BYTES // (16 * values))


def _runs(
    spec: ProtocolSpec,
    batch: Iterable[Sequence[QuditChannel]],
    d: int = 2,
    labels: Iterable[str] = (),
) -> Iterator[ProtocolTrace]:
    """``_drive`` over a batch of any length, ``_chunk_points`` points per pass;
    a chunk is drawn only once the previous chunk's traces are all taken, so a
    consumer that keeps none of them holds one chunk's states at a time."""
    size = _chunk_points(spec, d)
    batch, labels = iter(batch), iter(labels)
    while chunk := list(islice(batch, size)):
        yield from _drive(spec, chunk, d, list(islice(labels, size)))


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


def qudit_average_only(d: int, kind: str, x: float) -> float:
    """Branch-averaged a|b negativity of one full qudit run, for d up to ``MAX_DIM_CEILING``."""
    ch = noise_channel(kind, d, x)
    return _drive(SPECS["qudit", "probabilistic"], [(ch,)], d)[0].average_negativity


def ghz_average_only(kind: str, x: float, side: int) -> float:
    """Branch-averaged GHZ negativity across a|bc, b|ac or c|ab (``side`` 0, 1, 2)."""
    ch = noise_channel(kind, 2, x)
    return list(_drive(SPECS["ghz", "probabilistic"], [(ch, ch)])[0].averages.values())[side]


def two_qubit_average_only(kind: str, x: float) -> float:
    """Branch-averaged a|b negativity of the two-qubit protocol, from one full run."""
    spec = SPECS["two_qubit", "probabilistic"]
    return _drive(spec, [(noise_channel(kind, 2, x),)])[0].average_negativity


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
MODES = ("probabilistic", "deterministic")


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
        parts, pairs = spec.outcome_sides()
        keys = [key for step in spec.steps for key in spec.recorded(step)]
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


def verify_identity_chain(trace: ProtocolTrace, atol: float = CHAIN_ATOL) -> ChainReport:
    """Check that each identity chain of the trace collapses to one value."""
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
        passed=max_dev <= atol,
        warnings=tuple(trace.warnings),
    )


@dataclass
class SeparabilityReport:
    """Exchange-vs-rest negativities at every protocol step."""

    max_negativity: float
    entries: dict[str, float]
    passed: bool


def separability_audit(
    trace: ProtocolTrace, atol: float = SEPARABILITY_ATOL
) -> SeparabilityReport:
    """Check the exchange subsystem stays PPT with the rest at every step."""
    entries = {key: trace.partition_negativities[key] for key in trace.exchange_keys}
    worst = max(entries.values(), default=0.0)
    return SeparabilityReport(max_negativity=worst, entries=entries, passed=worst <= atol)


def critical_noise(
    fn: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    zero_atol: float = ROOT_ZERO_ATOL,
    tol: float = ROOT_TOL,
) -> float:
    """Boundary above which a nonincreasing nonnegative curve is (numerically) zero.

    Returns ``hi`` if the curve is positive at ``hi``, ``lo`` if it vanishes
    there, else a point within ``tol/2`` of the boundary. Each round aims the
    secant through the last two positive iterates at ``zero_atol`` and adds one
    iterate: probes tol apart differ by ~1e-13 against rounding noise of ~1e-16,
    too little to aim by. The guess is probed once while the miss it predicts
    (step^2 / previous step) exceeds tol/2; below that, and right after a
    bisection, it is probed at guess ± tol/2 and stands once ``fn`` straddles
    ``zero_atol`` there. The first step, guesses outside the bracket and all
    rounds after three failed pairs bisect. A non-finite value of ``fn`` raises,
    since no comparison could place it.
    """
    for name, value in (("lo", lo), ("hi", hi), ("zero_atol", zero_atol), ("tol", tol)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if lo > hi:
        raise ValueError(f"lo ({lo!r}) exceeds hi ({hi!r})")

    def f(x: float) -> float:
        if not np.isfinite(value := fn(x)):
            raise ValueError(f"curve value at x={x!r} is not finite: {value!r}")
        return value

    if f(hi) > zero_atol:
        return hi
    # The last two points where fn > zero_atol; both start at lo, so step one bisects.
    prev = last = (lo, f(lo))
    if last[1] <= zero_atol:
        return lo
    low, high, failed, bisected = lo, hi, 0, True
    while high - low > tol:
        (x0, f0), (x1, f1) = prev, last
        # The kinked GHZ averages fail at most two pairs; a concave curve fails every one.
        guess = x1 + (zero_atol - f1) * (x1 - x0) / (f1 - f0) if failed < 3 and f1 != f0 else low
        if not low < guess < high:
            probes = ((low + high) / 2,)
        elif bisected or (guess - x1) ** 2 <= tol / 2 * (x1 - x0):
            probes = (guess - tol / 2, guess + tol / 2)
        else:
            probes = (guess,)
        bisected = not low < guess < high
        values = [f(x) for x in probes]
        if len(probes) == 2 and values[0] > zero_atol >= values[1]:
            return guess
        high = min([high] + [x for x, value in zip(probes, values) if value <= zero_atol])
        if above := [(x, value) for x, value in zip(probes, values) if value > zero_atol]:
            prev, last = last, above[-1]
            low = max(low, last[0])
        failed += len(probes) == 2
    return 0.5 * (low + high)
