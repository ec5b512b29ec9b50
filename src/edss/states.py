"""Initial states and circuit elements.

The protocol start states are phase-state mixtures whose k-average keeps
exactly the diagonal and the coherences between constant digit strings;
``_phase_mixture`` writes that 0/1 pattern directly, as entries built once
per state. Each start state is held as those entries and builds its dense
matrix on its first read. The tests compare them with literal k-sums, and
their post-CNOT forms with projector sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .channels import KrausChannel, _embed
from .tensor import (
    DensityOperator,
    _check_unit_trace,
    _dimension,
    _Entries,
    _integer,
    _partial_trace,
    _pattern_plan,
    _scatter,
    _sum_plan,
    _summed,
    _traces,
)

# Branch probabilities below this are reported as exactly zero with a null
# post state, keeping branch indexing stable across noise values.
ZERO_PROBABILITY_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    """One outcome of a computational-basis measurement.

    ``post_state`` lives on the remaining subsystems; it is ``None`` for
    zero-probability branches.
    """

    outcome: int | tuple[int, ...]
    probability: float
    post_state: DensityOperator | None


def basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _constant_strings(n: int, d: int) -> np.ndarray:
    """Flat indices of the n-digit strings |m...m>, m < d: m (1 + d + ... + d^(n-1))."""
    return np.arange(d) * ((d**n - 1) // (d - 1))


@functools.cache
def _phase_mixture(
    n: int,
    d: int,
    weight: float,
    exchange_dims: tuple[int, ...],
    tags: tuple[tuple[int, ...], ...],
    tag_weight: float,
) -> _Entries:
    """Entries of ``weight * M (x) |0...0><0...0|`` on ``n`` phase digits of
    dimension ``d`` and the exchange register, plus ``tag_weight |t><t|`` for
    every tag digit tuple t; built once per argument tuple, read-only.

    M is the k-average of the product phase states, which keeps a coherence
    where the phase exponents of x and y agree: M[x, y] = 1 / d^n where x = y
    or x and y are both constant strings |m...m>, else 0 (each caller says
    why). Positive, real and symmetric by construction, the result gets no
    eigenvalue or hermiticity check.
    """
    side, stride, constant = d**n, prod(exchange_dims), _constant_strings(n, d)
    pairs = (constant[:, None] * side + constant)[~np.eye(d, dtype=bool)]  # |m..m><n..n|, m != n
    x, y = np.divmod(np.concatenate([np.arange(side) * (side + 1), pairs]), side)
    dims = (d,) * n + exchange_dims
    tagged = np.ravel_multi_index(np.transpose(tags), dims)
    values = np.concatenate([np.full(x.size, weight / side), np.full(tagged.size, tag_weight)])
    rows, cols = np.concatenate([x * stride, tagged]), np.concatenate([y * stride, tagged])
    entries = _summed(_sum_plan(rows, cols, dims), values, dims)
    _check_unit_trace(entries)
    for array in (entries.rows, entries.cols, entries.values):
        array.flags.writeable = False
    return entries


def edss_initial_two_qubit() -> DensityOperator:
    """Separable three-qubit start state for two-qubit distribution.

    An even mixture of four pairs |psi_k, psi_-k>, psi_k = (|0> + i^k |1>)/sqrt(2),
    tagged by |0> on the exchange qubit, plus the two correlated basis
    states tagged by |1>, all at weight 1/6. Of the pairs, only |00> and |11>
    share a phase exponent x1 - x2 (mod 4), so keep a coherence.
    """
    start = _phase_mixture(2, 2, 2.0 / 3.0, (2,), ((0, 0, 1), (1, 1, 1)), 1.0 / 6.0)
    return DensityOperator._trusted(start)


def ghz_initial_state() -> DensityOperator:
    """Separable five-qubit start state (a, b, c, d1, d2) for GHZ distribution.

    Mixes seven three-qubit phase products |phi_1(k), phi_2(k), phi_3(k)>
    with phi_n(k) = (|0> + exp(2^n pi i k / 7) |1>)/sqrt(2), tagged by |00>
    on the ancilla pair, with basis terms |mmm> tagged by the remaining
    ancilla basis states. Only |000> and |111> share a phase exponent
    x1 + 2 x2 + 4 x3 (mod 7), so keep a coherence.
    """
    basis = tuple((m, m, m, j, l) for m in range(2) for j in range(2) for l in range(2) if j or l)
    start = _phase_mixture(3, 2, 4.0 / 7.0, (2, 2), basis, 1.0 / 14.0)
    return DensityOperator._trusted(start)


def qudit_initial_state(d: int) -> DensityOperator:
    """Separable three-qudit start state for d-level pair distribution.

    Built from phase states |phi(+-k)> = (1/sqrt(d)) sum_j w^(+-s_j k) |j>
    with w = exp(2 pi i / D), D = 2^d - 1 and s_j = 2^j - 1, mixed over all
    k and tagged by |0> on the exchange qudit, plus the diagonal correlated
    terms |j, j, l-j> for j != l. By the uniqueness of binary expansions,
    2^a - 2^b = 2^c - 2^e (mod D) only where a = c and b = e, or a = b and
    c = e: only the pairs |jj> share a phase exponent s_x1 - s_x2.
    """
    d = _dimension(d)
    basis = tuple((j, j, (l - j) % d) for j in range(d) for l in range(d) if j != l)
    start = _phase_mixture(2, d, d / (2 * d - 1), (d,), basis, 1.0 / (d * (2 * d - 1)))
    return DensityOperator._trusted(start)


def cnot(
    rho: DensityOperator, control: int, target: int, inverse: bool = False
) -> DensityOperator:
    """Conjugate by the generalized CNOT |i, j> -> |i, j+i mod d|.

    ``inverse=True`` subtracts the control digit instead.
    """
    n = len(rho.dims)
    control, target = _integer(control, "control", 0, n - 1), _integer(target, "target", 0, n - 1)
    if control == target:
        raise ValueError(f"invalid control/target pair ({control}, {target})")
    if rho.dims[control] != rho.dims[target]:
        raise ValueError(
            f"control and target dimensions differ: "
            f"{rho.dims[control]} vs {rho.dims[target]}"
        )
    return DensityOperator(_scatter(_cnot(rho._entries(), control, target, inverse)), rho.dims)


def _cnot(m: _Entries, control: int, target: int, inverse: bool) -> _Entries:
    """Each matrix of the stack ``m`` conjugated by the generalized CNOT: each
    entry's row and column target digits gain (under ``inverse``, lose) their
    control digit mod d."""
    d, dims = m.dims[control], m.dims
    at, by = prod(dims[target + 1 :]), prod(dims[control + 1 :])
    sign = -1 if inverse else 1

    def moved(index: np.ndarray) -> np.ndarray:
        t = (index // at) % d
        return index + ((t + sign * ((index // by) % d)) % d - t) * at

    plan = _pattern_plan(("cnot", control, target, sign), m, lambda: (moved(m.rows), moved(m.cols)))
    return _Entries(*plan, m.values, dims)


def measure_computational(rho: DensityOperator, target: int) -> list[MeasurementBranch]:
    """Measure one subsystem in the computational basis and discard it.

    Returns one branch per outcome with its probability and the normalized
    post state on the remaining subsystems. Zero-probability outcomes keep
    their slot with probability 0 and a null post state.
    """
    target = _integer(target, "target", 0, len(rho.dims) - 1)
    if len(rho.dims) == 1:
        raise ValueError("measuring the only subsystem leaves an empty register")
    return [
        MeasurementBranch(m, float(p), DensityOperator(_scatter(post), post.dims) if p else None)
        for m, (p, post) in enumerate(_measure(rho._entries(), target))
    ]


def _measure(m: _Entries, target: int) -> list[tuple[np.ndarray, _Entries]]:
    """Per outcome of measuring subsystem ``target`` of each matrix of the stack
    ``m``: the probabilities, 0 below ``ZERO_PROBABILITY_ATOL``, and the post
    states, normalized where the probability is not 0 (left unscaled there)."""
    d, right = m.dims[target], prod(m.dims[target + 1 :])

    def drop(index: np.ndarray) -> np.ndarray:  # the target digit of each index
        return index // (d * right) * right + index % right

    def plan() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        row_digit, col_digit = (m.rows // right) % d, (m.cols // right) % d
        ats = [np.flatnonzero((row_digit == k) & (col_digit == k)) for k in range(d)]
        return [(at, drop(m.rows[at]), drop(m.cols[at])) for at in ats]

    rest = m.dims[:target] + m.dims[target + 1 :]
    outcomes = []
    for at, rows, cols in _pattern_plan(("measure", target), m, plan):
        block = _Entries(rows, cols, m.values[..., at], rest)
        p = _traces(block).real
        p = np.where(p < ZERO_PROBABILITY_ATOL, 0.0, p)
        scale = np.where(p > 0.0, p, 1.0)[..., None]
        outcomes.append((p, replace(block, values=block.values / scale)))
    return outcomes


def bob_deterministic_kraus() -> tuple[np.ndarray, ...]:
    """Kraus set of the local two-qubit map used in the deterministic variant."""
    p0 = np.outer(basis_ket(2, 0), basis_ket(2, 0).conj())
    a1 = np.kron(np.eye(2, dtype=complex), p0)
    e01 = basis_ket(4, 1)
    e11 = basis_ket(4, 3)
    a2 = np.outer(e01, e01.conj())
    a3 = np.outer(e01, e11.conj())
    return (a1, a2, a3)


_BOB_MAP = KrausChannel(bob_deterministic_kraus())


def bob_deterministic_map(rho: DensityOperator) -> DensityOperator:
    """Deterministic finish: local channel on (b, c), then trace out c."""
    if rho.dims != (2, 2, 2):
        raise ValueError(f"expected a three-qubit register, got dims {rho.dims}")
    return DensityOperator(_scatter(_bob_deterministic(rho._entries())), (2, 2))


def _bob_deterministic(m: _Entries) -> _Entries:
    """The deterministic finish on each three-qubit matrix of the stack ``m``:
    the local channel on the (b, c) pair as one subsystem, then c traced out."""
    out = _embed(_BOB_MAP.transfer_tensor(), m, (2, 4), 1)
    return _partial_trace(out, (0, 1))
