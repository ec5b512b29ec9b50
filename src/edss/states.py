"""Initial states, reference entangled states, and circuit elements.

The protocol start states are phase-state mixtures whose k-average keeps
exactly the coherences with phase exponents equal modulo the phase count;
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
    _Entries,
    _partial_trace,
    _scatter,
    _traces,
)

# Branch probabilities below this are reported as exactly zero with a null
# post state, keeping branch indexing stable across noise values.
ZERO_PROBABILITY_ATOL = 1e-12
# A state vector's norm may miss 1 by the rounding of its amplitudes (~1e-16 each).
UNIT_NORM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector over a multi-qudit register."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if amps.shape[0] != prod(dims):
            raise ValueError(f"amplitude count {amps.shape[0]} does not match dims {dims}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"state vector must have unit norm, got {norm}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


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


def _flat_index(dims: tuple[int, ...], digits: tuple[int, ...]) -> int:
    idx = 0
    for d, x in zip(dims, digits):
        idx = idx * d + x
    return idx


def ghz_state(n: int, d: int) -> PureState:
    """n-party, d-level GHZ state (1/sqrt(d)) sum_i |i>^(x n)."""
    if n < 2 or d < 2:
        raise ValueError("GHZ states need n >= 2 parties of dimension >= 2")
    dims = (d,) * n
    amps = np.zeros(d**n, dtype=complex)
    for i in range(d):
        amps[_flat_index(dims, (i,) * n)] = 1.0
    return PureState(amps / np.sqrt(d), dims)


def bell_chi0(d: int) -> PureState:
    """Two-qudit maximally entangled state (1/sqrt(d)) sum_j |jj>."""
    return ghz_state(2, d)


def psi_plus() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return ghz_state(2, 2)


@functools.cache
def _phase_mixture(
    exponents: tuple[tuple[int, ...], ...],
    modulus: int,
    weight: float,
    exchange_dims: tuple[int, ...],
    tags: tuple[tuple[int, ...], ...],
    tag_weight: float,
) -> _Entries:
    """Entries of ``weight * M (x) |0...0><0...0|`` on the exchange register,
    plus ``tag_weight |t><t|`` for every tag digit tuple t; built once per
    argument tuple, read-only.

    M is the even mixture over k < D = ``modulus`` of the product phase
    states with amplitudes w^(k e(x)) / sqrt(side), w = exp(2 pi i / D) and
    e(x) = sum_t exponents[t][x_t]. Its entries are exact 0/1 values, since
    (1/D) sum_{k<D} w^(k (e(x) - e(y))) = [e(x) = e(y) mod D]:
    M[x, y] = [e(x) = e(y) mod D] / side. A mixture of positive terms with
    real symmetric entries, the result is positive and Hermitian by
    construction and gets no eigenvalue or hermiticity check.
    """
    e = np.zeros(1, dtype=np.int64)
    for row in exponents:
        e = (e[:, None] + np.asarray(row, dtype=np.int64)[None, :]).reshape(-1)
    dims = tuple(len(row) for row in exponents) + exchange_dims
    stride = prod(exchange_dims)
    x, y = np.nonzero((e[:, None] - e[None, :]) % modulus == 0)
    tagged = np.array([_flat_index(dims, digits) for digits in tags], dtype=np.int64)
    values = np.concatenate([np.full(x.size, weight / e.size), np.full(tagged.size, tag_weight)])
    entries = _Entries.summed(
        np.concatenate([x * stride, tagged]), np.concatenate([y * stride, tagged]), values, dims
    )
    _check_unit_trace(entries)
    for array in (entries.rows, entries.cols, entries.values):
        array.flags.writeable = False
    return entries


def edss_initial_two_qubit() -> DensityOperator:
    """Separable three-qubit start state for two-qubit distribution.

    An even mixture of four pairs |psi_k, psi_-k>, psi_k = (|0> + i^k |1>)/sqrt(2),
    tagged by |0> on the exchange qubit, plus the two correlated basis
    states tagged by |1>, all at weight 1/6.
    """
    start = _phase_mixture(((0, 1), (0, -1)), 4, 2.0 / 3.0, (2,), ((0, 0, 1), (1, 1, 1)), 1.0 / 6.0)
    return DensityOperator._trusted(start)


def ghz_initial_state() -> DensityOperator:
    """Separable five-qubit start state (a, b, c, d1, d2) for GHZ distribution.

    Mixes seven three-qubit phase products |phi_1(k), phi_2(k), phi_3(k)>
    with phi_n(k) = (|0> + exp(2^n pi i k / 7) |1>)/sqrt(2), tagged by |00>
    on the ancilla pair, with basis terms |mmm> tagged by the remaining
    ancilla basis states.
    """
    basis = tuple((m, m, m, j, l) for m in range(2) for j in range(2) for l in range(2) if j or l)
    start = _phase_mixture(((0, 1), (0, 2), (0, 4)), 7, 4.0 / 7.0, (2, 2), basis, 1.0 / 14.0)
    return DensityOperator._trusted(start)


def qudit_initial_state(d: int) -> DensityOperator:
    """Separable three-qudit start state for d-level pair distribution.

    Built from phase states |phi(+-k)> = (1/sqrt(d)) sum_j w^(+-s_j k) |j>
    with w = exp(2 pi i / D), D = 2^d - 1 and s_j = 2^j - 1, mixed over all
    k and tagged by |0> on the exchange qudit, plus the diagonal correlated
    terms |j, j, l-j> for j != l.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    s = tuple(2**j - 1 for j in range(d))
    basis = tuple((j, j, (l - j) % d) for j in range(d) for l in range(d) if j != l)
    start = _phase_mixture(
        (s, tuple(-x for x in s)), 2**d - 1, d / (2 * d - 1), (d,), basis, 1.0 / (d * (2 * d - 1))
    )
    return DensityOperator._trusted(start)


def cnot(
    rho: DensityOperator, control: int, target: int, inverse: bool = False
) -> DensityOperator:
    """Conjugate by the generalized CNOT |i, j> -> |i, j+i mod d|.

    ``inverse=True`` subtracts the control digit instead.
    """
    n = len(rho.dims)
    if not (0 <= control < n and 0 <= target < n) or control == target:
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

    return _Entries(moved(m.rows), moved(m.cols), m.values, dims)


def measure_computational(rho: DensityOperator, target: int) -> list[MeasurementBranch]:
    """Measure one subsystem in the computational basis and discard it.

    Returns one branch per outcome with its probability and the normalized
    post state on the remaining subsystems. Zero-probability outcomes keep
    their slot with probability 0 and a null post state.
    """
    n = len(rho.dims)
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} subsystems")
    if n == 1:
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
    row_digit, col_digit = (m.rows // right) % d, (m.cols // right) % d

    def drop(index: np.ndarray) -> np.ndarray:  # the target digit of each index
        return index // (d * right) * right + index % right

    rest = m.dims[:target] + m.dims[target + 1 :]
    outcomes = []
    for k in range(d):
        at = (row_digit == k) & (col_digit == k)
        block = _Entries(drop(m.rows[at]), drop(m.cols[at]), m.values[..., at], rest)
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
