"""Quantum channels: canonical affine qubit maps, depolarizing, amplitude damping.

A channel is defined by its transfer tensor ``T[i, j, k, l]``, the matrix
element ``E(|k><l|)[i, j]``; each class writes only that tensor. Everything
else reads it: the action ``apply_matrix``, the embedding into a larger
register and the CPT and covariance tests, so no Kraus decomposition is ever
required for maps defined by their action alone.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from math import prod
from typing import Mapping, Union

import numpy as np

from .tensor import (
    VALIDITY_ATOL,
    DensityOperator,
    _dimension,
    _Entries,
    _hermitian_defect,
    _integer,
    _pattern_plan,
    _sum_plan,
    _summed,
)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (I, sx, sy, sz): the basis of the Pauli transfer matrix R[m, n] = tr(s_m E(s_n)) / 2.
_PAULI_BASIS = np.stack((I2, *PAULIS))
# Built channels leave ~1e-16 off the Choi sectors; an entry e there moved chains < 0.05 e.
_COVARIANCE_ATOL = 1e-10


# channel -> its read-only transfer tensor. Kept outside the channel objects, so
# ``vars(ch)`` holds only the parameters; channels hash by identity (eq=False).
_TRANSFER_TENSORS: "weakref.WeakKeyDictionary[_Channel, np.ndarray]" = weakref.WeakKeyDictionary()


class _Channel:
    """What every channel shares: the cached transfer tensor and its action on x."""

    def transfer_tensor(self) -> np.ndarray:
        """``T[i, j, k, l] = E(|k><l|)[i, j]``, built once per channel, read-only."""
        t4 = _TRANSFER_TENSORS.get(self)
        return _built([self])[0] if t4 is None else t4

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        d = self.dim
        if x.shape != (d, d):
            raise ValueError(f"{self.kind} channel acts on {d}x{d} operators, got shape {x.shape}")
        return np.einsum("ijkl,kl->ij", self.transfer_tensor(), x)


@dataclass(frozen=True, eq=False)
class CanonicalChannel(_Channel):
    """Qubit channel acting on the Bloch vector as r -> (l1 rx, l2 ry, l3 rz + t3).

    Equivalently: identity maps to I + t3*sz, and each Pauli sx, sy, sz is
    scaled by its lambda. Only the z shift is allowed; the x and y shifts are
    fixed to zero by construction.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float = 0.0
    kind: str = "canonical"
    noise_param: float | None = None

    @property
    def dim(self) -> int:
        return 2

    @staticmethod
    def _tensors(group: list[CanonicalChannel]) -> np.ndarray:
        params = [[c.lambda1, c.lambda2, c.lambda3, c.t3] for c in group]
        return _canonical_tensors(np.array(params))


def _canonical_tensors(params: np.ndarray) -> np.ndarray:
    """Transfer tensors of the canonical channels with the rows (l1, l2, l3, t3) of ``params``."""
    # T[i,j,k,l] = (1/2) sum_mn R[m,n] s_m[i,j] s_n[l,k], since
    # tr(s_n |k><l|) = s_n[l,k]; R holds 1, the lambdas and the z shift.
    r = np.zeros((len(params), 4, 4))
    r[:, 0, 0] = 1.0
    r.reshape(-1, 16)[:, 5::5] = params[:, :3]  # the diagonal after R[0, 0]
    r[:, 3, 0] = params[:, 3]
    return 0.5 * np.einsum("bmn,mij,nlk->bijkl", r, _PAULI_BASIS, _PAULI_BASIS)


@dataclass(frozen=True, eq=False)
class KrausChannel(_Channel):
    """Channel given by an explicit operator-sum representation."""

    kraus_ops: tuple[np.ndarray, ...]
    kind: str = "kraus"
    noise_param: float | None = None

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus_ops)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in ops):
            raise ValueError("all Kraus operators must be square with equal shape")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    @staticmethod
    def _tensors(group: list[KrausChannel]) -> np.ndarray:
        ops = np.array([c.kraus_ops for c in group])  # (B, m, d, d): one operator shape per group
        return np.einsum("bmik,bmjl->bijkl", ops, ops.conj())


@dataclass(frozen=True, eq=False)
class DepolarizingChannel(_Channel):
    """Qudit map X -> (1-p) X + (p/d) tr(X) I."""

    d: int
    p: float
    kind: str = "depolarizing"

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _dimension(self.d))

    @property
    def dim(self) -> int:
        return self.d

    @property
    def noise_param(self) -> float:
        return self.p

    @staticmethod
    def _tensors(group: list[DepolarizingChannel]) -> np.ndarray:
        d, p = group[0].d, np.array([c.p for c in group])[:, None, None, None, None]
        eye = np.eye(d)
        t4 = (1.0 - p) * np.einsum("ik,jl->ijkl", eye, eye).astype(complex)
        t4 += (p / d) * np.einsum("kl,ij->ijkl", eye, eye)
        return t4


QuditChannel = Union[CanonicalChannel, KrausChannel, DepolarizingChannel]


def _built(group: list[QuditChannel]) -> list[np.ndarray]:
    """The ``transfer_tensor()`` of each channel of ``group``, channels of one class, d
    and Kraus count: read-only views of one ``_tensors`` build, kept for each channel."""
    (stack := type(group[0])._tensors(group)).flags.writeable = False
    _TRANSFER_TENSORS.update(zip(group, views := list(stack)))
    return views


def canonical_channel(
    lambda1: float, lambda2: float, lambda3: float, t3: float = 0.0
) -> CanonicalChannel:
    """Canonical affine qubit channel. Parameters must be finite but are not
    CP-validated here; use :func:`is_cpt` to check and note that protocol
    drivers refuse non-CPT channels."""
    return _channels("canonical", 2, [[lambda1, lambda2, lambda3, t3]])[0]


def depolarizing(d: int, p: float) -> QuditChannel:
    """Depolarizing channel in dimension ``d`` with error probability ``p``."""
    return _channels("depolarizing", d, [[p]])[0]


def amplitude_damping(d: int, gamma: float) -> KrausChannel:
    """Amplitude damping channel in dimension ``d`` with decay rate ``gamma``.

    Kraus set: a no-decay operator |0><0| + sqrt(1-gamma) sum_i |i><i|, plus
    one decay operator sqrt(gamma) |0><m| per excited level m.
    """
    return _channels("amplitude_damping", d, [[gamma]])[0]


def _channels(kind: str, d: int, params) -> list[QuditChannel]:
    """One ``kind`` channel of dimension ``d`` per row of ``params`` (values of
    ``CHANNEL_PARAMS[kind]``), behind every factory and sweep grid: the rows are
    validated together, the first bad value giving the one-point refusal, and
    amplitude damping's Kraus operators come from one stacked array."""
    values = np.asarray(params, dtype=float)
    if kind == "canonical":
        if not (finite := np.isfinite(values)).all():
            b, i = np.argwhere(~finite)[0]
            raise ValueError(f"{CHANNEL_PARAMS[kind][i]} must be finite, got {values[b, i]}")
        return [CanonicalChannel(*row) for row in values.tolist()]
    if not (unit := (0.0 <= values) & (values <= 1.0)).all():
        what = "depolarizing probability" if kind == "depolarizing" else "damping rate"
        raise ValueError(f"{what} must be in [0, 1], got {params[np.flatnonzero(~unit)[0]][0]}")
    d, x = _dimension(d), values[:, 0]
    if kind == "depolarizing":
        if d > 2:
            return [DepolarizingChannel(d, p) for p in x.tolist()]
        return [CanonicalChannel(*[1.0 - p] * 3, 0.0, kind, p) for p in x.tolist()]
    ops = np.zeros((len(x), d, d, d), dtype=complex)  # (point, operator, row, column)
    ops[:, 0, 0, 0], excited = 1.0, np.arange(1, d)
    ops[:, 0, excited, excited] = np.sqrt(1.0 - x)[:, None]
    ops[:, excited, 0, excited] = np.sqrt(x)[:, None]
    return [KrausChannel(tuple(group), kind, g) for group, g in zip(ops, x.tolist())]


def identity_channel(d: int = 2) -> QuditChannel:
    """The identity map in dimension ``d``: the zero-noise reference."""
    if (d := _dimension(d)) == 2:
        return CanonicalChannel(1.0, 1.0, 1.0, 0.0, kind="identity")
    return DepolarizingChannel(d, 0.0, kind="identity")


def apply_to_subsystem(
    ch: QuditChannel, rho: DensityOperator, target: int
) -> DensityOperator:
    """Apply ``ch`` to one subsystem of ``rho``, identity on the others.

    Of the public one-state functions, this one alone keeps a dense kernel:
    ``_embed`` contracts a dense state with one ``(d^2, d^2)`` product, while
    its entry kernel fans every entry out to up to d^2 terms, which a dense
    state would pay on each of its side^2 entries. A two-Kraus channel on a
    full-rank d = 6 three-qudit state took 1.9 ms dense, against 0.36 s and
    a 250 MB peak through the entries (one BLAS thread)."""
    target = _integer(target, "target", 0, len(rho.dims) - 1)
    d = rho.dims[target]
    if ch.dim != d:
        raise ValueError(f"channel dimension {ch.dim} != subsystem dimension {d}")
    return DensityOperator(_embed(ch.transfer_tensor(), rho.matrix, rho.dims, target), rho.dims)


def _embed(
    t4: np.ndarray, m: np.ndarray | _Entries, dims: tuple[int, ...], target: int
) -> np.ndarray | _Entries:
    """Transfer tensors ``t4`` (``(..., d, d, d, d)``) applied to subsystem
    ``target`` of the matrices ``m`` (``(..., n, n)``), leading axes broadcast."""
    d = dims[target]
    left, right = prod(dims[:target]), prod(dims[target + 1 :])
    if isinstance(m, _Entries):
        return _embed_entries(t4, m, d, right)
    r6 = m.reshape(*m.shape[:-2], left, d, right, left, d, right)
    # out[a,i,b,c,j,e] = sum_kl T[i,j,k,l] r6[a,k,b,c,l,e]: one (d^2, d^2) @ (d^2, rest)
    # product per matrix, the orientation tensordot takes
    rest = np.moveaxis(r6, (-5, -2), (-6, -5)).reshape(*m.shape[:-2], d * d, -1)
    out = t4.reshape(*t4.shape[:-4], d * d, d * d) @ rest
    out = out.reshape(*out.shape[:-2], d, d, left, right, left, right)
    out = np.moveaxis(out, (-6, -5), (-5, -2))
    return out.reshape(*out.shape[:-6], *m.shape[-2:])


def _embed_entries(t4: np.ndarray, m: _Entries, d: int, stride: int) -> _Entries:
    """``_embed`` on entries, for the target digit of place value ``stride``.

    The entry at ``(k, l)`` in the target digits becomes one entry per
    ``(i, j)`` where some tensor of the stack has ``T[i, j, k, l] != 0``, with
    each point's value ``T[i, j, k, l]`` times its own; entries that land on
    one position are then summed."""
    joint = np.any(t4 != 0, axis=tuple(range(t4.ndim - 4)))

    def plan() -> tuple:
        k, l, i, j = np.nonzero(joint.transpose(2, 3, 0, 1))  # ordered by (k, l)
        count = np.bincount(k * d + l, minlength=d * d)
        entry_key = (m.rows // stride) % d * d + (m.cols // stride) % d
        fan = count[entry_key]
        source = np.repeat(np.arange(len(entry_key)), fan)
        first = np.cumsum(count) - count
        term = np.arange(fan.sum()) + np.repeat(first[entry_key] - (np.cumsum(fan) - fan), fan)
        i, j, k, l = i[term], j[term], k[term], l[term]
        rows = m.rows[source] + (i - k) * stride
        cols = m.cols[source] + (j - l) * stride
        return ((i * d + j) * d + k) * d + l, source, _sum_plan(rows, cols, m.dims)

    term, source, summing = _pattern_plan(("embed", stride, joint.tobytes()), m, plan)
    products = t4.reshape(*t4.shape[:-4], d**4)[..., term] * m.values[..., source]
    return _summed(summing, products, m.dims)


def _choi(t4: np.ndarray) -> np.ndarray:
    """Choi matrices ``[(k, i), (l, j)]`` of the transfer tensors ``t4`` (``(..., d, d, d, d)``)."""
    side = t4.shape[-1] ** 2
    return np.moveaxis(t4, (-2, -1), (-4, -2)).reshape(*t4.shape[:-4], side, side)


@dataclass(frozen=True)
class CptReport:
    """Result of the complete-positivity and trace-preservation check."""

    is_cpt: bool
    min_choi_eigenvalue: float
    trace_preservation_error: float
    choi_hermiticity_error: float

    def __bool__(self) -> bool:
        return self.is_cpt


def is_cpt(ch: QuditChannel) -> CptReport:
    """Check complete positivity (Choi PSD) and trace preservation within ``VALIDITY_ATOL``.

    The trace defect is reported as the max-entry deviation of the Choi
    matrix traced over its output factor from the identity, which for Kraus
    channels coincides with the usual completeness defect. A transfer tensor
    with non-finite entries fails without reaching the eigensolver.
    """
    return _cpt_reports(ch.transfer_tensor()[None])[0]


def _cpt_reports(
    t4: np.ndarray, tol: float = VALIDITY_ATOL, covariant: np.ndarray | None = None
) -> list[CptReport]:
    """``is_cpt`` of each transfer tensor in the stack ``t4`` (``(B, d, d, d, d)``).
    The trace defect and the finiteness test read ``t4`` itself. The Choi
    matrices that are finite and Hermitian go through one batched eigensolve;
    the others report ``nan`` and never reach LAPACK.

    At d > 2 the rows that ``covariant`` marks are solved on their d Choi
    sectors (:func:`_sector_index`), each of side d, in place of the d²-sided
    Choi matrix; their hermiticity defect is taken over the sectors. The
    sectors read the tensor with its entries off them taken as zero, which is
    the tensor the driver applies (``protocols._evolve``). A row the sectors
    refuse, or that ``covariant`` does not mark, is solved again densely, so
    its report is the dense one."""
    count, d = t4.shape[0], t4.shape[-1]
    tp_err = np.abs(np.einsum("biikl->bkl", t4) - np.eye(d)).max(axis=(1, 2))
    solve = np.isfinite(t4).all(axis=(1, 2, 3, 4))
    sectors = covariant is not None and d > 2
    if sectors:
        h = t4.reshape(count, d**4)[:, _sector_index(d)]  # (B, d, d, d): sector s of each row
        herm_err = _hermitian_defect(h).max(axis=1)
        solve &= covariant
    else:
        h = _choi(t4)
        herm_err = _hermitian_defect(h)
    solve &= ~(herm_err > tol)
    min_eig = np.full(count, np.nan)
    if solve.any():
        s = h[solve]
        eigs = np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(-1, -2)))
        min_eig[solve] = eigs.min(axis=tuple(range(1, eigs.ndim)))
    ok = (min_eig >= -tol) & (tp_err <= tol)
    reports = list(map(CptReport, ok.tolist(), min_eig.tolist(), tp_err.tolist(), herm_err.tolist()))
    if sectors and not ok.all():
        redo = np.flatnonzero(~ok)
        for i, report in zip(redo.tolist(), _cpt_reports(t4[redo], tol)):
            reports[i] = report
    return reports


@functools.cache
def _sector_index(d: int) -> np.ndarray:
    """Flat transfer-tensor positions of the Choi sectors: entry ``[s, k, l]``
    is ``T[(k + s) % d, (l + s) % d, k, l]``. A phase-covariant Choi matrix is
    the direct sum of these d blocks, each closed under the adjoint."""
    s, k, l = np.indices((d,) * 3, sparse=True)
    return (((k + s) % d * d + (l + s) % d) * d + k) * d + l


def has_canonical_form(ch: QuditChannel) -> bool:
    """True when the channel is Z_d phase-covariant, ``T[i, j, k, l] = 0`` (within
    ``_COVARIANCE_ATOL``) unless ``i - j = k - l (mod d)``: the class, empirical
    and backed by property tests, for which the protocol identity chains are
    admitted. At d = 2 it contains the Bloch-diagonal channels with a z shift."""
    return bool(_covariant(ch.transfer_tensor()[None])[0])


def _covariant(t4: np.ndarray) -> np.ndarray:
    """``has_canonical_form`` of each transfer tensor in the stack ``t4``; a NaN
    off the Choi sectors fails it, one on them is left to the CPT test."""
    return np.abs(_off_sectors(t4)).max(axis=(1, 2, 3, 4), initial=0.0) <= _COVARIANCE_ATOL


def _off_sectors(t4: np.ndarray) -> np.ndarray:
    """A copy of the stack ``t4`` (``(B, d, d, d, d)``) with the entries on the
    Choi sectors (:func:`_sector_index`) set to zero: what each tensor holds
    off them, which is nothing for a phase-covariant one."""
    d, off = t4.shape[-1], t4.copy()
    off.reshape(len(off), d**4)[:, _sector_index(d)] = 0.0
    return off


# Channel kinds and their parameters, in the order the factories take them.
CHANNEL_PARAMS = {
    "depolarizing": ("p",),
    "amplitude_damping": ("gamma",),
    "canonical": ("lambda1", "lambda2", "lambda3", "t3"),
}


def channel_from_config(config: Mapping[str, object]) -> QuditChannel:
    """Build a channel from a flat mapping; the one factory keyed by kind.

    Recognized keys: ``kind`` (one of ``CHANNEL_PARAMS``), ``d`` (default 2;
    integral floats such as 3.0 are accepted, 2.5 is refused) and the kind's
    parameters from ``CHANNEL_PARAMS``; ``t3`` defaults to 0. Other keys are
    ignored.
    """
    kind = str(config.get("kind", "")).strip()
    if kind not in CHANNEL_PARAMS:
        raise ValueError(f"unknown channel kind {kind!r}")
    values = {"t3": 0.0, **config}
    try:
        params = [float(values[name]) for name in CHANNEL_PARAMS[kind]]
    except KeyError as exc:
        raise ValueError(f"{kind} channel requires key {exc}") from exc
    d = _dimension(config.get("d", 2))
    if kind == "canonical" and d != 2:
        raise ValueError("canonical channels are qubit (d=2) channels")
    return _channels(kind, d, [params])[0]
