"""Quantum channels: canonical affine qubit maps, depolarizing, amplitude damping.

A channel is defined by its transfer tensor ``T[i, j, k, l]``, the matrix
element ``E(|k><l|)[i, j]``; each class writes only that tensor. Everything
else reads it: the action ``apply_matrix``, the embedding into a larger
register, the Choi matrix, the CPT and covariance tests and Bloch parameters, so
no Kraus decomposition is ever required for maps defined by their action alone.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from math import prod
from typing import Mapping, Union

import numpy as np

from .tensor import VALIDITY_ATOL, DensityOperator, _Entries, _hermitian_defect

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# (I, sx, sy, sz): the basis of the Pauli transfer matrix R[m, n] = tr(s_m E(s_n)) / 2.
_PAULI_BASIS = np.stack((I2, *PAULIS))
# Built channels leave ~1e-16 off the covariance mask; an entry e there moved chains < 0.05 e.
_COVARIANCE_ATOL = 1e-10


# channel -> its read-only transfer tensor. Kept outside the channel objects, so
# ``vars(ch)`` holds only the parameters; channels hash by identity (eq=False).
_TRANSFER_TENSORS: "weakref.WeakKeyDictionary[_Channel, np.ndarray]" = weakref.WeakKeyDictionary()


class _Channel:
    """What every channel shares: the cached transfer tensor and its action on x."""

    def transfer_tensor(self) -> np.ndarray:
        """``T[i, j, k, l] = E(|k><l|)[i, j]``, built once per channel, read-only."""
        t4 = _TRANSFER_TENSORS.get(self)
        if t4 is None:
            t4 = self._build_transfer_tensor()
            t4.flags.writeable = False
            _TRANSFER_TENSORS[self] = t4
        return t4

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

    def _build_transfer_tensor(self) -> np.ndarray:
        # T[i,j,k,l] = (1/2) sum_mn R[m,n] s_m[i,j] s_n[l,k], since
        # tr(s_n |k><l|) = s_n[l,k]; R holds 1, the lambdas and the z shift.
        r = np.diag([1.0, self.lambda1, self.lambda2, self.lambda3])
        r[3, 0] = self.t3
        return 0.5 * np.einsum("mn,mij,nlk->ijkl", r, _PAULI_BASIS, _PAULI_BASIS)


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
        d = ops[0].shape[0]
        for a in ops:
            if a.shape != (d, d):
                raise ValueError("all Kraus operators must be square with equal shape")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def _build_transfer_tensor(self) -> np.ndarray:
        ops = np.stack(self.kraus_ops)
        return np.einsum("mik,mjl->ijkl", ops, ops.conj())

    def completeness_defect(self) -> float:
        """Max-entry deviation of sum(A^dag A) from the identity."""
        d = self.dim
        acc = sum(a.conj().T @ a for a in self.kraus_ops)
        return float(np.max(np.abs(acc - np.eye(d))))


@dataclass(frozen=True, eq=False)
class DepolarizingChannel(_Channel):
    """Qudit map X -> (1-p) X + (p/d) tr(X) I."""

    d: int
    p: float
    kind: str = "depolarizing"

    @property
    def dim(self) -> int:
        return self.d

    @property
    def noise_param(self) -> float:
        return self.p

    def _build_transfer_tensor(self) -> np.ndarray:
        d, p = self.d, self.p
        eye = np.eye(d)
        t4 = (1.0 - p) * np.einsum("ik,jl->ijkl", eye, eye).astype(complex)
        t4 += (p / d) * np.einsum("kl,ij->ijkl", eye, eye)
        return t4


QuditChannel = Union[CanonicalChannel, KrausChannel, DepolarizingChannel]


def canonical_channel(
    lambda1: float, lambda2: float, lambda3: float, t3: float = 0.0
) -> CanonicalChannel:
    """Canonical affine qubit channel. Parameters must be finite but are not
    CP-validated here; use :func:`is_cpt` to check and note that protocol
    drivers refuse non-CPT channels."""
    params = (float(lambda1), float(lambda2), float(lambda3), float(t3))
    for name, value in zip(CHANNEL_PARAMS["canonical"], params):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return CanonicalChannel(*params)


def depolarizing(d: int, p: float) -> QuditChannel:
    """Depolarizing channel in dimension ``d`` with error probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if d == 2:
        return CanonicalChannel(
            1.0 - p, 1.0 - p, 1.0 - p, 0.0, kind="depolarizing", noise_param=float(p)
        )
    return DepolarizingChannel(int(d), float(p))


def amplitude_damping(d: int, gamma: float) -> KrausChannel:
    """Amplitude damping channel in dimension ``d`` with decay rate ``gamma``.

    Kraus set: a no-decay operator |0><0| + sqrt(1-gamma) sum_i |i><i|, plus
    one decay operator sqrt(gamma) |0><m| per excited level m.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate must be in [0, 1], got {gamma}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    e0 = np.zeros((d, d), dtype=complex)
    e0[0, 0] = 1.0
    for i in range(1, d):
        e0[i, i] = np.sqrt(1.0 - gamma)
    ops = [e0]
    for m in range(1, d):
        em = np.zeros((d, d), dtype=complex)
        em[0, m] = np.sqrt(gamma)
        ops.append(em)
    return KrausChannel(tuple(ops), kind="amplitude_damping", noise_param=float(gamma))


def identity_channel(d: int = 2) -> QuditChannel:
    if d == 2:
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
    n = len(rho.dims)
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} subsystems")
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
    return _Entries.summed(rows, cols, t4[..., i, j, k, l] * m.values[..., source], m.dims)


def choi_matrix(ch: QuditChannel) -> np.ndarray:
    """Block matrix sum_{kl} |k><l| (x) E(|k><l|); PSD iff the map is CP."""
    return np.ascontiguousarray(_choi(ch.transfer_tensor()))


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


def is_cpt(ch: QuditChannel, tol: float = VALIDITY_ATOL) -> CptReport:
    """Check complete positivity (Choi PSD) and trace preservation.

    The trace defect is reported as the max-entry deviation of the Choi
    matrix traced over its output factor from the identity, which for Kraus
    channels coincides with the usual completeness defect. A transfer tensor
    with non-finite entries fails without reaching the eigensolver.
    """
    return _cpt_reports(ch.transfer_tensor()[None], tol)[0]


def _cpt_reports(t4: np.ndarray, tol: float = VALIDITY_ATOL) -> list[CptReport]:
    """``is_cpt`` of each transfer tensor in the stack ``t4`` (``(B, d, d, d, d)``):
    one batched eigensolve over the Choi matrices that are finite and Hermitian;
    the others report ``nan`` and never reach LAPACK."""
    count, d = t4.shape[0], t4.shape[-1]
    choi = _choi(t4)
    herm_err = _hermitian_defect(choi)
    tp = np.einsum("bkili->bkl", choi.reshape(count, d, d, d, d)) - np.eye(d)
    tp_err = np.abs(tp).max(axis=(1, 2))
    solve = ~(herm_err > tol) & np.isfinite(choi).all(axis=(1, 2))
    min_eig = np.full(count, np.nan)
    h = choi[solve]
    min_eig[solve] = np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(1, 2))).min(axis=1)
    ok = (min_eig >= -tol) & (tp_err <= tol)
    return list(map(CptReport, ok.tolist(), min_eig.tolist(), tp_err.tolist(), herm_err.tolist()))


def is_extreme_point(ch: CanonicalChannel, tol: float = VALIDITY_ATOL) -> bool:
    """Whether a canonical channel sits on an extreme point of the CPT set.

    The condition is equality, for both signs, of (l1 +- l2)^2 and
    (1 +- l3)^2 - t3^2.
    """
    if not isinstance(ch, CanonicalChannel):
        raise TypeError("extreme-point test applies to canonical channels")
    l1, l2, l3, t3 = ch.lambda1, ch.lambda2, ch.lambda3, ch.t3
    plus = (l1 + l2) ** 2 - ((1 + l3) ** 2 - t3**2)
    minus = (l1 - l2) ** 2 - ((1 - l3) ** 2 - t3**2)
    return abs(plus) <= tol and abs(minus) <= tol


def unital_cp_condition(l1: float, l2: float, l3: float, tol: float = 0.0) -> bool:
    """Closed-form CP test for unital canonical channels: |l1 +- l2| <= |1 +- l3|."""
    return (
        abs(l1 + l2) <= abs(1 + l3) + tol and abs(l1 - l2) <= abs(1 - l3) + tol
    )


def bloch_affine(ch: QuditChannel) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch representation (matrix, shift) of a qubit channel."""
    if ch.dim != 2:
        raise ValueError("Bloch representation applies to qubit channels")
    # R[m, n] = tr(s_m E(s_n)) / 2 with E(s_n) = sum_kl T[:, :, k, l] s_n[k, l].
    r = 0.5 * np.einsum("mji,ijkl,nkl->mn", _PAULI_BASIS, ch.transfer_tensor(), _PAULI_BASIS).real
    return r[1:, 1:], r[1:, 0]


def has_canonical_form(ch: QuditChannel, atol: float = _COVARIANCE_ATOL) -> bool:
    """True when the channel is Z_d phase-covariant, ``T[i, j, k, l] = 0`` unless
    ``i - j = k - l (mod d)``: the class, empirical and backed by property tests,
    for which the protocol identity chains are admitted. At d = 2 it contains
    the Bloch-diagonal channels with a z shift."""
    return bool(_covariant(ch.transfer_tensor()[None], atol)[0])


def _covariant(t4: np.ndarray, atol: float = _COVARIANCE_ATOL) -> np.ndarray:
    """``has_canonical_form`` of each transfer tensor in the stack ``t4``."""
    off = t4[:, _off_phase(t4.shape[-1])]
    return np.abs(off).max(axis=1, initial=0.0) <= atol


@functools.cache
def _off_phase(d: int) -> np.ndarray:
    """Mask of the transfer-tensor entries with ``i - j != k - l (mod d)``."""
    i, j, k, l = np.indices((d,) * 4, sparse=True)
    return (i - j - k + l) % d != 0


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
    d = config.get("d", 2)
    if not float(d).is_integer():
        raise ValueError(f"channel dimension d must be an integer, got {d!r}")
    d = int(float(d))
    if kind == "depolarizing":
        return depolarizing(d, *params)
    if kind == "amplitude_damping":
        return amplitude_damping(d, *params)
    if d != 2:
        raise ValueError("canonical channels are qubit (d=2) channels")
    return canonical_channel(*params)


def noise_channel(kind: str, d: int, x: float) -> QuditChannel:
    """One-parameter channel (depolarizing or amplitude damping) at ``x``."""
    return channel_from_config({"kind": kind, "d": d, CHANNEL_PARAMS[kind][0]: x})
