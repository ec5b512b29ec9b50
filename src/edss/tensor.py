"""Complex linear algebra for multi-qudit density operators.

Registers are described by a tuple of subsystem dimensions; the full matrix
side is always the product of those dimensions, and indices are row-major.
The protocol driver holds each stack of states as an :class:`_Entries` list,
whose matrices share one pattern of entries, and every kernel here takes
entries only (``channels._embed`` also keeps a dense contraction; see
``apply_to_subsystem``). A public one-state function converts its dense
matrix at the call and scatters the result back.

Spectra go through a block plan (:func:`_plan`): the index arrays that put a
pattern's entries, partially transposed, into its diagonal blocks. A plan
depends on positions only, so the last ``PLAN_CACHE_SIZE`` plans are kept,
keyed by ``(dims, side_a, rows bytes, cols bytes)``; they hold integer arrays
and never a value. :func:`_batch_spectra` solves any number of
``(plan, values)`` items in one pass, one batched ``eigvalsh`` per block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

# Validity checks (hermiticity, unit trace, positivity) tolerate eigensolver
# noise. All matrices here are small (side <= 1000, the qudit register at
# d = 10) with entries of magnitude <= 1.
VALIDITY_ATOL = 1e-9
# Block plans kept, least recently used dropped first: run_checks("all") solves
# 222 distinct patterns, whose plans and keys take 0.35 MB.
PLAN_CACHE_SIZE = 256
_PLANS: dict[tuple, tuple] = {}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(m: np.ndarray, atol: float = VALIDITY_ATOL) -> bool:
    """Whether every matrix of the stack ``m`` (shape ``(..., n, n)``) is
    Hermitian within ``atol``, taken as the largest ``|m - m^H|`` entry."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return float(np.max(_hermitian_defect(m), initial=0.0)) <= atol


def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    """Largest ``|m - m^H|`` entry of each matrix of the stack ``m``. A NaN or inf
    entry gives a NaN defect, which fails every ``<= atol`` gate; inf - inf
    raises no warning on the way, as the caller refuses the input anyway."""
    with np.errstate(invalid="ignore"):
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


@dataclass(frozen=True, eq=False)
class _Entries:
    """A stack of matrices on the register ``dims`` that share one pattern:
    matrix ``b`` holds ``values[b, e]`` at ``(rows[e], cols[e])`` and zeros
    elsewhere, with no two entries at one position. Values of shape ``(nnz,)``
    are one matrix; indexing selects matrices, as on a dense stack."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dims: tuple[int, ...]

    @classmethod
    def of(cls, m: np.ndarray, dims: tuple[int, ...]) -> "_Entries":
        """The dense stack ``m`` at its joint nonzero pattern."""
        rows, cols = _pattern(m)
        return cls(rows, cols, m[..., rows, cols], dims)

    @classmethod
    def summed(
        cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dims: tuple[int, ...]
    ) -> "_Entries":
        """Entries at positions that may repeat: the values at one position are
        summed, and positions that are zero in every matrix dropped."""
        side = prod(dims)
        keys, where = np.unique(rows * side + cols, return_inverse=True)
        flat = values.reshape(-1, values.shape[-1])
        at = (where + len(keys) * np.arange(len(flat))[:, None]).ravel()
        size = len(flat) * len(keys)
        real, imag = (np.bincount(at, part.ravel(), size) for part in (flat.real, flat.imag))
        sums = (real + 1j * imag).reshape(*values.shape[:-1], len(keys))
        keep = np.any(sums != 0, axis=tuple(range(sums.ndim - 1)))
        return cls(*np.divmod(keys[keep], side), sums[..., keep], dims)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> "_Entries":
        return _Entries(self.rows, self.cols, self.values[index], self.dims)


def _pattern(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the joint nonzero pattern of the stack ``h``: one scan."""
    n = h.shape[-1]
    return np.divmod(np.flatnonzero(np.any(h != 0, axis=tuple(range(h.ndim - 2)))), n)


def _scatter(e: _Entries) -> np.ndarray:
    """The dense stack of the entries ``e``."""
    side = prod(e.dims)
    m = np.zeros((*e.values.shape[:-1], side, side), dtype=complex)
    m[..., e.rows, e.cols] = e.values
    return m


def _traces(m: np.ndarray | _Entries) -> np.ndarray:
    """Trace of each matrix of the stack ``m``."""
    if isinstance(m, _Entries):
        return m.values[..., m.rows == m.cols].sum(axis=-1)
    return np.trace(m, axis1=-2, axis2=-1)


def _check_unit_trace(m: np.ndarray | _Entries) -> None:
    """Raise unless every matrix of the stack ``m`` has unit trace within tolerance."""
    tr = _traces(m)
    bad = np.abs(tr - 1.0) > VALIDITY_ATOL
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {complex(tr[bad].flat[0])}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """State of a multi-qudit register: square matrix plus subsystem dims.

    Construction checks shape consistency and hermiticity/trace at the
    validity tolerance. Positivity is an O(n^3) eigenvalue check, so it runs
    only through :meth:`validate`. The protocol driver builds the states of
    its traces with :meth:`_trusted` instead: it checks the trace of each
    whole stack after every operation and hermiticity where the stack's
    spectra are solved.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        side = prod(dims)
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {dims} (side {side})"
            )
        if not is_hermitian(mat):
            raise ValueError("density operator must be Hermitian within tolerance")
        _check_unit_trace(mat)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @staticmethod
    def _trusted(entries: _Entries) -> "DensityOperator":
        """The state of the entries of one matrix of a checked stack, on their
        register: no conversion and no per-object check (see ``_EntryOperator``)."""
        rho = object.__new__(_EntryOperator)
        object.__setattr__(rho, "entries", entries)
        object.__setattr__(rho, "dims", entries.dims)
        return rho

    def _entries(self) -> _Entries:
        """The state as the entries of one matrix."""
        return _Entries.of(self.matrix, self.dims)

    @property
    def dim(self) -> int:
        """Side of the full matrix."""
        return prod(self.dims)

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    def validate(self, atol: float = VALIDITY_ATOL) -> "DensityOperator":
        """Full validity check including positivity; returns self."""
        min_eig = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if min_eig < -atol:
            raise ValueError(f"density operator has negative eigenvalue {min_eig}")
        return self


class _EntryOperator(DensityOperator):
    """A trusted state held as the entries of one matrix. ``matrix`` scatters
    them on its first read and keeps the result; ``dim`` and ``dims`` never do."""

    entries: _Entries

    @property
    def matrix(self) -> np.ndarray:
        dense = self.__dict__.get("_dense")
        if dense is None:
            dense = _scatter(self.entries)
            object.__setattr__(self, "_dense", dense)
        return dense

    def _entries(self) -> _Entries:
        return self.entries


@dataclass(frozen=True)
class Bipartition:
    """Ordered split of subsystem indices into a transposed side and the rest."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    @classmethod
    def split(cls, side_a: Iterable[int], n_subsystems: int) -> "Bipartition":
        """Bipartition with ``side_a`` against all remaining indices."""
        a = frozenset(int(i) for i in side_a)
        full = frozenset(range(n_subsystems))
        if not a or not a <= full or a == full:
            raise ValueError(
                f"side_a {sorted(a)} must be a nonempty proper subset of 0..{n_subsystems - 1}"
            )
        return cls(a, full - a)

    def check(self, n_subsystems: int) -> None:
        full = frozenset(range(n_subsystems))
        if self.side_a & self.side_b:
            raise ValueError("bipartition sides must be disjoint")
        if (self.side_a | self.side_b) != full or not self.side_a or not self.side_b:
            raise ValueError(
                f"bipartition {sorted(self.side_a)}|{sorted(self.side_b)} does not "
                f"cover subsystems 0..{n_subsystems - 1}"
            )


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced operator over ``keep``, in the original subsystem order."""
    keep_sorted = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep_sorted:
        raise ValueError("keep must be nonempty")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"subsystem index out of range for {n} subsystems")
    reduced = _partial_trace(rho._entries(), keep_sorted)
    return DensityOperator(_scatter(reduced), reduced.dims)


def _partial_trace(m: _Entries, keep: Iterable[int]) -> _Entries:
    """Each matrix of the stack ``m`` reduced to the subsystems ``keep``: the
    entries whose row and column digits agree on every other subsystem, with
    those digits dropped, summed where they land on one position."""
    keep, dims = set(keep), m.dims
    rows = cols = np.zeros_like(m.rows)
    same = np.ones(len(m.rows), dtype=bool)
    for i, d in enumerate(dims):
        stride = prod(dims[i + 1 :])
        row, col = (m.rows // stride) % d, (m.cols // stride) % d
        if i in keep:
            rows, cols = rows * d + row, cols * d + col
        else:
            same &= row == col
    kept = tuple(d for i, d in enumerate(dims) if i in keep)
    return _Entries.summed(rows[same], cols[same], m.values[..., same], kept)


def partial_transpose(rho: DensityOperator, part: Bipartition) -> np.ndarray:
    """Matrix with the indices of ``part.side_a`` transposed."""
    part.check(len(rho.dims))
    return _scatter(_partial_transpose(rho._entries(), part.side_a))


def _partial_transpose(m: _Entries, side_a: Iterable[int]) -> _Entries:
    """Each matrix of the stack ``m`` with the indices of ``side_a`` transposed:
    each entry's row and column digits of ``side_a`` swap."""
    rows, cols, dims = m.rows, m.cols, m.dims
    for i in side_a:
        stride = prod(dims[i + 1 :])
        shift = ((cols // stride) % dims[i] - (rows // stride) % dims[i]) * stride
        rows, cols = rows + shift, cols - shift
    return _Entries(rows, cols, m.values, dims)


def _component_labels(h: _Entries) -> np.ndarray:
    """Smallest row index of each row's connected component in the pattern of
    the stack ``h``, where an entry ``(i, j)`` links ``i`` and ``j``: min-label
    propagation along both directions of every entry, with pointer jumping."""
    labels = np.arange(prod(h.dims))
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, h.rows, labels[h.cols])
        np.minimum.at(hooked, h.cols, labels[h.rows])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped


def hermitian_eigenvalues(h: np.ndarray, atol: float = VALIDITY_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or of each matrix of
    a stack ``h`` (shape ``(..., n, n)``).

    Backed by LAPACK (Householder reduction plus QL/QR), which is accurate to
    machine precision for the well-conditioned matrices used here.

    The stack is taken at its joint nonzero pattern and split into the
    connected components of that pattern (see :func:`_component_labels`),
    through its block plan (:func:`_plan`); entries between components are
    exact zeros in every matrix, so each spectrum is the union of its blocks'
    spectra. :func:`_batch_spectra` fills the blocks, checks their
    hermiticity, solves the blocks of one size with one batched ``eigvalsh``
    (a block of side 1 is the real part of its entry) and sorts each
    spectrum. The hermiticity defect is taken over the blocks before any is
    solved; it equals the whole stack's, as every other entry is zero. The
    qudit partial transposes split into blocks of side at most d. A pattern
    of one component (after a random local unitary, say) is one block, and
    its spectrum is the dense ``eigvalsh`` of the matrix, bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or not h.shape[-1] == h.shape[-2] > 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    entries = _Entries.of(h, (h.shape[-1],))
    return _batch_spectra([(_plan(entries), entries.values)], atol)[0]


def _plan(e: _Entries, side_a: Iterable[int] = ()) -> tuple:
    """The block plan of the partial transposes across ``side_a`` of the stack
    ``e`` (see :func:`_block_plan`), built on the first call for its pattern."""
    side_a = tuple(sorted(side_a))
    key = (e.dims, side_a, e.rows.tobytes(), e.cols.tobytes())
    plan = _PLANS.pop(key, None)
    if plan is None:
        pt = _partial_transpose(e, side_a)
        plan = _block_plan(pt.rows, pt.cols, _component_labels(pt))
        if len(_PLANS) >= PLAN_CACHE_SIZE:  # pop, not del: another thread may evict too
            _PLANS.pop(next(iter(_PLANS)), None)
    _PLANS[key] = plan
    return plan


def _block_plan(rows: np.ndarray, cols: np.ndarray, labels: np.ndarray) -> tuple:
    """Per block size, ascending, ``(size, count, take, at)``: ``count`` diagonal
    blocks of side ``size``, one per distinct value of ``labels`` with that
    many rows, filled with the entries ``take`` of the pattern ``(rows, cols)``
    at the flat positions ``at`` of a ``(count, size, size)`` array. The
    labels are the pattern's components (:func:`_component_labels`), so every
    entry lies in a block."""
    n = len(labels)
    count = np.bincount(labels, minlength=n)  # rows per label
    order = np.argsort(labels, kind="stable")
    slot = np.empty(n, dtype=np.int64)  # position of each row in its block
    slot[order] = np.arange(n) - (np.cumsum(count) - count)[labels[order]]
    plan = []
    # the sizes present, ascending; np.unique would import numpy.ma
    for size in np.flatnonzero(np.bincount(count)[1:]) + 1:
        of_size = count == size
        index = np.cumsum(of_size) - 1  # position of each such block among them
        take = np.flatnonzero(of_size[labels[rows]])
        r, c = rows[take], cols[take]
        at = (index[labels[r]] * size + slot[r]) * size + slot[c]
        plan.append((int(size), int(of_size.sum()), take, at))
    return tuple(plan)


def _batch_spectra(
    items: Sequence[tuple[tuple, np.ndarray]], atol: float = VALIDITY_ATOL
) -> list[np.ndarray]:
    """Ascending spectra of each item ``(plan, values)`` of ``items``: the stack
    of entries ``values`` (shape ``(..., nnz)``) in the diagonal blocks that
    ``plan`` (see :func:`_block_plan`) fills. In one pass, per block size, the
    blocks of every item are gathered into one zeroed array, checked for
    hermiticity together, and, once every size has passed, solved by one
    batched ``eigvalsh``. Each item's spectra are then sorted from its blocks
    in ascending size order, as if it had been solved alone."""
    groups: dict[int, list] = {}  # size -> (item, points, count, take, at)
    for i, (plan, values) in enumerate(items):
        points = prod(values.shape[:-1])
        for size, count, take, at in plan:
            groups.setdefault(size, []).append((i, points, count, take, at))
    blocks = {}
    for size, group in sorted(groups.items()):
        stack = np.zeros((sum(p * c for _, p, c, _, _ in group), size * size), dtype=complex)
        start = 0
        for i, points, count, take, at in group:
            values = items[i][1]
            rows = stack[start : start + points * count].reshape(points, count * size * size)
            rows[:, at] = values.reshape(points, values.shape[-1])[:, take]
            start += points * count
        stack = stack.reshape(-1, size, size)
        # as is_hermitian takes it; a NaN defect fails too, before LAPACK sees it
        if not np.max(_hermitian_defect(stack), initial=0.0) <= atol:
            raise ValueError("input is not Hermitian within tolerance")
        blocks[size] = stack
    spectra: list[list] = [[] for _ in items]
    for size, stack in blocks.items():
        # eigvalsh of a 1 x 1 block is the real part of its entry
        solved = stack[:, 0, 0].real if size == 1 else np.linalg.eigvalsh(stack)
        start = 0
        for i, points, count, _, _ in groups[size]:
            lead = items[i][1].shape[:-1]
            spectra[i].append(solved[start : start + points * count].reshape(*lead, count * size))
            start += points * count
    return [np.sort(np.concatenate(eigs, axis=-1), axis=-1) for eigs in spectra]


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(h))))
