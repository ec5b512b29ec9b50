"""Complex linear algebra for multi-qudit density operators.

Registers are described by a tuple of subsystem dimensions; the full matrix
side is always the product of those dimensions, and indices are row-major.
The protocol driver holds each stack of states as an :class:`_Entries` list,
whose matrices share one pattern of entries, and every kernel here takes
entries only (``channels._embed`` also keeps a dense contraction; see
``apply_to_subsystem``). A public one-state function converts its dense
matrix at the call and scatters the result back.

Spectra go through a block plan: the index arrays that put a pattern's
entries, partially transposed, into its diagonal blocks. :func:`_plans` finds
a pass's plans and builds the missing ones together, on the disjoint union of
their patterns; :func:`_batch_spectra` solves any number of ``(plan, values)``
items in one pass, one batched ``eigvalsh`` per block size. The driver's other
kernels keep their index work as plans too: a CNOT's moved positions, a channel
embedding's gather, a measurement's outcome masks, a partial trace's sums.
A plan depends on positions only, so every plan has one key: the kernel's
tag and arguments plus the pattern it reads, ``(dims, rows bytes, cols
bytes)``, built by :func:`_pattern_key` (a matrix with no zero entry finds
its one block by its side). Plans are kept in one cache, bounded by the bytes
of their keys and arrays (``PLAN_CACHE_BYTES``), as integer arrays and never
a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import prod
from typing import Iterable, Sequence

import numpy as np

# Validity checks (hermiticity, unit trace, positivity) tolerate eigensolver
# noise. All matrices here have entries of magnitude <= 1, and the qudit
# register's side is at most 13824 (d = 24), held as entries.
VALIDITY_ATOL = 1e-9
# Bytes of plans kept, key bytes and index arrays, least recently used dropped first.
# run_checks("all") leaves 233 plans in 0.46 MB; one depolarizing and one amplitude-damping
# qudit drive at d = 24 leave 47 plans in 6.4 MB. A full side-216 pattern's key holds 0.75 MB.
PLAN_CACHE_BYTES = 16 << 20
_PLANS: dict[tuple, tuple] = {}
_held = 0  # bytes of the plans in _PLANS


def _cached(key: tuple, build):
    """``build()``, kept in ``_PLANS`` under ``key``; older plans are dropped,
    least recently used first, while the plans kept hold more than
    ``PLAN_CACHE_BYTES`` (the newest plan is always kept)."""
    global _held
    plan = _PLANS.pop(key, None)
    if plan is None:
        plan = build()
        _held += _plan_bytes((key, plan))
        while _held > PLAN_CACHE_BYTES and _PLANS:
            oldest = next(iter(_PLANS))
            # pop with a default: another thread may evict it too
            _held -= _plan_bytes((oldest, _PLANS.pop(oldest, ())))
    _PLANS[key] = plan
    return plan


def _plan_bytes(item: tuple) -> int:
    """Bytes of a cached ``(key, plan)``: its byte strings and index arrays."""
    if isinstance(item, (tuple, list)):
        return sum(map(_plan_bytes, item))
    if isinstance(item, np.ndarray):
        return item.nbytes
    return len(item) if isinstance(item, bytes) else 0


def _pattern_key(tag: tuple, e: _Entries) -> tuple:
    """The key of a kernel's plan for the pattern of ``e``: the kernel's ``tag``
    (its name and arguments) and that pattern."""
    return (*tag, e.dims, e.rows.tobytes(), e.cols.tobytes())


def _pattern_plan(tag: tuple, e: _Entries, build):
    """``build()``, the plan of a kernel for the pattern of ``e``, cached under
    its ``_pattern_key``."""
    return _cached(_pattern_key(tag, e), build)


def _integer(value: object, name: str, lo: int, hi: int | None = None) -> int:
    """The one rule for subsystem indices and counts: ``value`` as an ``int`` in
    ``[lo, hi]`` (no upper bound for ``hi=None``). An ``int`` or a numpy integer
    passes; a bool, a float or anything else raises ``ValueError``, naming the range."""
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r} (expected one {bound})")
    if value < lo or (hi is not None and value > hi):
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _dimension(d: object, name: str = "dimension d") -> int:
    """The one rule for dimensions: ``d`` as an ``int`` of at least 2, from an
    integer (numpy ones too) or an integral float such as 3.0 (see ``_integer``)."""
    if isinstance(d, (float, np.floating)) and float(d).is_integer():
        d = int(d)
    return _integer(d, name, 2)


def is_hermitian(m: np.ndarray) -> bool:
    """Whether every matrix of the stack ``m`` (shape ``(..., n, n)``) is
    Hermitian within ``VALIDITY_ATOL``, taken as the largest ``|m - m^H|`` entry."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return float(np.max(_hermitian_defect(m), initial=0.0)) <= VALIDITY_ATOL


def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    """Largest ``|m - m^H|`` entry of each matrix of the stack ``m``. A NaN or inf
    entry gives a NaN defect, which fails every ``<= tolerance`` gate; inf - inf
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

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index) -> "_Entries":
        return _Entries(self.rows, self.cols, self.values[index], self.dims)


def _sum_plan(rows: np.ndarray, cols: np.ndarray, dims: tuple[int, ...]) -> tuple:
    """``(rows, cols, where)`` of entries at positions that may repeat: the
    distinct positions, ascending, and the one each entry lands on."""
    side = prod(dims)
    keys, where = np.unique(rows * side + cols, return_inverse=True)
    return (*np.divmod(keys, side), where)


def _summed(plan: tuple, values: np.ndarray, dims: tuple[int, ...]) -> _Entries:
    """The entries ``values`` (``(..., nnz)``) summed at the positions of their
    ``_sum_plan``, with the positions that are zero in every matrix dropped."""
    rows, cols, where = plan
    flat = values.reshape(-1, values.shape[-1])
    at = (where + len(rows) * np.arange(len(flat))[:, None]).ravel()
    size = len(flat) * len(rows)
    real, imag = (np.bincount(at, part.ravel(), size) for part in (flat.real, flat.imag))
    sums = (real + 1j * imag).reshape(*values.shape[:-1], len(rows))
    keep = np.any(sums != 0, axis=tuple(range(sums.ndim - 1)))
    if keep.all():
        return _Entries(rows, cols, sums, dims)
    return _Entries(rows[keep], cols[keep], sums[..., keep], dims)


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
    """Trace of each matrix of the stack ``m``; diagonal entries summed in entry order at any
    width (``sum`` adds one row pairwise), so no trace depends on its stack, and 0 for none. A
    trace is a copy of the sums' last column, as a view would keep every partial sum held."""
    if isinstance(m, _Entries):
        diag = m.values[..., m.rows == m.cols]
        return np.cumsum(diag, axis=-1)[..., -1].copy() if diag.shape[-1] else diag.sum(-1)
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
        dims = tuple(_dimension(d, "subsystem dimension") for d in self.dims)
        if not dims:
            raise ValueError("a register needs at least one subsystem")
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

    def validate(self) -> "DensityOperator":
        """Full validity check including positivity, within ``VALIDITY_ATOL``; returns self."""
        min_eig = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if min_eig < -VALIDITY_ATOL:
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
        full = frozenset(range(_integer(n_subsystems, "subsystem count", 2)))
        a = frozenset(_integer(i, "subsystem index", 0, len(full) - 1) for i in side_a)
        if not a or a == full:
            raise ValueError(f"side_a {sorted(a)} must be a nonempty proper subset of {set(full)}")
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
    keep_sorted = sorted({_integer(k, "subsystem index", 0, len(rho.dims) - 1) for k in keep})
    if not keep_sorted:
        raise ValueError("keep must be nonempty")
    reduced = _partial_trace(rho._entries(), keep_sorted)
    return DensityOperator(_scatter(reduced), reduced.dims)


def _partial_trace(m: _Entries, keep: Iterable[int]) -> _Entries:
    """Each matrix of the stack ``m`` reduced to the subsystems ``keep``: the
    entries whose row and column digits agree on every other subsystem, with
    those digits dropped, summed where they land on one position."""
    keep, dims = tuple(sorted(set(keep))), m.dims
    kept = tuple(dims[i] for i in keep)

    def plan() -> tuple:
        rows = cols = np.zeros_like(m.rows)
        same = np.ones(len(m.rows), dtype=bool)
        for i, d in enumerate(dims):
            stride = prod(dims[i + 1 :])
            row, col = (m.rows // stride) % d, (m.cols // stride) % d
            if i in keep:
                rows, cols = rows * d + row, cols * d + col
            else:
                same &= row == col
        return same, _sum_plan(rows[same], cols[same], kept)

    same, summing = _pattern_plan(("trace", keep), m, plan)
    return _summed(summing, m.values[..., same], kept)


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


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or of each matrix of
    a stack ``h`` (shape ``(..., n, n)``).

    Backed by LAPACK (Householder reduction plus QL/QR), which is accurate to
    machine precision for the well-conditioned matrices used here.

    The stack is taken at its joint nonzero pattern and split into the
    connected components of that pattern (see :func:`_component_labels`),
    through its block plan (:func:`_plans`); entries between components are
    exact zeros in every matrix, so each spectrum is the union of its blocks'
    spectra. :func:`_batch_spectra` fills the blocks, checks their
    hermiticity within ``VALIDITY_ATOL``, solves the blocks of one size with one
    batched ``eigvalsh`` (a block of side 1 is the real part of its entry) and
    sorts each spectrum. The hermiticity defect is taken over the blocks before
    any is solved; it equals the whole stack's, as every other entry is zero. The
    qudit partial transposes split into blocks of side at most d. A pattern
    of one component (after a random local unitary, say) is one block, and
    its spectrum is the dense ``eigvalsh`` of the matrix, bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or not h.shape[-1] == h.shape[-2] > 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    n = h.shape[-1]
    nonzero = np.any(h != 0, axis=tuple(range(h.ndim - 2)))
    if nonzero.all():  # one block holding each matrix as it is: no gather, no bytes key
        plan = _cached(("full", n), lambda: ((n, 1, np.arange(n * n), np.arange(n * n)),))
        return _batch_spectra([(plan, h.reshape(*h.shape[:-2], n * n))])[0]
    e = _Entries.of(h, (n,))
    return _batch_spectra([(_plans([(e, ())])[0], e.values)])[0]


def _plans(items: Sequence[tuple[_Entries, Iterable[int]]]) -> list[tuple]:
    """The block plan (see :func:`_block_plan`) of the partial transposes across
    ``side_a`` of each ``(stack, side_a)`` of ``items``, cached under its pattern's
    key, as found or built (the bound may evict it). The misses are built at once on
    the disjoint union of their transposed patterns, rows offset past the sides
    before, and split back: a component's label is its smallest row, so each part
    is its pattern's own build, byte for byte."""
    items = [(e, tuple(sorted(side_a))) for e, side_a in items]
    keys = [_pattern_key(("block", side_a), e) for e, side_a in items]
    held = {key: plan for key in keys if (plan := _PLANS.get(key)) is not None}
    misses = {key: (e, side_a) for key, (e, side_a) in zip(keys, items) if key not in held}
    if misses:
        pts = [_partial_transpose(e, side_a) for e, side_a in misses.values()]
        sides = list(accumulate((prod(pt.dims) for pt in pts), initial=0))
        starts = list(accumulate((len(pt.rows) for pt in pts), initial=0))
        rows = np.concatenate([pt.rows + side for pt, side in zip(pts, sides)])
        cols = np.concatenate([pt.cols + side for pt, side in zip(pts, sides)])
        labels = _component_labels(_Entries(rows, cols, np.empty((0, len(rows))), (sides[-1],)))
        count = np.bincount(labels, minlength=len(labels))
        built: list[list] = [[] for _ in pts]
        for size, _, take, at in _block_plan(rows, cols, labels):
            # each pattern's first block of this size, and its first entry among them
            first = np.searchsorted(np.flatnonzero(count == size), sides).tolist()
            cut = np.searchsorted(take, starts).tolist()
            for i, plan in enumerate(built):
                if first[i] < first[i + 1]:
                    span, blocks = slice(cut[i], cut[i + 1]), first[i + 1] - first[i]
                    at_i = at[span] - first[i] * size * size
                    plan.append((size, blocks, take[span] - starts[i], at_i))
        held.update(zip(misses, map(tuple, built)))
    return [_cached(key, partial(held.get, key)) for key in keys]


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


def _batch_spectra(items: Sequence[tuple[tuple, np.ndarray]]) -> list[np.ndarray]:
    """Ascending spectra of each item ``(plan, values)`` of ``items``: the stack
    of entries ``values`` (shape ``(..., nnz)``) in the diagonal blocks that
    ``plan`` (see :func:`_block_plan`) fills. In one pass, per block size, the
    blocks of every item are gathered into one zeroed array, checked for
    hermiticity within ``VALIDITY_ATOL`` together, and, once every size has passed, solved by one
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
        if not np.max(_hermitian_defect(stack), initial=0.0) <= VALIDITY_ATOL:
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
