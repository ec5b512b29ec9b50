"""Dense complex linear algebra for multi-qudit density operators.

Everything here works on plain ``numpy`` arrays of ``complex`` dtype in
row-major order. Registers are described by a tuple of subsystem
dimensions; the full matrix side is always the product of those
dimensions. The private kernels act on stacks of shape ``(..., n, n)``; the
public functions are those kernels on one state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

# Validity checks (hermiticity, unit trace, positivity) tolerate eigensolver
# noise. All matrices here are small (side <= 1000, the qudit register at
# d = 10) with entries of magnitude <= 1.
VALIDITY_ATOL = 1e-9
# Smallest side whose spectrum is solved block by block: with one BLAS thread
# on an x86-64 Xeon the split ties the dense solve at side 49 and wins from 64.
BLOCK_SPLIT_MIN_SIDE = 64


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(m: np.ndarray, atol: float = VALIDITY_ATOL) -> bool:
    """Whether every matrix of the stack ``m`` (shape ``(..., n, n)``) is
    Hermitian within ``atol``, taken as the largest ``|m - m^H|`` entry."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0)) <= atol


def _check_unit_trace(m: np.ndarray) -> None:
    """Raise unless every matrix of the stack ``m`` has unit trace within tolerance."""
    tr = np.trace(m, axis1=-2, axis2=-1)
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

    @classmethod
    def _trusted(cls, matrix: np.ndarray, dims: tuple[int, ...]) -> "DensityOperator":
        """A state from a checked stack: no conversion and no per-object check."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "dims", dims)
        return rho

    @property
    def dim(self) -> int:
        """Side of the full matrix."""
        return self.matrix.shape[0]

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    def validate(self, atol: float = VALIDITY_ATOL) -> "DensityOperator":
        """Full validity check including positivity; returns self."""
        min_eig = float(np.min(np.linalg.eigvalsh(self.matrix)))
        if min_eig < -atol:
            raise ValueError(f"density operator has negative eigenvalue {min_eig}")
        return self


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
    return DensityOperator(*_partial_trace(rho.matrix, rho.dims, keep_sorted))


def _partial_trace(
    m: np.ndarray, dims: tuple[int, ...], keep: Iterable[int]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each matrix of the stack ``m`` reduced to the subsystems ``keep``, and their dims."""
    lead = m.ndim - 2
    tensor = m.reshape(*m.shape[:lead], *dims, *dims)
    dims_left = list(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=lead + idx, axis2=lead + idx + len(dims_left))
        dims_left.pop(idx)
    side = prod(dims_left)
    return tensor.reshape(*m.shape[:lead], side, side), tuple(dims_left)


def partial_transpose(rho: DensityOperator, part: Bipartition) -> np.ndarray:
    """Matrix with the indices of ``part.side_a`` transposed."""
    part.check(len(rho.dims))
    return _partial_transpose(rho.matrix, rho.dims, part.side_a)


def _partial_transpose(m: np.ndarray, dims: tuple[int, ...], side_a: Iterable[int]) -> np.ndarray:
    """Each matrix of the stack ``m`` with the indices of ``side_a`` transposed."""
    n, lead = len(dims), m.ndim - 2
    tensor = m.reshape(*m.shape[:lead], *dims, *dims)
    axes = list(range(lead + 2 * n))
    for i in side_a:
        axes[lead + i], axes[lead + n + i] = axes[lead + n + i], axes[lead + i]
    return np.ascontiguousarray(tensor.transpose(axes).reshape(m.shape))


def _component_labels(h: np.ndarray) -> np.ndarray:
    """Smallest row index of each row's connected component in the joint
    pattern of the stack ``h``, where a nonzero ``(i, j)`` of any matrix links
    ``i`` and ``j``: one scan of the whole stack, then min-label propagation
    along both directions of every nonzero, with pointer jumping."""
    n = h.shape[-1]
    rows, cols = np.divmod(np.flatnonzero(h != 0) % (n * n), n)
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, rows, labels[cols])
        np.minimum.at(hooked, cols, labels[rows])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped


def hermitian_eigenvalues(h: np.ndarray, atol: float = VALIDITY_ATOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending (see :func:`_spectra`)."""
    return _spectra(np.asarray(h, dtype=complex), atol)


# Stacks reach the solver through this name, so wrappers installed on the public
# one-matrix name (profilers, the benchmark tracer) see one matrix per call.
def _spectra(h: np.ndarray, atol: float = VALIDITY_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of each Hermitian matrix of the stack ``h``.

    Backed by LAPACK (Householder reduction plus QL/QR), which is accurate to
    machine precision for the well-conditioned matrices used here.

    From side ``BLOCK_SPLIT_MIN_SIDE`` on, the rows are split into the
    connected components of the stack's joint nonzero pattern (see
    :func:`_component_labels`), labelled once for the whole stack. Entries
    between components are then exact zeros in every matrix, so each
    spectrum is the union of its blocks' spectra: all blocks are gathered at
    once, those of one size are solved by one batched ``eigvalsh``, and each
    spectrum is sorted. The qudit partial transposes split into blocks of
    side at most d. The hermiticity defect is taken over the blocks; it
    equals the whole stack's, as the entries outside them are zero in both
    triangles. A stack of smaller sides, or whose joint pattern is one
    component (after a random local unitary, say), is checked for
    hermiticity once and solved by one batched dense ``eigvalsh``.
    """
    if h.ndim >= 2 and h.shape[-1] == h.shape[-2] >= BLOCK_SPLIT_MIN_SIDE:
        labels = _component_labels(h)
        if labels.any():  # all zero: one component
            return _block_eigenvalues(h, labels, atol)
    if not is_hermitian(h, atol):
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigvalsh(h)


def _block_eigenvalues(h: np.ndarray, labels: np.ndarray, atol: float) -> np.ndarray:
    """Ascending spectra of the stack ``h`` from its diagonal blocks, one block
    per distinct value of ``labels``; ``h`` vanishes between different labels."""
    sizes = np.unique(labels, return_counts=True)[1]
    rows = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for size in np.unique(sizes):
        index = rows[starts[sizes == size, None] + np.arange(size)]
        blocks.append(h[..., index[:, :, None], index[:, None, :]])
    # max |h - h^H| over each stack of blocks, as is_hermitian takes it
    if not all(np.max(np.abs(b - b.conj().swapaxes(-1, -2))) <= atol for b in blocks):
        raise ValueError("input is not Hermitian within tolerance")
    eigs = [np.linalg.eigvalsh(b).reshape(*h.shape[:-2], -1) for b in blocks]
    return np.sort(np.concatenate(eigs, axis=-1), axis=-1)


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(h))))
