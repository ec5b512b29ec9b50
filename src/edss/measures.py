"""Entanglement quantifiers: negativity, concurrence, ensemble averages."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .channels import SIGMA_Y
from .states import MeasurementBranch
from .tensor import (
    Bipartition,
    DensityOperator,
    _Entries,
    _batch_spectra,
    _plans,
)

# Eigenvalues in (-NEGATIVE_EIG_ATOL, 0) are treated as solver noise.
NEGATIVE_EIG_ATOL = 1e-10
# Zero roots of the concurrence's eigenproblem come back as ~1e-16; genuine ones sit far above.
ZERO_ROOT_ATOL = 1e-13


@dataclass(frozen=True)
class NegativityResult:
    """Negativity of a bipartition, with the quantities behind it.

    ``value`` is (trace_norm - 1) / (min_dim - 1) where min_dim is the
    smaller full Hilbert-space dimension of the two sides, so maximally
    entangled states of any dimension score 1.
    """

    value: float
    trace_norm: float
    min_dim: int
    negative_eigenvalues: tuple[float, ...]


def negativity(rho: DensityOperator, part: Bipartition) -> NegativityResult:
    """Negativity of ``rho`` across ``part`` (transpose applied to side_a), solved
    through the block plan of its entries as the driver's are (see ``_batch_negativities``)."""
    part.check(len(rho.dims))
    e = rho._entries()
    eigs = _batch_spectra([(_plans([(e, part.side_a)])[0], e.values)])[0]
    tn, value, min_dim = _from_spectra(eigs, rho.dims, part)
    negatives = tuple(eigs[eigs < -NEGATIVE_EIG_ATOL].tolist())
    return NegativityResult(float(value), float(tn), min_dim, negatives)


def _batch_negativities(items: Sequence[tuple[_Entries, Bipartition]]) -> list[np.ndarray]:
    """Negativity values of each ``(stack, part)`` of ``items``, one per matrix
    of the entry stack across ``part``: every partial transpose goes through
    its pattern's plan (the misses built together, ``tensor._plans``), and all of them
    are solved in one pass (``tensor._batch_spectra``). The plans are held until then."""
    plans = _plans([(m, part.side_a) for m, part in items])
    spectra = _batch_spectra([(plan, m.values) for plan, (m, _) in zip(plans, items)])
    return [_from_spectra(eigs, m.dims, part)[1] for (m, part), eigs in zip(items, spectra)]


def _from_spectra(
    eigs: np.ndarray, dims: tuple[int, ...], part: Bipartition
) -> tuple[np.ndarray, np.ndarray, int]:
    """Trace norms, negativity values and min_dim from partial-transpose spectra."""
    tn = np.abs(eigs).sum(axis=-1)
    min_dim = min(prod(dims[i] for i in part.side_a), prod(dims[i] for i in part.side_b))
    return tn, np.maximum(0.0, (tn - 1.0) / (min_dim - 1)), min_dim


def concurrence(rho: DensityOperator) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), with conjugation in the computational
    basis.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence is defined for two qubits, got dims {rho.dims}")
    return float(_concurrences(rho.matrix))


def _concurrences(m: np.ndarray) -> np.ndarray:
    """Concurrence of each two-qubit matrix of the stack ``m``."""
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    roots = np.real(np.linalg.eigvals(m @ (yy @ m.conj() @ yy)))
    roots[roots < ZERO_ROOT_ATOL] = 0.0
    lams = np.sort(np.sqrt(roots), axis=-1)[..., ::-1]
    return np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])


def average_negativity(branches: Iterable[MeasurementBranch], part: Bipartition) -> float:
    """Probability-weighted negativity over measurement branches.

    Null branches (zero probability) contribute nothing.
    """
    total = 0.0
    for branch in branches:
        if branch.post_state is None or branch.probability <= 0.0:
            continue
        total += branch.probability * negativity(branch.post_state, part).value
    return total
