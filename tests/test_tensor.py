from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edss import (
    Bipartition,
    DensityOperator,
    hermitian_eigenvalues,
    negativity,
    partial_trace,
    partial_transpose,
    qudit_states,
)
from edss.tensor import _component_labels, _Entries

from explicit_forms import (
    SX,
    SZ,
    ghz_matrix,
    noise_channel,
    proj,
    psi_plus_matrix,
    random_density,
    random_unitary,
)


def labels_of(h):
    """Component labels of the nonzero pattern of the dense matrix ``h``."""
    return _component_labels(_Entries.of(h, (h.shape[-1],)))


def random_hermitian(rng, side):
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return 0.5 * (g + g.conj().T)


def hermitian_2x2_roots(h):
    """Quadratic-formula eigenvalues of a 2x2 Hermitian matrix."""
    a, d = np.real(h[0, 0]), np.real(h[1, 1])
    mean = 0.5 * (a + d)
    radius = np.sqrt(0.25 * (a - d) ** 2 + abs(h[0, 1]) ** 2)
    return np.array([mean - radius, mean + radius])


def hermitian_3x3_roots(h):
    """Trigonometric closed-form eigenvalues of a 3x3 Hermitian matrix."""
    p1 = abs(h[0, 1]) ** 2 + abs(h[0, 2]) ** 2 + abs(h[1, 2]) ** 2
    q = np.real(np.trace(h)) / 3.0
    p2 = sum(np.real(h[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    if p2 < 1e-30:
        return np.full(3, q)
    p = np.sqrt(p2 / 6.0)
    b = (h - q * np.eye(3)) / p
    det_b = np.real(
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig1 = q + 2.0 * p * np.cos(phi)
    eig3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    eig2 = 3.0 * q - eig1 - eig3
    return np.sort([eig1, eig2, eig3])


class TestKron:
    """``np.kron`` puts its first factor on the most significant digit, the
    register order of ``DensityOperator`` and of the oracles' ``flat``."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = proj((2,), (0,))
        p1 = proj((2,), (1,))
        assert np.array_equal(np.kron(p0, p1), proj((2, 2), (0, 1)))

    def test_double_bit_flip(self):
        v00 = np.zeros(4)
        v00[0] = 1.0
        v11 = np.kron(SX, SX) @ v00
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(v11, expected)

    def test_associativity_exact(self):
        # Integer-valued entries keep every product exact, so the two
        # groupings must agree bit for bit.
        rng = np.random.default_rng(11)
        ints = lambda n: (
            rng.integers(-9, 10, (n, n)) + 1j * rng.integers(-9, 10, (n, n))
        ).astype(complex)
        a, b, c = ints(2), ints(3), ints(2)
        assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))

    def test_associativity_float_inputs(self):
        rng = np.random.default_rng(13)
        mats = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in (2, 3, 2)
        ]
        a, b, c = mats
        assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-14)


class TestDensityOperator:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(4) / 4, (2, 3))

    def test_non_hermitian_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityOperator(m / np.trace(m), (2,))

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2, dtype=complex), (2,))

    def test_validate_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityOperator(m, (2,)).validate()


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        reduced = partial_trace(rho, keep={0})
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factor_recovered(self):
        rng = np.random.default_rng(5)
        x_ab = random_density(rng, 4)
        full = DensityOperator(np.kron(x_ab, proj((2,), (0,))), (2, 2, 2))
        reduced = partial_trace(full, keep={0, 1})
        assert np.allclose(reduced.matrix, x_ab, atol=1e-14)

    def test_block_mixture_marginal(self):
        # (1/3) |psi+><psi+| x |0><0| + (1/6) I4 x |1><1| traces to
        # (1/3) |psi+><psi+| + (1/6) I4 on the first two qubits.
        p0 = proj((2,), (0,))
        p1 = proj((2,), (1,))
        full = np.kron(ghz_matrix(2, 2), p0) / 3.0 + np.kron(np.eye(4), p1) / 6.0
        rho = DensityOperator(full, (2, 2, 2))
        reduced = partial_trace(rho, keep={0, 1})
        expected = ghz_matrix(2, 2) / 3.0 + np.eye(4) / 6.0
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-14
        assert np.allclose(reduced.matrix, expected, atol=1e-14)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = DensityOperator(random_density(rng, 12), (2, 3, 2))
            for keep in ({0}, {1}, {2}, {0, 2}, {0, 1}):
                reduced = partial_trace(rho, keep)
                assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_kept_order_is_original(self):
        rng = np.random.default_rng(3)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        c = random_density(rng, 2)
        rho = DensityOperator(np.kron(np.kron(a, b), c), (2, 3, 2))
        reduced = partial_trace(rho, keep={0, 2})
        assert reduced.dims == (2, 2)
        assert np.allclose(reduced.matrix, np.kron(a, c), atol=1e-13)

    def test_bad_indices(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=set())
        with pytest.raises(ValueError):
            partial_trace(rho, keep={5})


class TestPartialTranspose:
    def test_bell_spectrum(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        pt = partial_transpose(rho, Bipartition.split({0}, 2))
        eigs = hermitian_eigenvalues(pt)
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(23)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        rho = DensityOperator(np.kron(a, b), (2, 2))
        pt = partial_transpose(rho, Bipartition.split({0}, 2))
        assert np.allclose(pt, np.kron(a.T, b), atol=1e-14)
        assert np.allclose(
            hermitian_eigenvalues(pt), hermitian_eigenvalues(rho.matrix), atol=1e-12
        )

    def test_ghz3_trace_norm_and_spectrum(self):
        rho = DensityOperator(ghz_matrix(3, 2), (2, 2, 2))
        pt = partial_transpose(rho, Bipartition.split({0}, 3))
        eigs = hermitian_eigenvalues(pt)
        assert abs(np.abs(hermitian_eigenvalues(pt)).sum() - 2.0) < 1e-12
        assert np.allclose(
            eigs, [-0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_involution_exact(self):
        rng = np.random.default_rng(29)
        rho = DensityOperator(random_density(rng, 8), (2, 2, 2))
        part = Bipartition.split({0, 2}, 3)
        pt = partial_transpose(rho, part)
        back = partial_transpose(DensityOperator(pt, rho.dims), part)
        assert np.array_equal(back, rho.matrix)

    def test_hermiticity_and_trace_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = DensityOperator(random_density(rng, 8), (2, 2, 2))
            pt = partial_transpose(rho, Bipartition.split({1}, 3))
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
            assert abs(np.trace(pt) - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.integers(2, 3), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_involution_and_trace_property(self, dims, seed, data):
        side = int(np.prod(dims))
        rho = DensityOperator(random_density(np.random.default_rng(seed), side), tuple(dims))
        side_a = data.draw(
            st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1)
        )
        part = Bipartition.split(side_a, len(dims))
        pt = partial_transpose(rho, part)
        assert abs(np.trace(pt) - np.trace(rho.matrix)) < 1e-14
        back = partial_transpose(DensityOperator(pt, rho.dims), part)
        assert np.array_equal(back, rho.matrix)

    def test_invalid_partition(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        with pytest.raises(ValueError):
            partial_transpose(rho, Bipartition(frozenset({0}), frozenset({0, 1})))
        with pytest.raises(ValueError):
            Bipartition.split({0, 1}, 2)


class TestHermitianEigenvalues:
    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(SX), [-1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        eigs = hermitian_eigenvalues(np.diag([0.2, 0.3, 0.5]).astype(complex))
        assert np.allclose(eigs, [0.2, 0.3, 0.5], atol=1e-14)

    def test_matches_2x2_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            h = 0.5 * (lambda g: g + g.conj().T)(
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
            assert np.allclose(
                hermitian_eigenvalues(h), hermitian_2x2_roots(h), atol=1e-10
            )

    def test_matches_3x3_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            h = random_hermitian(rng, 3)
            assert np.allclose(
                hermitian_eigenvalues(h), hermitian_3x3_roots(h), atol=1e-10
            )

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(47)
        for side in (4, 9, 16):
            h = random_hermitian(rng, side)
            assert abs(np.sum(hermitian_eigenvalues(h)) - np.real(np.trace(h))) < 1e-10

    def test_ascending(self):
        rng = np.random.default_rng(53)
        eigs = hermitian_eigenvalues(random_hermitian(rng, 6))
        assert np.all(np.diff(eigs) >= 0)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)
        # shapes that are not square, or empty, are refused before any index work
        for shape in ((3, 4), (64, 65), (4,), (0, 0)):
            with patch.object(_Entries, "of", wraps=_Entries.of) as spy:
                with pytest.raises(ValueError, match="square"):
                    hermitian_eigenvalues(np.ones(shape, dtype=complex))
            assert spy.call_count == 0


class TestLocalUnitaryInvariance:
    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(3, 5), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_negativity_invariant_under_local_unitaries(self, d, p, seed):
        rng = np.random.default_rng(seed)
        rho = qudit_states(d, noise_channel("depolarizing", d, p))[-1][1]
        u = np.kron(np.kron(random_unitary(rng, d), random_unitary(rng, d)), random_unitary(rng, d))
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T, rho.dims)
        for side in range(3):
            part = Bipartition.split({side}, 3)
            # the rotation fills the pattern: one component, one block
            assert not labels_of(partial_transpose(rotated, part)).any()
            before = negativity(rho, part)
            after = negativity(rotated, part)
            assert abs(after.value - before.value) < 1e-10
            assert abs(after.trace_norm - before.trace_norm) < 1e-10
            assert labels_of(partial_transpose(rho, part)).any()


class TestTraceNorm:
    """The trace norm of a Hermitian matrix: its absolute eigenvalues summed."""

    def test_pauli_z(self):
        assert abs(np.abs(hermitian_eigenvalues(SZ)).sum() - 2.0) < 1e-14

    def test_any_density_operator(self):
        rng = np.random.default_rng(59)
        for side in (2, 4, 6):
            spectrum = hermitian_eigenvalues(random_density(rng, side))
            assert abs(np.abs(spectrum).sum() - 1.0) < 1e-12

    def test_bell_partial_transpose(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        pt = partial_transpose(rho, Bipartition.split({0}, 2))
        assert abs(np.abs(hermitian_eigenvalues(pt)).sum() - 2.0) < 1e-12
