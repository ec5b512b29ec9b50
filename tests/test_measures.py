import numpy as np
import pytest

from edss import (
    Bipartition,
    DensityOperator,
    average_negativity,
    concurrence,
    negativity,
)
from edss.states import MeasurementBranch

from explicit_forms import (
    depol_pair_states,
    ghz_depol_success_state,
    ghz_matrix,
    proj,
    psi_plus_matrix,
    random_density,
    random_unitary,
)


PAIR = Bipartition.split({0}, 2)


class TestNegativity:
    def test_maximally_entangled_pair(self):
        result = negativity(DensityOperator(psi_plus_matrix(), (2, 2)), PAIR)
        assert abs(result.value - 1.0) < 1e-12
        assert abs(result.trace_norm - 2.0) < 1e-12
        assert result.min_dim == 2
        assert len(result.negative_eigenvalues) == 1

    def test_depolarized_success_pair_below_threshold(self):
        p = 0.2
        rho = DensityOperator(depol_pair_states(p)[0], (2, 2))
        result = negativity(rho, PAIR)
        assert abs(result.value - (2 - 3 * p) / (2 + p)) < 1e-12
        assert abs(result.value - 0.6363636363636364) < 1e-12
        # exactly one negative eigenvalue carries the whole value
        assert len(result.negative_eigenvalues) == 1
        assert abs(-2.0 * result.negative_eigenvalues[0] - 1.4 / 2.2) < 1e-10

    def test_depolarized_success_pair_above_threshold(self):
        rho = DensityOperator(depol_pair_states(0.7)[0], (2, 2))
        assert negativity(rho, PAIR).value < 1e-12

    def test_ghz_success_branch_value(self):
        p = 0.2
        rho = DensityOperator(ghz_depol_success_state(p), (2, 2, 2))
        result = negativity(rho, Bipartition.split({0}, 3))
        assert abs(result.value - 2.52 / 4.76) < 1e-12

    def test_result_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = DensityOperator(random_density(rng, 8), (2, 2, 2))
            for side in ({0}, {1}, {0, 1}):
                res = negativity(rho, Bipartition.split(side, 3))
                assert res.value >= 0.0
                recomputed = (res.trace_norm - 1.0) / (res.min_dim - 1)
                assert abs(res.value - max(0.0, recomputed)) < 1e-12
                from_negatives = 2.0 * sum(-e for e in res.negative_eigenvalues) / (
                    res.min_dim - 1
                )
                assert abs(res.value - from_negatives) < 1e-10

    def test_min_dim_uses_full_side_dimensions(self):
        rng = np.random.default_rng(25)
        rho = DensityOperator(random_density(rng, 32), (2, 2, 2, 2, 2))
        res = negativity(rho, Bipartition.split({0}, 5))
        assert res.min_dim == 2
        res = negativity(rho, Bipartition.split({3, 4}, 5))
        assert res.min_dim == 4

    def test_symmetry_between_sides(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            rho = DensityOperator(random_density(rng, 4), (2, 2))
            a = negativity(rho, Bipartition.split({0}, 2)).value
            b = negativity(rho, Bipartition.split({1}, 2)).value
            assert abs(a - b) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = DensityOperator(random_density(rng, 4), (2, 2))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
            assert (
                abs(
                    negativity(rho, PAIR).value
                    - negativity(rotated, PAIR).value
                )
                < 1e-10
            )

    def test_block_diagonal_tags_add_up(self):
        # For sum_k p_k rho_k x |k><k| with the tag on the untransposed side,
        # the one-vs-rest negativity is the p-weighted sum of pair values.
        rng = np.random.default_rng(35)
        probs = rng.dirichlet(np.ones(3))
        blocks = [random_density(rng, 4) for _ in range(3)]
        full = sum(
            p * np.kron(b, proj((3,), (k,))) for k, (p, b) in enumerate(zip(probs, blocks))
        )
        rho = DensityOperator(full, (2, 2, 3))
        lhs = negativity(rho, Bipartition.split({0}, 3)).value
        rhs = sum(
            p * negativity(DensityOperator(b, (2, 2)), PAIR).value
            for p, b in zip(probs, blocks)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_invalid_partition(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        with pytest.raises(ValueError):
            negativity(rho, Bipartition.split({0}, 3))


class TestConcurrence:
    def test_maximally_entangled(self):
        assert abs(concurrence(DensityOperator(psi_plus_matrix(), (2, 2))) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4, (2, 2))
        assert concurrence(rho) < 1e-12

    def test_noiseless_deterministic_output(self):
        mat = ghz_matrix(2, 2) / 3.0 + np.kron(np.eye(2), proj((2,), (0,))) / 3.0
        assert abs(concurrence(DensityOperator(mat, (2, 2))) - 1 / 3) < 1e-10

    def test_pure_state_oracle(self):
        # For amplitudes (a, b, c, d) the concurrence is 2 |ad - bc|.
        rng = np.random.default_rng(37)
        for _ in range(25):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            rho = DensityOperator(np.outer(amps, amps.conj()), (2, 2))
            expected = 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])
            assert abs(concurrence(rho) - expected) < 1e-10

    def test_wrong_dimensions(self):
        rng = np.random.default_rng(39)
        rho = DensityOperator(random_density(rng, 6), (2, 3))
        with pytest.raises(ValueError):
            concurrence(rho)


class TestAverageNegativity:
    def test_weighted_sum(self):
        rng = np.random.default_rng(43)
        branches = []
        expected = 0.0
        probs = rng.dirichlet(np.ones(3))
        for k, p in enumerate(probs):
            rho = DensityOperator(random_density(rng, 4), (2, 2))
            branches.append(MeasurementBranch(k, float(p), rho))
            expected += p * negativity(rho, PAIR).value
        assert abs(average_negativity(branches, PAIR) - expected) < 1e-12

    def test_null_branches_ignored(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        branches = [
            MeasurementBranch(0, 0.5, rho),
            MeasurementBranch(1, 0.0, None),
            MeasurementBranch(2, 0.5, DensityOperator(np.eye(4) / 4, (2, 2))),
        ]
        assert abs(average_negativity(branches, PAIR) - 0.5) < 1e-12
