import numpy as np
import pytest

from edss import (
    Bipartition,
    DensityOperator,
    bob_deterministic_map,
    cnot,
    edss_initial_two_qubit,
    ghz_initial_state,
    measure_computational,
    negativity,
    qudit_initial_state,
)
from edss.states import bob_deterministic_kraus
from edss.channels import SIGMA_X
from edss.protocols import MAX_DIM_CEILING

from explicit_forms import (
    depol_deterministic_output,
    flat,
    ghz_after_alice_cnots,
    ghz_initial_ksum,
    ghz_initial_rule,
    ghz_matrix,
    proj,
    psi_plus_matrix,
    qudit_after_alice_cnot,
    qudit_initial_ksum,
    qudit_initial_rule,
    random_density,
    two_qubit_after_alice_cnot,
    two_qubit_initial_ksum,
    two_qubit_initial_rule,
)


def cnot_unitary(dims, control, target, inverse=False):
    """Dense matrix of the generalized CNOT, built from its basis action."""
    side = int(np.prod(dims))
    u = np.zeros((side, side), dtype=complex)
    d = dims[control]
    for i in range(side):
        digits = []
        rem = i
        for dim in reversed(dims):
            digits.append(rem % dim)
            rem //= dim
        digits.reverse()
        shift = -digits[control] if inverse else digits[control]
        digits[target] = (digits[target] + shift) % d
        u[flat(dims, tuple(digits)), i] = 1.0
    return u


class TestInitialStates:
    def test_two_qubit_initial_is_valid(self):
        rho = edss_initial_two_qubit()
        assert rho.dims == (2, 2, 2)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
        assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12

    def test_ghz_initial_is_valid(self):
        rho = ghz_initial_state()
        assert rho.dims == (2, 2, 2, 2, 2)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
        assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12

    # d = 7 is past the default cap: the builders carry no positivity check,
    # so their spectra are pinned here.
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_qudit_initial_is_valid(self, d):
        rho = qudit_initial_state(d)
        assert rho.dims == (d, d, d)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-13
        assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12

    def test_exchange_qubit_starts_separable(self):
        rho = edss_initial_two_qubit()
        for side in ({2}, {0}, {1}):
            assert negativity(rho, Bipartition.split(side, 3)).value < 1e-12

    def test_ancilla_pair_starts_separable(self):
        rho = ghz_initial_state()
        assert negativity(rho, Bipartition.split({3, 4}, 5)).value < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            qudit_initial_state(1)


class TestConstructionOracles:
    """The post-CNOT states must reproduce explicit projector sums."""

    def test_two_qubit_form(self):
        rho1 = cnot(edss_initial_two_qubit(), 0, 2)
        assert np.max(np.abs(rho1.matrix - two_qubit_after_alice_cnot())) < 1e-10

    def test_ghz_form(self):
        sigma1 = cnot(cnot(ghz_initial_state(), 0, 3), 0, 4)
        assert np.max(np.abs(sigma1.matrix - ghz_after_alice_cnots())) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_qudit_form(self, d):
        omega1 = cnot(qudit_initial_state(d), 0, 2)
        assert np.max(np.abs(omega1.matrix - qudit_after_alice_cnot(d))) < 1e-10

    def test_qudit_and_two_qubit_agree_at_d2(self):
        # Different phase parameterizations, same physical start state.
        assert np.max(
            np.abs(qudit_initial_state(2).matrix - edss_initial_two_qubit().matrix)
        ) < 1e-12

    def test_qudit_and_two_qubit_entries_are_equal_at_d2(self):
        # the two-qubit closed forms are the qudit ones at d = 2 on this fact
        pair, qudit = edss_initial_two_qubit()._entries(), qudit_initial_state(2)._entries()
        for field in ("rows", "cols", "values"):
            assert np.array_equal(getattr(pair, field), getattr(qudit, field)), field


class TestPhaseMixtures:
    """The start states against literal k-sums of their product phase states
    (d <= 6), against the modular rule those sums reduce to (every d), and the
    exact 0/1 coherence pattern that the k-average leaves."""

    def test_two_qubit_matches_k_sum(self):
        assert np.max(np.abs(edss_initial_two_qubit().matrix - two_qubit_initial_ksum())) < 1e-12

    def test_ghz_matches_k_sum(self):
        assert np.max(np.abs(ghz_initial_state().matrix - ghz_initial_ksum())) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_qudit_matches_k_sum(self, d):
        assert np.max(np.abs(qudit_initial_state(d).matrix - qudit_initial_ksum(d))) < 1e-12

    @pytest.mark.parametrize(
        "build, rule",
        [
            pytest.param(edss_initial_two_qubit, two_qubit_initial_rule, id="two_qubit"),
            pytest.param(ghz_initial_state, ghz_initial_rule, id="ghz"),
        ]
        + [
            pytest.param(
                lambda d=d: qudit_initial_state(d),
                lambda d=d: qudit_initial_rule(d),
                id=f"qudit-d{d}",
            )
            for d in range(2, MAX_DIM_CEILING + 1)
        ],
    )
    def test_entries_match_the_modular_rule_bit_for_bit(self, build, rule):
        entries = build()._entries()
        rows, cols, values = rule()
        assert np.array_equal(entries.rows, rows) and np.array_equal(entries.cols, cols)
        assert entries.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "build, nonzeros",
        [
            pytest.param(edss_initial_two_qubit, 8, id="two_qubit"),
            pytest.param(ghz_initial_state, 16, id="ghz"),
        ]
        + [
            pytest.param(lambda d=d: qudit_initial_state(d), 3 * d * d - 2 * d, id=f"qudit-d{d}")
            for d in range(2, MAX_DIM_CEILING + 1)
        ],
    )
    def test_exact_structure(self, build, nonzeros):
        # the entries, not the dense matrix: the qudit state's side reaches 13824 at d = 24
        values = build()._entries().values
        assert np.all(values.imag == 0)
        assert np.count_nonzero(values) == len(values) == nonzeros


class TestCnot:
    def test_qubit_basis_action(self):
        rho = DensityOperator(proj((2, 2), (1, 1)), (2, 2))
        out = cnot(rho, 0, 1)
        assert np.allclose(out.matrix, proj((2, 2), (1, 0)), atol=1e-14)

    def test_qutrit_mod_arithmetic(self):
        rho = DensityOperator(proj((3, 3), (2, 2)), (3, 3))
        out = cnot(rho, 0, 1)
        assert np.allclose(out.matrix, proj((3, 3), (2, 1)), atol=1e-14)
        back = cnot(out, 0, 1, inverse=True)
        assert np.allclose(back.matrix, proj((3, 3), (2, 2)), atol=1e-14)

    def test_control_coherence_action(self):
        # Conjugating |m><n| x rho by the gate gives |m><n| x X^m rho X^n.
        rng = np.random.default_rng(6)
        u = cnot_unitary((2, 2), 0, 1)
        rho2 = random_density(rng, 2)
        for m in range(2):
            for n in range(2):
                block = np.zeros((2, 2), dtype=complex)
                block[m, n] = 1.0
                out = u @ np.kron(block, rho2) @ u.conj().T
                expected = np.kron(
                    block,
                    np.linalg.matrix_power(SIGMA_X, m)
                    @ rho2
                    @ np.linalg.matrix_power(SIGMA_X, n),
                )
                assert np.allclose(out, expected, atol=1e-14)

    def test_matches_dense_unitary(self):
        rng = np.random.default_rng(8)
        dims = (3, 2, 3)
        rho = DensityOperator(random_density(rng, 18), dims)
        for control, target, inverse in ((0, 2, False), (2, 0, True)):
            u = cnot_unitary(dims, control, target, inverse)
            expected = u @ rho.matrix @ u.conj().T
            out = cnot(rho, control, target, inverse)
            assert np.allclose(out.matrix, expected, atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(10)
        rho = DensityOperator(random_density(rng, 8), (2, 2, 2))
        out = cnot(rho, 1, 2)
        assert np.allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        rho = DensityOperator(random_density(rng, 6), (2, 3))
        with pytest.raises(ValueError):
            cnot(rho, 0, 1)
        with pytest.raises(ValueError):
            cnot(rho, 1, 1)


class TestMeasurement:
    def test_noiseless_final_state_branches(self):
        p0 = proj((2,), (0,))
        p1 = proj((2,), (1,))
        final = DensityOperator(
            np.kron(ghz_matrix(2, 2), p0) / 3.0 + np.kron(np.eye(4), p1) / 6.0,
            (2, 2, 2),
        )
        branches = measure_computational(final, target=2)
        assert abs(branches[0].probability - 1 / 3) < 1e-14
        assert np.allclose(branches[0].post_state.matrix, ghz_matrix(2, 2), atol=1e-14)
        assert abs(branches[1].probability - 2 / 3) < 1e-14
        assert np.allclose(branches[1].post_state.matrix, np.eye(4) / 4, atol=1e-14)

    def test_product_state_gives_null_branch(self):
        rng = np.random.default_rng(14)
        rho_ab = random_density(rng, 4)
        full = DensityOperator(np.kron(rho_ab, proj((2,), (0,))), (2, 2, 2))
        branches = measure_computational(full, target=2)
        assert abs(branches[0].probability - 1.0) < 1e-14
        assert np.allclose(branches[0].post_state.matrix, rho_ab, atol=1e-14)
        assert branches[1].probability == 0.0
        assert branches[1].post_state is None

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(16)
        for dims in ((2, 2), (3, 2, 2), (2, 4)):
            side = int(np.prod(dims))
            rho = DensityOperator(random_density(rng, side), dims)
            for target in range(len(dims)):
                branches = measure_computational(rho, target)
                assert abs(sum(b.probability for b in branches) - 1.0) < 1e-12
                for b in branches:
                    if b.post_state is not None:
                        assert abs(np.trace(b.post_state.matrix) - 1.0) < 1e-12

    def test_middle_subsystem_measurement(self):
        rng = np.random.default_rng(18)
        a = random_density(rng, 2)
        c = random_density(rng, 2)
        mid = proj((2,), (1,))
        rho = DensityOperator(np.kron(np.kron(a, mid), c), (2, 2, 2))
        branches = measure_computational(rho, target=1)
        assert branches[0].probability == 0.0
        assert abs(branches[1].probability - 1.0) < 1e-14
        assert np.allclose(branches[1].post_state.matrix, np.kron(a, c), atol=1e-13)

    def test_invalid_target(self):
        rho = DensityOperator(psi_plus_matrix(), (2, 2))
        with pytest.raises(ValueError):
            measure_computational(rho, target=4)


class TestBobDeterministicMap:
    def test_kraus_completeness_exact(self):
        acc = sum(a.conj().T @ a for a in bob_deterministic_kraus())
        assert np.array_equal(acc, np.eye(4, dtype=complex))

    def test_noiseless_output(self):
        p0 = proj((2,), (0,))
        p1 = proj((2,), (1,))
        final = DensityOperator(
            np.kron(ghz_matrix(2, 2), p0) / 3.0 + np.kron(np.eye(4), p1) / 6.0,
            (2, 2, 2),
        )
        out = bob_deterministic_map(final)
        expected = ghz_matrix(2, 2) / 3.0 + np.kron(np.eye(2), p0) / 3.0
        assert np.max(np.abs(out.matrix - expected)) < 1e-14

    def test_depolarized_output_matches_block_form(self):
        from edss import depolarizing, apply_to_subsystem

        p = 0.2
        rho1 = cnot(edss_initial_two_qubit(), 0, 2)
        rho2 = cnot(apply_to_subsystem(depolarizing(2, p), rho1, 2), 1, 2)
        out = bob_deterministic_map(rho2)
        assert np.max(np.abs(out.matrix - depol_deterministic_output(p))) < 1e-12

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            bob_deterministic_map(DensityOperator(psi_plus_matrix(), (2, 2)))
