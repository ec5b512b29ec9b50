import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edss import (
    DensityOperator,
    amplitude_damping,
    apply_to_subsystem,
    canonical_channel,
    channel_from_config,
    cnot,
    depolarizing,
    edss_initial_two_qubit,
    identity_channel,
    is_cpt,
)
from edss.channels import CanonicalChannel, KrausChannel, has_canonical_form
from edss.checks import random_cp_canonical

from explicit_forms import (
    bloch_affine,
    canonical_action,
    choi_matrix,
    depolarizing_action,
    depolarizing_kraus,
    ghz_matrix,
    is_extreme_point,
    kraus_action,
    noise_channel,
    proj,
    random_density,
    transfer_from_action,
    two_qubit_noisy_middle,
    unital_cp_condition,
)

# Finite channel parameters; the algebra below holds whether or not the map is CP.
unit = st.floats(-1.0, 1.0)
probability = st.floats(0.0, 1.0)


class TestCanonicalChannel:
    def test_identity_action(self):
        rng = np.random.default_rng(1)
        ch = canonical_channel(1.0, 1.0, 1.0, 0.0)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.allclose(ch.apply_matrix(rho), rho, atol=1e-14)

    def test_depolarizing_action(self):
        rng = np.random.default_rng(2)
        for p in (0.0, 0.3, 1.0):
            ch = depolarizing(2, p)
            rho = random_density(rng, 2)
            expected = (1.0 - p) * rho + (p / 2.0) * np.eye(2)
            assert np.allclose(ch.apply_matrix(rho), expected, atol=1e-14)

    def test_damping_form_on_excited_state(self):
        g = 0.37
        ch = canonical_channel(np.sqrt(1 - g), np.sqrt(1 - g), 1 - g, g)
        out = ch.apply_matrix(proj((2,), (1,)))
        expected = (1 - g) * proj((2,), (1,)) + g * proj((2,), (0,))
        assert np.allclose(out, expected, atol=1e-14)

    @settings(deadline=None)
    @given(unit, unit, unit, unit)
    def test_bloch_affine_roundtrip(self, l1, l2, l3, t3):
        ch = canonical_channel(l1, l2, l3, t3)
        lam, t = bloch_affine(ch)
        assert np.allclose(lam, np.diag([l1, l2, l3]), atol=1e-14)
        assert np.allclose(t, [0.0, 0.0, t3], atol=1e-14)


class TestDepolarizing:
    def test_out_of_range_probability(self):
        with pytest.raises(ValueError):
            depolarizing(2, 1.5)
        with pytest.raises(ValueError):
            depolarizing(3, -0.1)
        with pytest.raises(ValueError):
            depolarizing(1, 0.5)

    def test_qutrit_half_strength(self):
        ch = depolarizing(3, 0.5)
        out = ch.apply_matrix(proj((3,), (0,)))
        assert np.allclose(out, np.diag([2 / 3, 1 / 6, 1 / 6]), atol=1e-14)

    def test_full_strength_is_constant_map(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            ch = depolarizing(d, 1.0)
            rho = random_density(rng, d)
            assert np.allclose(ch.apply_matrix(rho), np.eye(d) / d, atol=1e-14)

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(4)
        for d in (2, 5):
            ch = depolarizing(d, 0.0)
            rho = random_density(rng, d)
            assert np.allclose(ch.apply_matrix(rho), rho, atol=1e-14)


class TestAmplitudeDamping:
    def test_out_of_range_rate(self):
        with pytest.raises(ValueError):
            amplitude_damping(2, -0.2)
        with pytest.raises(ValueError):
            amplitude_damping(4, 1.01)

    def test_full_decay(self):
        rng = np.random.default_rng(5)
        for d in (2, 4):
            ch = amplitude_damping(d, 1.0)
            rho = random_density(rng, d)
            assert np.allclose(ch.apply_matrix(rho), proj((d,), (0,)), atol=1e-14)

    def test_coherence_scaling(self):
        ch = amplitude_damping(2, 0.36)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = ch.apply_matrix(plus)
        assert abs(out[0, 1] - np.sqrt(1 - 0.36) / 2) < 1e-14
        assert abs(out[0, 1] - 0.4) < 1e-14

    def test_completeness(self):
        for d in (2, 3, 6):
            ops = amplitude_damping(d, 0.3).kraus_ops
            assert np.max(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(d))) < 1e-15

    def test_matches_canonical_form_on_operator_basis(self):
        # The qubit damping channel and its canonical parameterization must
        # agree entrywise on all four basis operators.
        for g in np.linspace(0.0, 1.0, 11):
            kraus = amplitude_damping(2, g)
            canon = canonical_channel(np.sqrt(1 - g), np.sqrt(1 - g), 1 - g, g)
            assert np.max(
                np.abs(kraus.transfer_tensor() - canon.transfer_tensor())
            ) < 1e-12


def _oracle_cases():
    """(channel, literal action) for random CP canonical channels, amplitude
    damping and depolarizing at d = 2..6; depolarizing(2, p) is canonical."""
    rng = np.random.default_rng(11)
    cases = []
    for i in range(5):
        ch = random_cp_canonical(rng)
        action = partial(canonical_action, ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
        cases.append(pytest.param(ch, action, id=f"canonical-{i}"))
    for d in range(2, 7):
        ch = amplitude_damping(d, rng.uniform())
        cases.append(pytest.param(ch, partial(kraus_action, ch.kraus_ops), id=f"damping-d{d}"))
        p = rng.uniform()
        cases.append(pytest.param(
            depolarizing(d, p), partial(depolarizing_action, d, p), id=f"depolarizing-d{d}"
        ))
    return cases


class TestExplicitActions:
    """Every channel class against its action written out from its definition."""

    @pytest.mark.parametrize("ch, action", _oracle_cases())
    def test_transfer_tensor(self, ch, action):
        expected = transfer_from_action(action, ch.dim)
        assert np.max(np.abs(ch.transfer_tensor() - expected)) < 1e-14

    @pytest.mark.parametrize("ch, action", _oracle_cases())
    def test_apply_matrix(self, ch, action):
        rng = np.random.default_rng(12)
        d = ch.dim
        general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for x in (random_density(rng, d), general):
            assert np.max(np.abs(ch.apply_matrix(x) - action(x))) < 1e-14

    @pytest.mark.parametrize(
        "ch",
        [canonical_channel(0.5, 0.5, 0.5, 0.1), amplitude_damping(3, 0.2), depolarizing(4, 0.3)],
        ids=["canonical", "kraus", "depolarizing"],
    )
    def test_wrong_shape_is_rejected(self, ch):
        d = ch.dim
        for shape in ((d + 1, d + 1), (1, 1), (d,)):
            with pytest.raises(ValueError, match="operators"):
                ch.apply_matrix(np.zeros(shape))


def compose(t_after, t_before):
    """Transfer tensor of E_after after E_before."""
    return np.einsum("ijab,abkl->ijkl", t_after, t_before)


class TestChannelAlgebra:
    @settings(deadline=None)
    @given(st.integers(2, 6), probability, probability)
    def test_depolarizing_composition(self, d, p, q):
        first, second = depolarizing(d, p), depolarizing(d, q)
        composed = compose(second.transfer_tensor(), first.transfer_tensor())
        expected = depolarizing(d, 1.0 - (1.0 - p) * (1.0 - q)).transfer_tensor()
        assert np.max(np.abs(composed - expected)) < 1e-14

    @settings(deadline=None)
    @given(st.tuples(unit, unit, unit, unit), st.tuples(unit, unit, unit, unit))
    def test_canonical_composition(self, first, second):
        (l1, l2, l3, t3), (m1, m2, m3, s3) = first, second
        composed = compose(
            CanonicalChannel(*second).transfer_tensor(), CanonicalChannel(*first).transfer_tensor()
        )
        expected = CanonicalChannel(l1 * m1, l2 * m2, l3 * m3, m3 * t3 + s3).transfer_tensor()
        assert np.max(np.abs(composed - expected)) < 1e-14


class TestApplyToSubsystem:
    def test_identity_channel_returns_input(self):
        rho = edss_initial_two_qubit()
        out = apply_to_subsystem(identity_channel(2), rho, target=2)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_dimension_mismatch(self):
        rho = edss_initial_two_qubit()
        with pytest.raises(ValueError):
            apply_to_subsystem(depolarizing(3, 0.1), rho, target=2)
        with pytest.raises(ValueError):
            apply_to_subsystem(depolarizing(2, 0.1), rho, target=7)

    @pytest.mark.parametrize(
        "channel",
        [
            depolarizing(2, 0.2),
            amplitude_damping(2, 0.45),
            canonical_channel(0.5, -0.3, 0.4, 0.2),
        ],
        ids=["depolarizing", "amplitude_damping", "canonical"],
    )
    def test_reproduces_block_form_of_noisy_middle_state(self, channel):
        # Acting on the exchange qubit of the post-CNOT state must reproduce
        # the explicit three-term block matrix entry by entry.
        lam, t = bloch_affine(channel)
        rho1 = cnot(edss_initial_two_qubit(), 0, 2)
        out = apply_to_subsystem(channel, rho1, target=2)
        expected = two_qubit_noisy_middle(lam[0, 0], lam[1, 1], lam[2, 2], t[2])
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_commutes_with_tensor_embedding(self):
        rng = np.random.default_rng(7)
        ch = amplitude_damping(2, 0.3)
        rho_a = random_density(rng, 3)
        rho_b = random_density(rng, 2)
        joint = DensityOperator(np.kron(rho_a, rho_b), (3, 2))
        out = apply_to_subsystem(ch, joint, target=1)
        expected = np.kron(rho_a, ch.apply_matrix(rho_b))
        assert np.allclose(out.matrix, expected, atol=1e-13)

    @pytest.mark.parametrize(
        "ch, ops",
        [
            (amplitude_damping(3, 0.35), amplitude_damping(3, 0.35).kraus_ops),
            (depolarizing(3, 0.4), depolarizing_kraus(3, 0.4)),
        ],
        ids=["amplitude_damping", "depolarizing"],
    )
    def test_matches_literal_operator_sum_at_a_middle_target(self, ch, ops):
        # Both neighbours of the target are larger than 1, so every axis of
        # the contraction is exercised: sum_A (I (x) A (x) I) rho (I (x) A (x) I)^dagger.
        rng = np.random.default_rng(23)
        rho = DensityOperator(random_density(rng, 12), (2, 3, 2))
        out = apply_to_subsystem(ch, rho, target=1)
        embedded = [np.kron(np.kron(np.eye(2), a), np.eye(2)) for a in ops]
        expected = sum(e @ rho.matrix @ e.conj().T for e in embedded)
        assert np.max(np.abs(out.matrix - expected)) < 1e-13

    def test_outputs_stay_valid_states(self):
        rng = np.random.default_rng(9)
        channels = [
            depolarizing(2, 0.4),
            amplitude_damping(2, 0.7),
            random_cp_canonical(rng),
            depolarizing(3, 0.25),
            amplitude_damping(4, 0.5),
        ]
        for ch in channels:
            d = ch.dim
            rho = DensityOperator(np.kron(random_density(rng, 2), random_density(rng, d)), (2, d))
            out = apply_to_subsystem(ch, rho, target=1)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
            assert float(np.min(np.linalg.eigvalsh(out.matrix))) > -1e-9


class TestChoiMatrix:
    def test_identity_channel(self):
        choi = choi_matrix(identity_channel(2))
        assert np.allclose(choi, 2.0 * ghz_matrix(2, 2), atol=1e-14)
        eigs = np.linalg.eigvalsh(choi)
        assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_fully_depolarizing(self):
        assert np.allclose(choi_matrix(depolarizing(2, 1.0)), np.eye(4) / 2, atol=1e-14)

    def test_damping_choi_is_psd_with_trace_d(self):
        choi = choi_matrix(amplitude_damping(2, 0.3))
        eigs = np.linalg.eigvalsh(choi)
        assert eigs[0] > -1e-12
        assert abs(np.trace(choi) - 2.0) < 1e-14

    def test_output_partial_trace_is_identity(self):
        # Tracing the Choi matrix over its output factor recovers the
        # identity exactly when the map preserves trace.
        for ch in (depolarizing(3, 0.6), amplitude_damping(4, 0.2)):
            d = ch.dim
            choi = choi_matrix(ch).reshape(d, d, d, d)
            assert np.allclose(np.einsum("iaja->ij", choi), np.eye(d), atol=1e-12)


class TestIsCpt:
    def test_sign_flip_is_not_cp(self):
        report = is_cpt(canonical_channel(1.0, 1.0, -1.0, 0.0))
        assert not report
        assert report.min_choi_eigenvalue < -1e-3

    def test_depolarizing_qudit_is_cpt(self):
        assert is_cpt(depolarizing(5, 0.7))

    def test_shifted_contraction_recorded_not_cp(self):
        # (l1 - l2)^2 = 0 but (1 - l3)^2 - t3^2 = 0.01 - 0.09 < 0, so the
        # Choi matrix must pick up a negative eigenvalue.
        report = is_cpt(canonical_channel(0.9, 0.9, 0.9, 0.3))
        assert not report
        assert report.min_choi_eigenvalue < -1e-6
        assert report.trace_preservation_error < 1e-12

    def test_agrees_with_unital_closed_form(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            l1, l2, l3 = rng.uniform(-1.0, 1.0, 3)
            choi_says = bool(is_cpt(canonical_channel(l1, l2, l3, 0.0)))
            assert choi_says == unital_cp_condition(l1, l2, l3, tol=1e-9)

    @pytest.mark.parametrize(
        "ops",
        [
            (np.array(1.0),),
            (np.ones(2),),
            (np.ones((2, 3)),),
            (np.ones((2, 2, 2)),),
            (np.eye(2), np.eye(3)),
        ],
    )
    def test_kraus_operators_must_be_square_matrices_of_one_shape(self, ops):
        with pytest.raises(ValueError, match="must be square with equal shape"):
            KrausChannel(ops)

    def test_trace_defect_reported(self):
        ops = tuple(0.9 * a for a in amplitude_damping(2, 0.4).kraus_ops)
        report = is_cpt(KrausChannel(ops))
        assert not report
        assert report.trace_preservation_error > 0.1
        assert report.min_choi_eigenvalue > -1e-12


class TestIsExtremePoint:
    def test_damping_family_is_extreme_for_all_rates(self):
        for g in np.linspace(0.0, 1.0, 21):
            ch = canonical_channel(np.sqrt(1 - g), np.sqrt(1 - g), 1 - g, g)
            assert is_extreme_point(ch)

    def test_damping_arithmetic_case(self):
        ch = canonical_channel(np.sqrt(0.6), np.sqrt(0.6), 0.6, 0.4)
        assert is_extreme_point(ch)

    def test_depolarizing_interior_is_not_extreme(self):
        for p in np.linspace(0.05, 0.95, 19):
            assert not is_extreme_point(depolarizing(2, p))

    def test_identity_is_extreme(self):
        assert is_extreme_point(canonical_channel(1.0, 1.0, 1.0, 0.0))

    def test_requires_canonical(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(TypeError):
            is_extreme_point(KrausChannel((hadamard,)))


class TestChannelFromConfig:
    def test_depolarizing(self):
        ch = channel_from_config({"kind": "depolarizing", "d": 3, "p": 0.4})
        assert ch.kind == "depolarizing" and ch.dim == 3 and ch.noise_param == 0.4

    def test_amplitude_damping(self):
        ch = channel_from_config({"kind": "amplitude_damping", "gamma": "0.25"})
        assert isinstance(ch, KrausChannel) and ch.noise_param == 0.25

    def test_canonical(self):
        ch = channel_from_config(
            {"kind": "canonical", "lambda1": 0.5, "lambda2": 0.5, "lambda3": 0.5, "t3": 0.1}
        )
        assert isinstance(ch, CanonicalChannel) and ch.t3 == 0.1

    def test_errors(self):
        with pytest.raises(ValueError):
            channel_from_config({"kind": "squeezing"})
        with pytest.raises(ValueError):
            channel_from_config({"kind": "depolarizing"})
        with pytest.raises(ValueError):
            channel_from_config({"kind": "canonical", "d": 3, "lambda1": 1})

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "depolarizing", "d": 2.5, "p": 0.1},
            {"kind": "amplitude_damping", "d": 3.9, "gamma": 0.1},
            {"kind": "depolarizing", "d": float("inf"), "p": 0.1},
            {"kind": "amplitude_damping", "d": float("nan"), "gamma": 0.1},
        ],
    )
    def test_non_integral_dimension_rejected(self, config):
        message = f"dimension d must be an integer, got {config['d']!r}"
        with pytest.raises(ValueError, match=message):
            channel_from_config(config)

    @pytest.mark.parametrize(
        "factory,d",
        [
            (partial(depolarizing, p=0.2), 3.7),
            (partial(depolarizing, p=0.2), 2.5),
            (partial(depolarizing, p=0.2), "3"),
            (partial(amplitude_damping, gamma=0.2), 3.5),
            (partial(amplitude_damping, gamma=0.2), np.float64(2.5)),
            (identity_channel, 3.5),
        ],
    )
    def test_factories_refuse_a_non_integer_dimension(self, factory, d):
        message = re.escape(f"dimension d must be an integer, got {d!r}")
        with pytest.raises(ValueError, match=message):
            factory(d=d)

    @pytest.mark.parametrize("d", [3, 3.0, np.int64(3), np.float64(3.0)])
    @pytest.mark.parametrize("factory", [depolarizing, amplitude_damping])
    def test_factories_take_an_integral_dimension(self, factory, d):
        ch = factory(d, 0.2)
        assert ch.dim == 3 and type(ch.dim) is int
        assert np.array_equal(ch.transfer_tensor(), factory(3, 0.2).transfer_tensor())
        assert identity_channel(d).dim == 3

    def test_a_qubit_dimension_given_as_a_float_builds_the_qubit_channel(self):
        assert isinstance(depolarizing(2.0, 0.3), CanonicalChannel)
        assert isinstance(identity_channel(np.int64(2)), CanonicalChannel)

    @pytest.mark.parametrize("d", [1, 0, -3, 1.0])
    def test_factories_refuse_a_dimension_below_two(self, d):
        for factory in (partial(depolarizing, p=0.1), partial(amplitude_damping, gamma=0.1)):
            with pytest.raises(ValueError, match="dimension d must be >= 2"):
                factory(d=d)
        with pytest.raises(ValueError, match="dimension d must be >= 2"):
            identity_channel(d)

    def test_integral_float_dimension_accepted(self):
        for kind, param in (("depolarizing", "p"), ("amplitude_damping", "gamma")):
            ch = channel_from_config({"kind": kind, "d": 3.0, param: 0.2})
            assert ch.dim == 3 and type(ch.dim) is int
            want = noise_channel(kind, 3, 0.2).transfer_tensor()
            assert np.array_equal(ch.transfer_tensor(), want)


class TestCanonicalFormDetection:
    def test_damping_kraus_has_canonical_form(self):
        assert has_canonical_form(amplitude_damping(2, 0.3))

    def test_rotated_channel_does_not(self):
        # A Hadamard-style unitary conjugation moves the Bloch contraction
        # off the diagonal.
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        assert is_cpt(ch)
        assert not has_canonical_form(ch)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3", "t3"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_channel_names_the_parameter(self, name, bad):
        params = {"lambda1": 0.5, "lambda2": 0.5, "lambda3": 0.5, "t3": 0.0, name: bad}
        with pytest.raises(ValueError, match=name):
            canonical_channel(**params)

    def test_is_cpt_fails_instead_of_raising(self):
        for bad in (float("nan"), float("inf")):
            report = is_cpt(CanonicalChannel(bad, 1.0, 1.0))
            assert not report
            assert np.isnan(report.min_choi_eigenvalue)
