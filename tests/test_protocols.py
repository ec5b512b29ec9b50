import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edss import (
    FORMULAS,
    Bipartition,
    amplitude_damping,
    average_negativity,
    bloch_affine,
    canonical_channel,
    closed_form,
    critical_noise,
    depolarizing,
    ghz_states,
    identity_channel,
    is_cpt,
    is_extreme_point,
    qudit_states,
    run_ghz,
    run_qudit,
    run_two_qubit,
    separability_audit,
    two_qubit_states,
    verify_identity_chain,
)
from edss import checks, protocols
from edss.channels import KrausChannel, has_canonical_form
from edss.protocols import CHAIN_ATOL, MAX_DIM_CEILING, SEPARABILITY_ATOL, SPECS
from edss.reference import CLOSED_FORM_ATOL

from explicit_forms import (
    ad_deterministic_output,
    ad_pair_states,
    depol_pair_states,
    ghz_ad_success_state,
    ghz_branches,
    ghz_depol_success_state,
    ghz_noisy_middle,
    qudit_ad_success_pair,
    qudit_depol_final_state,
    qudit_depol_success_pair,
    stinespring_kraus,
    two_qubit_pair_branches,
    weyl_diagonal_kraus,
    z_twirl,
)


def sample_cp_canonical(rng):
    while True:
        l1, l2, l3, t3 = rng.uniform(-1.0, 1.0, 4)
        ch = canonical_channel(l1, l2, l3, t3)
        if is_cpt(ch, tol=1e-12):
            return ch


class TestTwoQubitProtocol:
    def test_refuses_non_cpt(self):
        with pytest.raises(ValueError):
            run_two_qubit(canonical_channel(1.0, 1.0, -1.0, 0.0))

    def test_refuses_wrong_dimension(self):
        with pytest.raises(ValueError):
            run_two_qubit(depolarizing(3, 0.1))
        with pytest.raises(ValueError):
            run_two_qubit(depolarizing(2, 0.1), mode="sometimes")

    def test_trace_layout(self):
        trace = run_two_qubit(depolarizing(2, 0.3))
        assert [label for label, _ in trace.steps] == [
            "initial",
            "alice_cnot",
            "channel",
            "bob_cnot",
        ]
        assert len(trace.branches) == 2
        assert trace.deterministic_output is None
        assert set(trace.exchange_keys) <= set(trace.partition_negativities)

    def test_deterministic_trace_layout(self):
        trace = run_two_qubit(depolarizing(2, 0.3), mode="deterministic")
        assert trace.branches == []
        assert trace.average_negativity is None
        assert trace.deterministic_output is not None

    def test_average_is_branch_weighted_sum(self):
        trace = run_two_qubit(amplitude_damping(2, 0.4))
        total = sum(
            b.probability * negs.get("a|b", 0.0)
            for b, negs in zip(trace.branches, trace.branch_negativities)
        )
        assert abs(trace.average_negativity - total) < 1e-12

    def test_branches_match_block_form_for_random_noise(self):
        # Measured branch probabilities and post states must equal the
        # explicit mixed-coefficient block construction.
        rng = np.random.default_rng(61)
        for _ in range(8):
            ch = sample_cp_canonical(rng)
            trace = run_two_qubit(ch)
            expected = two_qubit_pair_branches(ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
            for branch, (q, mat) in zip(trace.branches, expected):
                assert abs(branch.probability - q) < 1e-12
                assert np.max(np.abs(branch.post_state.matrix - mat)) < 1e-12

    def test_depolarizing_branch_states(self):
        p = 0.35
        trace = run_two_qubit(depolarizing(2, p))
        rho0, rho1 = depol_pair_states(p)
        assert abs(trace.branches[0].probability - (2 + p) / 6) < 1e-14
        assert np.max(np.abs(trace.branches[0].post_state.matrix - rho0)) < 1e-13
        assert np.max(np.abs(trace.branches[1].post_state.matrix - rho1)) < 1e-13

    def test_damping_branch_states(self):
        g = 0.55
        trace = run_two_qubit(amplitude_damping(2, g))
        rho0, rho1 = ad_pair_states(g)
        assert abs(trace.branches[0].probability - (2 + g) / 6) < 1e-14
        assert np.max(np.abs(trace.branches[0].post_state.matrix - rho0)) < 1e-13
        assert np.max(np.abs(trace.branches[1].post_state.matrix - rho1)) < 1e-13

    def test_damping_deterministic_output(self):
        g = 0.3
        trace = run_two_qubit(amplitude_damping(2, g), mode="deterministic")
        assert np.max(
            np.abs(trace.deterministic_output.state.matrix - ad_deterministic_output(g))
        ) < 1e-13
        expected = closed_form("two_qubit_amplitude_damping_deterministic_negativity", gamma=g)
        assert abs(trace.deterministic_output.negativity - expected) < 1e-10

    def test_identity_chain_for_random_noise(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            trace = run_two_qubit(sample_cp_canonical(rng))
            report = verify_identity_chain(trace)
            assert report.passed, report.per_chain

    def test_non_canonical_channel_flagged(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        trace = run_two_qubit(KrausChannel((h,)))
        assert trace.warnings


class TestGhzProtocol:
    def test_noiseless_success_branch(self):
        trace = run_ghz(identity_channel(2))
        assert abs(trace.success_probability - 1 / 7) < 1e-12
        parts = trace.partition_negativities
        assert abs(parts["a|bc@success"] - 1.0) < 1e-10
        assert abs(parts["b|ac@success"] - 1.0) < 1e-10
        for pair in ("ab", "bc", "ac"):
            assert parts[f"{pair}_pair@success"] < 1e-10

    def test_branches_match_block_form_for_random_noise(self):
        rng = np.random.default_rng(71)
        for _ in range(4):
            ch = sample_cp_canonical(rng)
            trace = run_ghz(ch)
            expected = ghz_branches(ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
            assert [b.outcome for b in trace.branches] == [e[0] for e in expected]
            for branch, (_, q, mat) in zip(trace.branches, expected):
                assert abs(branch.probability - q) < 1e-12
                if branch.post_state is not None:
                    assert np.max(np.abs(branch.post_state.matrix - mat)) < 1e-12

    def test_noisy_middle_state_matches_block_form(self):
        rng = np.random.default_rng(69)
        for ch in (depolarizing(2, 0.3), amplitude_damping(2, 0.5), sample_cp_canonical(rng)):
            lam, t = bloch_affine(ch)
            trace = run_ghz(ch)
            noisy = trace.step_state("channels")
            expected = ghz_noisy_middle(lam[0, 0], lam[1, 1], lam[2, 2], t[2])
            assert np.max(np.abs(noisy.matrix - expected)) < 1e-12

    def test_depolarizing_success_state(self):
        p = 0.25
        trace = run_ghz(depolarizing(2, p))
        assert np.max(
            np.abs(trace.branches[0].post_state.matrix - ghz_depol_success_state(p))
        ) < 1e-12

    def test_damping_success_state(self):
        g = 0.45
        trace = run_ghz(amplitude_damping(2, g))
        assert np.max(
            np.abs(trace.branches[0].post_state.matrix - ghz_ad_success_state(g))
        ) < 1e-12

    def test_failure_branches_are_separable(self):
        for ch in (depolarizing(2, 0.3), amplitude_damping(2, 0.6)):
            trace = run_ghz(ch)
            for negs in trace.branch_negativities[1:]:
                for value in negs.values():
                    assert value < 1e-10

    def test_identity_chains(self):
        rng = np.random.default_rng(73)
        for _ in range(4):
            trace = run_ghz(sample_cp_canonical(rng))
            report = verify_identity_chain(trace)
            assert report.passed, report.per_chain
            assert "bc_symmetry" in trace.identity_chains

    def test_distinct_channels_flagged_but_consistent(self):
        trace = run_ghz(depolarizing(2, 0.2), amplitude_damping(2, 0.5))
        assert any("differ" in w for w in trace.warnings)
        assert "bc_symmetry" not in trace.identity_chains
        assert verify_identity_chain(trace).passed

    def test_refuses_non_cpt(self):
        with pytest.raises(ValueError):
            run_ghz(depolarizing(2, 0.2), canonical_channel(1.0, 1.0, -1.0, 0.0))


class TestQuditProtocol:
    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            run_qudit(11, depolarizing(11, 0.1))
        with pytest.raises(ValueError):
            run_qudit(1, depolarizing(2, 0.1))
        trace = run_qudit(7, depolarizing(7, 0.1))
        assert trace.noise["d"] == 7

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"dimension d must be an integer, got 3\.0"):
            run_qudit(3.0, depolarizing(3, 0.1))

    def test_ceiling_holds_on_every_driver_path(self, monkeypatch):
        # a d^3-sided start state is 28 MB at d = 11: refuse d before building it
        def refuse(*args):
            raise AssertionError("a d above the ceiling reached admission or the start state")

        monkeypatch.setattr(protocols, "qudit_initial_state", refuse)
        monkeypatch.setattr(protocols, "_admit", refuse)
        d = MAX_DIM_CEILING + 1
        ch = depolarizing(d, 0.1)
        for call in (
            lambda: qudit_states(d, ch),
            lambda: checks.qudit_average_only(d, "depolarizing", 0.1),
            lambda: run_qudit(d, ch),
        ):
            with pytest.raises(ValueError, match=rf"allowed range \[2, {MAX_DIM_CEILING}\]"):
                call()

    def test_channel_kind_restriction_above_two(self):
        with pytest.raises(ValueError, match="phase-covariant"):
            run_qudit(3, KrausChannel(tuple(stinespring_kraus(7, 3))))

    def test_qubit_case_accepts_any_cpt_channel(self):
        rng = np.random.default_rng(79)
        trace = run_qudit(2, sample_cp_canonical(rng))
        assert len(trace.branches) == 2

    def test_channel_dimension_must_match(self):
        with pytest.raises(ValueError):
            run_qudit(3, depolarizing(4, 0.1))

    def test_noiseless_success(self):
        for d in (2, 3, 4):
            trace = run_qudit(d, depolarizing(d, 0.0))
            assert abs(trace.success_probability - 1 / (2 * d - 1)) < 1e-12
            assert abs(trace.partition_negativities["a|b@success"] - 1.0) < 1e-10
            assert abs(trace.average_negativity - 1 / (2 * d - 1)) < 1e-10

    def test_final_state_matches_block_form(self):
        d, p = 3, 0.3
        trace = run_qudit(d, depolarizing(d, p))
        final = trace.step_state("bob_inverse_cnot")
        assert np.max(np.abs(final.matrix - qudit_depol_final_state(d, p))) < 1e-12

    def test_success_pairs_match_printed_forms(self):
        d = 3
        trace = run_qudit(d, depolarizing(d, 0.4))
        assert np.max(
            np.abs(trace.branches[0].post_state.matrix - qudit_depol_success_pair(d, 0.4))
        ) < 1e-12
        trace = run_qudit(d, amplitude_damping(d, 0.4))
        assert np.max(
            np.abs(trace.branches[0].post_state.matrix - qudit_ad_success_pair(d, 0.4))
        ) < 1e-12

    def test_beyond_critical_average_vanishes(self):
        trace = run_qudit(3, depolarizing(3, 0.8))
        assert trace.average_negativity < 1e-9

    def test_damping_average(self):
        trace = run_qudit(3, amplitude_damping(3, 0.4))
        assert abs(trace.average_negativity - 0.6 / 5) < 1e-10

    def test_agrees_with_two_qubit_protocol_at_d2(self):
        for p in np.linspace(0.0, 1.0, 11):
            qudit_avg = run_qudit(2, depolarizing(2, p)).average_negativity
            pair_avg = run_two_qubit(depolarizing(2, p)).average_negativity
            assert abs(qudit_avg - pair_avg) < 1e-10

    def test_identity_chain(self):
        for d, ch in ((3, depolarizing(3, 0.35)), (4, amplitude_damping(4, 0.6))):
            report = verify_identity_chain(run_qudit(d, ch))
            assert report.passed, report.per_chain


class TestMonotonicityAndSeparability:
    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_two_qubit_average_nonincreasing(self, kind):
        factory = depolarizing if kind == "depolarizing" else amplitude_damping
        values = [
            run_two_qubit(factory(2, x)).average_negativity
            for x in np.linspace(0.0, 1.0, 11)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_ghz_averages_nonincreasing(self, kind):
        factory = depolarizing if kind == "depolarizing" else amplitude_damping
        traces = [run_ghz(factory(2, x)) for x in np.linspace(0.0, 1.0, 11)]
        for name in ("a|bc", "b|ac"):
            values = [t.averages[name] for t in traces]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_separability_audit_over_grids(self):
        for x in np.linspace(0.0, 1.0, 6):
            assert separability_audit(run_two_qubit(depolarizing(2, x))).passed
            assert separability_audit(run_ghz(amplitude_damping(2, x))).passed
            assert separability_audit(run_qudit(3, depolarizing(3, x))).passed


class TestClosedFormRegistry:
    def test_noiseless_endpoints(self):
        assert abs(closed_form("two_qubit_depolarizing_average_negativity", p=0.0) - 1 / 3) < 1e-15
        assert closed_form("two_qubit_depolarizing_average_negativity", p=2 / 3) < 1e-15
        assert abs(closed_form("ghz_depolarizing_negativity_a_bc", p=2 / 3)) < 1e-15

    def test_qudit_formula_reduces_to_pair_formula(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert abs(
                closed_form("qudit_depolarizing_average_negativity", d=2, p=p)
                - closed_form("two_qubit_depolarizing_average_negativity", p=p)
            ) < 1e-15

    def test_every_formula_is_finite_on_domain(self):
        for fid, formula in FORMULAS.items():
            # a curve registered with the wrong arity fails here, not mid-sweep
            assert len(inspect.signature(formula.fn).parameters) == len(formula.params), fid
            params = {}
            if "d" in formula.params:
                params["d"] = 3
            for name in formula.params:
                if name != "d":
                    params[name] = 0.37
            assert np.isfinite(closed_form(fid, **params))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            closed_form("two_qubit_dephasing_average")

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            closed_form("two_qubit_depolarizing_average_negativity", p=1.3)
        with pytest.raises(ValueError):
            closed_form("qudit_depolarizing_critical_noise", d=1)
        with pytest.raises(ValueError):
            closed_form("two_qubit_depolarizing_average_negativity")
        with pytest.raises(ValueError):
            closed_form("two_qubit_depolarizing_average_negativity", p=0.5, gamma=0.5)

    def test_non_integral_dimension_rejected(self):
        fid = "qudit_depolarizing_average_negativity"
        for d in (2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=rf"integer >= 2, got {d}"):
                closed_form(fid, d=d, p=0.1)
        assert closed_form(fid, d=3.0, p=0.1) == closed_form(fid, d=3, p=0.1)


class TestTwoQubitIsQuditAtDTwo:
    """The two-qubit protocol is the qudit one at d = 2; the two-qubit
    probabilistic closed forms are registered as the qudit ones at d = 2."""

    @pytest.mark.parametrize("make", [depolarizing, amplitude_damping])
    def test_runs_agree_bit_for_bit_on_the_lattice(self, make):
        pairs = [
            ("a|bc@channel", "a|bc@channel"),
            ("a|bc@bob_cnot", "a|bc@bob_inverse_cnot"),
            ("b|ac@bob_cnot", "b|ac@bob_inverse_cnot"),
            ("a|b@success", "a|b@success"),
        ]
        for x in np.linspace(0.0, 1.0, 201):
            ch = make(2, x)
            pair, qudit = run_two_qubit(ch), run_qudit(2, ch)
            assert pair.success_probability == qudit.success_probability, x
            assert pair.average_negativity == qudit.average_negativity, x
            for key, qudit_key in pairs:
                assert pair.value_of(key) == qudit.value_of(qudit_key), (x, key)


class TestCriticalNoise:
    def test_analytic_ramp(self):
        found = critical_noise(lambda x: max(0.0, 0.5 - x))
        assert abs(found - 0.5) < 1e-11

    def test_positive_everywhere_returns_hi(self):
        assert critical_noise(lambda x: 1.0) == 1.0

    def test_zero_everywhere_returns_lo(self):
        assert critical_noise(lambda x: 0.0) == 0.0

    @pytest.mark.parametrize(
        "fn, at",
        [
            (lambda x: float("nan"), "x=1.0"),
            (lambda x: {0.0: 1.0, 1.0: 0.0}.get(x, float("inf")), "x=0.5"),
        ],
    )
    def test_non_finite_curve_value_rejected(self, fn, at):
        with pytest.raises(ValueError, match=rf"{at}\b.*not finite: (nan|inf)"):
            critical_noise(fn)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("tol", {"tol": 0.0}),
            ("tol", {"tol": -1.0}),
            ("tol", {"tol": float("nan")}),
            ("tol", {"tol": float("inf")}),
            ("zero_atol", {"zero_atol": float("nan")}),
            ("lo", {"lo": float("nan")}),
            ("lo", {"lo": float("-inf")}),
            ("hi", {"hi": float("nan")}),
            ("hi", {"hi": float("inf")}),
            ("lo", {"lo": 0.8, "hi": 0.2}),
        ],
    )
    def test_bad_arguments_rejected_before_any_evaluation(self, name, kwargs):
        def fn(x):
            pytest.fail(f"fn evaluated at {x} despite bad arguments {kwargs}")

        with pytest.raises(ValueError, match=rf"^{name}\b"):
            critical_noise(fn, **kwargs)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_linear_qudit_curve_takes_five_evaluations(self, d):
        calls = []

        def fn(x):
            calls.append(x)
            return protocols.qudit_average_only(d, "depolarizing", x)

        found = critical_noise(fn)
        assert len(calls) == 5
        assert abs(found - d / (d + 1)) < 1e-9

    @pytest.mark.parametrize("d", range(2, MAX_DIM_CEILING + 1))
    def test_qudit_root_is_d_over_d_plus_one_up_to_the_ceiling(self, d):
        """The simulated root, not the closed form: the driver's qudit average
        at every admitted d, entry stacks from d = 4 on."""
        calls = []

        def fn(x):
            calls.append(x)
            return protocols.qudit_average_only(d, "depolarizing", x)

        found = critical_noise(fn)
        assert len(calls) == 5
        assert abs(found - d / (d + 1)) <= CLOSED_FORM_ATOL

    @pytest.mark.parametrize(
        "side, ulps",
        [
            pytest.param(side, k, id=f"{side}" if k == 0 else f"{side}{k:+d}ulp")
            for side in (0, 1)
            for k in range(-4, 5)
        ],
    )
    def test_kinked_ghz_curves_land_on_the_bisection_root(self, side, ulps):
        """The GHZ a|bc and b|ac averages have kinks where a branch's
        negativity vanishes, so the secant steps are not exact there. Scaled by
        1 + ulps * 2^-52, a curve moves by rounding noise only, which must not
        steer the search."""
        calls = []

        def fn(x):
            calls.append(x)
            return protocols.ghz_average_only("depolarizing", x, side) * (1 + ulps * 2.0**-52)

        found = critical_noise(fn)
        assert len(calls) <= 13
        assert abs(found - _bisection_root(fn)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        curve=st.sampled_from(
            ["power0.5", "power1", "power2", "power3", "power4", "exp", "quadratic", "step"]
        ),
        r=st.floats(0.01, 0.99),
        a=st.floats(0.01, 5.0),
    )
    def test_contract_on_cheap_curves(self, curve, r, a):
        def shape(x):
            if x >= r:
                return 0.0
            if curve.startswith("power"):
                return a * (r - x) ** float(curve[5:])
            if curve == "exp":
                return max(0.0, np.exp(-a * x) - np.exp(-a * r))
            if curve == "quadratic":
                return a * (r - x) * (r - x + 0.3)
            return a

        calls = []

        def fn(x):
            calls.append(x)
            return shape(x)

        tol = zero_atol = 1e-12
        x = critical_noise(fn, zero_atol=zero_atol, tol=tol)
        assert len(calls) <= 52
        assert shape(x - tol) > zero_atol >= shape(x + tol)


def _bisection_root(fn, lo=0.0, hi=1.0, zero_atol=1e-12, tol=1e-12):
    """Plain bisection for the boundary where ``fn`` falls to ``zero_atol``."""
    low, high = lo, hi
    while high - low > tol:
        mid = 0.5 * (low + high)
        if fn(mid) > zero_atol:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


class TestRecordedAverages:
    """``averages`` is summed from the recorded branch negativities; it must
    equal ``average_negativity`` over the branches bit for bit."""

    @pytest.mark.parametrize(
        "protocol, run",
        [
            ("two_qubit", lambda ch: run_two_qubit(ch)),
            ("ghz", lambda ch: run_ghz(ch)),
            ("qudit", lambda ch: run_qudit(2, ch)),
        ],
    )
    @pytest.mark.parametrize("channel", ["depolarizing", "amplitude_damping", "random"])
    def test_averages_equal_average_negativity(self, protocol, run, channel):
        if channel == "random":
            # this draw leaves entanglement on the success branch of every protocol
            ch = sample_cp_canonical(np.random.default_rng(102))
        else:
            ch = depolarizing(2, 0.3) if channel == "depolarizing" else amplitude_damping(2, 0.4)
        trace = run(ch)
        spec = SPECS[protocol, "probabilistic"]
        rest = len(spec.subsystems) - len(spec.measured)
        assert len(trace.averages) == len(spec.finish)
        assert trace.average_negativity > 0.0
        for name, side in zip(trace.averages, spec.finish):
            part = Bipartition.split(side, rest)
            assert trace.averages[name] == average_negativity(trace.branches, part)

    def test_qudit_averages_above_two(self):
        trace = run_qudit(4, depolarizing(4, 0.1))
        part = Bipartition.split({0}, 2)
        assert trace.averages["a|b"] == average_negativity(trace.branches, part)


class TestSharedChannelChecks:
    def test_shared_ghz_channel_checked_once(self, monkeypatch):
        calls = []
        stacked = protocols._cpt_reports

        def counting(t4, *args, **kwargs):
            calls.extend(t4)
            return stacked(t4, *args, **kwargs)

        monkeypatch.setattr(protocols, "_cpt_reports", counting)
        run_ghz(depolarizing(2, 0.3))
        assert len(calls) == 1
        ch = amplitude_damping(2, 0.2)
        run_ghz(ch, ch)
        assert len(calls) == 2
        run_ghz(depolarizing(2, 0.3), amplitude_damping(2, 0.2))
        assert len(calls) == 4

    def test_shared_non_canonical_channel_warns_for_both_roles(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        trace = run_ghz(KrausChannel((h,)))
        assert any(w.startswith("channel on d1 is not Bloch-diagonal") for w in trace.warnings)
        assert any(w.startswith("channel on d2 is not Bloch-diagonal") for w in trace.warnings)

    def test_shared_non_cpt_channel_names_first_role(self):
        with pytest.raises(ValueError, match="channel on d1 is not a CPT map"):
            run_ghz(canonical_channel(1.0, 1.0, -1.0, 0.0))


class TestStatesAdmission:
    """Each ``*_states`` function refuses what the matching ``run_*`` refuses,
    with the same message."""

    def assert_same_refusal(self, run, states):
        with pytest.raises(ValueError) as refused:
            run()
        with pytest.raises(ValueError) as states_refused:
            states()
        assert str(states_refused.value) == str(refused.value)
        return str(refused.value)

    def test_wrong_dimension(self):
        ch = depolarizing(2, 0.1)
        message = self.assert_same_refusal(
            lambda: run_qudit(3, ch), lambda: qudit_states(3, ch)
        )
        assert message == "communication channel has dimension 2; the register needs 3"
        ch = depolarizing(3, 0.1)
        self.assert_same_refusal(lambda: run_two_qubit(ch), lambda: two_qubit_states(ch))
        self.assert_same_refusal(
            lambda: run_ghz(depolarizing(2, 0.1), ch),
            lambda: ghz_states(depolarizing(2, 0.1), ch),
        )

    def test_non_cpt(self):
        ch = canonical_channel(1.0, 1.0, -1.0, 0.0)
        message = self.assert_same_refusal(
            lambda: run_two_qubit(ch), lambda: two_qubit_states(ch)
        )
        assert message.startswith("communication channel is not a CPT map")
        self.assert_same_refusal(lambda: run_qudit(2, ch), lambda: qudit_states(2, ch))
        self.assert_same_refusal(
            lambda: run_ghz(depolarizing(2, 0.1), ch),
            lambda: ghz_states(depolarizing(2, 0.1), ch),
        )

    def test_non_covariant_above_two(self):
        ch = KrausChannel(tuple(stinespring_kraus(7, 3)))
        message = self.assert_same_refusal(
            lambda: run_qudit(3, ch), lambda: qudit_states(3, ch)
        )
        assert "phase-covariant" in message


angle = st.floats(0.0, 2 * np.pi, exclude_max=True)


class TestExtremePoints:
    @settings(deadline=None, max_examples=50)
    @given(angle, angle)
    def test_identity_chains_hold_at_extreme_points(self, u, v):
        # The Ruskai-Szarek-Werner extreme points of the canonical qubit maps.
        ch = canonical_channel(
            np.cos(u), np.cos(v), np.cos(u) * np.cos(v), np.sin(u) * np.sin(v)
        )
        assert is_cpt(ch)
        assert is_extreme_point(ch)
        assert verify_identity_chain(run_two_qubit(ch)).passed
        assert verify_identity_chain(run_ghz(ch)).passed


seed = st.integers(0, 2**32 - 1)
probability = st.floats(0.0, 1.0)

# Every protocol entry that runs at d = 2.
QUBIT_RUNS = (
    run_two_qubit,
    lambda ch: run_two_qubit(ch, mode="deterministic"),
    run_ghz,
    lambda ch: run_qudit(2, ch),
)


def assert_admitted(ch, d):
    """The channel passes the admission rule and every run under it (every
    entry at d = 2, the qudit run above) keeps its identity chains and its
    separable exchange, without a warning."""
    assert has_canonical_form(ch)
    for run in QUBIT_RUNS if d == 2 else (lambda ch: run_qudit(d, ch),):
        trace = run(ch)
        assert verify_identity_chain(trace).max_deviation <= CHAIN_ATOL
        assert separability_audit(trace).max_negativity <= SEPARABILITY_ATOL
        assert trace.warnings == []


class TestAdmittedClass:
    """Phase-covariant channels are the admitted class: an empirical class,
    held to the identity chains here rather than proved."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 5), seed)
    def test_z_twirled_random_channels(self, d, s):
        assert_admitted(KrausChannel(tuple(z_twirl(stinespring_kraus(s, d), d))), d)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(3, 5), seed)
    def test_weyl_diagonal_channels(self, d, s):
        weights = np.random.default_rng(s).dirichlet(np.ones(d * d)).reshape(d, d)
        assert_admitted(KrausChannel(tuple(weyl_diagonal_kraus(weights))), d)

    def test_identity_kraus_channel_above_two(self):
        assert_admitted(KrausChannel(tuple(np.eye(3, dtype=complex)[None])), 3)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_random_channel_refused_before_any_state(self, d, monkeypatch):
        ch = KrausChannel(tuple(stinespring_kraus(11, d)))
        assert is_cpt(ch) and not has_canonical_form(ch)

        def evolve(*args):
            raise AssertionError("a refused channel reached _evolve")

        monkeypatch.setattr(protocols, "_evolve", evolve)
        with pytest.raises(ValueError, match="communication channel is not phase-covariant"):
            run_qudit(d, ch)

    def test_random_qubit_channel_warns_and_breaks_the_chain(self):
        trace = run_two_qubit(KrausChannel(tuple(stinespring_kraus(11, 2))))
        assert trace.warnings[0].startswith("communication channel is not Bloch-diagonal")
        assert verify_identity_chain(trace).max_deviation > CHAIN_ATOL


class TestExtraCarrierNoise:
    """Extra local noise on the carrier never raises the distributed
    negativity. Depolarizing q after a channel is the same family with
    composed parameters (pinned in test_channels.TestChannelAlgebra)."""

    @settings(deadline=None, max_examples=20)
    @given(seed, probability)
    def test_qubit_entries(self, s, q):
        ch = sample_cp_canonical(np.random.default_rng(s))
        params = (ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
        noisier = canonical_channel(*((1.0 - q) * x for x in params))
        before, after = run_two_qubit(ch), run_two_qubit(noisier)
        for key in ("average_negativity", "a|bc@channel"):
            assert after.value_of(key) <= before.value_of(key) + 1e-12
        assert run_ghz(noisier).averages["a|bc"] <= run_ghz(ch).averages["a|bc"] + 1e-12

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from([3, 4]), probability, probability)
    def test_qudit_depolarizing(self, d, p, q):
        before = run_qudit(d, depolarizing(d, p)).average_negativity
        after = run_qudit(d, depolarizing(d, 1.0 - (1.0 - p) * (1.0 - q))).average_negativity
        assert after <= before + 1e-12
