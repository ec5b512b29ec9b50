"""Acceptance suite: every headline quantity at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one summary line per
criterion.
"""

import numpy as np
import pytest

from edss import (
    amplitude_damping,
    canonical_channel,
    closed_form,
    cnot,
    critical_noise,
    depolarizing,
    edss_initial_two_qubit,
    ghz_initial_state,
    is_cpt,
    qudit_initial_state,
    run_ghz,
    run_qudit,
    run_two_qubit,
    separability_audit,
    verify_identity_chain,
)
from edss.checks import ghz_average_only, qudit_average_only, random_cp_canonical

from explicit_forms import (
    ghz_after_alice_cnots,
    is_extreme_point,
    psi_plus_matrix,
    qudit_after_alice_cnot,
    two_qubit_after_alice_cnot,
    unital_cp_condition,
)

GRID = np.linspace(0.0, 1.0, 21)
DIMS = (2, 3, 4, 5, 6)
KINDS = ("depolarizing", "amplitude_damping")


def channel(kind, d, x):
    return depolarizing(d, x) if kind == "depolarizing" else amplitude_damping(d, x)


def finish(num, description, checks):
    """Print one pass/fail line for a criterion and assert all its checks."""
    failures = [(label, dev, tol) for label, dev, tol in checks if dev > tol]
    worst = max(checks, key=lambda c: c[1] / c[2] if c[2] > 0.0 else c[1])
    status = "PASS" if not failures else "FAIL"
    print(
        f"[{status}] criterion {num}: {description} "
        f"(worst {worst[0]}: {worst[1]:.3e} vs {worst[2]:g})"
    )
    assert not failures, failures


@pytest.fixture(scope="module")
def two_qubit_runs():
    out = {}
    for kind in KINDS:
        out[kind] = {
            "prob": {x: run_two_qubit(channel(kind, 2, x)) for x in GRID},
            "det": {
                x: run_two_qubit(channel(kind, 2, x), mode="deterministic") for x in GRID
            },
        }
    return out


@pytest.fixture(scope="module")
def ghz_runs():
    return {kind: {x: run_ghz(channel(kind, 2, x)) for x in GRID} for kind in KINDS}


@pytest.fixture(scope="module")
def qudit_runs():
    return {
        kind: {d: {x: run_qudit(d, channel(kind, d, x)) for x in GRID} for d in DIMS}
        for kind in KINDS
    }


def test_criterion_01_noiseless_baseline():
    trace = run_two_qubit(depolarizing(2, 0.0))
    checks = [("success probability", abs(trace.success_probability - 1 / 3), 1e-12)]
    post = trace.branches[0].post_state.matrix
    fidelity = float(np.real(np.trace(psi_plus_matrix() @ post)))
    checks.append(("success-state fidelity", 1.0 - fidelity, 1e-12))
    det = run_two_qubit(depolarizing(2, 0.0), mode="deterministic")
    checks.append(
        ("deterministic concurrence", abs(det.deterministic_output.concurrence - 1 / 3), 1e-10)
    )
    finish(1, "noiseless two-qubit baseline", checks)


def test_criterion_02_two_qubit_depolarizing(two_qubit_runs):
    checks = []
    for x in GRID:
        prob = two_qubit_runs["depolarizing"]["prob"][x]
        det = two_qubit_runs["depolarizing"]["det"][x]
        checks.append(
            (
                f"success negativity p={x:.2f}",
                abs(
                    prob.partition_negativities["a|b@success"]
                    - closed_form("two_qubit_depolarizing_success_negativity", p=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"average p={x:.2f}",
                abs(
                    prob.average_negativity
                    - closed_form("two_qubit_depolarizing_average_negativity", p=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"deterministic p={x:.2f}",
                abs(
                    det.deterministic_output.negativity
                    - closed_form("two_qubit_depolarizing_deterministic_negativity", p=x)
                ),
                1e-9,
            )
        )
        if x >= 2 / 3 - 1e-12:
            checks.append(
                (f"average beyond critical p={x:.2f}", prob.average_negativity, 1e-9)
            )
    # deterministic threshold (3 - sqrt(5))/2 ~ 0.382: sign change within one step
    below = two_qubit_runs["depolarizing"]["det"][GRID[7]].deterministic_output.negativity
    above = two_qubit_runs["depolarizing"]["det"][GRID[8]].deterministic_output.negativity
    threshold = (3.0 - np.sqrt(5.0)) / 2.0
    assert GRID[7] < threshold < GRID[8]
    checks.append(("deterministic positive below threshold", 1e-3 - below, 0.0))
    checks.append(("deterministic zero above threshold", above, 1e-9))
    finish(2, "two-qubit depolarizing curves and critical points", checks)


def test_criterion_03_two_qubit_amplitude_damping(two_qubit_runs):
    checks = []
    for x in GRID:
        prob = two_qubit_runs["amplitude_damping"]["prob"][x]
        det = two_qubit_runs["amplitude_damping"]["det"][x]
        checks.append(
            (
                f"average g={x:.2f}",
                abs(
                    prob.average_negativity
                    - closed_form("two_qubit_amplitude_damping_average_negativity", gamma=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"deterministic g={x:.2f}",
                abs(
                    det.deterministic_output.negativity
                    - closed_form(
                        "two_qubit_amplitude_damping_deterministic_negativity", gamma=x
                    )
                ),
                1e-9,
            )
        )
    finish(3, "two-qubit amplitude damping curves", checks)


def test_criterion_04_identity_chain_random_channels():
    rng = np.random.default_rng(20230711)
    checks = []
    for i in range(50):
        ch = random_cp_canonical(rng)
        report = verify_identity_chain(run_two_qubit(ch))
        checks.append((f"chain spread sample {i}", report.max_deviation, 1e-9))
    finish(4, "identity chain over 50 random CP canonical channels", checks)


def test_criterion_05_ghz_depolarizing(ghz_runs):
    checks = []
    for x in GRID:
        trace = ghz_runs["depolarizing"][x]
        parts = trace.partition_negativities
        checks.append(
            (
                f"success probability p={x:.2f}",
                abs(
                    trace.success_probability
                    - closed_form("ghz_depolarizing_success_probability", p=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"a-vs-rest p={x:.2f}",
                abs(
                    parts["a|bc@success"]
                    - closed_form("ghz_depolarizing_negativity_a_bc", p=x)
                ),
                1e-9,
            )
        )
        for name in ("b|ac@success", "c|ab@success"):
            checks.append(
                (
                    f"{name} p={x:.2f}",
                    abs(parts[name] - closed_form("ghz_depolarizing_negativity_b_ac", p=x)),
                    1e-9,
                )
            )
        for pair in ("ab", "bc", "ac"):
            checks.append(
                (f"pairwise {pair} p={x:.2f}", parts[f"{pair}_pair@success"], 1e-9)
            )
        report = verify_identity_chain(trace)
        checks.append((f"a-side chain p={x:.2f}", report.per_chain["a_side"], 1e-9))
        checks.append((f"b-side chain p={x:.2f}", report.per_chain["b_side"], 1e-9))
    crit_a = critical_noise(lambda x: ghz_average_only("depolarizing", x, side=0))
    crit_b = critical_noise(lambda x: ghz_average_only("depolarizing", x, side=1))
    checks.append(("a-side critical point", abs(crit_a - 2 / 3), 1e-9))
    checks.append(
        ("b-side critical point", abs(crit_b - (np.sqrt(5) - 1) / np.sqrt(5)), 1e-9)
    )
    finish(5, "GHZ depolarizing curves, pair separability, chains", checks)


def test_criterion_06_ghz_amplitude_damping(ghz_runs):
    checks = []
    for x in GRID:
        trace = ghz_runs["amplitude_damping"][x]
        parts = trace.partition_negativities
        checks.append(
            (
                f"success probability g={x:.2f}",
                abs(
                    trace.success_probability
                    - closed_form("ghz_amplitude_damping_success_probability", gamma=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"a-vs-rest g={x:.2f}",
                abs(
                    parts["a|bc@success"]
                    - closed_form("ghz_amplitude_damping_negativity_a_bc", gamma=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"b-vs-rest g={x:.2f}",
                abs(
                    parts["b|ac@success"]
                    - closed_form("ghz_amplitude_damping_negativity_b_ac", gamma=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"a average g={x:.2f}",
                abs(
                    trace.averages["a|bc"]
                    - closed_form("ghz_amplitude_damping_average_a_bc", gamma=x)
                ),
                1e-9,
            )
        )
        checks.append(
            (
                f"b average g={x:.2f}",
                abs(
                    trace.averages["b|ac"]
                    - closed_form("ghz_amplitude_damping_average_b_ac", gamma=x)
                ),
                1e-9,
            )
        )
    finish(6, "GHZ amplitude damping curves", checks)


def test_criterion_07_qudit_depolarizing(qudit_runs, two_qubit_runs):
    checks = []
    for d in DIMS:
        for x in GRID:
            trace = qudit_runs["depolarizing"][d][x]
            checks.append(
                (
                    f"average d={d} p={x:.2f}",
                    abs(
                        trace.average_negativity
                        - closed_form("qudit_depolarizing_average_negativity", d=d, p=x)
                    ),
                    1e-9,
                )
            )
        found = critical_noise(lambda x: qudit_average_only(d, "depolarizing", x))
        checks.append((f"critical point d={d}", abs(found - d / (d + 1)), 1e-9))
    for x in GRID:
        checks.append(
            (
                f"d=2 matches two-qubit p={x:.2f}",
                abs(
                    qudit_runs["depolarizing"][2][x].average_negativity
                    - two_qubit_runs["depolarizing"]["prob"][x].average_negativity
                ),
                1e-10,
            )
        )
    finish(7, "qudit depolarizing averages and critical noise, d=2..6", checks)


def test_criterion_08_qudit_amplitude_damping(qudit_runs):
    checks = []
    for d in DIMS:
        for x in GRID:
            trace = qudit_runs["amplitude_damping"][d][x]
            checks.append(
                (
                    f"average d={d} g={x:.2f}",
                    abs(
                        trace.average_negativity
                        - closed_form("qudit_amplitude_damping_average_negativity", d=d, gamma=x)
                    ),
                    1e-9,
                )
            )
            report = verify_identity_chain(trace)
            checks.append(
                (f"chain d={d} g={x:.2f}", report.max_deviation, 1e-9)
            )
    finish(8, "qudit amplitude damping averages and block-diagonal chain", checks)


def test_criterion_09_separability_audit(two_qubit_runs, ghz_runs, qudit_runs):
    checks = []
    for kind in KINDS:
        for x in GRID:
            for mode in ("prob", "det"):
                report = separability_audit(two_qubit_runs[kind][mode][x])
                checks.append(
                    (f"two_qubit {kind} {mode} x={x:.2f}", report.max_negativity, 1e-9)
                )
            report = separability_audit(ghz_runs[kind][x])
            checks.append((f"ghz {kind} x={x:.2f}", report.max_negativity, 1e-9))
            for d in DIMS:
                report = separability_audit(qudit_runs[kind][d][x])
                checks.append(
                    (f"qudit {kind} d={d} x={x:.2f}", report.max_negativity, 1e-9)
                )
    finish(9, "exchange subsystems stay PPT at every step", checks)


def test_criterion_10_state_construction_oracles():
    checks = []
    rho1 = cnot(edss_initial_two_qubit(), 0, 2)
    checks.append(
        (
            "two-qubit post-CNOT form",
            float(np.max(np.abs(rho1.matrix - two_qubit_after_alice_cnot()))),
            1e-10,
        )
    )
    sigma1 = cnot(cnot(ghz_initial_state(), 0, 3), 0, 4)
    checks.append(
        (
            "ghz post-CNOT form",
            float(np.max(np.abs(sigma1.matrix - ghz_after_alice_cnots()))),
            1e-10,
        )
    )
    for d in DIMS:
        omega1 = cnot(qudit_initial_state(d), 0, 2)
        checks.append(
            (
                f"qudit post-CNOT form d={d}",
                float(np.max(np.abs(omega1.matrix - qudit_after_alice_cnot(d)))),
                1e-10,
            )
        )
    finish(10, "printed CNOT images of all start states", checks)


def test_criterion_11_channel_validation():
    rng = np.random.default_rng(424242)
    checks = []
    disagreements = 0
    for _ in range(1000):
        l1, l2, l3 = rng.uniform(-1.0, 1.0, 3)
        choi_says = bool(is_cpt(canonical_channel(l1, l2, l3, 0.0)))
        form_says = unital_cp_condition(l1, l2, l3, tol=1e-9)
        disagreements += choi_says != form_says
    checks.append(("unital CP agreement (of 1000)", float(disagreements), 0.0))
    for g in GRID:
        ch = canonical_channel(np.sqrt(1 - g), np.sqrt(1 - g), 1 - g, g)
        checks.append((f"damping extreme g={g:.2f}", 0.0 if is_extreme_point(ch) else 1.0, 0.0))
    for p in GRID[1:-1]:
        checks.append(
            (
                f"depolarizing not extreme p={p:.2f}",
                1.0 if is_extreme_point(depolarizing(2, p)) else 0.0,
                0.0,
            )
        )
    finish(11, "CPT and extreme-point validation", checks)
