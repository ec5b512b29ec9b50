"""Entanglement distribution by separable states (EDSS) under noisy channels.

A dense density-operator simulator for the two-qubit, three-qubit GHZ and
d-level pair distribution protocols, with negativity/concurrence measures,
closed-form cross-checks, and a sweep CLI.
"""

from .channels import (
    CanonicalChannel,
    CptReport,
    DepolarizingChannel,
    KrausChannel,
    QuditChannel,
    amplitude_damping,
    apply_to_subsystem,
    canonical_channel,
    channel_from_config,
    depolarizing,
    identity_channel,
    is_cpt,
)
from .checks import CheckResult, run_checks
from .measures import NegativityResult, average_negativity, concurrence, negativity
from .protocols import (
    ChainReport,
    DeterministicOutcome,
    ProtocolTrace,
    SeparabilityReport,
    critical_noise,
    ghz_states,
    qudit_states,
    run_ghz,
    run_qudit,
    run_two_qubit,
    separability_audit,
    two_qubit_states,
    verify_identity_chain,
)
from .reference import FORMULAS, Formula, closed_form
from .states import (
    MeasurementBranch,
    bob_deterministic_map,
    cnot,
    edss_initial_two_qubit,
    ghz_initial_state,
    measure_computational,
    qudit_initial_state,
)
from .sweep import SweepError, SweepResult, SweepSpec, run_sweep
from .tensor import (
    Bipartition,
    DensityOperator,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)

__all__ = [
    "Bipartition",
    "CanonicalChannel",
    "ChainReport",
    "CheckResult",
    "CptReport",
    "DensityOperator",
    "DepolarizingChannel",
    "DeterministicOutcome",
    "FORMULAS",
    "Formula",
    "KrausChannel",
    "MeasurementBranch",
    "NegativityResult",
    "ProtocolTrace",
    "QuditChannel",
    "SeparabilityReport",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "amplitude_damping",
    "apply_to_subsystem",
    "average_negativity",
    "bob_deterministic_map",
    "canonical_channel",
    "channel_from_config",
    "closed_form",
    "cnot",
    "concurrence",
    "critical_noise",
    "depolarizing",
    "edss_initial_two_qubit",
    "ghz_initial_state",
    "ghz_states",
    "hermitian_eigenvalues",
    "identity_channel",
    "is_cpt",
    "measure_computational",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "qudit_initial_state",
    "qudit_states",
    "run_checks",
    "run_ghz",
    "run_qudit",
    "run_sweep",
    "run_two_qubit",
    "separability_audit",
    "two_qubit_states",
    "verify_identity_chain",
]

__version__ = "0.1.0"
